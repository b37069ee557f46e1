"""Combined planning-trace view: span tree plus execution timeline.

The span tree (:func:`repro.telemetry.render_span_tree`) shows where
*planning wall time* went -- tiling, batching, schedule build, the
``best``-mode candidate simulations; the ASCII timeline
(:func:`repro.analysis.timeline.render_timeline`) shows where
*simulated device time* goes for the plan that won.  Rendering them
together is the one-page diagnostic for "why did planning take this
long, and was the schedule worth it".
"""

from __future__ import annotations

from typing import Optional, Union

from repro.analysis.timeline import render_timeline
from repro.gpu.specs import DeviceSpec
from repro.telemetry import Span, Tracer, render_span_tree


def render_plan_trace(
    tracer: Union[Tracer, Span],
    device: Optional[DeviceSpec] = None,
    report=None,
    width: int = 72,
    max_slots: int = 8,
) -> str:
    """Render a recorded trace, optionally alongside a plan's timeline.

    Parameters
    ----------
    tracer:
        A recording tracer (or a single span subtree) captured around
        planning, e.g. via ``with tracing() as t: fw.plan(batch)``.
    device, report:
        When both are given, the plan's simulated block timeline is
        appended under the span tree (``report`` is a
        :class:`~repro.core.framework.PlanReport`).
    width, max_slots:
        Forwarded to the timeline renderer.
    """
    sections = ["planning trace:", render_span_tree(tracer)]
    if isinstance(tracer, Tracer):
        counters = tracer.metrics.to_dict()["counters"]
        if counters:
            sections.append(
                "counters: "
                + ", ".join(f"{k}={v}" for k, v in counters.items())
            )
    if device is not None and report is not None:
        sections.append("")
        sections.append("simulated schedule timeline:")
        sections.append(
            render_timeline(
                device, report.kernel_launch(), width=width, max_slots=max_slots
            )
        )
    return "\n".join(sections)
