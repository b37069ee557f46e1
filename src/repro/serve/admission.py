"""Admission control: bounded queueing and deadline-based shedding.

A serving system under overload must refuse work early -- queueing a
request it cannot serve in time wastes planner effort *and* delays the
requests it could have served.  The :class:`AdmissionController`
applies two checks at submission time:

* **backpressure** -- at most ``queue_capacity`` requests may be
  pending in the batcher; beyond that, ``Rejected(queue_full)``.
* **deadline feasibility** -- a request whose absolute deadline is
  closer than the current service-time estimate (an EWMA of observed
  batch latencies, fed back by the workers) cannot be met and is shed
  immediately as ``Rejected(deadline)``.

The estimate starts at zero, so until the first batch completes only
already-expired deadlines are refused; it then sharpens as traffic
flows.

Only completed work moves the estimate, so after an overload burst an
estimate above every deadline would refuse everything forever.  So
once the controller has admitted nothing for longer than its estimate
plus slack (since its last admission, or its first refusal), it admits
the next infeasible request whose deadline has not passed as a
**probe**, whose completion feeds the estimate.

The controller is thread-safe (the wall-clock server calls ``admit``
from the submission thread and ``observe_service`` from workers).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.serve.budget import DeadlineBudget
from repro.serve.request import (
    REASON_DEADLINE,
    REASON_QUEUE_FULL,
    Rejected,
    ServeRequest,
)


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control policy knobs."""

    queue_capacity: int = 64
    #: EWMA smoothing for the service-time estimate (0 < alpha <= 1).
    ewma_alpha: float = 0.2
    #: Extra margin added to the estimate when testing deadlines.
    deadline_slack_us: float = 0.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.deadline_slack_us < 0:
            raise ValueError(
                f"deadline_slack_us must be >= 0, got {self.deadline_slack_us}"
            )


class AdmissionController:
    """Decides, per request, whether the pipeline should accept it."""

    def __init__(self, config: AdmissionConfig | None = None):
        self.config = config if config is not None else AdmissionConfig()
        self._lock = threading.Lock()
        self._service_estimate_us = 0.0
        self._observations = 0
        # Last admission (or first refusal); probes count from it.
        self._quiet_since_us: Optional[float] = None

    @property
    def service_estimate_us(self) -> float:
        """Current EWMA estimate of request service time (0 until fed)."""
        with self._lock:
            return self._service_estimate_us

    def observe_service(self, service_us: float) -> None:
        """Feed back one completed request's arrival-to-finish time."""
        if service_us < 0:
            raise ValueError(f"service_us must be >= 0, got {service_us}")
        with self._lock:
            if self._observations == 0:
                self._service_estimate_us = float(service_us)
            else:
                a = self.config.ewma_alpha
                self._service_estimate_us = (
                    a * float(service_us) + (1.0 - a) * self._service_estimate_us
                )
            self._observations += 1

    def admit(
        self, request: ServeRequest, pending_count: int, now_us: float
    ) -> Optional[Rejected]:
        """``None`` to accept, or the :class:`Rejected` result to return.

        ``pending_count`` is how many admitted requests are already
        waiting (the batcher's depth); the caller holds whatever lock
        makes that count current.

        Deadline feasibility is a :class:`~repro.serve.budget.
        DeadlineBudget` query: the request is admitted iff its budget
        still affords the current service estimate (plus the
        configured slack) -- the entry point of the end-to-end budget
        thread that the batcher, planner, and executor continue -- or
        as a probe (see the module docstring).
        """
        if pending_count >= self.config.queue_capacity:
            return Rejected(
                request_id=request.request_id,
                finish_us=now_us,
                latency_us=max(0.0, now_us - request.arrival_us),
                reason=REASON_QUEUE_FULL,
            )
        budget = DeadlineBudget(request.deadline_us)
        with self._lock:
            estimate = self._service_estimate_us + self.config.deadline_slack_us
            if budget.bounded and not budget.affords(estimate, now_us=now_us):
                if self._quiet_since_us is None:
                    self._quiet_since_us = now_us
                probe = now_us - self._quiet_since_us > estimate
                if not probe or budget.exhausted(now_us):
                    return Rejected(
                        request_id=request.request_id,
                        finish_us=now_us,
                        latency_us=max(0.0, now_us - request.arrival_us),
                        reason=REASON_DEADLINE,
                    )
            self._quiet_since_us = now_us
        return None
