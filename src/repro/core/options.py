"""Typed planning options: the :class:`Heuristic` enum and
:class:`PlanOptions`.

Historically the planning entry points took bare strings
(``plan(batch, heuristic="best")``) and spread the remaining knobs
(theta, TLP threshold, precision) across the device spec and the
framework constructor.  :class:`PlanOptions` gathers them into one
frozen, hashable value object that :meth:`CoordinatedFramework.plan`,
:meth:`CoordinatedFramework.simulate` and :meth:`PlanCache.plan`
accept, and that :class:`~repro.core.framework.PlanReport` records in
resolved form -- so a report (and a cache key) states exactly what was
planned, under exactly which knobs.

A heuristic may be spelled as a :class:`Heuristic` member or as its
string value (``"best"``, ``"one-per-block"``): the CLIs, workload
JSON, ``ServeConfig.heuristic`` and the selector's labels all carry
strings, and :meth:`Heuristic.coerce` maps them onto members.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.core.precision import Precision

#: Precisions the device cost model prices (storage dtypes; see
#: :class:`repro.core.precision.Precision`).
PRECISIONS = tuple(p.value for p in Precision)


class Heuristic(enum.Enum):
    """The batching-heuristic choices the planner accepts.

    ``THRESHOLD``/``BINARY`` are the paper's two heuristics;
    ``ONE_PER_BLOCK`` disables ILP batching (the Figure 8 "tiling"
    configuration); ``GREEDY_PACKING``/``BALANCED`` are this library's
    future-work extensions; ``BEST`` tries both paper heuristics and
    keeps the faster (the offline mode), ``BEST_EXTENDED`` also tries
    the extensions; ``AUTO`` asks the random-forest selector (the
    online mode).
    """

    THRESHOLD = "threshold"
    BINARY = "binary"
    ONE_PER_BLOCK = "one-per-block"
    GREEDY_PACKING = "greedy-packing"
    BALANCED = "balanced"
    BEST = "best"
    BEST_EXTENDED = "best-extended"
    AUTO = "auto"

    def __str__(self) -> str:
        return self.value

    @property
    def is_meta(self) -> bool:
        """True for choices that resolve to a concrete heuristic."""
        return self in (Heuristic.BEST, Heuristic.BEST_EXTENDED, Heuristic.AUTO)

    @classmethod
    def coerce(cls, value: Union["Heuristic", str]) -> "Heuristic":
        """Accept an enum member or its string name.

        Strings are matched case-insensitively against member values
        (``"best"``, ``"one-per-block"``, ...).  Unknown strings raise
        :class:`ValueError`.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.strip().lower())
            except ValueError:
                known = ", ".join(m.value for m in cls)
                raise ValueError(
                    f"unknown heuristic {value!r}; known: {known}"
                ) from None
        raise TypeError(
            f"heuristic must be a Heuristic or str, got {type(value).__name__}"
        )


@dataclass(frozen=True)
class PlanOptions:
    """Everything the planner is allowed to vary, in one value object.

    Parameters
    ----------
    heuristic:
        A :class:`Heuristic` member or its string value.
    theta:
        The batching engine's K-depth target per block; ``None`` means
        the device's calibrated ``batching_theta``.
    tlp_threshold:
        The tiling engine's Eq. 1 threshold; ``None`` means the
        device's calibrated ``tlp_threshold``.
    precision:
        ``"fp32"``, ``"fp16"`` or ``"bf16"`` -- the *storage* precision
        plans are costed (and operands staged) at; ``None`` means the
        framework's configured precision.
    backend:
        A backend spelling accepted by
        :func:`repro.gpu.backends.get_backend` (``"cuda:v100"``,
        ``"systolic"``, ``"sram"``, ...) or a
        :class:`~repro.gpu.backends.BackendSpec`, normalized to the
        backend's canonical name; ``None`` means the framework's
        configured backend.  A planning knob: different backends admit
        different strategy pools, so it participates in
        :meth:`cache_key`.

    A *resolved* options value (see :meth:`resolved`) has no ``None``
    planning fields; :class:`~repro.core.framework.PlanReport` and
    :class:`~repro.core.plancache.PlanCache` only ever hold resolved
    options, so two plans agree on their cache key iff every planning
    knob agrees.
    """

    heuristic: Heuristic = Heuristic.BEST
    theta: Optional[int] = None
    tlp_threshold: Optional[int] = None
    precision: Optional[str] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "heuristic", Heuristic.coerce(self.heuristic)
        )
        if self.theta is not None and self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.tlp_threshold is not None and self.tlp_threshold <= 0:
            raise ValueError(
                f"tlp_threshold must be positive, got {self.tlp_threshold}"
            )
        if self.precision is not None:
            if self.precision not in PRECISIONS:
                raise ValueError(
                    f"precision must be one of {PRECISIONS}, got {self.precision!r}"
                )
            object.__setattr__(
                self, "precision", Precision.coerce(self.precision).value
            )
        if self.backend is not None:
            # Normalize any accepted spelling (or a BackendSpec) to the
            # canonical name so equal backends produce equal cache keys.
            from repro.gpu.backends import get_backend

            try:
                object.__setattr__(
                    self, "backend", get_backend(self.backend).name
                )
            except KeyError:
                # A "cuda:<device>" name whose device is not in the
                # registry: custom DeviceSpecs (deserialized or built in
                # code) are legal framework devices, and the framework
                # stamps their canonical backend name into resolved
                # options.  Keep the spelling; resolution against the
                # framework's own backend happens by name equality.
                if not str(self.backend).startswith("cuda:"):
                    raise

    @classmethod
    def of(
        cls, value: Union["PlanOptions", Heuristic, str, None]
    ) -> "PlanOptions":
        """Normalize any accepted planning spec to options.

        ``None`` means defaults; a :class:`Heuristic` or string selects
        the heuristic with every other knob defaulted; an existing
        :class:`PlanOptions` passes through.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        return cls(heuristic=Heuristic.coerce(value))

    def resolved(
        self,
        theta: int,
        tlp_threshold: int,
        precision: str,
        backend: Optional[str] = None,
    ) -> "PlanOptions":
        """Fill every ``None`` field from the given defaults.

        ``backend=None`` (the historical three-argument call) leaves
        the backend field as-is; the framework always passes its
        configured backend's canonical name.
        """
        return replace(
            self,
            theta=self.theta if self.theta is not None else theta,
            tlp_threshold=(
                self.tlp_threshold
                if self.tlp_threshold is not None
                else tlp_threshold
            ),
            precision=self.precision if self.precision is not None else precision,
            backend=self.backend if self.backend is not None else backend,
        )

    @property
    def is_resolved(self) -> bool:
        return (
            self.theta is not None
            and self.tlp_threshold is not None
            and self.precision is not None
        )

    def cache_key(self) -> tuple:
        """The hashable identity a plan cache must key on.

        Includes every planning knob -- the same batch planned under
        two different heuristics (or thetas, or precisions) must not
        alias one cache entry.
        """
        return (
            self.heuristic.value,
            self.theta,
            self.tlp_threshold,
            self.precision,
            self.backend,
        )

    def to_dict(self) -> dict:
        """JSON-compatible form (used by trace attributes and reports)."""
        return {
            "heuristic": self.heuristic.value,
            "theta": self.theta,
            "tlp_threshold": self.tlp_threshold,
            "precision": self.precision,
            "backend": self.backend,
        }
