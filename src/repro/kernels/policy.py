"""The execution policy: one object for "how should this batch run".

Every execution surface -- :meth:`CoordinatedFramework.execute`,
:meth:`PlanCache.execute`, ``ServeConfig``, the strided adapter --
takes its execution knobs as one frozen :class:`ExecutionPolicy`, the
way planning knobs travel as one
:class:`~repro.core.options.PlanOptions`.  There is no other spelling:
a bare engine-name string or a loose ``engine=`` keyword is a
``TypeError``.

The policy is pure data -- it names an engine out of the registry
(:mod:`repro.kernels.engine`) and carries the reliability envelope
(retry policy, fault injector, fallback flag).  Resolution to actual
executors happens at the call sites: :func:`repro.kernels.get_engine`
for the direct path,
:meth:`repro.reliability.ReliableExecutor.from_policy` when
:attr:`ExecutionPolicy.reliable` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.kernels.engine import engine_fallbacks

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a batch should execute: engine and reliability envelope.

    Parameters
    ----------
    engine:
        Name from the engine registry: ``compiled`` (the default) or
        ``reference``.
    fallback:
        Walk the engine's degradation chain
        (:func:`repro.kernels.engine_fallbacks`) on failure.
    retry:
        A :class:`~repro.reliability.RetryPolicy` for transient
        faults (``None`` = the executor's default when reliability is
        engaged).
    injector:
        A :class:`~repro.reliability.FaultInjector` evaluated at the
        ``"engine"`` fault site before every execution (chaos tests).
    precision:
        Optional storage precision (``"fp32"`` / ``"fp16"`` /
        ``"bf16"``) this execution should stage operands at.  ``None``
        defers to the planning options / operand dtype / framework
        default (see :meth:`CoordinatedFramework.execute`); planning
        options that pin a precision win over the policy.
    verify:
        Run the :mod:`repro.kernels.verify` contract on the outputs
        after execution (bit-exact for fp32, per-dtype tolerance for
        fp16/bf16) and raise
        :class:`~repro.kernels.verify.VerificationError` on failure.
    """

    engine: str = "compiled"
    fallback: bool = False
    retry: Optional[Any] = None
    injector: Optional[Any] = None
    precision: Optional[str] = None
    verify: bool = False

    def __post_init__(self):
        """Validate the engine name and precision."""
        engine_fallbacks(self.engine)  # canonical unknown-engine ValueError
        if self.precision is not None:
            from repro.core.precision import Precision

            object.__setattr__(
                self, "precision", Precision.coerce(self.precision).value
            )

    @property
    def reliable(self) -> bool:
        """Whether execution needs the reliability wrapper.

        True when any of fallback / retry / injector is engaged; the
        plain :func:`repro.kernels.get_engine` path suffices otherwise.
        """
        return self.fallback or self.retry is not None or self.injector is not None

    @classmethod
    def of(cls, value) -> "ExecutionPolicy":
        """``None`` as the default policy; a policy as itself.

        Anything else -- an engine-name string included -- raises
        ``TypeError``: spell the engine as
        ``ExecutionPolicy(engine=...)``.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"expected an ExecutionPolicy or None, got {type(value).__name__}"
        )

    def to_dict(self) -> dict:
        """JSON-compatible summary (health endpoints, run manifests)."""
        return {
            "engine": self.engine,
            "fallback": self.fallback,
            "retry": self.retry is not None,
            "injector": self.injector is not None,
            "precision": self.precision,
            "verify": self.verify,
        }
