"""The execution policy: one object for "how should this batch run".

Execution knobs used to travel as loose keyword arguments -- the
``engine=`` / ``fallback=`` / ``injector=`` / ``retry=`` sprawl on
:meth:`CoordinatedFramework.execute`, :meth:`PlanCache.execute`,
``ServeConfig`` and the ``repro-serve`` CLI, each surface validating
its own subset.  This
module collapses them into one frozen :class:`ExecutionPolicy`
accepted everywhere, mirroring the PR 1 ``PlanOptions`` migration for
planning knobs: pass the dataclass going forward, and every legacy
kwarg spelling keeps working behind a ``DeprecationWarning`` shim
(:func:`coerce_policy`).

The policy is pure data -- it names an engine out of the typed
registry (:mod:`repro.kernels.engine`) and carries the reliability
envelope (retry policy, fault injector, fallback flag).  Resolution to
actual executors happens at the call sites:
:func:`repro.kernels.get_engine` for the direct path,
:meth:`repro.reliability.ReliableExecutor.from_policy` when
:attr:`ExecutionPolicy.reliable` is set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Optional

from repro.kernels.engine import get_engine_object

__all__ = ["ExecutionPolicy", "coerce_policy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a batch should execute: engine and reliability envelope.

    Parameters
    ----------
    engine:
        Name from the engine registry (``reference`` / ``grouped`` /
        ``compiled``).
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

    engine: str = "grouped"
    fallback: bool = False
    retry: Optional[Any] = None
    injector: Optional[Any] = None
    precision: Optional[str] = None
    verify: bool = False

    def __post_init__(self):
        """Validate the engine name and precision."""
        get_engine_object(self.engine)  # canonical unknown-engine ValueError
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
    def of(cls, value, warn_on_str: bool = True) -> "ExecutionPolicy":
        """Coerce ``value`` into an :class:`ExecutionPolicy`.

        Accepts a policy (returned as-is), ``None`` (the default
        policy), or a bare engine-name string -- the legacy spelling,
        which emits a ``DeprecationWarning`` unless ``warn_on_str`` is
        false.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            if warn_on_str:
                warnings.warn(
                    f"passing engine={value!r} as a bare string is deprecated; "
                    f"use repro.ExecutionPolicy(engine={value!r})",
                    DeprecationWarning,
                    stacklevel=3,
                )
            return cls(engine=value)
        raise TypeError(
            f"expected ExecutionPolicy, engine name, or None; got {type(value).__name__}"
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


def coerce_policy(
    policy: Optional[Any],
    *,
    engine: Optional[str] = None,
    fallback: Optional[bool] = None,
    retry: Optional[Any] = None,
    injector: Optional[Any] = None,
    where: str,
    default_engine: str = "grouped",
    stacklevel: int = 3,
) -> ExecutionPolicy:
    """Merge a ``policy`` argument with legacy kwargs into one policy.

    The back-compat shim every redesigned entry point shares: pass
    ``policy=`` going forward; the old ``engine=`` / ``fallback=`` /
    ``retry=`` / ``injector=`` spellings still work but emit a
    ``DeprecationWarning`` naming ``where``.  Mixing ``policy=`` with
    any legacy kwarg is a ``TypeError`` (ambiguous intent).
    """
    legacy = {
        name: value
        for name, value in (
            ("engine", engine),
            ("fallback", fallback or None),
            ("retry", retry),
            ("injector", injector),
        )
        if value is not None
    }
    if policy is not None:
        if legacy:
            raise TypeError(
                f"{where}: pass either policy= or the legacy "
                f"{'/'.join(sorted(legacy))} keyword(s), not both"
            )
        return ExecutionPolicy.of(policy, warn_on_str=True)
    if not legacy:
        return ExecutionPolicy(engine=default_engine)
    warnings.warn(
        f"{where}: the {'/'.join(sorted(legacy))} keyword(s) are deprecated; "
        f"pass policy=repro.ExecutionPolicy(...) instead",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
    return ExecutionPolicy(
        engine=engine if engine is not None else default_engine,
        fallback=bool(fallback),
        retry=retry,
        injector=injector,
    )
