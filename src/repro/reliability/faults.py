"""Deterministic, seeded fault injection for chaos testing.

Production resilience claims are worthless until failures have been
*rehearsed*.  This module provides the rehearsal harness: a
:class:`FaultPlan` describes **where** and **when** faults fire, and a
:class:`FaultInjector` evaluates that plan at instrumented call sites
(the execution engines, the planner stage, and anything else that
calls :meth:`FaultInjector.check`).

Determinism is the whole design: whether call *n* at a site fires is a
pure function of ``(seed, site, n)`` -- never of wall time, thread
identity, or a shared RNG stream -- so the same plan produces the
byte-identical fault sequence on every run, even when the calls
themselves are issued from a thread pool in nondeterministic order.

Two fault kinds:

* ``error`` -- raise (:class:`InjectedFault` by default, or any named
  builtin exception) at the site;
* ``slow``  -- inject latency: the injector sleeps for ``ms`` (when
  constructed with a real ``sleep``) and reports the penalty to the
  caller, so virtual-time replay can charge it without sleeping.

Trigger selectors (combinable; a call fires when **any** selected
trigger matches):

* ``every=N``  -- 1-based call indexes N, 2N, 3N, ...;
* ``at=A-B+C`` -- explicit indexes and inclusive ranges (``+``-joined,
  since ``,`` separates spec keys);
* ``rate=P``   -- Bernoulli(P) decided by ``hash(seed, site, n)``.

Sites are dotted-ish strings.  The two wired today are ``"engine"``
(every numerical executor call; ``engine=NAME`` narrows a spec to one
engine of the registry, whose calls are counted separately -- a name
the registry does not know is a ``ValueError``, not a spec that never
fires) and ``"planner"`` (every :meth:`PlannerStage.plan`).

CLI shorthand (``repro-serve --inject``)::

    engine_error:every=7            # every 7th engine call raises
    engine_error:engine=compiled,at=1-6
    engine_slow:ms=2.5,rate=0.1
    planner_error:rate=0.05
"""

from __future__ import annotations

import builtins
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.kernels.engine import engine_fallbacks

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "SITE_ENGINE",
    "SITE_PLANNER",
]

#: The instrumented call sites wired into the pipeline.
SITE_ENGINE = "engine"
SITE_PLANNER = "planner"

_KINDS = ("error", "slow")


class InjectedFault(RuntimeError):
    """The default exception a firing ``error`` fault raises."""


def _parse_at(text: str) -> tuple[int, ...]:
    """Parse ``at=`` values: ``+``-joined indexes and ``A-B`` ranges."""
    indexes: list[int] = []
    for item in text.split("+"):
        item = item.strip()
        if not item:
            continue
        if "-" in item:
            lo_s, _, hi_s = item.partition("-")
            lo, hi = int(lo_s), int(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError(f"bad at= range {item!r} (need 1 <= lo <= hi)")
            indexes.extend(range(lo, hi + 1))
        else:
            n = int(item)
            if n < 1:
                raise ValueError(f"at= indexes are 1-based, got {n}")
            indexes.append(n)
    return tuple(sorted(set(indexes)))


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: a site, a kind, and its trigger selectors."""

    site: str
    kind: str = "error"
    every: Optional[int] = None
    at: tuple[int, ...] = ()
    rate: float = 0.0
    #: Latency injected by ``slow`` faults, in milliseconds.
    ms: float = 1.0
    #: Narrow an ``engine``-site spec to one registry engine ("" = all).
    engine: str = ""
    #: Exception class name raised by ``error`` faults.
    exc: str = "InjectedFault"

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault spec needs a site")
        if self.kind not in _KINDS:
            raise ValueError(f"fault kind must be one of {_KINDS}, got {self.kind!r}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every= must be >= 1, got {self.every}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate= must be in [0, 1], got {self.rate}")
        if self.ms < 0:
            raise ValueError(f"ms= must be >= 0, got {self.ms}")
        if self.every is None and not self.at and self.rate == 0.0:
            raise ValueError(
                f"fault spec {self.describe()!r} can never fire: "
                "give it every=, at=, or rate="
            )
        if self.engine:
            engine_fallbacks(self.engine)  # canonical unknown-engine ValueError
        self.exception_type()  # validate eagerly

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one CLI shorthand spec, e.g. ``engine_error:every=7``."""
        head, _, tail = text.partition(":")
        site, sep, kind = head.rpartition("_")
        if not sep or kind not in _KINDS:
            raise ValueError(
                f"bad fault spec {text!r}: expected <site>_<error|slow>[:k=v,...]"
            )
        kwargs: dict = {"site": site, "kind": kind}
        for pair in filter(None, tail.split(",")):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ValueError(f"bad fault spec {text!r}: {pair!r} is not key=value")
            key = key.strip()
            value = value.strip()
            try:
                if key == "every":
                    kwargs["every"] = int(value)
                elif key == "at":
                    kwargs["at"] = _parse_at(value)
                elif key == "rate":
                    kwargs["rate"] = float(value)
                elif key == "ms":
                    kwargs["ms"] = float(value)
                elif key == "engine":
                    kwargs["engine"] = value
                elif key == "exc":
                    kwargs["exc"] = value
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as err:
                raise ValueError(f"bad fault spec {text!r}: {err}") from None
        return cls(**kwargs)

    def exception_type(self) -> type:
        """Resolve ``exc`` to the exception class it names."""
        if self.exc == "InjectedFault":
            return InjectedFault
        resolved = getattr(builtins, self.exc, None)
        if not (isinstance(resolved, type) and issubclass(resolved, Exception)):
            raise ValueError(
                f"exc= must name InjectedFault or a builtin exception, got {self.exc!r}"
            )
        return resolved

    def counter_key(self) -> str:
        """The per-site call counter this spec is evaluated against."""
        return f"{self.site}:{self.engine}" if self.engine else self.site

    def fires(self, n: int, seed: int) -> bool:
        """Whether the spec fires on (1-based) call ``n`` of its counter.

        A pure function of ``(spec, n, seed)`` -- the determinism
        guarantee of the whole harness rests here.
        """
        if self.every is not None and n % self.every == 0:
            return True
        if n in self.at:
            return True
        if self.rate > 0.0:
            key = f"{seed}:{self.counter_key()}:{n}"
            return random.Random(key).random() < self.rate
        return False

    def describe(self) -> str:
        """The spec back in CLI shorthand form."""
        parts = []
        if self.engine:
            parts.append(f"engine={self.engine}")
        if self.every is not None:
            parts.append(f"every={self.every}")
        if self.at:
            parts.append("at=" + "+".join(str(i) for i in self.at))
        if self.rate:
            parts.append(f"rate={self.rate}")
        if self.kind == "slow":
            parts.append(f"ms={self.ms}")
        if self.exc != "InjectedFault":
            parts.append(f"exc={self.exc}")
        return f"{self.site}_{self.kind}:" + ",".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded set of fault rules (safe to share/reuse)."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def parse(cls, texts: Iterable[str] | str, seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI shorthand spec strings."""
        if isinstance(texts, str):
            texts = [texts]
        return cls(specs=tuple(FaultSpec.parse(t) for t in texts), seed=seed)

    def describe(self) -> list[str]:
        """The plan's rules in CLI shorthand form."""
        return [s.describe() for s in self.specs]


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, as recorded in the injector's log."""

    site: str
    call: int  # 1-based index on the spec's counter
    spec: str  # CLI shorthand of the firing spec

    def as_tuple(self) -> tuple[str, int, str]:
        """The event as a plain comparable tuple (site, call, spec)."""
        return (self.site, self.call, self.spec)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at instrumented call sites.

    Thread-safe: counters and the fired-event log live under one lock;
    decisions depend only on the per-site call index and the plan seed,
    so concurrent callers cannot perturb each other's outcomes (only
    which caller draws which index).

    ``sleep`` performs ``slow``-fault latency; pass ``None`` for
    virtual-time callers, which instead read the returned penalty.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        sleep: Optional[Callable[[float], None]] = time.sleep,
    ):
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._events: list[FaultEvent] = []

    @property
    def injected_count(self) -> int:
        """How many faults have fired so far."""
        with self._lock:
            return len(self._events)

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """The fired faults, in firing order (the chaos audit trail)."""
        with self._lock:
            return tuple(self._events)

    def snapshot(self) -> dict:
        """Counts and the fired log as a JSON-compatible dict."""
        with self._lock:
            return {
                "plan": self.plan.describe(),
                "seed": self.plan.seed,
                "calls": dict(sorted(self._counts.items())),
                "injected": len(self._events),
                "events": [e.as_tuple() for e in self._events],
            }

    def check(self, site: str, engine: str = "") -> float:
        """Evaluate the plan at ``site``; returns injected latency in ms.

        Increments the site's call counters, sleeps through any firing
        ``slow`` fault (when a ``sleep`` was provided) and raises the
        first firing ``error`` fault's exception.  The return value is
        the total ``slow`` penalty in milliseconds so virtual-time
        callers can charge it instead.
        """
        fired: list[tuple[FaultSpec, int]] = []
        with self._lock:
            counters = [site] + ([f"{site}:{engine}"] if engine else [])
            counts = {}
            for key in counters:
                counts[key] = self._counts[key] = self._counts.get(key, 0) + 1
            for spec in self.plan.specs:
                if spec.site != site:
                    continue
                if spec.engine and spec.engine != engine:
                    continue
                n = counts.get(spec.counter_key())
                if n is None:
                    # engine-filtered spec but the caller gave no engine
                    continue
                if spec.fires(n, self.plan.seed):
                    fired.append((spec, n))
                    self._events.append(
                        FaultEvent(site=site, call=n, spec=spec.describe())
                    )
        penalty_ms = 0.0
        for spec, _ in fired:
            if spec.kind == "slow":
                penalty_ms += spec.ms
                if self._sleep is not None:
                    self._sleep(spec.ms / 1e3)
        for spec, n in fired:
            if spec.kind == "error":
                raise spec.exception_type()(
                    f"injected fault at {site!r} call {n} ({spec.describe()})"
                )
        return penalty_ms
