"""Weak identity memoization of what a cached plan derives.

The compiled engine derives a :class:`~repro.kernels.compiled.CompiledPlan`
from a schedule and the batch *shapes*, and the serving planner a
:class:`~repro.gpu.simulator.SimulationResult` from a plan report.
Re-deriving either per call would reintroduce the cost it exists to
remove, so each is memoized per object in a :class:`PlanMemo`:

* entries are keyed by the *identity* of the object, one per object,
  and tagged with a token (the other inputs, e.g. the batch shapes);
  a lookup with another token misses and drops the entry;
* the object is held **weakly**, so an entry lives exactly as long as
  its object.  The memo has no capacity: when a plan falls out of the
  :class:`~repro.core.plancache.PlanCache` and dies, what was derived
  from it goes too, so the plan caches bound plans and everything
  derived from them alike;
* lookups are thread-safe and counted (hits and misses).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["MemoStats", "PlanMemo"]


@dataclass
class MemoStats:
    """Hit/miss counters for one :class:`PlanMemo`."""

    hits: int = 0
    misses: int = 0


class PlanMemo:
    """A memo of per-object artifacts whose entries die with the object.

    Each object holds at most one entry, keyed by its identity and
    tagged with ``token``, the other inputs the artifact is valid for; a
    lookup with another token misses and drops the entry.  The object is
    referenced weakly: a dead object's entry is removed by the weakref
    callback, and ``id()`` recycling is guarded by re-checking the
    referent on every lookup.
    """

    def __init__(self) -> None:
        self.stats = MemoStats()
        # id(obj) -> (weakref to obj, token, artifact)
        self._entries: dict[int, tuple[weakref.ref, tuple, Any]] = {}
        # RLock, not Lock: a GC-triggered weakref callback may run on a
        # thread that already holds the lock (e.g. while put() allocates
        # its entry); a plain Lock would deadlock.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, obj: Any, token: tuple) -> Optional[Any]:
        """The memoized artifact for ``(obj, token)``, or ``None``.

        Counts a hit or a miss; a stale entry (the object's ``id`` was
        recycled by a new object, or the same object was last memoized
        with another token) is dropped and counted as a miss.
        """
        key = id(obj)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                ref, tok, artifact = entry
                if ref() is obj and tok == token:
                    self.stats.hits += 1
                    return artifact
                del self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, obj: Any, token: tuple, artifact: Any) -> Any:
        """Memoize ``artifact`` for ``(obj, token)``; returns it.

        Two threads racing on a cold object both derive and the later
        ``put`` wins -- the artifacts are identical (they depend only on
        the object and the token), mirroring the plan cache's
        plan-outside-the-lock policy.
        """
        key = id(obj)
        self_ref = weakref.ref(self)

        def _purge(_dead: weakref.ref, _key: int = key) -> None:
            memo = self_ref()
            if memo is not None:
                with memo._lock:
                    memo._entries.pop(_key, None)

        with self._lock:
            self._entries[key] = (weakref.ref(obj, _purge), token, artifact)
        return artifact

    def stats_snapshot(self) -> MemoStats:
        """A consistent copy of the counters (safe to read under churn)."""
        with self._lock:
            return MemoStats(hits=self.stats.hits, misses=self.stats.misses)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
