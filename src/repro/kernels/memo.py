"""Bounded weakref memoization of compiled execution artifacts.

The compiled engine derives a per-schedule artifact, a
:class:`~repro.kernels.compiled.CompiledPlan`, that depends only on
the schedule and the batch *shapes*.  Re-deriving it per execution
would reintroduce exactly the per-call checking cost the artifact
exists to remove, so the engine memoizes its artifact per schedule.

Earlier revisions stashed the artifact as an attribute on the (frozen
but not slotted) schedule object, so in long-lived serve processes the
artifact's lifetime was invisible: no bound, no eviction, no stats.
This module replaces the stash with :class:`PlanMemo`:

* entries are keyed by the *identity* of the schedule object, one
  entry per schedule, and each records the batch-shape token its
  artifact was derived for.  A lookup with another token is a miss
  and drops the entry, so the next ``put`` replaces it: a schedule
  executed against alternating batch shapes re-derives its artifact
  every time.  The plan cache keys schedules by shapes and
  transposes, so a schedule it holds meets one token;
* the schedule is held **weakly** -- when a schedule falls out of the
  :class:`~repro.core.plancache.PlanCache` (eviction, ``clear()``) and
  dies, its artifact is purged automatically instead of leaking;
* the memo is LRU-bounded (``capacity``), thread-safe, and exposes
  hit/miss/eviction counters so cache behaviour is observable.

The compiled engine's module holds its one memo instance.  The memo is
the only home of an artifact: the plan cache and the serving layer
hold plans, and a cached plan's schedule keeps its artifact here
alive.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["MemoStats", "PlanMemo"]


@dataclass
class MemoStats:
    """Hit/miss/eviction counters for one :class:`PlanMemo`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict:
        """JSON-compatible snapshot (what benchmarks and tests read)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class PlanMemo:
    """An LRU memo of per-schedule artifacts with weakly-held keys.

    Parameters
    ----------
    capacity:
        Maximum live entries; least-recently-used entries evict first.
    name:
        Label used in ``repr`` and telemetry emitted by callers.

    Each schedule holds at most one entry, keyed by its identity and
    tagged with ``token``, the batch shapes the artifact is valid for;
    a lookup with another token misses and drops the entry.  The
    schedule is referenced weakly: a dead schedule's entry is removed
    by the weakref callback, and ``id()`` recycling is guarded by
    re-checking the referent on every lookup.
    """

    def __init__(self, capacity: int = 256, name: str = "plan"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.stats = MemoStats()
        # id(schedule) -> (weakref to schedule, batch token, artifact)
        self._entries: "OrderedDict[int, tuple[weakref.ref, tuple, Any]]" = (
            OrderedDict()
        )
        # RLock, not Lock: a GC-triggered weakref callback may run on a
        # thread that already holds the lock (e.g. while an OrderedDict
        # operation inside put() allocates); a plain Lock would deadlock.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanMemo(name={self.name!r}, size={len(self)}, "
            f"capacity={self.capacity})"
        )

    def get(self, schedule: Any, token: tuple) -> Optional[Any]:
        """The memoized artifact for ``(schedule, token)``, or ``None``.

        Counts a hit or a miss; a stale entry (the schedule's ``id``
        was recycled by a new object, or the same schedule was last
        compiled for different batch shapes) is dropped and counted as
        a miss.
        """
        key = id(schedule)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                ref, tok, artifact = entry
                if ref() is schedule and tok == token:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return artifact
                del self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, schedule: Any, token: tuple, artifact: Any) -> Any:
        """Memoize ``artifact`` for ``(schedule, token)``; returns it.

        Two threads racing on a cold schedule both derive and the later
        ``put`` wins -- the artifacts are identical (they depend only on
        the schedule and the shapes), mirroring the plan cache's
        plan-outside-the-lock policy.
        """
        key = id(schedule)
        self_ref = weakref.ref(self)

        def _purge(_dead: weakref.ref, _key: int = key) -> None:
            memo = self_ref()
            if memo is not None:
                with memo._lock:
                    memo._entries.pop(_key, None)

        with self._lock:
            self._entries[key] = (weakref.ref(schedule, _purge), token, artifact)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return artifact

    def stats_snapshot(self) -> MemoStats:
        """A consistent copy of the counters (safe to read under churn)."""
        with self._lock:
            return MemoStats(
                hits=self.stats.hits,
                misses=self.stats.misses,
                evictions=self.stats.evictions,
            )

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
