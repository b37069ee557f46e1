"""Benchmark-side spans: recorded around public calls, kept in memory.

A span is ``(name, start, end, parent, op)``: times in seconds on the
benchmark's ``time.perf_counter`` clock, ``parent`` the index of the
enclosing span (``None`` for a root), ``op`` the id of the op it
belongs to.  Nothing here runs inside the measured program: the spans
wrap calls into it.  The program's own ``repro.telemetry.Tracer`` is
not used because it would put the spans inside the program, which is a
later change.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    """An append-only span list."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, name, start, end, parent=None, op=None) -> int:
        """Record one span and return its index (for children)."""
        self.spans.append((name, start, end, parent, op))
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name.

        A span's self time is its duration minus the part of it that
        its children cover; children never overlap each other here.
        """
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                _, p_start, p_end, _, _ = self.spans[parent]
                covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
        return dict(totals)

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans and ``meta`` as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        doc = {
            "meta": meta,
            "self_s": self.self_times(),
            "spans": [dict(zip(keys, span)) for span in self.spans],
        }
        path.write_text(json.dumps(doc) + "\n")
