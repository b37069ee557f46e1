"""Tests for the weak identity plan memo."""

from __future__ import annotations

import gc

import pytest

from repro.kernels.memo import PlanMemo


class Key:
    """A weakref-able stand-in for a schedule object."""


TOKEN = (("a", 1),)
OTHER = (("b", 2),)


class TestPlanMemo:
    def test_get_miss_then_hit(self):
        memo = PlanMemo()
        key = Key()
        assert memo.get(key, TOKEN) is None
        memo.put(key, TOKEN, "artifact")
        assert memo.get(key, TOKEN) == "artifact"
        stats = memo.stats_snapshot()
        assert stats.misses == 1 and stats.hits == 1

    def test_put_returns_artifact(self):
        memo = PlanMemo()
        key = Key()
        assert memo.put(key, TOKEN, "x") == "x"

    def test_token_mismatch_is_miss_and_drops_entry(self):
        memo = PlanMemo()
        key = Key()
        memo.put(key, TOKEN, "x")
        assert memo.get(key, OTHER) is None
        assert len(memo) == 0
        assert memo.stats_snapshot().misses == 1

    def test_holds_every_live_entry(self):
        # No capacity: an entry lives exactly as long as its key.
        memo = PlanMemo()
        keys = [Key() for _ in range(300)]
        for i, k in enumerate(keys):
            memo.put(k, TOKEN, i)
        assert len(memo) == 300
        assert [memo.get(k, TOKEN) for k in keys] == list(range(300))
        del keys[:100]
        gc.collect()
        assert len(memo) == 200

    def test_dead_key_purged_by_weakref(self):
        memo = PlanMemo()
        key = Key()
        memo.put(key, TOKEN, "x")
        assert len(memo) == 1
        del key
        gc.collect()
        assert len(memo) == 0

    def test_stale_recycled_id_not_served(self):
        # Simulate id() reuse: a dead key's slot must never serve a new
        # object that happens to share the integer id.  We force the
        # scenario by purging the weakref callback manually.
        memo = PlanMemo()
        key = Key()
        memo.put(key, TOKEN, "x")
        impostor = Key()
        # Overwrite the entry's slot with the impostor's id to mimic
        # CPython recycling the address.
        entry = memo._entries.pop(id(key))
        memo._entries[id(impostor)] = entry
        assert memo.get(impostor, TOKEN) is None
        assert len(memo) == 0

    def test_clear_keeps_stats(self):
        memo = PlanMemo()
        key = Key()
        memo.put(key, TOKEN, "x")
        memo.get(key, TOKEN)
        memo.clear()
        assert len(memo) == 0
        assert memo.stats_snapshot().hits == 1

    def test_capacity_is_not_a_parameter(self):
        # The plan caches bound what the memo holds; it has no knob.
        with pytest.raises(TypeError):
            PlanMemo(capacity=4)
