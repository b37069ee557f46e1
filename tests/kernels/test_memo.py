"""Tests for the bounded weakref plan memo."""

from __future__ import annotations

import gc

import pytest

from repro.kernels.memo import MemoStats, PlanMemo


class Key:
    """A weakref-able stand-in for a schedule object."""


TOKEN = (("a", 1),)
OTHER = (("b", 2),)


class TestPlanMemo:
    def test_get_miss_then_hit(self):
        memo = PlanMemo(capacity=4)
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

    def test_lru_eviction_bound(self):
        memo = PlanMemo(capacity=3)
        keys = [Key() for _ in range(5)]
        for i, k in enumerate(keys):
            memo.put(k, TOKEN, i)
        assert len(memo) == 3
        assert memo.stats_snapshot().evictions == 2
        # Oldest two evicted, newest three retained.
        assert memo.get(keys[0], TOKEN) is None
        assert memo.get(keys[1], TOKEN) is None
        assert memo.get(keys[4], TOKEN) == 4

    def test_get_refreshes_lru_order(self):
        memo = PlanMemo(capacity=2)
        k1, k2, k3 = Key(), Key(), Key()
        memo.put(k1, TOKEN, 1)
        memo.put(k2, TOKEN, 2)
        assert memo.get(k1, TOKEN) == 1  # k1 becomes most-recent
        memo.put(k3, TOKEN, 3)  # evicts k2, not k1
        assert memo.get(k1, TOKEN) == 1
        assert memo.get(k2, TOKEN) is None

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

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanMemo(capacity=0)

    def test_stats_as_dict(self):
        stats = MemoStats(hits=2, misses=3, evictions=1)
        assert stats.as_dict() == {"hits": 2, "misses": 3, "evictions": 1}

