"""Tests for the plan cache."""

import warnings

import numpy as np
import pytest

from repro.core.options import Heuristic, PlanOptions
from repro.core.plancache import PlanCache, batch_signature
from repro.core.problem import Gemm, GemmBatch
from repro.kernels.compiled import compiled_memo_stats, compiled_plan_for
from repro.kernels.reference import reference_batched_gemm


class TestSignature:
    def test_same_shapes_same_signature(self):
        b1 = GemmBatch.from_shapes([(2, 3, 4), (5, 6, 7)])
        b2 = GemmBatch.from_shapes([(2, 3, 4), (5, 6, 7)])
        assert batch_signature(b1) == batch_signature(b2)

    def test_alpha_beta_excluded(self):
        b1 = GemmBatch([Gemm(2, 3, 4, alpha=1.0)])
        b2 = GemmBatch([Gemm(2, 3, 4, alpha=9.0)])
        assert batch_signature(b1) == batch_signature(b2)

    def test_transposes_included(self):
        b1 = GemmBatch([Gemm(2, 3, 4)])
        b2 = GemmBatch([Gemm(2, 3, 4, trans_a=True)])
        assert batch_signature(b1) != batch_signature(b2)

    def test_order_matters(self):
        b1 = GemmBatch.from_shapes([(2, 3, 4), (5, 6, 7)])
        b2 = GemmBatch.from_shapes([(5, 6, 7), (2, 3, 4)])
        assert batch_signature(b1) != batch_signature(b2)


class TestPlanCache:
    def test_hit_on_repeat(self, framework, uniform_batch):
        cache = PlanCache(framework)
        first = cache.plan(uniform_batch)
        second = cache.plan(uniform_batch)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_signature_equality_hits_across_instances(self, framework):
        cache = PlanCache(framework)
        cache.plan(GemmBatch.uniform(64, 64, 32, 4))
        cache.plan(GemmBatch.uniform(64, 64, 32, 4))
        assert cache.stats.hit_rate == 0.5

    def test_different_heuristics_cached_separately(self, framework, uniform_batch):
        cache = PlanCache(framework)
        a = cache.plan(uniform_batch, heuristic="threshold")
        b = cache.plan(uniform_batch, heuristic="binary")
        assert a is not b
        assert cache.stats.misses == 2

    def test_different_theta_cached_separately(self, framework, uniform_batch):
        cache = PlanCache(framework)
        a = cache.plan(
            uniform_batch, options=PlanOptions(Heuristic.THRESHOLD, theta=64)
        )
        b = cache.plan(
            uniform_batch, options=PlanOptions(Heuristic.THRESHOLD, theta=1024)
        )
        assert a is not b
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert len(cache) == 2

    def test_default_options_alias_explicit_defaults(self, framework, uniform_batch):
        # None knobs resolve to the device defaults before keying, so a
        # bare plan and an explicitly-defaulted one share the entry.
        cache = PlanCache(framework)
        first = cache.plan(uniform_batch)
        explicit = PlanOptions(
            Heuristic.BEST,
            theta=framework.device.batching_theta,
            tlp_threshold=framework.device.tlp_threshold,
        )
        second = cache.plan(uniform_batch, options=explicit)
        assert first is second
        assert cache.stats.hits == 1

    def test_enum_and_string_share_the_entry(self, framework, uniform_batch):
        cache = PlanCache(framework)
        first = cache.plan(uniform_batch, Heuristic.BINARY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = cache.plan(uniform_batch, "binary")
        assert first is second
        assert cache.stats.hits == 1

    def test_lru_eviction(self, framework):
        cache = PlanCache(framework, capacity=2)
        batches = [GemmBatch.uniform(16 * i, 16, 16, 2) for i in (1, 2, 3)]
        for b in batches:
            cache.plan(b)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (batches[0]) was evicted: replanning misses.
        cache.plan(batches[0])
        assert cache.stats.misses == 4

    def test_execute_through_cache(self, framework, small_batch, rng):
        cache = PlanCache(framework)
        ops = small_batch.random_operands(rng)
        got = cache.execute(small_batch, ops, heuristic="binary")
        want = reference_batched_gemm(small_batch, ops)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4)
        # Fresh operands, cached plan.
        ops2 = small_batch.random_operands(rng)
        got2 = cache.execute(small_batch, ops2, heuristic="binary")
        want2 = reference_batched_gemm(small_batch, ops2)
        for a, b in zip(got2, want2):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4)
        assert cache.stats.hits == 1

    def test_clear_keeps_stats(self, framework, uniform_batch):
        cache = PlanCache(framework)
        cache.plan(uniform_batch)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_invalid_capacity(self, framework):
        with pytest.raises(ValueError):
            PlanCache(framework, capacity=0)


class TestPlanWithInfo:
    def test_hit_flag_tracks_cache_state(self, framework, uniform_batch):
        cache = PlanCache(framework)
        first, hit_a = cache.plan_with_info(uniform_batch)
        second, hit_b = cache.plan_with_info(uniform_batch)
        assert first is second
        assert (hit_a, hit_b) == (False, True)


class TestRestore:
    def test_restored_schedule_equals_the_lost_one(self, framework):
        """A restored key hits on its first lookup, under the meta heuristics too.

        A ``BEST`` or ``AUTO`` plan records the heuristic it chose; the
        manifest must carry the one the lookup requested.
        """
        batches = [
            GemmBatch.from_shapes([(16, 32, 24), (65, 33, 17)]),
            GemmBatch.from_shapes([(128, 128, 8)] * 3),
        ]
        for heuristic in (Heuristic.BEST, Heuristic.AUTO):
            old = PlanCache(framework)
            lost = [old.plan(b, heuristic) for b in batches]
            fresh = PlanCache(framework)
            assert fresh.restore(old.snapshot()) == len(batches)
            for batch, report in zip(batches, lost):
                restored, hit = fresh.plan_with_info(batch, heuristic)
                assert hit, heuristic
                assert restored is not report
                assert restored.schedule == report.schedule
                assert restored.batching == report.batching
            assert fresh.stats.misses == 0


class TestWarm:
    def test_warm_counts_new_plans(self, framework):
        cache = PlanCache(framework)
        batches = [
            GemmBatch.uniform(64, 64, 32, 4),
            GemmBatch.uniform(32, 32, 32, 2),
            GemmBatch.uniform(64, 64, 32, 4),  # duplicate signature
        ]
        assert cache.warm(batches, Heuristic.THRESHOLD) == 2
        assert cache.warm(batches, Heuristic.THRESHOLD) == 0

    def test_warmed_entries_serve_hits(self, framework, uniform_batch):
        cache = PlanCache(framework)
        cache.warm([uniform_batch], Heuristic.THRESHOLD)
        before = cache.stats_snapshot()
        cache.plan(uniform_batch, heuristic=Heuristic.THRESHOLD)
        after = cache.stats_snapshot()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_every_warm_plan_keeps_its_artifact(self, framework):
        # The compiled memo has no bound of its own: however many plans
        # the cache holds, each one's artifact stays compiled.
        batches = [GemmBatch.from_shapes([(8 + i, 16, 16)]) for i in range(300)]
        cache = PlanCache(framework, capacity=300)
        cache.warm(batches, Heuristic.THRESHOLD)
        before = compiled_memo_stats()
        for batch in batches:
            compiled_plan_for(cache.plan(batch, Heuristic.THRESHOLD).schedule, batch)
        after = compiled_memo_stats()
        assert cache.stats_snapshot().hits == 300
        assert (after.hits - before.hits, after.misses - before.misses) == (300, 0)


class TestStatsSnapshot:
    def test_snapshot_is_a_copy(self, framework, uniform_batch):
        cache = PlanCache(framework)
        cache.plan(uniform_batch)
        snap = cache.stats_snapshot()
        cache.plan(uniform_batch)
        assert snap.hits == 0  # frozen at snapshot time
        assert cache.stats_snapshot().hits == 1

    def test_as_dict(self, framework, uniform_batch):
        cache = PlanCache(framework)
        cache.plan(uniform_batch)
        cache.plan(uniform_batch)
        d = cache.stats_snapshot().as_dict()
        assert d["hits"] == 1 and d["misses"] == 1
        assert d["hit_rate"] == 0.5


class TestThreadSafety:
    def test_concurrent_mixed_access(self, framework):
        import threading

        cache = PlanCache(framework, capacity=8)
        shapes = [(32, 32, 32), (64, 64, 32), (48, 48, 16), (16, 16, 16)]
        n_threads, per_thread = 6, 20
        errors = []

        def hammer(tid: int) -> None:
            try:
                for i in range(per_thread):
                    shape = shapes[(tid + i) % len(shapes)]
                    batch = GemmBatch.uniform(*shape, 2)
                    report = cache.plan(batch, heuristic=Heuristic.THRESHOLD)
                    assert report is not None
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(tid,)) for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        stats = cache.stats_snapshot()
        assert stats.hits + stats.misses == n_threads * per_thread
        assert len(cache) <= 8
