"""Tests for the strided batched GEMM layout."""

import numpy as np
import pytest

from repro.core.framework import CoordinatedFramework
from repro.core.problem import Gemm, GemmBatch
from repro.kernels import ExecutionPolicy
from repro.kernels.strided import (
    execute_schedule_strided,
    random_strided_operands,
    split_strided,
)
from repro.reliability import FaultInjector, FaultPlan, RetryPolicy


@pytest.fixture
def uniform():
    return GemmBatch.uniform(24, 20, 16, 5)


class TestSplit:
    def test_views_not_copies(self, uniform, rng):
        a, b, c = random_strided_operands(uniform, rng)
        ops = split_strided(uniform, a, b, c)
        assert len(ops) == 5
        assert ops[0][0].base is a

    def test_variable_batch_rejected(self, rng):
        batch = GemmBatch.from_shapes([(2, 3, 4), (5, 6, 7)])
        with pytest.raises(ValueError, match="uniform"):
            split_strided(batch, np.zeros((2, 2, 4)), np.zeros((2, 4, 3)), np.zeros((2, 2, 3)))

    def test_wrong_shapes_rejected(self, uniform, rng):
        a, b, c = random_strided_operands(uniform, rng)
        with pytest.raises(ValueError, match="expected"):
            split_strided(uniform, a[:, :1], b, c)

    def test_transposed_layout(self, rng):
        batch = GemmBatch([Gemm(8, 9, 10, trans_a=True)] * 3)
        a, b, c = random_strided_operands(batch, rng)
        assert a.shape == (3, 10, 8)
        ops = split_strided(batch, a, b, c)
        assert ops[0][0].shape == (10, 8)


class TestExecution:
    def test_matches_per_gemm_path(self, uniform, rng):
        fw = CoordinatedFramework()
        plan = fw.plan(uniform, heuristic="binary")
        a, b, c = random_strided_operands(uniform, rng)
        strided_out = execute_schedule_strided(plan.schedule, uniform, a, b, c)
        assert strided_out.shape == (5, 24, 20)
        for i in range(5):
            np.testing.assert_allclose(strided_out[i], a[i] @ b[i], rtol=1e-4, atol=1e-4)

    def test_alpha_beta_respected(self, rng):
        batch = GemmBatch([Gemm(10, 10, 10, alpha=2.0, beta=1.0)] * 4)
        fw = CoordinatedFramework()
        plan = fw.plan(batch, heuristic="threshold")
        a, b, c = random_strided_operands(batch, rng)
        out = execute_schedule_strided(plan.schedule, batch, a, b, c)
        for i in range(4):
            np.testing.assert_allclose(
                out[i], 2.0 * (a[i] @ b[i]) + c[i], rtol=1e-3, atol=1e-3
            )

    def test_engine_policy_selects_engine(self, uniform, rng):
        plan = CoordinatedFramework().plan(uniform, heuristic="binary")
        a, b, c = random_strided_operands(uniform, rng)
        compiled = execute_schedule_strided(
            plan.schedule, uniform, a, b, c,
            policy=ExecutionPolicy(engine="compiled"),
        )
        assert np.array_equal(
            compiled, execute_schedule_strided(plan.schedule, uniform, a, b, c)
        )

    @pytest.mark.parametrize(
        "field",
        [
            {"fallback": True},
            {"retry": RetryPolicy()},
            {
                "injector": FaultInjector(
                    FaultPlan.parse(["engine_error:engine=compiled,every=1"])
                )
            },
            {"precision": "fp16"},
            {"verify": True},
        ],
        ids=["fallback", "retry", "injector", "precision", "verify"],
    )
    def test_policy_field_beyond_engine_rejected(self, uniform, rng, field):
        # The adapter runs only the named engine: a field it would drop
        # is refused, never silently ignored.
        plan = CoordinatedFramework().plan(uniform, heuristic="binary")
        a, b, c = random_strided_operands(uniform, rng)
        policy = ExecutionPolicy(engine="compiled", **field)
        with pytest.raises(ValueError, match="only a policy's engine"):
            execute_schedule_strided(plan.schedule, uniform, a, b, c, policy=policy)
