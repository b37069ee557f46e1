"""Tests for ExecutionPolicy, the one spelling of every execution knob.

One frozen policy object carries the engine and the reliability
envelope into ``CoordinatedFramework.execute``, ``PlanCache.execute``
and ``ServeConfig``; the historical error contracts
(unknown engines, reliability knobs on a serving config) hold on each
surface.  The removed keyword and string spellings are pinned in
``tests/kernels/test_engine_registry.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.plancache import PlanCache
from repro.kernels import ExecutionPolicy
from repro.kernels.persistent import execute_schedule
from repro.reliability import RetryPolicy
from repro.serve.config import ServeConfig


@contextlib.contextmanager
def no_warnings():
    """Context that turns any warning into a test failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestExecutionPolicy:
    def test_defaults(self):
        pol = ExecutionPolicy()
        assert pol.engine == "compiled"
        assert not pol.fallback and pol.retry is None and pol.injector is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            ExecutionPolicy(engine="warp-speed")

    def test_frozen(self):
        pol = ExecutionPolicy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            pol.engine = "compiled"

    def test_reliable_property(self):
        assert not ExecutionPolicy().reliable
        assert ExecutionPolicy(fallback=True).reliable
        assert ExecutionPolicy(retry=RetryPolicy()).reliable
        assert ExecutionPolicy(injector=object()).reliable

    def test_of_none_and_identity(self):
        with no_warnings():
            assert ExecutionPolicy.of(None) == ExecutionPolicy()
            pol = ExecutionPolicy(engine="compiled")
            assert ExecutionPolicy.of(pol) is pol

    def test_of_rejects_other_types(self):
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            ExecutionPolicy.of(42)

    def test_to_dict(self):
        pol = ExecutionPolicy(engine="compiled", fallback=True)
        assert pol.to_dict() == {
            "engine": "compiled",
            "fallback": True,
            "retry": False,
            "injector": False,
            "precision": None,
            "verify": False,
        }


class TestFrameworkExecuteShims:
    """``CoordinatedFramework.execute`` takes ``policy=`` and nothing else."""

    def test_mixing_rejected(self, framework, small_batch, rng):
        ops = small_batch.random_operands(rng)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            framework.execute(
                small_batch, ops, policy=ExecutionPolicy(), engine="compiled"
            )

    def test_reliable_policy_routes_through_executor(
        self, framework, small_batch, rng
    ):
        ops = small_batch.random_operands(rng)
        pol = ExecutionPolicy(
            engine="compiled",
            fallback=True,
            retry=RetryPolicy(max_attempts=2, base_delay_ms=0.0, max_delay_ms=0.0),
        )
        with no_warnings():
            got = framework.execute(small_batch, ops, policy=pol)
        report = framework.plan(small_batch)
        want = execute_schedule(report.schedule, small_batch, ops)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestPlanCacheShims:
    """``PlanCache.execute`` takes ``policy=`` and nothing else; ``warm``
    compiles every plan it caches, so it takes no policy at all."""

    def test_execute_policy_path(self, framework, small_batch, rng):
        cache = PlanCache(framework)
        ops = small_batch.random_operands(rng)
        with no_warnings():
            got = cache.execute(
                small_batch, ops, policy=ExecutionPolicy(engine="compiled")
            )
        report = framework.plan(small_batch)
        want = execute_schedule(report.schedule, small_batch, ops)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_warm_policy_path(self, framework, small_batch):
        cache = PlanCache(framework)
        with no_warnings():
            assert cache.warm([small_batch]) == 1
            assert cache.warm([small_batch]) == 0
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            cache.warm([small_batch], policy=ExecutionPolicy())


class TestServeConfigShims:
    """``ServeConfig.policy`` is the only engine field, with only its
    engine set: the server would silently drop any other knob."""

    def test_policy_field_silent(self):
        with no_warnings():
            config = ServeConfig(policy=ExecutionPolicy(engine="compiled"))
        assert config.policy.engine == "compiled"

    def test_default_resolves_to_compiled(self):
        with no_warnings():
            assert ServeConfig().policy == ExecutionPolicy()
        assert ServeConfig().policy.engine == "compiled"

    def test_mixing_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            ServeConfig(policy=ExecutionPolicy(), engine="compiled")

    def test_reliable_policy_rejected(self):
        with pytest.raises(ValueError, match="ReliabilityConfig"):
            ServeConfig(policy=ExecutionPolicy(fallback=True))

    @pytest.mark.parametrize(
        "policy",
        [
            ExecutionPolicy(verify=True),
            ExecutionPolicy(engine="compiled", verify=True),
            ExecutionPolicy(precision="fp16"),
            ExecutionPolicy(precision="bf16"),
            ExecutionPolicy(precision="fp32"),
        ],
        ids=["verify", "compiled-verify", "fp16", "bf16", "fp32"],
    )
    def test_verify_and_precision_rejected(self, policy):
        with pytest.raises(ValueError, match=r"precision rides on each request"):
            ServeConfig(policy=policy)

    @pytest.mark.parametrize("policy", [None, "compiled"], ids=["none", "string"])
    def test_non_policy_rejected(self, policy):
        with pytest.raises(TypeError, match="must be an ExecutionPolicy"):
            ServeConfig(policy=policy)
