"""Tests for ExecutionPolicy and the legacy-kwarg deprecation shims.

One frozen policy object replaces the ``engine=`` / ``fallback=`` /
``retry=`` / ``injector=`` kwarg sprawl across
``CoordinatedFramework.execute``, ``PlanCache.execute`` and
``ServeConfig``.  Every legacy spelling must keep working behind a
``DeprecationWarning``, mixing old and new spellings must fail loudly,
and the historical error contracts must survive the migration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.plancache import PlanCache
from repro.kernels import ExecutionPolicy, coerce_policy
from repro.kernels.grouped import execute_grouped
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
        assert pol.engine == "grouped"
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

    def test_of_string_warns(self):
        with pytest.warns(DeprecationWarning, match="bare string"):
            pol = ExecutionPolicy.of("compiled")
        assert pol.engine == "compiled"

    def test_of_string_silent_when_asked(self):
        with no_warnings():
            assert ExecutionPolicy.of("reference", warn_on_str=False).engine == (
                "reference"
            )

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


class TestCoercePolicy:
    def test_policy_plus_legacy_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            coerce_policy(ExecutionPolicy(), engine="grouped", where="here")

    def test_no_arguments_yields_default(self):
        with no_warnings():
            pol = coerce_policy(None, where="here", default_engine="reference")
        assert pol.engine == "reference"

    def test_legacy_kwargs_warn_and_name_the_surface(self):
        with pytest.warns(DeprecationWarning, match="here: the engine keyword"):
            pol = coerce_policy(None, engine="compiled", where="here")
        assert pol.engine == "compiled"

    def test_fallback_false_counts_as_unset(self):
        with no_warnings():
            pol = coerce_policy(None, fallback=False, where="here")
        assert not pol.fallback

    def test_reliability_kwargs_carried(self):
        retry = RetryPolicy(max_attempts=2)
        with pytest.warns(DeprecationWarning, match="fallback/retry"):
            pol = coerce_policy(None, fallback=True, retry=retry, where="here")
        assert pol.fallback and pol.retry is retry and pol.reliable


class TestFrameworkExecuteShims:
    def test_policy_and_legacy_paths_agree(self, framework, small_batch, rng):
        ops = small_batch.random_operands(rng)
        with no_warnings():
            via_policy = framework.execute(
                small_batch, ops, policy=ExecutionPolicy(engine="compiled")
            )
        with pytest.warns(DeprecationWarning, match="CoordinatedFramework.execute"):
            via_legacy = framework.execute(small_batch, ops, engine="grouped")
        for a, b in zip(via_policy, via_legacy):
            assert np.array_equal(a, b)

    def test_mixing_rejected(self, framework, small_batch, rng):
        ops = small_batch.random_operands(rng)
        with pytest.raises(TypeError, match="not both"):
            framework.execute(
                small_batch, ops, policy=ExecutionPolicy(), engine="grouped"
            )

    def test_reliable_policy_routes_through_executor(
        self, framework, small_batch, rng
    ):
        ops = small_batch.random_operands(rng)
        pol = ExecutionPolicy(
            engine="grouped",
            fallback=True,
            retry=RetryPolicy(max_attempts=2, base_delay_ms=0.0, max_delay_ms=0.0),
        )
        with no_warnings():
            got = framework.execute(small_batch, ops, policy=pol)
        report = framework.plan(small_batch)
        want = execute_grouped(report.schedule, small_batch, ops)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestPlanCacheShims:
    def test_execute_policy_path(self, framework, small_batch, rng):
        cache = PlanCache(framework)
        ops = small_batch.random_operands(rng)
        with no_warnings():
            got = cache.execute(
                small_batch, ops, policy=ExecutionPolicy(engine="compiled")
            )
        report = framework.plan(small_batch)
        want = execute_grouped(report.schedule, small_batch, ops)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_execute_legacy_engine_warns(self, framework, small_batch, rng):
        cache = PlanCache(framework)
        ops = small_batch.random_operands(rng)
        with pytest.warns(DeprecationWarning, match="PlanCache.execute"):
            got = cache.execute(small_batch, ops, engine="grouped")
        assert len(got) == len(small_batch)

    def test_warm_policy_path(self, framework, small_batch):
        cache = PlanCache(framework)
        with no_warnings():
            assert cache.warm([small_batch], policy=ExecutionPolicy()) == 1
            assert cache.warm([small_batch], policy=ExecutionPolicy()) == 0


class TestServeConfigShims:
    def test_policy_field_silent(self):
        with no_warnings():
            config = ServeConfig(policy=ExecutionPolicy(engine="compiled"))
        assert config.execution_policy().engine == "compiled"

    def test_legacy_engine_warns(self):
        with pytest.warns(DeprecationWarning, match="ServeConfig engine is deprecated"):
            config = ServeConfig(engine="compiled")
        assert config.execution_policy().engine == "compiled"

    def test_default_resolves_to_grouped(self):
        with no_warnings():
            assert ServeConfig().execution_policy() == ExecutionPolicy()

    def test_mixing_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            ServeConfig(policy=ExecutionPolicy(), engine="grouped")

    def test_reliable_policy_rejected(self):
        with pytest.raises(ValueError, match="ReliabilityConfig"):
            ServeConfig(policy=ExecutionPolicy(fallback=True))
