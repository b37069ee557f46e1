"""The engine registry, and the spellings it no longer accepts.

Two engines remain: the reference walk (the oracle) and ``compiled``,
the default.  The worker-pool engines ``parallel`` and ``procpool``
and the ``grouped`` engine are gone, and so is every knob that existed
only for them: a removed engine name, executor, ``workers`` field or
CLI flag must fail loudly rather than be silently ignored.

Every execution knob has one spelling, an ``ExecutionPolicy``: the
loose ``engine=`` / ``fallback=`` / ``retry=`` / ``injector=``
keywords, ``ServeConfig(engine=)``, bare-string policies and the
``Engine`` protocol objects are gone too.  Heuristic strings stay an
accepted spelling, and they plan without a warning.
"""

from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.kernels
import repro.kernels.compiled
from repro.__main__ import main as repro_main
from repro.core.options import PlanOptions
from repro.core.plancache import PlanCache
from repro.core.problem import GemmBatch
from repro.kernels import ENGINE_FALLBACKS, ENGINES, ExecutionPolicy, get_engine
from repro.kernels.blas import ChunkLoop
from repro.reliability import FaultSpec, RetryPolicy
from repro.serve.cli import main as serve_main
from repro.serve.config import ServeConfig


def exit_status(main, argv: list[str]):
    """The status a CLI entry point exits with on ``argv``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def warm_repeats(framework) -> int:
    """How many of three copies of one batch a fresh cache plans."""
    batch = GemmBatch.from_shapes([(32, 32, 32)] * 2)
    return PlanCache(framework).warm([batch, batch, batch])


def execute_small(target, **kwargs):
    """Execute a two-GEMM batch through ``target.execute``."""
    batch = GemmBatch.from_shapes([(16, 16, 16)] * 2)
    ops = batch.random_operands(np.random.default_rng(0))
    return target.execute(batch, ops, **kwargs)


def silently(probe):
    """``probe`` as a probe that fails on any warning it raises."""

    def run(framework):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return probe(framework)

    return run


def string_heuristic_probes():
    """Each string-heuristic entry point, as probe -> expected value."""
    batch = GemmBatch.from_shapes([(32, 32, 32)] * 2)
    ops = batch.random_operands(np.random.default_rng(1))
    return {
        "plan": (lambda fw: fw.plan(batch, "threshold").heuristic_used, "threshold"),
        "simulate": (lambda fw: fw.simulate(batch, "binary").time_ms > 0, True),
        "cache-plan": (
            lambda fw: PlanCache(fw).plan(batch, "best").heuristic_used
            in ("threshold", "binary"),
            True,
        ),
        "cache-execute": (
            lambda fw: len(PlanCache(fw).execute(batch, ops, "threshold")),
            len(batch),
        ),
    }


UNKNOWN_ENGINE = (ValueError, "unknown execution engine")
UNEXPECTED_KEYWORD = (TypeError, "unexpected keyword argument")
MISSING_ARGUMENT = (TypeError, "missing 1 required positional argument")
NOT_A_POLICY = (TypeError, "expected an ExecutionPolicy")
NO_ATTRIBUTE = (AttributeError, "has no attribute")

CASES = {
    "engines": (lambda fw: ENGINES, ("reference", "compiled")),
    "fallback-chains": (
        lambda fw: ENGINE_FALLBACKS,
        {"compiled": ("compiled", "reference"), "reference": ("reference",)},
    ),
    "default-engine": (lambda fw: ExecutionPolicy().engine, "compiled"),
    "policy-engine-grouped": (
        lambda fw: ExecutionPolicy(engine="grouped"),
        UNKNOWN_ENGINE,
    ),
    "get-engine-grouped": (lambda fw: get_engine("grouped"), UNKNOWN_ENGINE),
    "kernels-execute-grouped": (
        lambda fw: repro.kernels.execute_grouped,
        NO_ATTRIBUTE,
    ),
    "repro-execute-grouped": (lambda fw: repro.execute_grouped, NO_ATTRIBUTE),
    "repro-serve-engine-grouped": (
        lambda fw: exit_status(serve_main, ["--engine", "grouped"]),
        2,
    ),
    "python-m-repro-engine-grouped": (
        lambda fw: exit_status(repro_main, ["64x64x64", "--engine", "grouped"]),
        2,
    ),
    "fault-spec-engine-grouped": (
        lambda fw: FaultSpec.parse("engine_error:engine=grouped,at=1-6"),
        UNKNOWN_ENGINE,
    ),
    "warm-policy": (
        lambda fw: PlanCache(fw).warm([], policy=ExecutionPolicy()),
        UNEXPECTED_KEYWORD,
    ),
    "chunk-loop-without-scratch": (
        lambda fw: ChunkLoop(
            np.empty((2, 2)), np.ones((2, 2)), np.ones((2, 2)), [(0, 2)]
        ),
        MISSING_ARGUMENT,
    ),
    "policy-engine-parallel": (
        lambda fw: ExecutionPolicy(engine="parallel"),
        UNKNOWN_ENGINE,
    ),
    "get-engine-procpool": (lambda fw: get_engine("procpool"), UNKNOWN_ENGINE),
    "policy-workers": (lambda fw: ExecutionPolicy(workers=2), UNEXPECTED_KEYWORD),
    "options-workers": (lambda fw: PlanOptions(workers=2), UNEXPECTED_KEYWORD),
    "serve-config-engine-workers": (
        lambda fw: ServeConfig(engine_workers=2),
        UNEXPECTED_KEYWORD,
    ),
    "repro-serve-engine-procpool": (
        lambda fw: exit_status(serve_main, ["--engine", "procpool"]),
        2,
    ),
    "repro-serve-engine-workers": (
        lambda fw: exit_status(serve_main, ["--engine-workers", "2"]),
        2,
    ),
    "python-m-repro-workers": (
        lambda fw: exit_status(repro_main, ["64x64x64", "--workers", "2"]),
        2,
    ),
    "warm-plans-a-repeated-batch-once": (warm_repeats, 1),
    "execute-engine": (
        lambda fw: execute_small(fw, engine="compiled"),
        UNEXPECTED_KEYWORD,
    ),
    "execute-fallback": (
        lambda fw: execute_small(fw, fallback=True),
        UNEXPECTED_KEYWORD,
    ),
    "execute-retry": (
        lambda fw: execute_small(fw, retry=RetryPolicy()),
        UNEXPECTED_KEYWORD,
    ),
    "execute-injector": (
        lambda fw: execute_small(fw, injector=object()),
        UNEXPECTED_KEYWORD,
    ),
    "plancache-execute-engine": (
        lambda fw: execute_small(PlanCache(fw), engine="compiled"),
        UNEXPECTED_KEYWORD,
    ),
    "serve-config-engine": (
        lambda fw: ServeConfig(engine="compiled"),
        UNEXPECTED_KEYWORD,
    ),
    "policy-of-string": (lambda fw: ExecutionPolicy.of("compiled"), NOT_A_POLICY),
    "kernels-get-engine-object": (
        lambda fw: repro.kernels.get_engine_object,
        NO_ATTRIBUTE,
    ),
    "kernels-engine-protocol": (lambda fw: repro.kernels.Engine, NO_ATTRIBUTE),
    "kernels-coerce-policy": (lambda fw: repro.kernels.coerce_policy, NO_ATTRIBUTE),
    "repro-get-engine-object": (lambda fw: repro.get_engine_object, NO_ATTRIBUTE),
    "kernels-plan-memo": (lambda fw: repro.kernels.PlanMemo, NO_ATTRIBUTE),
    "kernels-memo-stats": (lambda fw: repro.kernels.MemoStats, NO_ATTRIBUTE),
    "compiled-memo-stats": (
        lambda fw: repro.kernels.compiled.compiled_memo_stats,
        NO_ATTRIBUTE,
    ),
    "clear-compiled-memo": (
        lambda fw: repro.kernels.compiled.clear_compiled_memo,
        NO_ATTRIBUTE,
    ),
    **{
        f"str-heuristic-{name}": (silently(probe), expected)
        for name, (probe, expected) in string_heuristic_probes().items()
    },
}


@pytest.mark.parametrize("case", CASES)
def test_registry_and_removed_spellings(case, framework):
    probe, expected = CASES[case]
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error, match=message):
            probe(framework)
    else:
        assert probe(framework) == expected


def loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    probe = f"{code}\nimport sys\nprint(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


IMPORT_CASES = {
    "compiled-loads-no-scipy": ("import repro.kernels.compiled", ("scipy",)),
    "registry-and-policies-load-no-engine": (
        "import repro.kernels as k\n"
        "for name in k.ENGINES:\n"
        "    k.engine_fallbacks(k.ExecutionPolicy(engine=name).engine)",
        ("repro.kernels.compiled", "repro.kernels.persistent"),
    ),
}


@pytest.mark.parametrize("case", IMPORT_CASES)
def test_import_independence(case):
    code, shunned = IMPORT_CASES[case]
    assert loaded_after(code, shunned) == []
