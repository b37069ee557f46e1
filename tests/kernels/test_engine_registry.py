"""The engine registry, and the spellings it no longer accepts.

Three engines remain: the reference walk (the oracle), ``grouped`` and
``compiled``.  The worker-pool engines ``parallel`` and ``procpool``
are gone, and so is every knob that existed only for them: a removed
engine name, ``workers`` field or CLI flag must fail loudly rather
than be silently ignored.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main as repro_main
from repro.core.options import PlanOptions
from repro.core.plancache import PlanCache
from repro.core.problem import GemmBatch
from repro.kernels import ENGINE_FALLBACKS, ENGINES, ExecutionPolicy, get_engine
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


UNKNOWN_ENGINE = (ValueError, "unknown execution engine")
UNEXPECTED_KEYWORD = (TypeError, "unexpected keyword argument")

CASES = {
    "engines": (lambda fw: ENGINES, ("reference", "grouped", "compiled")),
    "fallback-chains": (
        lambda fw: ENGINE_FALLBACKS,
        {
            "compiled": ("compiled", "grouped", "reference"),
            "grouped": ("grouped", "reference"),
            "reference": ("reference",),
        },
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
