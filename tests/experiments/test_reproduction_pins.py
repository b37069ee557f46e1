"""Pinned full-grid reproduction numbers (the figures EXPERIMENTS.md quotes).

Every experiment here is deterministic modeled arithmetic over fixed
inputs, so the headline ratios are pinned with ``==`` -- as
``tests/gpu/test_model_digest.py`` pins the simulator -- and a change
that moves a reproduction number fails here until EXPERIMENTS.md and
these pins are updated together.  The grids are the shipped defaults
(96 Figure 8/9 cells, the nine inception layers, 100 Figure-11 cases
per device, the 21 CNN fans); together they take a few seconds.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import geomean
from repro.experiments.fanstudy import run_fanstudy
from repro.experiments.fig8_tiling import run_fig8
from repro.experiments.fig9_batching import run_fig9
from repro.experiments.fig10_googlenet import run_fig10
from repro.experiments.fig11_arch import run_fig11


@pytest.fixture(scope="module")
def fig9_speedups():
    return [c.speedup for c in run_fig9()]


@pytest.fixture(scope="module")
def fig10():
    return run_fig10()


def test_fig8_geomean():
    assert geomean([c.speedup for c in run_fig8()]) == 1.2188750226462866


def test_fig9_geomean(fig9_speedups):
    assert geomean(fig9_speedups) == 1.2745546410356918


def test_fig9_wins_ties_losses(fig9_speedups):
    wins = sum(s > 1.0 for s in fig9_speedups)
    ties = sum(s == 1.0 for s in fig9_speedups)
    losses = sum(s < 1.0 for s in fig9_speedups)
    assert (wins, ties, losses) == (77, 19, 0)


def test_fig10_layer_speedups(fig10):
    assert fig10.mean_layer_speedup == 1.432422407132982
    assert fig10.layer_speedups["inception3a"] == 1.1873888946983164


def test_fig10_end_to_end(fig10):
    assert fig10.speedup_over_streams == 1.163322644518175
    assert fig10.speedup_over_default == 2.4722745419567467


def test_fig11_device_means():
    means = {r.device_name: r.mean_speedup for r in run_fig11()}
    assert means == {
        "Tesla P100": 1.7035550527314884,
        "GTX 1080 Ti": 1.5160687879269068,
        "Titan Xp": 1.621192754143943,
        "Tesla M60": 1.2914470022405158,
        "GTX Titan X": 1.5323043514845418,
    }


def test_fanstudy_family_geomeans():
    results = run_fanstudy()
    means = {
        family: geomean([r.speedup_vs_magma for r in results if r.network == family])
        for family in ("googlenet", "squeezenet", "resnet50")
    }
    assert means == {
        "googlenet": 1.432422407132982,
        "squeezenet": 1.1231900998920532,
        "resnet50": 1.2277521521192702,
    }
