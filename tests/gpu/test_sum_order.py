"""The modeled numbers do not depend on the Python version's ``sum``.

From CPython 3.12 on, the builtin ``sum`` compensates the rounding of
float additions (Neumaier's algorithm), so a modeled quantity formed
with ``sum()`` rounds differently on 3.12 than on 3.10 and 3.11.  Every
modeled float sum is therefore an explicit left fold
(:func:`repro.gpu.costmodel.add_in_order`).  These tests install a
Python port of 3.12's ``sum`` as the builtin and recompute the pinned
model digests and reproduction figures: not one of them may move.  On
3.12 the port is checked against the builtin itself, so the check
holds the two CI legs (3.10 and 3.12) to the same numbers.
"""

from __future__ import annotations

import builtins
import math
import random
import sys

import pytest

from repro.experiments.fig9_batching import run_fig9
from repro.experiments.fig10_googlenet import run_fig10
from repro.gpu.costmodel import add_in_order
from tests.experiments import test_reproduction_pins as pins
from tests.gpu import test_model_digest as digest

_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


def sum_312(iterable, /, start=0):
    """CPython 3.12's builtin ``sum`` (``builtin_sum_impl``) in Python.

    Exact ints (and bools) accumulate exactly until the first other
    item.  From an exact float on, exact-float items are added with
    Neumaier compensation and C-long ints are added plainly; the
    compensation is folded in when the loop ends or meets any other
    type, which then adds with ``+``.
    """
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in it:
        result = result + item
    return result


@pytest.fixture
def compensated_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", sum_312)


def test_port_compensates_where_a_left_fold_rounds():
    tenths = [0.1] * 10
    assert add_in_order(tenths) == 0.9999999999999999
    assert sum_312(tenths) == 1.0
    assert sum_312([1, 2, True]) == 4 and type(sum_312([1, 2])) is int
    assert sum_312([1, 0.5, 2]) == 3.5
    assert sum_312([[1], [2]], []) == [1, 2]


@pytest.mark.skipif(sys.version_info[:2] != (3, 12), reason="ports the 3.12 builtin")
def test_port_is_the_builtin_on_python_312():
    rng = random.Random(7)
    for _ in range(200):
        values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-8, 8) for _ in range(50)]
        assert sum_312(values) == sum(values)


def test_model_digests_hold_under_compensated_sum(compensated_sum):
    digests = digest._all_digests()
    moved = sorted(k for k, v in digests.items() if v != digest.EXPECTED[k])
    assert not moved, f"modeled numbers depend on sum(): {moved}"


def test_reproduction_pins_hold_under_compensated_sum(compensated_sum):
    speedups = [c.speedup for c in run_fig9()]
    pins.test_fig9_geomean(speedups)
    pins.test_fig9_wins_ties_losses(speedups)
    fig10 = run_fig10()
    pins.test_fig10_layer_speedups(fig10)
    pins.test_fig10_end_to_end(fig10)
    pins.test_fig11_device_means()
