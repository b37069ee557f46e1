"""Tests for the Heuristic enum and PlanOptions.

A heuristic may be spelled as a member or as its string value; both
are accepted everywhere and neither warns.
"""

import contextlib
import dataclasses
import warnings

import pytest

from repro.core.framework import CoordinatedFramework
from repro.core.options import PRECISIONS, Heuristic, PlanOptions
from repro.gpu.specs import VOLTA_V100


@contextlib.contextmanager
def no_warnings():
    """Context that turns any warning into a test failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestHeuristicCoerce:
    def test_member_passes_through_without_warning(self, recwarn):
        assert Heuristic.coerce(Heuristic.BINARY) is Heuristic.BINARY
        assert not recwarn.list

    @pytest.mark.parametrize("text", ["best", "BEST", "  Best  "])
    def test_string_matches_case_insensitively(self, text):
        with no_warnings():
            assert Heuristic.coerce(text) is Heuristic.BEST

    def test_unknown_string_raises_with_catalogue(self):
        with pytest.raises(ValueError, match="unknown heuristic.*threshold"):
            Heuristic.coerce("fastest")

    def test_wrong_type_raises(self):
        with pytest.raises(TypeError):
            Heuristic.coerce(42)

    def test_str_and_meta_flag(self):
        assert str(Heuristic.THRESHOLD) == "threshold"
        assert Heuristic.BEST.is_meta and Heuristic.AUTO.is_meta
        assert not Heuristic.BINARY.is_meta


class TestPlanOptions:
    def test_defaults(self):
        opts = PlanOptions()
        assert opts.heuristic is Heuristic.BEST
        assert opts.theta is None and opts.tlp_threshold is None
        assert opts.precision is None
        assert not opts.is_resolved

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PlanOptions().heuristic = Heuristic.AUTO  # type: ignore[misc]

    def test_constructor_coerces_strings_silently(self, recwarn):
        opts = PlanOptions(heuristic="binary")
        assert opts.heuristic is Heuristic.BINARY
        assert not recwarn.list

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": 0},
            {"theta": -5},
            {"tlp_threshold": 0},
            {"precision": "fp64"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PlanOptions(**kwargs)

    def test_of_normalizes_every_accepted_spec(self):
        assert PlanOptions.of(None) == PlanOptions()
        opts = PlanOptions(theta=128)
        assert PlanOptions.of(opts) is opts
        assert PlanOptions.of(Heuristic.AUTO).heuristic is Heuristic.AUTO
        with no_warnings():
            assert PlanOptions.of("binary").heuristic is Heuristic.BINARY

    def test_resolved_fills_only_none_fields(self):
        opts = PlanOptions(heuristic=Heuristic.THRESHOLD, theta=99)
        full = opts.resolved(theta=256, tlp_threshold=65536, precision="fp32")
        assert full.theta == 99  # explicit value kept
        assert full.tlp_threshold == 65536 and full.precision == "fp32"
        assert full.is_resolved
        assert not opts.is_resolved  # original untouched (frozen)

    def test_cache_key_separates_every_knob(self):
        base = PlanOptions(Heuristic.BEST, theta=256, tlp_threshold=65536, precision="fp32")
        variants = [
            dataclasses.replace(base, heuristic=Heuristic.BINARY),
            dataclasses.replace(base, theta=128),
            dataclasses.replace(base, tlp_threshold=32768),
            dataclasses.replace(base, precision="fp16"),
        ]
        keys = {base.cache_key(), *(v.cache_key() for v in variants)}
        assert len(keys) == 5

    def test_to_dict_is_json_plain(self):
        d = PlanOptions(Heuristic.AUTO, theta=64).to_dict()
        assert d == {
            "heuristic": "auto",
            "theta": 64,
            "tlp_threshold": None,
            "precision": None,
            "backend": None,
        }

    def test_precisions_constant(self):
        assert set(PRECISIONS) == {"fp32", "fp16", "bf16"}


class TestFrameworkEntryPoints:
    def test_enum_heuristic_does_not_warn(self, framework, uniform_batch, recwarn):
        report = framework.plan(uniform_batch, Heuristic.THRESHOLD)
        assert report.heuristic_used == "threshold"
        assert not any(
            isinstance(w.message, DeprecationWarning) for w in recwarn.list
        )

    def test_report_records_resolved_options(self, framework, uniform_batch):
        report = framework.plan(uniform_batch, Heuristic.THRESHOLD)
        assert report.options is not None
        assert report.options.is_resolved
        assert report.options.heuristic is Heuristic.THRESHOLD
        assert report.options.theta == framework.device.batching_theta
        assert report.options.tlp_threshold == framework.device.tlp_threshold

    def test_options_keyword_overrides_knobs(self, framework, uniform_batch):
        opts = PlanOptions(Heuristic.THRESHOLD, theta=64)
        report = framework.plan(uniform_batch, options=opts)
        assert report.options.theta == 64

    def test_heuristic_and_options_together_rejected(self, framework, uniform_batch):
        with pytest.raises(ValueError, match="not both"):
            framework.plan(
                uniform_batch, Heuristic.BEST, options=PlanOptions()
            )

    def test_string_and_enum_produce_identical_plans(self, framework, uniform_batch):
        with no_warnings():
            via_str = framework.plan(uniform_batch, "binary")
        via_enum = framework.plan(uniform_batch, Heuristic.BINARY)
        assert via_str.heuristic_used == via_enum.heuristic_used
        assert via_str.options == via_enum.options
        assert (
            via_str.schedule.num_blocks == via_enum.schedule.num_blocks
        )

    def test_simulate_accepts_options(self, uniform_batch):
        fw = CoordinatedFramework(device=VOLTA_V100)
        result = fw.simulate(
            uniform_batch, options=PlanOptions(Heuristic.THRESHOLD)
        )
        assert result.time_ms > 0
        assert result.trace is None  # tracing disabled by default
