"""Tests for admission control (backpressure + deadline shedding)."""

import pytest

from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.request import REASON_DEADLINE, REASON_QUEUE_FULL


class TestConfig:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            AdmissionConfig(queue_capacity=0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            AdmissionConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(ewma_alpha=1.5)


class TestBackpressure:
    def test_admits_under_capacity(self, make_request):
        ctl = AdmissionController(AdmissionConfig(queue_capacity=2))
        assert ctl.admit(make_request(0), pending_count=1, now_us=0.0) is None

    def test_rejects_at_capacity(self, make_request):
        ctl = AdmissionController(AdmissionConfig(queue_capacity=2))
        rejection = ctl.admit(make_request(0, arrival_us=5.0), pending_count=2, now_us=10.0)
        assert rejection is not None
        assert rejection.reason == REASON_QUEUE_FULL
        assert rejection.latency_us == 5.0


class TestDeadlineShedding:
    def test_future_deadline_admitted_before_any_observation(self, make_request):
        ctl = AdmissionController()
        req = make_request(0, arrival_us=0.0, deadline_us=1.0)
        assert ctl.admit(req, pending_count=0, now_us=0.0) is None

    def test_expired_deadline_rejected(self, make_request):
        ctl = AdmissionController()
        req = make_request(0, arrival_us=0.0, deadline_us=10.0)
        rejection = ctl.admit(req, pending_count=0, now_us=10.0)
        assert rejection is not None and rejection.reason == REASON_DEADLINE

    def test_estimate_sharpens_shedding(self, make_request):
        ctl = AdmissionController()
        ctl.observe_service(1000.0)
        req = make_request(0, arrival_us=0.0, deadline_us=500.0)
        rejection = ctl.admit(req, pending_count=0, now_us=0.0)
        assert rejection is not None and rejection.reason == REASON_DEADLINE
        ok = make_request(1, arrival_us=0.0, deadline_us=2000.0)
        assert ctl.admit(ok, pending_count=0, now_us=0.0) is None

    def test_slack_adds_margin(self, make_request):
        ctl = AdmissionController(AdmissionConfig(deadline_slack_us=100.0))
        req = make_request(0, arrival_us=0.0, deadline_us=50.0)
        rejection = ctl.admit(req, pending_count=0, now_us=0.0)
        assert rejection is not None and rejection.reason == REASON_DEADLINE


class TestProbeAdmission:
    """A controller that refuses everything admits a probe now and then."""

    def test_probe_after_an_estimate_of_quiet(self, make_request):
        ctl = AdmissionController()
        ctl.observe_service(1000.0)

        def admit(rid, now_us):
            req = make_request(rid, arrival_us=now_us, deadline_us=now_us + 500.0)
            return ctl.admit(req, pending_count=0, now_us=now_us)

        # The first refusal starts the count; no probe within the estimate.
        assert admit(0, 0.0).reason == REASON_DEADLINE
        assert admit(1, 1000.0).reason == REASON_DEADLINE
        assert admit(2, 1000.5) is None  # the probe
        # The probe's admission restarts the count.
        assert admit(3, 1500.0).reason == REASON_DEADLINE
        assert admit(4, 2001.0) is None

    def test_probe_count_starts_at_the_last_admission(self, make_request):
        ctl = AdmissionController()
        assert ctl.admit(make_request(0), pending_count=0, now_us=0.0) is None
        ctl.observe_service(1000.0)
        late = make_request(1, arrival_us=1001.0, deadline_us=1501.0)
        assert ctl.admit(late, pending_count=0, now_us=1001.0) is None

    def test_no_probe_past_the_deadline(self, make_request):
        ctl = AdmissionController()
        ctl.observe_service(1000.0)
        assert ctl.admit(make_request(0, deadline_us=10.0), 0, now_us=0.0) is not None
        expired = make_request(1, arrival_us=0.0, deadline_us=5000.0)
        rejection = ctl.admit(expired, pending_count=0, now_us=5000.0)
        assert rejection is not None and rejection.reason == REASON_DEADLINE

    def test_probe_completion_feeds_the_estimate(self, make_request):
        ctl = AdmissionController(AdmissionConfig(ewma_alpha=0.5))
        ctl.observe_service(1000.0)
        ctl.admit(make_request(0, deadline_us=500.0), pending_count=0, now_us=0.0)
        probe = make_request(1, arrival_us=2000.0, deadline_us=2500.0)
        assert ctl.admit(probe, pending_count=0, now_us=2000.0) is None
        ctl.observe_service(200.0)
        assert ctl.service_estimate_us == pytest.approx(600.0)


class TestEwma:
    def test_first_observation_seeds_estimate(self):
        ctl = AdmissionController()
        assert ctl.service_estimate_us == 0.0
        ctl.observe_service(400.0)
        assert ctl.service_estimate_us == 400.0

    def test_ewma_blends(self):
        ctl = AdmissionController(AdmissionConfig(ewma_alpha=0.5))
        ctl.observe_service(100.0)
        ctl.observe_service(200.0)
        assert ctl.service_estimate_us == pytest.approx(150.0)

    def test_rejects_negative_observation(self):
        with pytest.raises(ValueError):
            AdmissionController().observe_service(-1.0)
