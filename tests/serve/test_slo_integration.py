"""Live SLO monitoring wired through the serving stack (deterministic)."""

from repro import obs
from repro.serve.loadgen import run_load, slo_monitor
from repro.serve.service import ServeConfig


def _config(**overrides) -> ServeConfig:
    defaults = dict(
        agents_per_session=32,
        devices=1,
        physics=False,
        batching=True,
        queue_capacity=64,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _run(rate_rps, monitor=None, **kwargs):
    params = dict(
        clients=4,
        duration_s=0.05,
        rate_rps=rate_rps,
        seed=11,
        config=_config(),
        monitor=monitor,
    )
    params.update(kwargs)
    return run_load(**params)


def _monitor():
    return slo_monitor(p99_ms=2.6, queue_depth=30, window_s=0.02)


class TestSloFiring:
    """The acceptance scenario: fires above capacity, silent below."""

    def test_no_alerts_below_capacity(self):
        report = _run(1000.0, monitor=_monitor())
        assert report.alerts == []

    def test_alerts_fire_above_capacity(self):
        monitor = _monitor()
        report = _run(48000.0, monitor=monitor)
        fired = {alert["rule"] for alert in report.alerts}
        assert fired == {"latency-p99", "queue-depth"}
        assert monitor.fired("latency-p99")
        # The report carries the exportable alert log verbatim.
        assert report.to_dict()["alerts_fired"] == len(report.alerts)
        for alert in report.alerts:
            assert alert["fired_at_s"] >= 0.0
            assert alert["value"] > alert["threshold"]

    def test_firing_is_deterministic(self):
        a = _run(48000.0, monitor=_monitor())
        b = _run(48000.0, monitor=_monitor())
        assert a.alerts == b.alerts

    def test_slo_summary_line_appears(self):
        report = _run(48000.0, monitor=_monitor())
        assert any("slo alerts" in line for line in report.lines())


class TestAdmissionReaction:
    """A firing alert switches the backpressure policy (degradation)."""

    def test_degrade_policy_switch_sheds_instead_of_rejecting(self):
        overload = dict(config=_config(queue_capacity=16))
        passive = _run(48000.0, **overload)
        assert passive.shed == 0 and passive.rejected > 0

        monitor = slo_monitor(p99_ms=2.6, window_s=0.02)
        reactive = _run(
            48000.0,
            monitor=monitor,
            degrade_policy="shed-oldest",
            **overload,
        )
        # Before the alert fires the service rejects; after, it sheds.
        assert monitor.fired("latency-p99")
        assert reactive.shed > 0

    def test_policy_transitions_emit_trace_instants(self):
        with obs.capture() as cap:
            monitor = slo_monitor(p99_ms=2.6, window_s=0.02)
            _run(
                48000.0,
                monitor=monitor,
                degrade_policy="shed-oldest",
                config=_config(queue_capacity=16),
            )
        names = {e.name for e in cap.events if e.kind == "instant"}
        assert "serve.slo-fire" in names
        fire = next(e for e in cap.events if e.name == "serve.slo-fire")
        assert fire.args["rule"] == "latency-p99"

    def test_attach_monitor_rejects_unknown_policy(self):
        import pytest

        from repro.cupp.exceptions import CuppUsageError
        from repro.serve.service import SimulationService

        service = SimulationService(_config())
        with pytest.raises(CuppUsageError):
            service.attach_monitor(_monitor(), degrade_policy="explode")


class TestLatencySeries:
    """Satellite: per-request outcomes land in canonical registry series."""

    def test_request_latency_histogram_is_fed(self):
        _run(1000.0)
        snap = obs.get_metrics().snapshot()
        series = snap["histograms"]["repro.request.latency{component=serve}"]
        assert series["count"] > 0

    def test_request_outcome_counter_labels(self):
        _run(48000.0, config=_config(queue_capacity=16))
        counters = obs.get_metrics().snapshot()["counters"]
        done = counters["repro.request.outcome{component=serve,outcome=done}"]
        rejected = counters[
            "repro.request.outcome{component=serve,outcome=rejected}"
        ]
        assert done > 0 and rejected > 0


class TestDrainSweep:
    def test_swept_requests_reach_the_monitor_on_the_service_clock(self):
        from repro.obs.monitor import OUTCOME_SERIES, SloMonitor, SloRule
        from repro.serve.service import SimulationService

        rule = SloRule("outcomes", OUTCOME_SERIES, "count", 1, window_s=1.0)
        monitor = SloMonitor([rule])
        service = SimulationService(_config())
        service.attach_monitor(monitor)
        service.create_session("a")
        service.submit("a", deadline_s=1.0)
        # drain()'s last-resort sweep expires unlaunchable work "at" inf;
        # a sample stamped inf would age every later sample out at once.
        service.admission.drop_expired(float("inf"))
        monitor.observe(OUTCOME_SERIES, service.now, 0.0)
        assert [a.rule for a in monitor.evaluate(service.now)] == ["outcomes"]
