"""repro.serve.explain + service flight integration: the waterfall a
request's retained trace reconstructs, end to end."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.fault import FaultConfig
from repro.obs.flight import FlightRecorder
from repro.serve import explain, loadgen
from repro.serve.request import RequestStatus
from repro.serve.service import ServeConfig, SimulationService


def flight_service(script=None, flight=None, **overrides):
    defaults = dict(
        agents_per_session=16,
        devices=2,
        physics=False,
    )
    if script is not None:
        defaults["faults"] = FaultConfig(script=script)
    defaults.update(overrides)
    service = SimulationService(ServeConfig(**defaults))
    service.attach_flight(flight or FlightRecorder(head_sample_every=1))
    return service


class TestCleanWaterfall:
    def test_done_request_walks_admit_queue_attempt(self):
        service = flight_service()
        service.create_session("a")
        r = service.submit("a")
        service.drain()

        w = explain.waterfall(service.flight, r.request_id)
        assert w["request_id"] == r.request_id
        assert [h["name"] for h in w["hops"]] == [
            "request", "admit", "queue", "attempt-1",
        ]
        assert w["connected"]
        assert w["attempts"] == 1 and w["fused_links"] == 1
        last = w["hops"][-1]
        assert last["outcome"] == "done"
        assert last["fused"]["size"] == 1

    def test_coalesced_peers_point_at_batchmates(self):
        service = flight_service()
        for i in range(3):
            service.create_session(f"s{i}")
        requests = [service.submit(f"s{i}") for i in range(3)]
        service.drain()

        # All three rode one fused launch (same arrival instant, one
        # device free at window close) or split across two devices;
        # every rider's peers must be exactly its batchmates.
        by_batch: dict = {}
        for r in requests:
            by_batch.setdefault((r.batch_id, r.device_index), []).append(r)
        for (batch, _), riders in by_batch.items():
            if len(riders) < 2:
                continue
            traces = {
                service.flight.trace_for_request(r.request_id).trace_id
                for r in riders
            }
            for r in riders:
                w = explain.waterfall(service.flight, r.request_id)
                own = service.flight.trace_for_request(
                    r.request_id
                ).trace_id
                assert set(w["hops"][-1]["peers"]) == traces - {own}

    def test_trace_id_lookup_matches_request_lookup(self):
        service = flight_service()
        service.create_session("a")
        r = service.submit("a")
        service.drain()
        trace_id = service.flight.trace_for_request(r.request_id).trace_id
        assert explain.waterfall(service.flight, trace_id) == \
            explain.waterfall(service.flight, r.request_id)

    def test_unknown_id_raises_with_sampling_hint(self):
        service = flight_service()
        service.create_session("a")
        service.submit("a")
        service.drain()
        with pytest.raises(KeyError, match="tail sampling"):
            explain.waterfall(service.flight, 999)


class TestFaultedWaterfall:
    def test_failover_hop_lands_in_the_waterfall(self):
        service = flight_service({"launch": ["hang"]})
        service.create_session("a", seed=3)
        r = service.submit("a")
        service.drain()
        assert r.status is RequestStatus.DONE

        w = explain.waterfall(service.flight, r.request_id)
        kinds = [h["kind"] for h in w["hops"] if h["kind"]]
        assert kinds == ["failover-of"]
        assert w["connected"]
        first, second = [
            h for h in w["hops"] if h["name"].startswith("attempt")
        ]
        assert first["outcome"] == "batch-timeout"
        assert second["outcome"] == "done"
        assert "failover" in w["flags"] and "fault" in w["flags"]

    def test_failed_request_waterfall_ends_failed(self):
        service = flight_service({"launch": ["launch-fail"] * 3})
        service.create_session("a", seed=2)
        r = service.submit("a")
        service.drain()
        assert r.status is RequestStatus.FAILED

        w = explain.waterfall(service.flight, r.request_id)
        assert "failed" in w["flags"]
        assert w["attempts"] == 3
        kinds = [h["kind"] for h in w["hops"] if h["kind"]]
        assert kinds == ["retry-of", "retry-of"]
        assert w["hops"][0]["outcome"] == "failed"
        assert w["connected"]

    def test_expired_request_records_deadline_miss(self):
        service = flight_service()
        service.create_session("a")
        r = service.submit("a", deadline_s=-1.0)
        assert r.status is RequestStatus.EXPIRED
        record = service.flight.trace_for_request(r.request_id)
        assert "deadline-miss" in record.flags
        assert record.spans[0].attrs["where"] == "submit"


class TestExplainCli:
    def _chaos_file(self, tmp_path):
        service = flight_service({"launch": ["hang"]})
        service.create_session("a", seed=3)
        r = service.submit("a")
        service.drain()
        path = tmp_path / "flight.json"
        service.flight.write(str(path))
        return str(path), r.request_id

    def test_cli_renders_waterfall_and_json(self, tmp_path, capsys):
        path, request_id = self._chaos_file(tmp_path)
        out_json = tmp_path / "waterfall.json"
        code = explain.main(
            [path, str(request_id), "--json", str(out_json), "--gantt"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failover-of" in out
        assert "device timeline" in out
        doc = json.loads(out_json.read_text())
        assert doc["connected"]
        assert any(h["kind"] == "failover-of" for h in doc["hops"])

    def test_cli_unknown_id_exits_nonzero(self, tmp_path, capsys):
        path, _ = self._chaos_file(tmp_path)
        assert explain.main([path, "424242"]) == 1
        assert "tail sampling" in capsys.readouterr().err

    def test_chaos_loadgen_failover_explains(self, tmp_path, capsys):
        flight, report = tmp_path / "flight.json", tmp_path / "report.json"
        assert loadgen.main(
            ["--chaos", "--seed", "7", "--duration", "0.3",
             "--flight", str(flight), "--json", str(report)]
        ) == 0
        summary = json.loads(report.read_text())["flight"]
        assert 0 < summary["retained"] <= summary["cap"]
        assert summary["failover_request_ids"], "no failed-over request"
        assert any(e["retained"] for e in summary["p99_exemplars"]), (
            "no p99 exemplar resolves to a retained trace"
        )
        target = summary["failover_request_ids"][0]
        out = tmp_path / "waterfall.json"
        assert explain.main(
            [str(flight), str(target), "--json", str(out), "--gantt"]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["connected"], "waterfall has causal gaps"
        assert any(h["kind"] == "failover-of" for h in doc["hops"])


class TestTracingIsInert:
    def test_flight_off_leaves_no_context_and_same_timings(self):
        # No observers, the flight recorder, and the flight recorder plus
        # an SLO monitor (no degrade policy, so alerts steer nothing)
        # must all give the same schedule, counters and ledger, clean
        # and through a hang, timeout and failover.
        def run(script, flight: bool, monitor: bool):
            obs.reset()
            service = SimulationService(
                ServeConfig(
                    agents_per_session=16, devices=2, physics=False,
                    faults=script and FaultConfig(script=script),
                )
            )
            if flight:
                service.attach_flight(FlightRecorder(head_sample_every=1))
            if monitor:
                slo = loadgen.slo_monitor(queue_depth=0, fault_count=0)
                service.attach_monitor(slo)
            for name in "abc":
                service.create_session(name, seed=3)
            requests = [service.submit(n) for _ in range(3) for n in "abc"]
            service.drain()
            if monitor:
                assert slo.log, "the monitor never fired"
            return (
                [
                    (r.status.name, r.attempts, r.admit_s, r.launch_s,
                     r.finish_s, r.latency_s)
                    for r in requests
                ],
                dataclasses.asdict(service.stats),
                json.dumps(obs.get_ledger().snapshot(), sort_keys=True),
            )

        for script in (None, {"launch": [None, "hang"]}):
            off = run(script, False, False)
            assert off[1]["timeouts"] == (script is not None)
            assert run(script, True, False) == off
            assert run(script, True, True) == off

    def test_flight_off_requests_carry_no_ctx(self):
        service = SimulationService(
            ServeConfig(agents_per_session=16, physics=False)
        )
        service.create_session("a")
        r = service.submit("a")
        service.drain()
        assert r.ctx is None


class TestExporterGuard:
    def test_minus_one_request_id_is_rejected(self):
        from repro.obs.export import chrome_trace
        from repro.obs.tracer import TraceEvent

        bad = TraceEvent(
            name="serve.deadline-miss", kind="instant", ts=0.0, dur=0.0,
            tid=1, depth=0, parent=None, args={"request": -1},
        )
        with pytest.raises(ValueError, match="request id sentinel"):
            chrome_trace([bad])

    def test_unassigned_request_emits_no_request_arg(self):
        from repro.obs.export import chrome_trace
        from repro.serve.admission import AdmissionController
        from repro.serve.request import StepRequest

        recorder = obs.enable_tracing()
        admission = AdmissionController(capacity=4)
        # A request offered straight to admission (no service assigning
        # an id) with an already-missed deadline: the instant must not
        # leak request=-1, and the exporter must accept the trace.
        admission.submit(
            StepRequest(session_id="a", arrival_s=0.0, deadline_s=-1.0),
            now=0.0,
        )
        events = recorder.events()
        miss = [e for e in events if e.name == "serve.deadline-miss"]
        assert miss and "request" not in miss[0].args
        assert miss[0].args["where"] == "submit"
        chrome_trace(events)  # must not raise


class TestAnalyzeWhereSplit:
    def test_deadline_miss_instants_split_by_where(self):
        from repro.obs.analyze import analyze

        recorder = obs.enable_tracing()
        service = SimulationService(
            ServeConfig(agents_per_session=16, physics=False)
        )
        service.create_session("a")
        # Submit-time refusal: deadline already passed at arrival.
        service.submit("a", deadline_s=-1.0)
        # Queue expiry: admitted fine, expires before any batch forms.
        service.submit("a", deadline_s=service.now + 1e-9)
        service.advance(service.now + 1.0)
        service.drain()
        report = analyze(recorder.events())
        assert report.instants["serve.deadline-miss[where=submit]"] == 1
        assert report.instants["serve.deadline-miss[where=dequeue]"] == 1
