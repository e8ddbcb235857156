"""Per-device stream pipelining in the serving scheduler.

``ServeConfig.streams`` controls how the :class:`DeviceScheduler` uses
each device's timeline.  ``streams=1`` is the legacy serial scheduler —
every launch and memcpy serializes on ``device_busy_until`` — and must
reproduce pre-stream numbers *byte for byte*.  ``streams >= 2`` gives
each device a copy stream and a compute stream, pipelines two
sub-batches deep, and defers result fetches onto the copy engine so
uploads/kernels/downloads overlap across batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cupp import CuppUsageError
from repro.fault import FaultConfig
from repro.obs.flight import FlightRecorder
from repro.serve.loadgen import run_load
from repro.serve.request import RequestStatus
from repro.serve.service import ServeConfig, SimulationService
from repro.steer.params import DEFAULT_PARAMS
from repro.steer.simulation import Simulation


def service_with(**overrides) -> SimulationService:
    defaults = dict(agents_per_session=16, devices=1, physics=True)
    defaults.update(overrides)
    return SimulationService(ServeConfig(**defaults))


def reference_positions(n: int, seed: int, steps: int) -> np.ndarray:
    ref = Simulation(n, DEFAULT_PARAMS, seed=seed)
    for _ in range(steps):
        ref.update()
    return ref.positions


class TestConfig:
    def test_streams_must_be_positive(self):
        with pytest.raises(CuppUsageError, match="streams"):
            SimulationService(ServeConfig(streams=0))

    def test_single_stream_disables_pipelining(self):
        service = service_with(streams=1)
        assert service.scheduler.pipeline_depth == 1

    def test_default_pipelines_two_deep(self):
        service = service_with()
        assert service.scheduler.streams == 2
        assert service.scheduler.pipeline_depth == 2


class TestPipelining:
    def test_two_batches_in_flight_on_one_device(self):
        # max_batch=1 forces one sub-batch per request; with depth-2
        # pipelining both launch on the lone device before either
        # completes — impossible under the serial scheduler.
        service = service_with(max_batch=1, physics=False)
        service.create_session("a", n=16, seed=1)
        service.create_session("b", n=16, seed=2)
        ra = service.submit("a")
        rb = service.submit("b")
        service.advance(1e-6)

        assert len(service._in_flight) == 2
        assert all(s.device_index == 0 for s in service._in_flight)
        assert service.scheduler.inflight_count[0] == 2
        service.drain()
        assert ra.status is RequestStatus.DONE
        assert rb.status is RequestStatus.DONE

    def test_single_stream_keeps_serial_depth(self):
        service = service_with(max_batch=1, physics=False, streams=1)
        service.create_session("a", n=16, seed=1)
        service.create_session("b", n=16, seed=2)
        service.submit("a")
        service.submit("b")
        service.advance(1e-6)

        # The serial scheduler admits one sub-batch per device.
        assert len(service._in_flight) == 1
        service.drain()
        assert service.stats.completed == 2

    def test_upload_gates_kernels_with_a_stream_wait(self):
        service = service_with(physics=False)
        service.create_session("a", n=16, seed=1)
        service.submit("a")
        service.drain()

        led = obs.get_ledger().snapshot()
        # Cold upload rides the copy stream; the compute stream waits on
        # its completion event before the fused kernels run.
        assert led["count_by_cause"]["stream-wait"] >= 1
        assert led["bytes_by_cause"]["batch-concat"] > 0
        assert led["bytes_by_cause"]["batch-split"] > 0

    def test_flight_tracks_are_stream_tagged(self):
        service = service_with(physics=False)
        flight = FlightRecorder()
        service.attach_flight(flight)
        service.create_session("a", n=16, seed=1)
        service.submit("a")
        service.drain()

        tagged = [e for e in flight.device_events if e.stream is not None]
        assert tagged, "no stream-tagged device events recorded"
        # Copy work and compute work land on distinct streams, so the
        # timeline viewer can split them into per-stream sub-tracks.
        assert len({e.stream for e in tagged}) >= 2
        kinds = {e.kind for e in tagged}
        assert "transfer" in kinds and "busy" in kinds


class TestLoadBehaviour:
    # Committed serve-slo baseline (benchmarks/baseline.json), produced
    # by the pre-stream serial scheduler at these exact knobs.
    BASELINE = dict(
        completed=3913,
        p50_ms=1.2585111471024868,
        p99_ms=2.7092348257584993,
        batches=317,
        launches=1118,
        mean_batch_size=12.343848580441641,
    )
    KNOBS = dict(clients=32, duration_s=0.25, rate_rps=16000.0, seed=0)

    def test_single_stream_reproduces_committed_baseline_exactly(self):
        r = run_load(
            **self.KNOBS, config=ServeConfig(physics=False, streams=1)
        )
        assert r.completed == self.BASELINE["completed"]
        assert r.p50_ms == self.BASELINE["p50_ms"]
        assert r.p99_ms == self.BASELINE["p99_ms"]
        assert r.batches == self.BASELINE["batches"]
        assert r.launches == self.BASELINE["launches"]
        assert r.mean_batch_size == self.BASELINE["mean_batch_size"]

    def test_pipelining_reduces_tail_latency(self):
        serial = run_load(
            **self.KNOBS, config=ServeConfig(physics=False, streams=1)
        )
        piped = run_load(
            **self.KNOBS, config=ServeConfig(physics=False, streams=2)
        )
        assert piped.completed >= serial.completed
        assert piped.p99_ms <= serial.p99_ms
        assert piped.p50_ms <= serial.p50_ms


class TestFaultsUnderPipelining:
    def test_hung_batch_abandons_pipelined_sibling(self):
        # One device, two single-request batches pipelined onto it; the
        # first launch hangs.  The watchdog evicts the device once, the
        # sibling is abandoned (not separately timed out), and both
        # requests recover via retry after probe readmission.
        service = service_with(
            max_batch=1,
            faults=FaultConfig(script={"launch": ["hang"]}),
        )
        service.create_session("a", n=16, seed=1)
        service.create_session("b", n=16, seed=2)
        ra = service.submit("a")
        service.advance(1e-6)  # batch A launches (and hangs)
        rb = service.submit("b")
        service.advance(2e-4)  # batch B pipelines behind it
        assert len(service._in_flight) == 2
        service.drain()

        assert ra.status is RequestStatus.DONE
        assert rb.status is RequestStatus.DONE
        assert service.stats.timeouts == 1
        assert service.stats.evictions == 1
        # Both the hung batch and its abandoned sibling were retried.
        assert service.stats.retries == 2
        assert not service._zombies

        # Recovery is invisible to the client: each session's physics
        # equals a clean single-step reference run.
        np.testing.assert_allclose(
            service.store.get("a").sim.positions,
            reference_positions(16, 1, 1),
        )
        np.testing.assert_allclose(
            service.store.get("b").sim.positions,
            reference_positions(16, 2, 1),
        )

    @pytest.mark.parametrize("streams", [1, 2])
    def test_painted_intervals_are_the_timeline_ops(self, streams):
        # The flight tracks are read from the ops the timeline returned,
        # not re-derived: every transfer is a returned copy op, and every
        # busy interval (plus its wedged tail, for the hung launch) is
        # exactly a returned kernel op, in both stream modes.
        service = service_with(
            max_batch=1,
            physics=False,
            streams=streams,
            faults=FaultConfig(script={"launch": ["hang"]}),
        )
        flight = FlightRecorder()
        service.attach_flight(flight)
        returned = set()  # (kind, start, end, stream) of every op
        tl = service.scheduler.timelines[0]
        for name in ("launch_kernel", "memcpy", "stream_launch", "stream_memcpy"):

            def record(*args, _call=getattr(tl, name)):
                op = _call(*args)
                returned.add((op.kind, op.start_s, op.end_s, op.stream_id))
                return op

            setattr(tl, name, record)
        service.create_session("a", n=16, seed=1)
        service.create_session("b", n=16, seed=2)
        service.submit("a")
        service.advance(1e-6)  # batch A launches (and hangs)
        service.submit("b")
        service.drain()
        assert service.stats.timeouts == 1

        events = flight.device_events
        wedged = {(e.start_s, e.stream): e.end_s for e in events if e.kind == "wedged"}
        assert len(wedged) == 1
        assert {e.kind for e in events} == {"busy", "wedged", "transfer"}
        for e in events:
            if e.kind == "transfer":
                assert ("copy", e.start_s, e.end_s, e.stream) in returned
            elif e.kind == "busy":
                end = wedged.pop((e.end_s, e.stream), e.end_s)
                assert ("kernel", e.start_s, end, e.stream) in returned
        assert not wedged, "a wedged interval follows no busy interval"

    def test_eviction_resets_pipeline_occupancy(self):
        service = service_with(
            max_batch=1,
            faults=FaultConfig(script={"launch": ["hang"]}),
        )
        service.create_session("a", n=16, seed=1)
        service.submit("a")
        service.advance(1e-6)
        service.drain()
        assert service.scheduler.inflight_count[0] == 0
        assert not any(service.scheduler.inflight_count)
