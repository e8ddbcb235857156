"""SimulationService integration: the full admission->batch->device path."""

import numpy as np
import pytest

from repro import obs
from repro.cupp.exceptions import CuppUsageError
from repro.serve.request import RequestStatus
from repro.serve.service import ServeConfig, SimulationService
from repro.serve.sessions import STATE_FLOATS_PER_AGENT
from repro.steer.params import DEFAULT_PARAMS
from repro.steer.simulation import Simulation


def make_service(**overrides) -> SimulationService:
    defaults = dict(agents_per_session=16, devices=1, physics=False)
    defaults.update(overrides)
    return SimulationService(ServeConfig(**defaults))


class TestPhysics:
    def test_served_steps_match_standalone_simulation(self):
        service = make_service(physics=True)
        service.create_session("a", n=16, seed=7)
        for _ in range(3):
            service.submit("a")
        service.drain()

        reference = Simulation(16, DEFAULT_PARAMS, seed=7)
        for _ in range(3):
            reference.update()
        served = service.store.get("a").sim
        np.testing.assert_allclose(served.positions, reference.positions)
        np.testing.assert_allclose(served.speeds, reference.speeds)

    def test_want_draw_returns_post_step_matrices(self):
        service = make_service(physics=True)
        service.create_session("a", n=8, seed=3)
        service.create_session("b", n=8, seed=4)
        ra = service.submit("a", want_draw=True)
        rb = service.submit("b", want_draw=True)
        service.drain()

        ref = Simulation(8, DEFAULT_PARAMS, seed=3)
        ref.update()
        assert ra.result.shape == (8, 4, 4)
        np.testing.assert_allclose(
            ra.result, ref.draw_stage().astype(np.float32), rtol=1e-6
        )
        assert rb.result.shape == (8, 4, 4)


class TestLifecycle:
    def test_request_journey_timestamps(self):
        service = make_service()
        service.create_session("a")
        r = service.submit("a")
        service.drain()
        assert r.status is RequestStatus.DONE
        assert r.admit_s == 0.0
        assert r.launch_s >= r.admit_s
        assert r.finish_s > r.launch_s
        assert r.latency_s > 0 and r.queue_wait_s >= 0
        assert r.device_index == 0 and r.batch_id == 0

    def test_per_session_requests_serialize(self):
        service = make_service()
        service.create_session("a")
        r1 = service.submit("a")
        r2 = service.submit("a")
        service.drain()
        assert r1.batch_id != r2.batch_id
        assert r2.launch_s >= r1.finish_s

    def test_unknown_session_rejected(self):
        from repro.cupp import CuppUsageError

        with pytest.raises(CuppUsageError):
            make_service().submit("ghost")

    def test_deterministic_replay(self):
        def run():
            service = make_service(agents_per_session=32)
            for i in range(4):
                service.create_session(f"s{i}", seed=i)
            reqs = []
            for k in range(12):
                service.advance(k * 1e-4)
                reqs.append(service.submit(f"s{k % 4}"))
            service.drain()
            return [(r.launch_s, r.finish_s, r.batch_id) for r in reqs]

        assert run() == run()


class TestBatchingEconomics:
    def test_one_batch_two_sessions_two_launches(self):
        service = make_service(max_batch=8)
        service.create_session("a")
        service.create_session("b")
        ra = service.submit("a")
        rb = service.submit("b")
        service.drain()
        assert ra.batch_id == rb.batch_id
        assert service.stats.batches == 1
        assert service.stats.launches == 2

    def test_unbatched_pays_launches_per_request(self):
        service = make_service(batching=False)
        service.create_session("a")
        service.create_session("b")
        service.submit("a")
        service.submit("b")
        service.drain()
        assert service.stats.batches == 2
        assert service.stats.launches == 4

    def test_batched_is_cheaper_in_launches_and_bytes(self):
        def totals(batching):
            obs.reset()
            service = make_service(max_batch=8, batching=batching)
            for i in range(4):
                service.create_session(f"s{i}")
                service.submit(f"s{i}")
            service.drain()
            led = obs.get_ledger().snapshot()
            return service.stats.launches, led["count_by_cause"]["batch-split"]

        batched_launches, batched_fetches = totals(True)
        unbatched_launches, unbatched_fetches = totals(False)
        assert batched_launches < unbatched_launches
        assert batched_fetches < unbatched_fetches


class TestLazyResidency:
    def test_state_uploaded_once_then_reused(self):
        service = make_service()
        session = service.create_session("a")
        service.submit("a")
        service.drain()
        uploaded = obs.get_ledger().snapshot()["bytes_by_cause"]["batch-concat"]
        assert uploaded == session.state_bytes
        assert session.resident_on == 0

        for _ in range(3):
            service.submit("a")
        service.drain()
        again = obs.get_ledger().snapshot()["bytes_by_cause"]["batch-concat"]
        assert again == uploaded  # lazy hits: not one byte re-uploaded

    def test_cold_sessions_fuse_into_one_upload(self):
        service = make_service(max_batch=8)
        sessions = [service.create_session(f"s{i}") for i in range(3)]
        for s in sessions:
            service.submit(s.session_id)
        service.drain()
        led = obs.get_ledger().snapshot()
        assert led["count_by_cause"]["batch-concat"] == 1
        assert led["bytes_by_cause"]["batch-concat"] == sum(
            s.state_bytes for s in sessions
        )


class TestMultiDevice:
    def test_cold_batch_spreads_over_free_devices(self):
        service = make_service(devices=2, max_batch=8)
        reqs = []
        for i in range(4):
            service.create_session(f"s{i}")
            reqs.append(service.submit(f"s{i}"))
        service.drain()
        assert {r.device_index for r in reqs} == {0, 1}

    def test_warm_sessions_stay_on_their_device(self):
        service = make_service(devices=2, max_batch=8)
        for i in range(4):
            service.create_session(f"s{i}")
            service.submit(f"s{i}")
        service.drain()
        homes = {s.session_id: s.resident_on for s in service.store}
        for i in range(4):
            service.submit(f"s{i}")
        service.drain()
        assert homes == {s.session_id: s.resident_on for s in service.store}


class TestBackpressure:
    def test_reject_overflow_end_to_end(self):
        service = make_service(queue_capacity=1, policy="reject")
        for i in range(3):
            service.create_session(f"s{i}")
        outcomes = [service.submit(f"s{i}").status for i in range(3)]
        service.drain()
        assert outcomes.count(RequestStatus.REJECTED) == 2
        assert service.stats.completed == 1

    def test_block_policy_eventually_serves_everyone(self):
        service = make_service(queue_capacity=1, policy="block")
        for i in range(3):
            service.create_session(f"s{i}")
        reqs = [service.submit(f"s{i}") for i in range(3)]
        service.drain()
        assert all(r.status is RequestStatus.DONE for r in reqs)
        assert service.stats.completed == 3

    def test_deadline_expires_queued_request(self):
        service = make_service(window_s=0.1, default_deadline_s=0.01)
        service.create_session("a")
        r = service.submit("a")
        service.drain()
        assert r.status is RequestStatus.EXPIRED
        assert r.finish_s is None


class TestSessionState:
    def test_synthetic_state_vector_is_stable(self):
        service = make_service()
        session = service.create_session("a")
        expected = 16 * STATE_FLOATS_PER_AGENT
        assert len(session.state) == expected
        service.submit("a")
        service.drain()
        assert len(session.state) == expected


class TestConfigValidation:
    @pytest.mark.parametrize("agents", [0, -4, 2.5, "16", True, None])
    def test_bad_agents_per_session_raises_at_construction(self, agents):
        with pytest.raises(CuppUsageError, match="agents_per_session"):
            ServeConfig(agents_per_session=agents)

    def test_integer_agents_per_session_pass(self):
        assert ServeConfig(agents_per_session=np.int64(8)).agents_per_session == 8
