"""The serving event calendar against a brute-force rescan, and its cost.

:class:`~repro.serve.service.SimulationService` keeps its next event in
a calendar: a timed part recomputed when an event runs, and a
launch-ready part (eligible session-head count, oldest head's admit
time, any-retry flag) that ``submit`` updates in O(1).  The oracle here
recomputes both parts and the next event time the polling way — every
in-flight sub-batch, zombie, parked retry, the probe, and a full rescan
of the admission queue — after every ``submit`` and every event, over
random arrival streams and service shapes, and demands exact equality.

The counted test pins the point of the calendar: an ``advance`` that
reaches no due event asks the scheduler for nothing and walks no queue.
"""

from __future__ import annotations

from collections import deque

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fault import FaultConfig
from repro.serve.loadgen import slo_monitor
from repro.serve.request import TERMINAL_STATUSES, RequestStatus
from repro.serve.service import ServeConfig, SimulationService


def rescan(service: SimulationService):
    """The calendar's two parts, recomputed from all service state:
    ``(earliest timed event, (heads, oldest admit, any retry))``, with
    ``(0,)`` for the second when no head is eligible."""
    times = []
    for sub in service._in_flight:
        t = sub.completion_s
        if sub.timeout_s is not None:
            t = min(t, sub.timeout_s)
        times.append(t)
    times.extend(sub.completion_s for sub in service._zombies)
    times.extend(wake for wake, _, _ in service._retry_parked)
    if service.scheduler.unhealthy and service._next_probe_s is not None:
        times.append(service._next_probe_s)
    free = set(service.scheduler.free_devices())
    seen, eligible = set(), []
    for request in service.admission.queue if free else ():
        sid = request.session_id
        if sid in service._busy_sessions or sid in seen:
            continue
        home = service.store.get(sid).resident_on
        if home is not None and home not in free:
            continue
        seen.add(sid)
        eligible.append(request)
    heads = (0,)
    if eligible:
        retry = any(r.attempts for r in eligible)
        heads = (len(eligible), eligible[0].admit_s, retry)
    return (min(times) if times else None), heads


def rescanned_next_event(service: SimulationService) -> "float | None":
    """The next event time the polling way: the window/size rule over a
    full rescan, against every timed event."""
    timed, heads = rescan(service)
    times = [] if timed is None else [timed]
    if heads[0]:
        count, oldest_admit_s, retry = heads
        batcher = service.batcher
        if count >= batcher.max_batch or retry:
            times.append(service.now)
        else:
            times.append(max(service.now, oldest_admit_s + batcher.window_s))
    return min(times) if times else None


shapes = st.fixed_dictionaries(
    {
        "streams": st.sampled_from([1, 2]),
        "devices": st.integers(1, 3),
        "policy": st.sampled_from(["reject", "shed-oldest", "block"]),
        "deadline_ms": st.sampled_from([None, 0.4, 1.5]),
        "chaos": st.booleans(),
        "degrade": st.sampled_from(["reject", "shed-oldest", "block"]),
        "max_batch": st.integers(1, 6),
        "capacity": st.integers(1, 4),
        "clients": st.integers(1, 8),
        "seed": st.integers(0, 2**16),
    }
)

#: ``(gap in 10 µs ticks, client)`` per arrival.
arrivals = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 7)), min_size=1, max_size=120
)


def build(shape: dict) -> SimulationService:
    deadline = shape["deadline_ms"]
    service = SimulationService(
        ServeConfig(
            agents_per_session=16,
            physics=False,
            max_batch=shape["max_batch"],
            window_s=0.2e-3,
            queue_capacity=shape["capacity"],
            policy=shape["policy"],
            default_deadline_s=None if deadline is None else deadline * 1e-3,
            devices=shape["devices"],
            streams=shape["streams"],
            faults=(
                FaultConfig.chaos(seed=shape["seed"], device_fault_rate=0.3)
                if shape["chaos"]
                else None
            ),
        )
    )
    # Tight thresholds so alerts fire (and degrade admission and the
    # window) while requests are still arriving.
    monitor = slo_monitor(p99_ms=0.3, queue_depth=3, window_s=1e-3)
    service.attach_monitor(monitor, degrade_policy=shape["degrade"])
    for i in range(shape["clients"]):
        service.create_session(f"c{i}", seed=i)
    return service


def assert_calendar_matches(service: SimulationService) -> None:
    # Each part on its own, so a wrong launch-ready entry cannot hide
    # behind an earlier timed event.
    heads = (0,)
    if service._heads:
        heads = (service._heads, service._oldest_head_s, service._head_retry)
    assert (service._timed_next, heads) == rescan(service)
    assert service._next_event_time() == rescanned_next_event(service)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shape=shapes, stream=arrivals)
def test_calendar_matches_a_full_rescan(shape, stream):
    service = build(shape)
    run_event = service._run_event

    def checked_event(t: float) -> None:
        run_event(t)
        assert_calendar_matches(service)

    service._run_event = checked_event
    assert_calendar_matches(service)
    now, requests = 0.0, []
    for gap, client in stream:
        now += gap * 1e-5
        service.advance(now)
        assert_calendar_matches(service)
        requests.append(service.submit(f"c{client % shape['clients']}"))
        assert_calendar_matches(service)
    service.drain()
    assert_calendar_matches(service)
    assert all(r.status in TERMINAL_STATUSES for r in requests)


def test_a_shed_arrival_recounts_the_heads():
    # The window holds "a" and "b" queued; "c" sheds "a", the oldest
    # head, so the window now runs from "b"'s admission.
    service = SimulationService(
        ServeConfig(
            physics=False, devices=1, policy="shed-oldest",
            queue_capacity=2, max_batch=8, window_s=1e-3,
        )
    )
    for sid in "abc":
        service.create_session(sid)
    a = service.submit("a")
    service.advance(1e-4)
    service.submit("b")
    service.advance(2e-4)
    service.submit("c")
    assert a.status is RequestStatus.SHED
    assert_calendar_matches(service)
    assert service._next_event_time() == 1e-4 + 1e-3


def test_requests_the_drain_sweep_admits_are_launched():
    # One device at pipeline depth 1 and a one-slot blocking queue: "b"
    # expires in the queue behind "a"'s step while "c" is blocked.  When
    # "a" completes, the queue empties without a launch to admit "c";
    # only drain()'s last-resort sweep does.
    service = SimulationService(
        ServeConfig(
            physics=False, devices=1, streams=1, policy="block",
            queue_capacity=1, max_batch=1, window_s=0.0,
        )
    )
    for sid in "abc":
        service.create_session(sid)
    a = service.submit("a")
    service.advance(1e-6)
    b = service.submit("b", deadline_s=service.now + 1e-6)
    c = service.submit("c")
    assert c.status is RequestStatus.BLOCKED
    service.drain()
    assert_calendar_matches(service)
    assert [r.status for r in (a, b, c)] == [
        RequestStatus.DONE, RequestStatus.EXPIRED, RequestStatus.DONE,
    ]


class CountingQueue(deque):
    """An admission queue that counts the requests walked over it."""

    walked = 0

    def __iter__(self):
        for request in super().__iter__():
            CountingQueue.walked += 1
            yield request


def test_an_advance_without_a_due_event_polls_nothing():
    service = SimulationService(ServeConfig(physics=False, devices=2))
    for i in range(16):
        service.create_session(f"c{i}", seed=i)
    service.admission.queue = CountingQueue()
    CountingQueue.walked = 0
    calls = {"free": 0, "events": 0}
    free_devices, run_event = service.scheduler.free_devices, service._run_event

    def counted_free_devices():
        calls["free"] += 1
        return free_devices()

    def counted_event(t: float) -> None:
        calls["events"] += 1
        run_event(t)

    service.scheduler.free_devices = counted_free_devices
    service._run_event = counted_event
    idle_advances, now = 0, 0.0
    for k in range(400):
        now += 50e-6
        before = (calls["free"], calls["events"], CountingQueue.walked)
        service.advance(now)
        if calls["events"] == before[1]:
            idle_advances += 1
            assert (calls["free"], CountingQueue.walked) == (
                before[0], before[2]
            ), f"advance #{k} ran no event but polled"
        service.submit(f"c{k % 16}")
    service.drain()
    assert idle_advances > 100
    assert calls["free"] <= 2 * calls["events"]
