"""Property-based tests of the stream/event timeline (hypothesis).

The multi-track :class:`DeviceTimeline` must uphold, under *any*
interleaving of serial ops, stream ops, events, and syncs:

* **clock monotonicity** — ``host_time`` and ``device_busy_until`` never
  go backwards;
* **synchronize idempotence** — a second synchronize (device, stream, or
  event) immediately after a first waits at most one ulp (the legacy
  ``host += target - host`` accumulation can round one ulp short);
* **intra-stream ordering** — ops submitted to one stream never overlap:
  each starts at or after its predecessor's completion;
* **wait-event floors** — work submitted after ``stream_wait_event``
  never starts before the event's recorded timestamp;
* **serial byte-identity** — the legacy null-stream API
  (``launch_kernel``/``memcpy``/``synchronize``) produces *bit-identical*
  clocks to the pre-stream two-scalar timeline (reference implementation
  below), so every experiment that never touches a stream reproduces its
  committed numbers exactly;
* **single-stream equivalence** — a schedule that routes everything
  through one stream matches the serial timeline: exactly for
  kernel/host/sync programs, and to float-ulp precision once copies are
  involved (the serial ``synchronize`` accumulates with ``+=``, the
  stream path waits on the op's end time — same real number, one
  rounding apart).
"""

import copy
import math

import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.simgpu.transfer import DeviceTimeline, PcieModel


class LegacySerialTimeline:
    """The pre-stream ``DeviceTimeline``: two scalar clocks, verbatim
    arithmetic (modulo the documented zero-byte-copy fix: a 0-byte
    memcpy is a pure sync point, no per-call overhead)."""

    def __init__(self, pcie: PcieModel) -> None:
        self.pcie = pcie
        self.host_time = 0.0
        self.device_busy_until = 0.0
        self.launch_overhead_s = 10e-6

    def host_work(self, seconds: float) -> None:
        self.host_time += seconds

    def launch_kernel(self, duration_s: float) -> None:
        self.host_time += self.launch_overhead_s
        start = max(self.host_time, self.device_busy_until)
        self.device_busy_until = start + duration_s

    def synchronize(self) -> float:
        wait = max(0.0, self.device_busy_until - self.host_time)
        self.host_time += wait
        return wait

    def memcpy(self, nbytes: int) -> float:
        wait = self.synchronize()
        #: Host clock after the implicit synchronize (where the bus
        #: becomes active).
        self.synced_at = self.host_time
        if nbytes == 0:
            return wait
        cost = self.pcie.transfer_time(nbytes)
        self.host_time += cost
        self.device_busy_until = self.host_time
        return wait + cost


DUR = st.floats(
    min_value=0.0, max_value=1e-2, allow_nan=False, allow_infinity=False
)
NBYTES = st.integers(min_value=0, max_value=1 << 22)

SERIAL_OP = st.one_of(
    st.tuples(st.just("host"), DUR),
    st.tuples(st.just("kernel"), DUR),
    st.tuples(st.just("memcpy"), NBYTES),
    st.tuples(st.just("sync"), st.just(0)),
)


@given(st.lists(SERIAL_OP, max_size=40))
def test_serial_api_is_byte_identical_to_legacy_timeline(ops):
    """Refactor regression: the null-stream API on the multi-track
    timeline reproduces the old two-clock arithmetic bit for bit."""
    new = DeviceTimeline(PcieModel())
    old = LegacySerialTimeline(PcieModel())
    for kind, arg in ops:
        if kind == "host":
            new.host_work(arg)
            old.host_work(arg)
        elif kind == "kernel":
            new.launch_kernel(arg)
            old.launch_kernel(arg)
        elif kind == "memcpy":
            # The returned op is the bus-active interval: it starts at
            # the reference host clock after the implicit synchronize
            # and ends at the reference host clock after the copy.
            op = new.memcpy(arg)
            old.memcpy(arg)
            assert op.start_s == old.synced_at
            assert op.end_s == old.host_time
        else:
            assert new.synchronize() == old.synchronize()
        assert new.host_time == old.host_time
        assert new.device_busy_until == old.device_busy_until


@given(st.lists(SERIAL_OP, max_size=40))
def test_serial_ops_return_the_interval_the_clocks_moved_to(ops):
    """The timeline is the one source of device intervals: each serial
    op's returned interval is exactly where the clocks went, and
    consecutive serial ops never overlap (to the ulp)."""
    tl = DeviceTimeline(PcieModel())
    prev_end = 0.0
    for kind, arg in ops:
        if kind == "host":
            tl.host_work(arg)
            continue
        if kind == "sync":
            tl.synchronize()
            continue
        if kind == "kernel":
            op = tl.launch_kernel(arg)
            assert op.end_s == tl.device_busy_until
        else:
            # The host clock after the implicit synchronize, observed on
            # a clone so the program itself is not perturbed.
            probe = copy.deepcopy(tl)
            probe.synchronize()
            op = tl.memcpy(arg)
            assert (op.start_s, op.end_s) == (probe.host_time, tl.host_time)
            assert arg > 0 or op.start_s == op.end_s
        assert op.stream_id is None and op.start_s <= op.end_s
        # The null-stream synchronize's ``host += wait`` can land one ulp
        # short of the device clock (the idempotence property's slack).
        assert op.start_s >= prev_end - math.ulp(prev_end)
        prev_end = op.end_s


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("host"), DUR),
            st.tuples(st.just("kernel"), DUR),
            st.tuples(st.just("sync"), st.just(0)),
        ),
        max_size=40,
    )
)
def test_single_stream_kernel_schedule_is_byte_identical_to_serial(ops):
    """Kernels + host work + syncs through one stream: every clock is
    *exactly* the serial timeline's (identical float expressions)."""
    serial = DeviceTimeline(PcieModel())
    streamed = DeviceTimeline(PcieModel())
    s = streamed.create_stream()
    for kind, arg in ops:
        if kind == "host":
            serial.host_work(arg)
            streamed.host_work(arg)
        elif kind == "kernel":
            serial.launch_kernel(arg)
            streamed.stream_launch(s, arg)
        else:
            serial.synchronize()
            streamed.stream_synchronize(s)
        assert streamed.host_time == serial.host_time
        assert streamed.device_busy_until == serial.device_busy_until


@given(st.lists(SERIAL_OP, max_size=40))
def test_single_stream_mixed_schedule_matches_serial_to_ulp(ops):
    """With copies in the mix the two paths compute the same real
    schedule through differently-associated float sums; they agree to
    within a few ulps (and exactly on which ops wait on which)."""
    serial = DeviceTimeline(PcieModel())
    streamed = DeviceTimeline(PcieModel())
    s = streamed.create_stream()
    for kind, arg in ops:
        if kind == "host":
            serial.host_work(arg)
            streamed.host_work(arg)
        elif kind == "kernel":
            serial.launch_kernel(arg)
            streamed.stream_launch(s, arg)
        elif kind == "memcpy":
            serial.memcpy(arg)
            streamed.stream_memcpy(s, arg)
            streamed.stream_synchronize(s)
        else:
            serial.synchronize()
            streamed.stream_synchronize(s)
        # Each synchronize can round one ulp apart; over a 40-op program
        # the drift stays within a few dozen ulps (~1e-17 s here).
        slack = 64 * math.ulp(max(serial.host_time, 1e-9))
        assert abs(streamed.host_time - serial.host_time) <= slack
        assert (
            abs(streamed.device_busy_until - serial.device_busy_until)
            <= slack
        )


class StreamMachine(RuleBasedStateMachine):
    """Random interleavings over three streams and two events."""

    sid = st.integers(0, 2)
    eid = st.integers(0, 1)

    @initialize()
    def setup(self):
        self.tl = DeviceTimeline(PcieModel())
        self.streams = [self.tl.create_stream() for _ in range(3)]
        self.events = [self.tl.create_event() for _ in range(2)]
        #: Completion of the last op submitted per stream.
        self.last_end = [0.0, 0.0, 0.0]
        #: Completion of the last op that occupied device hardware —
        #: zero-byte copies order their stream without touching any
        #: track, so they are excluded here.
        self.last_work_end = [0.0, 0.0, 0.0]
        #: Floor imposed on each stream by past wait_event calls.
        self.wait_floor = [0.0, 0.0, 0.0]
        self.prev_host = 0.0
        self.prev_busy = 0.0

    @rule(sid=sid, dur=DUR)
    def launch(self, sid, dur):
        op = self.tl.stream_launch(self.streams[sid], dur)
        # Intra-stream ordering: never starts before the predecessor.
        assert op.start_s >= self.last_end[sid]
        # Wait-event dependencies are never violated.
        assert op.start_s >= self.wait_floor[sid]
        assert op.end_s == op.start_s + dur
        self.last_end[sid] = op.end_s
        self.last_work_end[sid] = op.end_s

    @rule(sid=sid, nbytes=NBYTES)
    def copy(self, sid, nbytes):
        op = self.tl.stream_memcpy(self.streams[sid], nbytes)
        assert op.start_s >= self.last_end[sid]
        assert op.start_s >= self.wait_floor[sid]
        self.last_end[sid] = op.end_s
        if nbytes:
            self.last_work_end[sid] = op.end_s

    @rule(sid=sid, eid=eid)
    def record(self, sid, eid):
        ts = self.tl.record_event(self.events[eid], self.streams[sid])
        # The event completes no earlier than the stream's queued work.
        assert ts >= self.last_end[sid]

    @rule(eid=eid)
    def record_null(self, eid):
        ts = self.tl.record_event(self.events[eid])
        assert ts >= self.tl.host_time or ts >= self.tl.device_busy_until

    @rule(sid=sid, eid=eid)
    def wait(self, sid, eid):
        event = self.events[eid]
        self.tl.stream_wait_event(self.streams[sid], event)
        if event.timestamp_s is not None:
            self.wait_floor[sid] = max(
                self.wait_floor[sid], event.timestamp_s
            )

    # ``host += (target - host)`` can round one ulp below the target
    # (the legacy arithmetic, kept verbatim for byte-identity), so
    # "drained" and "a second wait is free" hold to within one ulp.
    def _ulp(self, value):
        return math.ulp(max(abs(value), 1e-9))

    @rule(sid=sid)
    def sync_stream(self, sid):
        ready = self.streams[sid].ready_s
        self.tl.stream_synchronize(self.streams[sid])
        assert self.tl.host_time >= ready - self._ulp(ready)
        # Idempotent: the stream is drained, a second wait is free.
        assert self.tl.stream_synchronize(self.streams[sid]) <= self._ulp(
            ready
        )

    @rule(eid=eid)
    def sync_event(self, eid):
        self.tl.event_synchronize(self.events[eid])
        slack = self._ulp(self.tl.host_time)
        assert self.tl.event_synchronize(self.events[eid]) <= slack

    @rule()
    def sync_device(self):
        self.tl.synchronize()
        busy = self.tl.device_busy_until
        assert self.tl.host_time >= busy - self._ulp(busy)
        assert self.tl.synchronize() <= self._ulp(busy)

    @rule(dur=DUR)
    def host(self, dur):
        self.tl.host_work(dur)

    @rule(dur=DUR)
    def serial_launch(self, dur):
        self.tl.launch_kernel(dur)

    @rule(nbytes=NBYTES)
    def serial_memcpy(self, nbytes):
        self.tl.memcpy(nbytes)

    @invariant()
    def clocks_are_monotone(self):
        if not hasattr(self, "tl"):
            return
        assert self.tl.host_time >= self.prev_host
        assert self.tl.device_busy_until >= self.prev_busy
        self.prev_host = self.tl.host_time
        self.prev_busy = self.tl.device_busy_until

    @invariant()
    def device_clock_covers_every_track(self):
        if not hasattr(self, "tl"):
            return
        assert self.tl.device_busy_until >= max(self.last_work_end)


TestStreamTimelineProperties = StreamMachine.TestCase
TestStreamTimelineProperties.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
