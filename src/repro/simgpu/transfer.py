"""Host<->device transfer timing and asynchronous-execution bookkeeping.

Two facts from §2.2 drive the double-buffering result of Fig. 6.4:

1. *A kernel invocation does not block the host* — host and device run in
   parallel after a launch.
2. *Device memory can only be accessed by the host if no kernel is active*
   — a ``cudaMemcpy`` (and therefore every lazy ``cupp::vector`` read)
   blocks the host until the device is idle.

:class:`DeviceTimeline` models both with two clocks: the host clock, which
the caller advances as host work happens, and ``device_busy_until``, which
kernel launches push forward.  :class:`PcieModel` supplies the transfer
cost itself: a fixed per-call overhead (driver + DMA setup dominated
real-world CUDA 1.0 transfers of small buffers) plus bytes over effective
bandwidth.

Streams and events
------------------

On top of the serial clocks the timeline models CUDA streams the way the
``asyncAPI``/``concurrentKernels`` samples use them: the device owns one
*copy-engine* track (the DMA engine; all async copies serialize on it)
and ``compute_track_count`` *compute* tracks.  Work submitted to one
stream serializes in submission order; work on different streams may
overlap whenever distinct tracks are free.  An event records the
completion time of everything submitted to its stream so far, and a
``stream_wait_event`` dependency resolves as the max of the waiting
stream's own front and the event's timestamp — i.e. dependent work starts
at the max of its predecessors' completions.

Zero-byte copies
----------------

A zero-byte ``cudaMemcpy`` is modeled as a **driver no-op that is still a
synchronization point**: :meth:`PcieModel.transfer_time` returns ``0.0``
for ``nbytes == 0`` (no per-call overhead — the driver never programs the
DMA engine), and :meth:`DeviceTimeline.memcpy` degenerates to a plain
:meth:`DeviceTimeline.synchronize` without touching ``device_busy_until``
(its returned interval is empty).
Both backends (sim and native) share this timeline, so they agree by
construction; the conformance suite pins it.

Legacy (default-stream) operations — :meth:`DeviceTimeline.launch_kernel`,
:meth:`DeviceTimeline.memcpy` — keep CUDA's null-stream semantics: they
serialize against *every* track, and stream work submitted later will not
start before them.  A schedule that only ever touches one stream is
arithmetically identical to the old serial timeline (the property suite
asserts byte-identity).

Every op that occupies the device, serial or stream, returns the
:class:`StreamOp` interval it scheduled: the timeline is the one
producer of device intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class PcieModel:
    """PCIe 1.0 x16 era interconnect: ~4 GB/s raw, ~2.5 GB/s effective for
    pageable host memory, and tens of microseconds of per-call overhead."""

    bandwidth_bytes_per_s: float = 2.5e9
    per_call_overhead_s: float = 15e-6

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` in one ``cudaMemcpy``-style call.

        A zero-byte copy is a driver no-op: the DMA engine is never
        programmed, so neither the per-call overhead nor any bus time is
        charged.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.per_call_overhead_s + nbytes / self.bandwidth_bytes_per_s


@dataclass
class Stream:
    """One in-order work queue on a device timeline.

    ``ready_s`` is the completion time of the last operation submitted to
    the stream (the stream's *front*); new work on the stream starts no
    earlier than this.
    """

    stream_id: int
    ready_s: float = 0.0
    destroyed: bool = False


@dataclass
class Event:
    """A marker in a stream's work queue.

    ``timestamp_s`` is ``None`` until the event is recorded; once
    recorded it holds the completion time of everything submitted to the
    recording stream before the record call (max of predecessor
    completions, since the stream serializes them).
    """

    event_id: int
    timestamp_s: "float | None" = None
    destroyed: bool = False


class StreamOp(NamedTuple):
    """The scheduled interval of one timeline operation.

    Returned by ``launch_kernel``/``memcpy`` (null stream:
    ``stream_id=None``, ``track="null"``) and by
    ``stream_launch``/``stream_memcpy``, so callers (flight recorder,
    schedulers) paint device tracks from the timeline that scheduled
    the work, and the timeline retains no history.  ``start_s``/``end_s``
    are the exact values the clocks moved to.  Immutable and cheap to
    build (a named tuple), since every device op builds one.
    """

    kind: str  # "kernel" | "copy"
    stream_id: "int | None"  # None = the null stream
    track: str  # "null", "copy" or "compute<k>"
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class DeviceTimeline:
    """Async host/device clocks (seconds since an arbitrary origin).

    The serial API (``launch_kernel``/``memcpy``/``synchronize``) is the
    CUDA 1.0 null stream; the ``stream_*`` API adds overlap on one
    copy-engine track plus ``compute_track_count`` compute tracks.
    """

    def __init__(
        self,
        pcie: "PcieModel | None" = None,
        host_time: float = 0.0,
        device_busy_until: float = 0.0,
        *,
        compute_track_count: int = 2,
    ) -> None:
        if compute_track_count < 1:
            raise ValueError(
                f"compute_track_count must be >= 1, got {compute_track_count}"
            )
        self.pcie = pcie if pcie is not None else PcieModel()
        self.host_time = host_time
        #: Fixed host cost to configure + launch one kernel (driver call
        #: chain cudaConfigureCall/cudaSetupArgument*/cudaLaunch).
        self.launch_overhead_s = 10e-6
        #: Host cost to *submit* an async op to a stream.  Zero by
        #: default so a single-stream schedule is byte-identical to the
        #: serial timeline (the DMA per-call overhead is charged to the
        #: copy engine, not the host).
        self.async_submit_overhead_s = 0.0
        self._serial_busy_until = device_busy_until
        self._copy_busy_until = 0.0
        self._compute_busy_until = [0.0] * compute_track_count
        self._streams: list[Stream] = []
        self._events: list[Event] = []

    # -- device clock ---------------------------------------------------
    @property
    def device_busy_until(self) -> float:
        """When the device goes fully idle: max over the legacy serial
        clock, the copy engine, and every compute track."""
        return max(
            self._serial_busy_until,
            self._copy_busy_until,
            *self._compute_busy_until,
        )

    @device_busy_until.setter
    def device_busy_until(self, value: float) -> None:
        # Legacy callers (e.g. the d2d copy path) assign the scalar clock
        # directly; stream tracks are left untouched.
        self._serial_busy_until = value

    def reset(self) -> None:
        self.host_time = 0.0
        self._serial_busy_until = 0.0
        self._copy_busy_until = 0.0
        self._compute_busy_until = [0.0] * len(self._compute_busy_until)
        for s in self._streams:
            s.ready_s = 0.0
        for e in self._events:
            e.timestamp_s = None

    # -- serial (null stream) API --------------------------------------
    def host_work(self, seconds: float) -> None:
        """The host computes for ``seconds`` (device may run in parallel)."""
        self.host_time += seconds

    def launch_kernel(self, duration_s: float) -> StreamOp:
        """Asynchronously enqueue a kernel that runs for ``duration_s``.

        The host pays only the launch overhead; the device starts when it
        is free (null-stream launches never overlap anything, §2.2).
        Returns the kernel's interval: it ends at the new
        :attr:`device_busy_until`.
        """
        self.host_time += self.launch_overhead_s
        start = max(self.host_time, self.device_busy_until)
        self._serial_busy_until = start + duration_s
        return StreamOp("kernel", None, "null", start, self._serial_busy_until)

    def synchronize(self) -> float:
        """Block the host until the device is idle; returns the wait."""
        wait = max(0.0, self.device_busy_until - self.host_time)
        self.host_time += wait
        return wait

    def memcpy(self, nbytes: int) -> StreamOp:
        """A blocking host<->device copy: implicit synchronization plus the
        transfer itself.

        Returns the bus-active interval: it starts at the host clock
        after the implicit synchronize and ends at the host clock after
        the copy.  A zero-byte copy is a pure synchronization point: the
        driver no-ops the DMA, so no per-call overhead is charged, the
        device-busy clock is left alone, and ``start_s == end_s``.
        """
        self.synchronize()
        start = self.host_time
        if nbytes:
            self.host_time += self.pcie.transfer_time(nbytes)
            # The bus is busy during the copy; the device cannot start a
            # new kernel before it completes.
            self._serial_busy_until = self.host_time
        return StreamOp("copy", None, "null", start, self.host_time)

    # -- streams & events ----------------------------------------------
    def create_stream(self) -> Stream:
        """Create a new in-order work queue (``cudaStreamCreate``)."""
        stream = Stream(stream_id=len(self._streams))
        self._streams.append(stream)
        return stream

    def destroy_stream(self, stream: Stream) -> None:
        """Invalidate ``stream``; already-submitted work keeps its times."""
        self._check_stream(stream)
        stream.destroyed = True

    def create_event(self) -> Event:
        """Create an unrecorded event (``cudaEventCreate``)."""
        event = Event(event_id=len(self._events))
        self._events.append(event)
        return event

    def destroy_event(self, event: Event) -> None:
        self._check_event(event)
        event.destroyed = True

    def _check_stream(self, stream: Stream) -> None:
        if stream.destroyed or stream not in self._streams:
            raise ValueError(f"invalid or destroyed stream {stream!r}")

    def _check_event(self, event: Event) -> None:
        if event.destroyed or event not in self._events:
            raise ValueError(f"invalid or destroyed event {event!r}")

    def _stream_front(self, stream: Stream) -> float:
        # New stream work starts no earlier than: the stream's own front
        # (in-order queue), the submitting host call, and any null-stream
        # work (the null stream synchronizes with everything).
        return max(stream.ready_s, self.host_time, self._serial_busy_until)

    def stream_launch(self, stream: Stream, duration_s: float) -> StreamOp:
        """Enqueue a kernel on ``stream``; picks the earliest-free compute
        track.  Kernels on the same stream serialize; kernels on distinct
        streams overlap when distinct tracks are free."""
        self._check_stream(stream)
        self.host_time += self.launch_overhead_s
        ready = self._stream_front(stream)
        track = min(
            range(len(self._compute_busy_until)),
            key=lambda i: self._compute_busy_until[i],
        )
        start = max(ready, self._compute_busy_until[track])
        end = start + duration_s
        self._compute_busy_until[track] = end
        stream.ready_s = end
        return StreamOp("kernel", stream.stream_id, f"compute{track}", start, end)

    def stream_memcpy(self, stream: Stream, nbytes: int) -> StreamOp:
        """Enqueue an async copy on ``stream`` (``cudaMemcpyAsync``).

        The host pays only :attr:`async_submit_overhead_s`; the DMA
        per-call overhead and the bus time are charged to the copy-engine
        track, on which all async copies serialize.  A zero-byte copy
        still orders the stream but never touches the engine clock (the
        driver no-ops the DMA), so it cannot inflate
        :attr:`device_busy_until` past what actually ran.
        """
        self._check_stream(stream)
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        self.host_time += self.async_submit_overhead_s
        ready = self._stream_front(stream)
        start = max(ready, self._copy_busy_until)
        end = start + self.pcie.transfer_time(nbytes)
        if nbytes:
            self._copy_busy_until = end
        stream.ready_s = end
        return StreamOp("copy", stream.stream_id, "copy", start, end)

    def record_event(self, event: Event, stream: "Stream | None" = None) -> float:
        """Record ``event`` after the work currently in ``stream``
        (``cudaEventRecord``).  ``stream=None`` records on the null
        stream: the event completes when the whole device drains."""
        self._check_event(event)
        if stream is None:
            event.timestamp_s = max(self.host_time, self.device_busy_until)
        else:
            self._check_stream(stream)
            event.timestamp_s = max(stream.ready_s, self.host_time)
        return event.timestamp_s

    def stream_wait_event(self, stream: Stream, event: Event) -> None:
        """Make future work on ``stream`` wait for ``event``
        (``cudaStreamWaitEvent``): the stream's front becomes the max of
        its own completions and the event's — dependencies resolve as
        max-of-predecessor-completions.  Waiting on an unrecorded event
        is a no-op (CUDA semantics).  Costs the host nothing."""
        self._check_stream(stream)
        self._check_event(event)
        if event.timestamp_s is not None:
            stream.ready_s = max(stream.ready_s, event.timestamp_s)

    def stream_synchronize(self, stream: Stream) -> float:
        """Block the host until ``stream`` drains; returns the wait."""
        self._check_stream(stream)
        wait = max(0.0, stream.ready_s - self.host_time)
        self.host_time += wait
        return wait

    def event_synchronize(self, event: Event) -> float:
        """Block the host until ``event`` completes; returns the wait.
        An unrecorded event is already complete (CUDA semantics)."""
        self._check_event(event)
        if event.timestamp_s is None:
            return 0.0
        wait = max(0.0, event.timestamp_s - self.host_time)
        self.host_time += wait
        return wait
