"""Multi-device placement: batches onto a ``DeviceGroup``, with overlap.

The scheduler owns the device side of the serving pipeline.  It places
each formed batch onto the group as one or more *sub-batches*:

* sessions already resident on a device are pinned there (moving them
  would re-pay their state upload — the lazy-copy reuse the session
  store exists for);
* cold sessions are spread over the group with the same contiguous
  :func:`~repro.cupp.multidevice.split_bounds` split that
  ``MultiKernel`` shards vectors with, least-busy device first.

Execution is played out on each device's own
:class:`~repro.simgpu.transfer.DeviceTimeline` under the paper's §2.2
rules: kernel launches are asynchronous (the host enqueues and moves
on), memcpys block until the device is idle.  The overlap therefore
comes from two places, both measured rather than asserted: the host
assembles and launches the *next* sub-batch while other devices
compute, and each batch's result fetch is deferred to its completion
event (double-buffer style, §6.3.2) instead of stalling the launch
path.  A batch's completion is the **makespan** of its sub-batches —
the same metric :attr:`DeviceGroup.makespan_s` reports for a sharded
``MultiKernel`` call.

Transfers are attributed in the ledger as the batching data path:
``batch-concat`` for the fused cold-state upload, ``batch-split`` for
the fused result fetch (each then sliced per request by
``Vector.split_at``).

There is one serving path; ``streams`` only picks the timeline calls.
``streams=1`` is depth 1 over the null stream.  With ``streams >= 2``
(the default via :class:`ServeConfig`) each device gets a *copy* and a
*compute* stream: the cold-state upload rides the copy engine with the
kernels gated on it by an event (``stream-wait`` in the ledger), and
the result fetch is a deferred async d2h on the copy stream, so each
device pipelines two sub-batches deep.  Either way, completion times
and the device intervals announced to observers are read from the
:class:`~repro.simgpu.transfer.StreamOp` each timeline call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro import obs
from repro.bench.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cuda.runtime import CudaMachine
from repro.cupp.exceptions import CuppMemoryError, CuppUsageError
from repro.cupp.multidevice import DeviceGroup, split_bounds
from repro.cupp.vector import Vector
from repro.fault import InjectedFault
from repro.prof import hook as prof_hook
from repro.serve.batcher import Batch
from repro.serve.engine import StepEngine
from repro.serve.request import StepRequest
from repro.serve.sessions import Session
from repro.simgpu.arch import scaled_arch
from repro.simgpu.transfer import StreamOp

_TRACER = obs.get_tracer()
_EVICTIONS = obs.bind_counter("fault.evictions")
_READMISSIONS = obs.bind_counter("fault.readmissions")
_LAUNCHES = obs.bind_counter("repro.serve.launches")


def make_group(
    devices: int = 2,
    multiprocessors: int = 12,
    pool: bool = True,
    backend: "str | list[str]" = "sim",
) -> DeviceGroup:
    """A serving device group: ``devices`` G80-class GPUs.

    ``pool`` (default on) routes each device's allocations through a
    :class:`repro.mem.MemoryPool`, so the per-batch buffer churn the
    scheduler generates is served from cache instead of the driver.

    ``backend`` selects the execution substrate per device — ``"sim"``,
    ``"native"``, ``"mixed"`` (alternating), or an explicit per-device
    list — making heterogeneous groups possible.
    """
    if devices <= 0:
        raise CuppUsageError(f"need at least one device, got {devices}")
    machine = CudaMachine(
        [
            scaled_arch(f"serve-gpu{i}", multiprocessors, memory_bytes=1 << 26)
            for i in range(devices)
        ],
        backend=backend,
    )
    group = DeviceGroup(machine)
    if pool:
        for device in group.devices:
            device.enable_pool()
    return group


@dataclass
class SubBatch:
    """The slice of a batch placed on one device."""

    device_index: int
    requests: "list[StepRequest]" = field(default_factory=list)
    sessions: "list[Session]" = field(default_factory=list)
    #: Virtual time the sub-batch's kernels finish on its device.
    completion_s: float = 0.0
    #: Completion excluding any injected hang: what the schedule
    #: *predicts*, including queueing behind the device's other
    #: in-flight sub-batch.  The watchdog deadline builds on this.
    expected_completion_s: float = 0.0
    #: Device buffer holding the fused draw-matrix results between
    #: :meth:`DeviceScheduler.launch` and :meth:`~DeviceScheduler.finish`.
    result_ptr: "object | None" = None
    #: Watchdog deadline set at launch when fault injection is active;
    #: the service times the sub-batch out (and evicts its device) if
    #: the completion has not arrived by then.  ``None`` = no watchdog.
    timeout_s: "float | None" = None
    #: An injected hang wedged this sub-batch's device.
    hung: bool = False
    #: The result fetch came back with an uncorrectable ECC error; the
    #: results must be discarded and the requests retried.
    corrupt: bool = False
    #: The sub-batch was timed out and abandoned; its (late) completion
    #: event is reaped without touching sessions or results.
    zombie: bool = False
    #: Flight-trace ``fused-launch`` span, set by the flight recorder
    #: when it observes the launch (None when recording is off).
    flight_span: "object | None" = None


class DeviceScheduler:
    """Places batches on a :class:`DeviceGroup` and models their time."""

    def __init__(
        self,
        group: DeviceGroup,
        calib: Calibration = DEFAULT_CALIBRATION,
        host_dispatch_s: float = 50e-6,
        host_per_request_s: float = 2e-6,
        streams: int = 1,
    ) -> None:
        if streams < 1:
            raise CuppUsageError(f"streams must be >= 1, got {streams}")
        self.group = group
        self.calib = calib
        self.host_dispatch_s = host_dispatch_s
        self.host_per_request_s = host_per_request_s
        self.timelines = [d.sim.timeline for d in group.devices]
        for tl in self.timelines:
            tl.launch_overhead_s = calib.launch_overhead_s
        #: Streams per device: 1 = the null stream (every op serializes
        #: on ``device_busy_until``), pipeline depth 1; >= 2 = overlapped
        #: copy/compute streams with pipeline depth 2 per device.
        self.streams = streams
        self.pipeline_depth = 1 if streams == 1 else 2
        #: Sub-batches currently in flight per device, at most
        #: :attr:`pipeline_depth`.
        self.inflight_count = [0] * len(group)
        self._copy_streams = self._compute_streams = None
        if streams > 1:
            self._copy_streams = [tl.create_stream() for tl in self.timelines]
            self._compute_streams = [tl.create_stream() for tl in self.timelines]
        #: Execution-backend kind per device (``"sim"``/``"native"``).
        self.backend_kinds = [d.backend_kind for d in group.devices]
        #: Heterogeneous groups get cost-aware placement; homogeneous
        #: groups keep the original even split, byte-for-byte.
        self.heterogeneous = len(set(self.backend_kinds)) > 1
        #: Online cost model per *native* device: EWMA of the ratio
        #: measured/modelled kernel seconds (sim devices use the perf
        #: model directly — it *is* their clock).
        self._native_cost: "dict[int, object]" = {}
        #: Requests placed per device, by the cost-aware (or even) split;
        #: lets callers verify work actually routed to each backend kind.
        self.placed_requests = [0] * len(group)
        #: Device indices evicted by the health machinery; excluded
        #: from placement until a probe readmits them.
        self.unhealthy: "set[int]" = set()
        #: Optional :class:`repro.fault.FaultInjector` (set by the
        #: service when chaos is configured); consulted once per
        #: sub-batch launch and once per result fetch.
        self.injector = None
        #: The service's lifecycle observers; launch/finish announce
        #: every busy/transfer/wedged device interval to them.
        self.observers: "tuple" = ()

    # ------------------------------------------------------------------
    def free_devices(self) -> "list[int]":
        """Healthy indices below :attr:`pipeline_depth`, least busy first:
        emptiest pipeline, then earliest idle, so new work prefers idle
        silicon over queueing."""
        free = [
            i
            for i in range(len(self.group))
            if self.inflight_count[i] < self.pipeline_depth
            and i not in self.unhealthy
        ]
        free.sort(
            key=lambda i: (
                self.inflight_count[i],
                self.timelines[i].device_busy_until,
            )
        )
        return free

    # ------------------------------------------------------------------
    # device health (eviction / readmission)
    # ------------------------------------------------------------------
    def evict(self, device_index: int, reason: str) -> None:
        """Remove a device from placement until a probe readmits it."""
        self.inflight_count[device_index] = 0
        self.unhealthy.add(device_index)
        _EVICTIONS.inc()
        if _TRACER.enabled:
            _TRACER.instant(
                "serve.device-evict", device=device_index, reason=reason
            )
        obs.record_transfer(
            "device-evict", "none", 0, moved=False, label=reason
        )

    def probe(self, device_index: int, now: float) -> bool:
        """Health-check an evicted device; readmit it once its timeline
        has drained (the hang played out).  Returns True on readmission."""
        if device_index not in self.unhealthy:
            return False
        if self.timelines[device_index].device_busy_until > now:
            return False
        self.unhealthy.discard(device_index)
        _READMISSIONS.inc()
        if _TRACER.enabled:
            _TRACER.instant("serve.device-readmit", device=device_index)
        return True

    def abandon(self, sub: SubBatch) -> None:
        """Release a timed-out sub-batch's device buffer and mark it a
        zombie: its completion event is still owed by the timeline, but
        nothing will be fetched from it."""
        if sub.result_ptr is not None:
            self.group.devices[sub.device_index].free(sub.result_ptr)
            sub.result_ptr = None
        sub.zombie = True

    @property
    def makespan_s(self) -> float:
        """Modelled time until every device in the group is idle."""
        return self.group.makespan_s

    # ------------------------------------------------------------------
    # cost model: perf model for sim devices, EWMA-corrected for native
    # ------------------------------------------------------------------
    def _ewma(self, device_index: int):
        model = self._native_cost.get(device_index)
        if model is None:
            from repro.backend.native import EwmaCost

            model = self._native_cost[device_index] = EwmaCost()
        return model

    def predict_kernel_s(
        self, device_index: int, sessions: "list[Session]", engine: StepEngine
    ) -> float:
        """Predicted kernel seconds for a sub-batch on one device.

        Sim devices answer with the analytic perf model — which is
        exactly their virtual clock, so the prediction is the truth.
        Native devices scale the model by an online EWMA of the ratio
        measured/modelled wall-clock kernel time, seeded at 1.0 (pure
        perf model) until the first measurement arrives.
        """
        modelled = engine.batch_kernel_seconds(sessions)
        if self.backend_kinds[device_index] != "native":
            return modelled
        return self._ewma(device_index).predict(modelled)

    def observe_native_cost(
        self, device_index: int, modelled_s: float, measured_s: float
    ) -> None:
        """Feed one measured native kernel time into the EWMA."""
        if self.backend_kinds[device_index] == "native":
            self._ewma(device_index).observe(modelled_s, measured_s)

    def _cost_scale(self, device_index: int) -> float:
        """Predicted seconds per modelled second for one device."""
        if self.backend_kinds[device_index] != "native":
            return 1.0
        return max(self._ewma(device_index).ratio, 1e-12)

    def _cold_bounds(
        self, free: "list[int]", total: int, engine: "StepEngine | None"
    ) -> "list[tuple[int, int]]":
        """Contiguous split of ``total`` cold requests over ``free``.

        Homogeneous groups keep the near-even ``split_bounds`` split —
        the exact historical behaviour.  Heterogeneous groups weight
        each device by predicted speed (1 / cost scale), rounding by
        largest remainder so every request lands somewhere.
        """
        if not self.heterogeneous or engine is None:
            return split_bounds(total, len(free))
        weights = [1.0 / self._cost_scale(i) for i in free]
        wsum = sum(weights)
        raw = [total * w / wsum for w in weights]
        counts = [int(r) for r in raw]
        leftover = total - sum(counts)
        by_remainder = sorted(
            range(len(free)), key=lambda k: raw[k] - counts[k], reverse=True
        )
        for k in by_remainder[:leftover]:
            counts[k] += 1
        bounds, start = [], 0
        for c in counts:
            bounds.append((start, start + c))
            start += c
        return bounds

    # ------------------------------------------------------------------
    def place(
        self,
        batch: Batch,
        store,
        free: "list[int]",
        engine: "StepEngine | None" = None,
    ) -> "list[SubBatch]":
        """Split a batch into per-device sub-batches.

        Warm sessions pin their requests to their resident device when
        it is free; everything else is spread over the free devices —
        near-evenly on homogeneous groups, cost-aware (weighted by each
        backend's predicted speed) on heterogeneous ones.  ``free`` must
        be non-empty.
        """
        if not free:
            raise CuppUsageError("place() needs at least one free device")
        free_set = set(free)
        per_device: "dict[int, SubBatch]" = {}

        def sub(device_index: int) -> SubBatch:
            if device_index not in per_device:
                per_device[device_index] = SubBatch(device_index)
            return per_device[device_index]

        cold: "list[tuple[StepRequest, Session]]" = []
        for request in batch.requests:
            session = store.get(request.session_id)
            if session.resident_on in free_set:
                entry = sub(session.resident_on)
                entry.requests.append(request)
                entry.sessions.append(session)
            else:
                cold.append((request, session))

        if cold:
            # The MultiKernel scatter split, applied to requests: a
            # contiguous partition over the free devices (near-even, or
            # speed-weighted when the group mixes backend kinds).
            bounds = self._cold_bounds(free, len(cold), engine)
            for device_index, (start, stop) in zip(free, bounds):
                for request, session in cold[start:stop]:
                    entry = sub(device_index)
                    entry.requests.append(request)
                    entry.sessions.append(session)
        for entry in per_device.values():
            self.placed_requests[entry.device_index] += len(entry.requests)
        return list(per_device.values())

    # ------------------------------------------------------------------
    def launch(
        self, sub: SubBatch, engine: StepEngine, now: float
    ) -> float:
        """Play one sub-batch's upload + kernels on its device timeline.

        Returns the modelled completion time of the kernels.  The result
        fetch is *not* done here — it happens at completion, via
        :meth:`finish` — so the host is free to drive other devices
        while this one computes.
        """
        tl = self.timelines[sub.device_index]
        tl.host_time = max(tl.host_time, now)
        device = self.group.devices[sub.device_index]

        # Host-side batch assembly (request handling, argument marshal).
        tl.host_work(
            self.host_dispatch_s + self.host_per_request_s * len(sub.requests)
        )

        # Fault consult: one draw per sub-batch launch.  A transient
        # launch failure aborts here, before any state moved, so the
        # service can retry the requests cleanly; a hang proceeds like a
        # normal launch but wedges the device for the configured latency
        # (only the watchdog timeout will notice).
        hang_s = 0.0
        if self.injector is not None:
            fault = self.injector.draw("launch", device_index=sub.device_index)
            if fault == "launch-fail":
                raise InjectedFault("launch-fail", sub.device_index)
            if fault == "hang":
                hang_s = self.injector.config.hang_latency_s
                sub.hung = True

        # Fused upload of cold session state: one Vector.concat + one
        # modelled h2d memcpy instead of one per session.
        cold = [s for s in sub.sessions if s.resident_on != sub.device_index]
        allocated: "list" = []
        try:
            if cold:
                for session in cold:
                    session.refresh_state_vector()
                    # Real device residency for the session state: drop the
                    # stale block on the old device (a migration), allocate
                    # on this one.  Warm sessions keep their block, so the
                    # steady state performs no allocations here at all.
                    if session.state_ptr is not None:
                        self.group.devices[session.resident_on].free(
                            session.state_ptr
                        )
                        session.state_ptr = None
                    session.state_ptr = device.alloc(session.state_bytes)
                    allocated.append(session)
                fused = Vector.concat([s.state for s in cold])
                nbytes = len(fused) * fused.dtype.itemsize
                # Transient staging buffer backing the fused upload.
                staging = device.alloc(nbytes)
                if self.streams > 1:
                    # Async upload on the copy stream; the compute
                    # stream is gated on it by an event so the kernels
                    # start at the upload's completion instead of the
                    # host stalling for the whole device to drain.
                    copy = self._copy_streams[sub.device_index]
                    op = tl.stream_memcpy(copy, nbytes)
                else:
                    op = tl.memcpy(nbytes)
                obs.record_transfer(
                    "batch-concat", "h2d", nbytes, label="serve.session-upload"
                )
                if self.streams > 1:
                    uploaded = tl.create_event()
                    tl.record_event(uploaded, copy)
                    tl.stream_wait_event(
                        self._compute_streams[sub.device_index], uploaded
                    )
                    tl.destroy_event(uploaded)
                    obs.record_transfer(
                        "stream-wait",
                        "none",
                        0,
                        moved=False,
                        label="serve.kernels<-upload",
                    )
                self._paint(sub.device_index, "transfer", op, "h2d")
                device.free(staging)
                for session in cold:
                    session.resident_on = sub.device_index
            elif _TRACER.enabled:
                _TRACER.instant(
                    "serve.lazy-hit",
                    device=device.name,
                    sessions=len(sub.sessions),
                )

            # Device buffer the kernels write the fused draw matrices into;
            # freed by finish() once the results are fetched.
            sub.result_ptr = device.alloc(engine.result_bytes(sub.sessions))
        except CuppMemoryError as exc:
            # Allocation failed (a spurious OOM the pool's flush-and-retry
            # could not absorb, or genuine exhaustion).  Unwind this
            # launch's uploads so the touched sessions are simply cold
            # again, then surface it as a transient launch fault.
            for session in allocated:
                if session.state_ptr is not None:
                    device.free(session.state_ptr)
                    session.state_ptr = None
                session.resident_on = None
            raise InjectedFault("oom", sub.device_index) from exc

        # The version's fused kernels: asynchronous launches, additive cost.
        # Sim devices advance their virtual clock by the perf model;
        # native devices by the EWMA-corrected wall-clock prediction.
        kernel_s = self.predict_kernel_s(sub.device_index, sub.sessions, engine)
        prof = prof_hook.active()
        if prof is not None:
            # The serve plane plays modelled costs on timelines instead
            # of executing kernels, so the profiler gets the closed-form
            # cost rows of each session's kernels on this device.
            arch = self.group.devices[sub.device_index].sim.arch
            kind = self.backend_kinds[sub.device_index]
            for session in sub.sessions:
                for kname, inputs, secs in engine.kernel_cost_rows(session.n):
                    prof.record_modelled(
                        kname, kind, inputs, arch=arch, modelled_s=secs
                    )
        if self.streams > 1:
            compute = self._compute_streams[sub.device_index]
            enqueue = partial(tl.stream_launch, compute)
        else:
            enqueue = tl.launch_kernel
        for _ in range(engine.launches_per_batch - 1):
            enqueue(0.0)  # kernel boundary: launch cost only
        op = enqueue(kernel_s + hang_s)
        _LAUNCHES.inc(engine.launches_per_batch)
        self.inflight_count[sub.device_index] += 1
        sub.completion_s = op.end_s
        sub.expected_completion_s = op.end_s - hang_s
        # The kernel occupies [start, start+kernel_s]; an injected hang
        # extends the device occupancy but is *wedged* time, painted
        # separately so the gantt shows the stall.
        split = op.start_s + kernel_s
        self._paint(sub.device_index, "busy", op, "step-kernels", end_s=split)
        if hang_s > 0.0:
            self._paint(
                sub.device_index, "wedged", op, "injected-hang", start_s=split
            )
        return sub.completion_s

    def finish(self, sub: SubBatch, engine: StepEngine, now: float) -> float:
        """Fetch a completed sub-batch's results; returns the host time.

        One fused d2h memcpy for the whole sub-batch (``batch-split``),
        then the per-request host-side slicing cost.
        """
        tl = self.timelines[sub.device_index]
        tl.host_time = max(tl.host_time, now)
        nbytes = engine.result_bytes(sub.sessions)
        if self.streams > 1:
            # Deferred async fetch: the d2h rides the copy stream, which
            # waits only on the copy engine (and this host call — the
            # kernels finished at completion_s <= now), never on the
            # device's *other* in-flight sub-batch's kernels.  The host
            # then blocks on the stream: it needs the payload to demux.
            copy = self._copy_streams[sub.device_index]
            op = tl.stream_memcpy(copy, nbytes)
            tl.stream_synchronize(copy)
        else:
            op = tl.memcpy(nbytes)
        obs.record_transfer(
            "batch-split", "d2h", nbytes, label="serve.draw-matrices"
        )
        self._paint(sub.device_index, "transfer", op, "d2h")
        # Fault consult: one draw per result fetch.  A corrupt fetch
        # still paid for the bytes (charged above), but the payload is
        # garbage — discard it, release the device, and let the service
        # roll the sessions back and retry the requests.
        sub.corrupt = (
            self.injector is not None
            and self.injector.draw(
                "transfer", device_index=sub.device_index, nbytes=nbytes
            )
            == "transfer-corrupt"
        )
        if sub.result_ptr is not None:
            self.group.devices[sub.device_index].free(sub.result_ptr)
            sub.result_ptr = None
        if self.inflight_count[sub.device_index] > 0:
            self.inflight_count[sub.device_index] -= 1
        if not sub.corrupt:
            tl.host_work(self.host_per_request_s * len(sub.requests))
        return tl.host_time

    def _paint(
        self, device_index: int, kind: str, op: StreamOp, label: str,
        start_s: "float | None" = None, end_s: "float | None" = None,
    ) -> None:
        """Announce ``op``'s interval (or its ``[start_s, end_s]`` part)
        on a device to the observers."""
        for o in self.observers:
            o.device_interval(
                device_index, kind,
                op.start_s if start_s is None else start_s,
                op.end_s if end_s is None else end_s,
                label=label, stream=op.stream_id,
            )
