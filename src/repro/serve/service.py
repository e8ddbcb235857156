"""The serving front door: a virtual-time discrete-event service.

:class:`SimulationService` glues the pipeline together — session store,
admission controller, dynamic batcher, device scheduler — and runs it as
a deterministic discrete-event simulation on the same virtual clock the
:class:`~repro.simgpu.transfer.DeviceTimeline` model uses everywhere
else in this repo.  There are no threads and no wall-clock reads: a
driver (the load generator, a test, the demo) injects arrivals with
:meth:`SimulationService.submit` and turns the crank with
:meth:`advance`/:meth:`drain`.  Identical inputs give identical
latencies, byte counts, and launch totals, run to run.

Six event types exist, kept in a two-part event calendar:

* **sub-batch completion** — a device's kernels finish; its results are
  fetched, demultiplexed, and the sessions become schedulable again;
* **watchdog timeout** — a sub-batch missed its predicted finish plus
  slack (an injected hang); its device is evicted;
* **zombie reap** — a timed-out sub-batch's late completion;
* **retry wake** — a faulted request's backoff elapses;
* **health probe** — evicted devices are checked for readmission;
* **launch-ready** — the batcher's window/size rule says a batch should
  form *and* a device is free to take it.

The first five are the calendar's *timed* part.  Only an event creates
or retires them, so it is recomputed at the end of each event.  The
*launch-ready* part holds three facts about the admission queue: the
count of eligible session heads, the oldest head's admit time, and
whether any head is a retry.  Each event counts them in its last launch
pass; between events :meth:`SimulationService.submit` updates them in
O(1), and the two queue changes that are not one append (a
``shed-oldest`` eviction, :meth:`~SimulationService.drain`'s last-resort
sweep) recount.  The window/size rule reads the window live, so an SLO
alert that shrinks it needs no recount.  An arrival that brings no event
due therefore queries no device and walks no queue.

The host is one thread, as in the paper: dispatch work (batch assembly,
launches, memcpys) serializes on the global clock, while kernels run
asynchronously per device — so the service overlaps one device's
compute with the next batch's assembly exactly the way §2.2's async
launch semantics allow.

Device affinity keeps lazy reuse honest: a warm session's requests are
only batched when its resident device is free, so an admitted session
uploads its state **once** and every later step is a modelled lazy hit.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.bench.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cupp.exceptions import CuppUsageError
from repro.cupp.vector import Vector
from repro.fault import FaultConfig, FaultInjector, InjectedFault
from repro.obs.monitor import OUTCOME_SERIES
from repro.serve.admission import AdmissionController
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.engine import StepEngine
from repro.serve.request import RequestStatus, StepRequest
from repro.serve.scheduler import DeviceScheduler, SubBatch, make_group
from repro.serve.sessions import Session, SessionStore
from repro.steer.params import BoidsParams, DEFAULT_PARAMS

#: Tolerance when comparing virtual timestamps (they are sums of many
#: small floats; exact equality would drop simultaneous events).
_EPS = 1e-12

_TRACER = obs.get_tracer()
_FAILOVERS = obs.bind_counter("fault.failovers")
_RETRIES = obs.bind_counter("fault.retries")
_TIMEOUTS = obs.bind_counter("fault.timeouts")
_CORRUPTIONS = obs.bind_counter("fault.corruptions")
_FAILED = (
    obs.bind_counter("repro.serve.requests", outcome="failed"),
    obs.bind_counter(OUTCOME_SERIES, component="serve", outcome="failed"),
)
_DONE = obs.bind_counter(OUTCOME_SERIES, component="serve", outcome="done")


@dataclass
class RetryPolicy:
    """How the service recovers from injected/device faults.

    Requests whose launch (or result fetch) hits a fault are re-offered
    to admission after an exponential backoff, up to ``max_attempts``
    total launches; exhausting the budget fails the request
    (:attr:`~repro.serve.request.RequestStatus.FAILED`).  Sub-batches
    carry a watchdog deadline of their *predicted* kernel time plus
    ``batch_timeout_s`` of slack: missing it (an injected hang
    overshoots by ~``hang_latency_s``; healthy work never does) evicts
    the device and fails its sessions over.  Evicted devices are
    health-probed every ``probe_interval_s`` and readmitted once their
    timeline drains.
    """

    max_attempts: int = 3
    backoff_s: float = 0.5e-3
    backoff_multiplier: float = 2.0
    batch_timeout_s: float = 2e-3
    probe_interval_s: float = 5e-3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise CuppUsageError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0 or self.batch_timeout_s <= 0:
            raise CuppUsageError("backoff/timeout must be non-negative")

    def backoff_for(self, attempts: int) -> float:
        """Backoff before re-admitting a request on its Nth failure."""
        return self.backoff_s * self.backoff_multiplier ** max(
            0, attempts - 1
        )


@dataclass
class ServeConfig:
    """Tunables of one service instance (defaults match the loadgen)."""

    #: Agents per session when ``create_session`` is not given a size.
    agents_per_session: int = 128
    #: Batching window/size rule (see :class:`DynamicBatcher`).
    max_batch: int = 32
    window_s: float = 2e-3
    batching: bool = True
    #: Admission control (see :class:`AdmissionController`).
    queue_capacity: int = 256
    policy: str = "reject"
    #: Default absolute deadline offset applied to submitted requests
    #: (``None`` disables deadlines unless a request carries its own).
    default_deadline_s: "float | None" = None
    #: Devices in the serving group.
    devices: int = 2
    #: CUDA streams per device.  The default (2: one copy + one compute
    #: stream) pipelines staging uploads, kernels, and deferred result
    #: fetches with depth 2 per device; ``streams=1`` runs the same
    #: path at depth 1 on the null stream (every launch/memcpy
    #: serializes on ``device_busy_until``).
    streams: int = 2
    #: Execution backend per device: ``"sim"``, ``"native"``, ``"mixed"``
    #: (alternating), or an explicit per-device list of kinds.
    backend: "str | list[str]" = "sim"
    #: Route device allocations through the :mod:`repro.mem` caching
    #: pool (the serving layer's default; ``--no-pool`` in the loadgen).
    pool: bool = True
    #: Run real boids physics (demos/tests) or frozen synthetic state
    #: (load generation — modelled costs are identical either way).
    physics: bool = True
    #: Host-side cost of assembling + dispatching one batch, and the
    #: per-request marshalling increment on top of it.
    host_dispatch_s: float = 50e-6
    host_per_request_s: float = 2e-6
    params: BoidsParams = DEFAULT_PARAMS
    calib: Calibration = DEFAULT_CALIBRATION
    version: int = 5
    #: Fault injection (chaos mode).  ``None`` keeps every fault path
    #: inert — fault-free runs are byte-identical to pre-chaos builds.
    faults: "FaultConfig | None" = None
    #: Recovery behaviour when faults are enabled.
    retry: RetryPolicy = field(default_factory=RetryPolicy)


@dataclass
class ServiceStats:
    """Run counters the load generator reports from directly."""

    submitted: int = 0
    completed: int = 0
    batches: int = 0
    launches: int = 0
    agents_stepped: int = 0
    batch_sizes: "list[int]" = field(default_factory=list)
    #: Resilience counters (all zero on fault-free runs).
    retries: int = 0
    failed: int = 0
    timeouts: int = 0
    evictions: int = 0
    failovers: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average requests per formed batch (0 when none formed)."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)


class SimulationService:
    """Multi-tenant boids serving on a simulated multi-GPU host."""

    def __init__(self, config: "ServeConfig | None" = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self.store = SessionStore()
        self.admission = AdmissionController(cfg.queue_capacity, cfg.policy)
        self.batcher = DynamicBatcher(
            cfg.max_batch, cfg.window_s, enabled=cfg.batching
        )
        self.engine = StepEngine(cfg.params, cfg.calib, cfg.version)
        self.group = make_group(cfg.devices, pool=cfg.pool, backend=cfg.backend)
        self.scheduler = DeviceScheduler(
            self.group,
            calib=cfg.calib,
            host_dispatch_s=cfg.host_dispatch_s,
            host_per_request_s=cfg.host_per_request_s,
            streams=cfg.streams,
        )
        #: The service's virtual clock (seconds).
        self.now = 0.0
        self.stats = ServiceStats()
        self._in_flight: "list[SubBatch]" = []
        self._busy_sessions: "set[str]" = set()
        self._next_request_id = 0
        self._latency_us = obs.request_latency_histogram("serve")
        #: Each lifecycle point is announced once to these
        #: :class:`~repro.obs.lifecycle.ServeObserver`\ s (shared with the
        #: scheduler); empty, the default, costs one empty loop a point.
        self.observers: "tuple" = ()
        #: The attached instruments, for callers that read them.
        self.monitor = self.flight = None
        self._degrade_policy: "str | None" = None
        self._normal_policy: "str | None" = None
        self._normal_window: "float | None" = None
        #: Chaos wiring: one injector shared by the scheduler's consult
        #: sites and every simulated device's runtime hooks.
        self.injector: "FaultInjector | None" = None
        if cfg.faults is not None and cfg.faults.any_enabled:
            self.injector = FaultInjector(cfg.faults)
            self.injector.listener = self._on_fault_injected
            self.scheduler.injector = self.injector
            for device in self.group.devices:
                device.sim.fault_injector = self.injector
        self.retry = cfg.retry
        #: Requests parked for backoff: ``(wake_s, seq, request)``.
        self._retry_parked: "list[tuple[float, int, StepRequest]]" = []
        self._retry_seq = 0
        #: Timed-out sub-batches whose (late) completion is still owed
        #: by their device timeline; reaped without touching sessions.
        self._zombies: "list[SubBatch]" = []
        self._next_probe_s: "float | None" = None
        #: The event calendar's timed part: the earliest completion,
        #: watchdog, zombie reap, retry wake, or probe.
        self._timed_next: "float | None" = None
        #: Its launch-ready part: how many session heads are eligible,
        #: the oldest one's admit time, and whether any is a retry —
        #: counted over the free devices and queued sessions below.
        self._heads = 0
        self._oldest_head_s = 0.0
        self._head_retry = False
        self._free: "set[int]" = set()
        self._queued_sessions: "set[str]" = set()
        self._count_heads()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def create_session(
        self,
        session_id: str,
        n: "int | None" = None,
        seed: "int | None" = None,
    ) -> Session:
        """Register a tenant flock (``n`` defaults from the config)."""
        return self.store.create(
            session_id,
            self.config.agents_per_session if n is None else n,
            params=self.config.params,
            seed=seed,
            physics=self.config.physics,
        )

    # ------------------------------------------------------------------
    # live SLO monitoring
    # ------------------------------------------------------------------
    def attach_monitor(
        self, monitor, degrade_policy: "str | None" = None
    ) -> None:
        """Evaluate ``monitor`` (an :class:`repro.obs.monitor.SloMonitor`)
        live, on the service's virtual clock.

        The monitor observes the service's lifecycle: it samples the
        canonical series — completed request latency (µs), a 0/1
        failure indicator per terminal request, the admission queue
        depth, and fired faults — and evaluates after every event.

        ``degrade_policy`` makes admission *react* to alerts: while any
        alert is firing the admission policy switches to it (e.g.
        ``"shed-oldest"`` sheds the stalest queued work instead of
        rejecting fresh arrivals), and the original policy is restored
        when the last alert clears.  Both transitions land in the trace
        as ``serve.slo-fire``/``serve.slo-clear`` instants.
        """
        from repro.serve.admission import POLICIES

        if degrade_policy is not None and degrade_policy not in POLICIES:
            raise CuppUsageError(
                f"unknown degrade policy {degrade_policy!r}; one of {POLICIES}"
            )
        self.monitor = monitor
        self._degrade_policy = degrade_policy
        monitor.on_fire(self._on_alert_fire)
        monitor.on_clear(self._on_alert_clear)
        self._attach(monitor)

    # ------------------------------------------------------------------
    # flight tracing
    # ------------------------------------------------------------------
    def attach_flight(self, recorder) -> None:
        """Record per-request causal flight traces into ``recorder``
        (an :class:`repro.obs.flight.FlightRecorder`).

        The recorder observes every lifecycle point: it mints a
        :class:`~repro.obs.flight.TraceContext` per submitted request,
        follows it through admission, batching, scheduling, and every
        retry/failover hop, and paints the scheduler's device intervals
        onto per-device utilization tracks.  Its tail-sampling policy
        decides which finished traces survive.
        """
        self.flight = recorder
        self._attach(recorder)

    def _attach(self, observer) -> None:
        self.observers = self.scheduler.observers = (*self.observers, observer)
        self.admission.outcome_listener = self._on_admission_outcome

    def _on_admission_outcome(self, request, outcome: str, now: float) -> None:
        # drain() sweeps stragglers with drop_expired(inf); clamp so
        # observers see the service clock, not a literal infinity.
        now = self.now if now == float("inf") else now
        for o in self.observers:
            o.admission_outcome(request, outcome, now)

    def _on_alert_fire(self, alert) -> None:
        if _TRACER.enabled:
            _TRACER.instant(
                "serve.slo-fire",
                rule=alert.rule,
                value=alert.value,
                threshold=alert.threshold,
            )
        if self._degrade_policy is not None and self._normal_policy is None:
            self._normal_policy = self.admission.policy
            self.admission.policy = self._degrade_policy
        # Under chaos, degradation also shrinks the batching window so
        # the service trades batch efficiency for latency while the
        # alert (e.g. a fault burst) is live.
        if (
            self.injector is not None
            and self._degrade_policy is not None
            and self._normal_window is None
        ):
            self._normal_window = self.batcher.window_s
            self.batcher.window_s = self._normal_window * 0.25

    def _on_alert_clear(self, alert) -> None:
        if _TRACER.enabled:
            _TRACER.instant("serve.slo-clear", rule=alert.rule)
        if self._normal_policy is not None and not self.monitor.active:
            self.admission.policy = self._normal_policy
            self._normal_policy = None
        if self._normal_window is not None and not self.monitor.active:
            self.batcher.window_s = self._normal_window
            self._normal_window = None

    def _on_fault_injected(self, kind: str, point: str, device) -> None:
        """Injector listener: every fired fault reaches the observers."""
        for o in self.observers:
            o.fault_fired(kind, point, device, self.now)

    def submit(
        self,
        session_id: str,
        want_draw: bool = False,
        deadline_s: "float | None" = None,
    ) -> StepRequest:
        """Offer one step request at the current virtual time.

        The request goes through admission immediately; launching waits
        for :meth:`advance`/:meth:`drain` to move the clock.  The
        returned request object is live — its status and timestamps
        update as it moves through the pipeline.
        """
        if session_id not in self.store:
            raise CuppUsageError(f"unknown session {session_id!r}")
        if deadline_s is None and self.config.default_deadline_s is not None:
            deadline_s = self.now + self.config.default_deadline_s
        request = StepRequest(
            session_id=session_id,
            arrival_s=self.now,
            deadline_s=deadline_s,
            want_draw=want_draw,
        )
        request.request_id = self._next_request_id
        self._next_request_id += 1
        self.stats.submitted += 1
        for o in self.observers:
            o.request_submitted(request, self.now)
        depth = self.admission.depth
        if self.admission.submit(request, self.now) is RequestStatus.QUEUED:
            if self.admission.depth > depth:
                self._add_head(request)
            else:  # shed-oldest evicted a queued request for this one
                self._count_heads()
        for o in self.observers:
            o.request_offered(request, self.admission.depth, self.now)
            o.tick(self.now)
        return request

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def _fits(self, request: StepRequest) -> bool:
        """Device affinity: cold sessions can go to any free device, warm
        sessions need their resident one (free as of the last count)."""
        session = self.store.get(request.session_id)
        return session.resident_on is None or session.resident_on in self._free

    def _count_heads(self) -> "tuple[list[int], list[StepRequest]]":
        """Rebuild the calendar's launch-ready part in one queue pass;
        returns the free devices and the eligible requests it counted."""
        free = self.scheduler.free_devices()
        self._free = set(free)
        self._queued_sessions = set()
        eligible = (
            self.batcher.eligible(
                self.admission.queue,
                self._busy_sessions,
                self._fits,
                seen=self._queued_sessions,
            )
            if free
            else []
        )
        self._heads = len(eligible)
        if eligible:
            self._oldest_head_s = eligible[0].admit_s
            self._head_retry = any(r.attempts for r in eligible)
        return free, eligible

    def _add_head(self, request: StepRequest) -> None:
        """Update the launch-ready part for one request appended to the
        queue: it is a new eligible head unless its session is already
        queued or busy, or it does not fit a free device."""
        sid = request.session_id
        if (
            not self._free
            or sid in self._busy_sessions
            or sid in self._queued_sessions
        ):
            return
        self._queued_sessions.add(sid)
        if self._fits(request):
            self._heads += 1
            if self._heads == 1:
                # Arrivals are fresh requests: only an event re-queues
                # a retry, and every event recounts.
                self._oldest_head_s, self._head_retry = request.admit_s, False

    def _next_timed_event(self) -> "float | None":
        """Earliest completion, watchdog, reap, retry wake, or probe."""
        times = []
        for sub in self._in_flight:
            t = sub.completion_s
            if sub.timeout_s is not None:
                t = min(t, sub.timeout_s)
            times.append(t)
        times.extend(sub.completion_s for sub in self._zombies)
        if self._retry_parked:
            times.append(min(wake for wake, _, _ in self._retry_parked))
        if self.scheduler.unhealthy and self._next_probe_s is not None:
            times.append(self._next_probe_s)
        return min(times) if times else None

    def _next_event_time(self) -> "float | None":
        """Earliest calendar entry, or ``None`` when the service is idle."""
        t = self._timed_next
        if self._heads:
            ready = self.batcher.ready_time(
                self._heads, self._oldest_head_s, self._head_retry, self.now
            )
            if t is None or ready < t:
                t = ready
        return t

    def advance(self, until: float) -> None:
        """Process every event up to virtual time ``until``."""
        while True:
            t = self._next_event_time()
            if t is None or t > until + _EPS:
                break
            self._run_event(t)
        self.now = max(self.now, until)

    def drain(self) -> None:
        """Run the clock until no queued, blocked, or in-flight work is
        left (every surviving request reaches a terminal status)."""
        while True:
            t = self._next_event_time()
            if t is None:
                if self.admission.pending and not self._in_flight:
                    # Only unplaceable/blocked work remains with no event
                    # to free it — expire what has deadlines, drop ties.
                    self.admission.drop_expired(float("inf"))
                    self.admission.on_slots_freed(self.now)
                    self._count_heads()
                    if self._next_event_time() is None:
                        break
                    continue
                break
            self._run_event(t)

    def _run_event(self, t: float) -> None:
        """Advance to ``t``; complete finished work, then launch ready work."""
        self.now = max(self.now, t)
        self._mature_retries()
        self._probe_devices()
        for sub in [
            s for s in self._in_flight if s.completion_s <= self.now + _EPS
        ]:
            self._complete(sub)
        # Watchdog: sub-batches whose completion has not arrived by
        # their deadline (an injected hang) lose their device.
        for sub in [
            s
            for s in self._in_flight
            if s.timeout_s is not None and s.timeout_s <= self.now + _EPS
        ]:
            self._timeout_sub(sub)
        for sub in [
            s for s in self._zombies if s.completion_s <= self.now + _EPS
        ]:
            self._reap_zombie(sub)
        self.admission.drop_expired(self.now)
        self._launch_ready()
        for o in self.observers:
            o.tick(self.now)
        self._timed_next = self._next_timed_event()

    # ------------------------------------------------------------------
    # fault recovery (all no-ops on fault-free runs)
    # ------------------------------------------------------------------
    def _mature_retries(self) -> None:
        """Re-admit parked retries whose backoff has elapsed."""
        if not self._retry_parked:
            return
        due = sorted(
            e for e in self._retry_parked if e[0] <= self.now + _EPS
        )
        if not due:
            return
        self._retry_parked = [
            e for e in self._retry_parked if e[0] > self.now + _EPS
        ]
        for _, _, request in due:
            self.admission.submit(request, self.now)
            for o in self.observers:
                o.request_offered(request, self.admission.depth, self.now)

    def _schedule_probe(self) -> None:
        nxt = self.now + self.retry.probe_interval_s
        if self._next_probe_s is None or nxt < self._next_probe_s:
            self._next_probe_s = nxt

    def _probe_devices(self) -> None:
        """Health-probe evicted devices; readmit the drained ones."""
        if self._next_probe_s is None or self._next_probe_s > self.now + _EPS:
            return
        for index in sorted(self.scheduler.unhealthy):
            self.scheduler.probe(index, self.now)
        self._next_probe_s = (
            self.now + self.retry.probe_interval_s
            if self.scheduler.unhealthy
            else None
        )

    def _restore_session(self, session: Session, reason: str) -> None:
        """Fail one session over to the host: roll its state back to the
        last checkpoint and drop its device residency, so its next
        launch re-uploads last-known-good state to a healthy device."""
        if session.state_ptr is not None and session.resident_on is not None:
            self.group.devices[session.resident_on].free(session.state_ptr)
        session.state_ptr = None
        session.resident_on = None
        session.restore_checkpoint()
        self.stats.failovers += 1
        _FAILOVERS.inc()
        if _TRACER.enabled:
            _TRACER.instant(
                "serve.failover", session=session.session_id, reason=reason
            )
        obs.record_transfer(
            "failover-restore",
            "none",
            session.state_bytes,
            moved=False,
            label=reason,
        )

    def _fault_requeue(self, requests: "list[StepRequest]", reason: str) -> None:
        """Route faulted requests: park for retry, or fail them out."""
        for request in requests:
            request.attempts += 1
            request.launch_s = None
            request.device_index = None
            request.batch_id = None
            failed = request.attempts >= self.retry.max_attempts
            if failed:
                request.status = RequestStatus.FAILED
                self.stats.failed += 1
                for series in _FAILED:
                    series.inc()
                if _TRACER.enabled:
                    _TRACER.instant(
                        "serve.request-failed",
                        request=request.request_id,
                        reason=reason,
                        attempts=request.attempts,
                    )
            else:
                request.status = RequestStatus.PENDING
                wake = self.now + self.retry.backoff_for(request.attempts)
                self._retry_parked.append((wake, self._retry_seq, request))
                self._retry_seq += 1
                self.stats.retries += 1
                _RETRIES.inc()
                obs.record_transfer(
                    "retry", "none", 0, moved=False, label=reason
                )
            for o in self.observers:
                o.request_requeued(request, reason, failed, self.now)

    def _timeout_sub(self, sub: SubBatch) -> None:
        """Watchdog expiry: abandon the sub-batch, evict its device, and
        fail every session resident there over to the host."""
        self.stats.timeouts += 1
        self.stats.evictions += 1
        _TIMEOUTS.inc()
        if _TRACER.enabled:
            _TRACER.instant(
                "serve.batch-timeout",
                device=sub.device_index,
                hung=sub.hung,
                requests=len(sub.requests),
            )
        self._in_flight.remove(sub)
        # Streams mode pipelines two sub-batches per device, so the
        # evicted device may hold a sibling whose kernels are queued
        # behind the wedge: it goes down with the device (abandoned and
        # requeued like the primary, but the eviction is counted once).
        siblings = [
            s for s in self._in_flight if s.device_index == sub.device_index
        ]
        for sib in siblings:
            self._in_flight.remove(sib)
            if _TRACER.enabled:
                _TRACER.instant(
                    "serve.sibling-abandon",
                    device=sib.device_index,
                    requests=len(sib.requests),
                )
        self.scheduler.abandon(sub)
        for sib in siblings:
            self.scheduler.abandon(sib)
        self.scheduler.evict(sub.device_index, reason="batch-timeout")
        for doomed in (sub, *siblings):
            self._end_sub(doomed, "batch-timeout")
        # Every session resident on the dead device — in this sub or
        # idle — fails over (warm sessions pin to their device, so none
        # can be in flight elsewhere).
        for session in self.store:
            if session.resident_on == sub.device_index:
                self._restore_session(session, "batch-timeout")
        self._fault_requeue(sub.requests, "batch-timeout")
        for sib in siblings:
            self._fault_requeue(sib.requests, "batch-timeout")
        self._zombies.append(sub)
        self._zombies.extend(siblings)
        self._schedule_probe()
        self.admission.on_slots_freed(self.now)

    def _reap_zombie(self, sub: SubBatch) -> None:
        """A timed-out sub-batch's late completion: the device already
        played the work out on its timeline; nothing is fetched."""
        self._zombies.remove(sub)
        if _TRACER.enabled:
            _TRACER.instant(
                "serve.zombie-complete",
                device=sub.device_index,
                requests=len(sub.requests),
            )

    def _launch_ready(self) -> None:
        """Form and launch batches as long as the rule and devices allow."""
        while True:
            # The last pass, which launches nothing, leaves the
            # calendar's launch-ready part counted for the next event.
            free, eligible = self._count_heads()
            if not eligible:
                return
            ready = self.batcher.ready_time(
                self._heads, self._oldest_head_s, self._head_retry, self.now
            )
            if ready > self.now + _EPS:
                return
            batch = self.batcher.take(eligible, self.now)
            self.admission.remove(batch.requests)
            self.admission.on_slots_freed(self.now)
            self.stats.batches += 1
            self.stats.batch_sizes.append(len(batch))
            if _TRACER.enabled:
                with _TRACER.span(
                    "serve.batch", batch=batch.batch_id, size=len(batch)
                ):
                    self._launch_batch(batch, free)
            else:
                self._launch_batch(batch, free)

    def _launch_batch(self, batch: Batch, free: "list[int]") -> None:
        """Place one formed batch and launch each of its sub-batches."""
        for sub in self.scheduler.place(batch, self.store, free, engine=self.engine):
            for request, session in zip(sub.requests, sub.sessions):
                request.status = RequestStatus.IN_FLIGHT
                request.launch_s = self.now
                request.batch_id = batch.batch_id
                request.device_index = sub.device_index
                session.in_flight = True
                self._busy_sessions.add(session.session_id)
            for o in self.observers:
                o.sub_batch_launched(sub, batch.batch_id, self.now)
            try:
                self.scheduler.launch(sub, self.engine, self.now)
            except InjectedFault as fault:
                # Transient launch failure / unabsorbed OOM: the scheduler
                # unwound the device state; release the sessions and send
                # the requests to retry.
                self.now = self.scheduler.timelines[sub.device_index].host_time
                if _TRACER.enabled:
                    _TRACER.instant(
                        "serve.launch-fault",
                        device=sub.device_index,
                        kind=fault.kind,
                    )
                self._end_sub(sub, fault.kind)
                self._fault_requeue(sub.requests, fault.kind)
                continue
            # The single host thread serializes dispatch work.
            self.now = self.scheduler.timelines[sub.device_index].host_time
            if self.injector is not None:
                # Watchdog: the schedule's predicted finish (injected
                # hang excluded) plus slack — a hang overshoots this;
                # nothing healthy does.
                sub.timeout_s = (
                    sub.expected_completion_s + self.retry.batch_timeout_s
                )
            self.stats.launches += self.engine.launches_per_batch
            self._in_flight.append(sub)

    def _complete(self, sub: SubBatch) -> None:
        """Fetch, demux, and retire one finished sub-batch."""
        finish_host = self.scheduler.finish(
            sub, self.engine, max(self.now, sub.completion_s)
        )
        self.now = max(self.now, finish_host)
        if sub.corrupt:
            # The fetch came back with an uncorrectable ECC error: the
            # step is void.  Roll every touched session back to its
            # checkpoint (the device copy is suspect too) and retry.
            self._in_flight.remove(sub)
            _CORRUPTIONS.inc()
            if _TRACER.enabled:
                _TRACER.instant(
                    "serve.result-corrupt",
                    device=sub.device_index,
                    requests=len(sub.requests),
                )
            self._end_sub(sub, "result-corrupt")
            for session in sub.sessions:
                self._restore_session(session, "result-corrupt")
            self._fault_requeue(sub.requests, "result-corrupt")
            self.admission.on_slots_freed(self.now)
            return
        # On a native device with real physics the step *is* the kernel:
        # wall-clock it and feed the scheduler's online cost model.
        # (Without physics there is nothing to measure — native devices
        # then keep the perf-model-seeded estimate.)
        measure = (
            self.config.physics
            and self.scheduler.backend_kinds[sub.device_index] == "native"
        )
        started = _time.perf_counter() if measure else 0.0
        for session in sub.sessions:
            self.engine.advance(session)
            self.stats.agents_stepped += session.n
            if self.injector is not None:
                # Last-known-good snapshot for the failover path.
                session.checkpoint()
        if measure:
            self.scheduler.observe_native_cost(
                sub.device_index,
                self.engine.batch_kernel_seconds(sub.sessions),
                _time.perf_counter() - started,
            )
        self._demux_results(sub)
        self._end_sub(sub, "done")
        for request in sub.requests:
            request.status = RequestStatus.DONE
            request.finish_s = self.now
            self.stats.completed += 1
            latency_us = max(1, int(request.latency_s * 1e6))
            self._latency_us.observe(
                latency_us, getattr(request.ctx, "trace_id", None)
            )
            _DONE.inc()
            for o in self.observers:
                o.request_completed(request, latency_us, self.now)
        self._in_flight.remove(sub)
        self.admission.on_slots_freed(self.now)

    def _end_sub(self, sub: SubBatch, outcome: str) -> None:
        """A sub-batch left flight: free its sessions, tell observers."""
        for session in sub.sessions:
            session.in_flight = False
            self._busy_sessions.discard(session.session_id)
        for o in self.observers:
            o.sub_batch_ended(sub, outcome, self.now)

    def _demux_results(self, sub: SubBatch) -> None:
        """Slice the fused draw-matrix vector back per request.

        Only materialized when some request asked for matrices — the
        modelled d2h bytes were already charged in
        :meth:`DeviceScheduler.finish` either way.
        """
        if not any(r.want_draw for r in sub.requests):
            return
        arrays = [
            s.draw_matrices().astype(np.float32).reshape(-1)
            for s in sub.sessions
        ]
        fused = Vector(np.concatenate(arrays), dtype=np.float32)
        offsets = np.cumsum([a.size for a in arrays])[:-1]
        parts = fused.split_at(*(int(o) for o in offsets))
        for request, session, part in zip(sub.requests, sub.sessions, parts):
            if request.want_draw:
                request.result = part.to_numpy().reshape(session.n, 4, 4)

    # ------------------------------------------------------------------
    @property
    def in_flight_batches(self) -> int:
        """Sub-batches currently executing on devices."""
        return len(self._in_flight)

    @property
    def fault_stats(self) -> "dict | None":
        """The injector's counters (``None`` on fault-free services)."""
        if self.injector is None:
            return None
        return self.injector.stats.to_dict()
