"""Admission control: the bounded queue in front of the batcher.

A serving system that accepts everything melts down from the queue, not
the device — so admission is explicit.  The controller owns a bounded
FIFO of admitted requests plus one of three backpressure policies for a
full queue:

``reject``
    Turn the new arrival away immediately (fail fast; the client sees
    the overload).
``shed-oldest``
    Evict the oldest *queued* request to make room (freshest-first under
    overload; the evicted request has waited longest and is most likely
    to be past its deadline anyway).
``block``
    Park the new arrival in an unbounded blocked list; it is admitted —
    in arrival order — as launches free queue slots.  Blocked time
    counts toward the request's latency, which is exactly the
    backpressure signal an open-loop client would measure.

Queue depth is reported through the canonical
:func:`repro.obs.queue_depth_gauge` series (live value) and a sampled
histogram (distribution over every admission event).
"""

from __future__ import annotations

from collections import deque

from repro import obs
from repro.cupp.exceptions import CuppUsageError
from repro.obs.monitor import OUTCOME_SERIES
from repro.serve.request import RequestStatus, StepRequest

#: The recognized backpressure policies.
POLICIES = ("reject", "shed-oldest", "block")

_TRACER = obs.get_tracer()

#: Outcome name -> its ``repro.serve.requests`` and canonical
#: ``repro.request.outcome`` counters.
_OUTCOMES = {
    name: (
        obs.bind_counter("repro.serve.requests", outcome=name),
        obs.bind_counter(OUTCOME_SERIES, component="serve", outcome=name),
    )
    for name in ("admitted", "expired", "rejected", "shed", "blocked")
}


class AdmissionController:
    """Bounded request queue with a configurable overflow policy."""

    def __init__(self, capacity: int, policy: str = "reject") -> None:
        if capacity <= 0:
            raise CuppUsageError(
                f"queue capacity must be positive, got {capacity}"
            )
        if policy not in POLICIES:
            raise CuppUsageError(
                f"unknown admission policy {policy!r}; one of {POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self.queue: "deque[StepRequest]" = deque()
        self.blocked: "deque[StepRequest]" = deque()
        self._depth = obs.queue_depth_gauge("serve")
        self._depth_samples = obs.histogram("repro.serve.queue_depth.samples")
        #: Optional ``listener(request, outcome, now)`` the service
        #: installs to feed the live SLO monitor terminal outcomes.
        self.outcome_listener = None

    # ------------------------------------------------------------------
    def _outcome(self, request: StepRequest, name: str, now: float) -> None:
        for series in _OUTCOMES[name]:
            series.inc()
        if self.outcome_listener is not None:
            self.outcome_listener(request, name, now)

    @staticmethod
    def _request_args(request: StepRequest, **extra: object) -> dict:
        """Instant args for ``request`` — the ``request=`` id is attached
        only once admission has assigned one, so the ``-1`` placeholder
        never leaks into exported traces (the exporter asserts this)."""
        if request.request_id >= 0:
            extra["request"] = request.request_id
        return extra

    def _note_depth(self, trace_id: "str | None" = None) -> None:
        depth = len(self.queue)
        self._depth.set(depth)
        # The arriving request's trace tags the sample, so a queue-depth
        # spike in the histogram resolves to a trace that saw it.
        self._depth_samples.observe(depth, trace_id)

    def _admit(self, request: StepRequest, now: float) -> None:
        request.status = RequestStatus.QUEUED
        request.admit_s = now
        self.queue.append(request)
        self._outcome(request, "admitted", now)

    # ------------------------------------------------------------------
    def submit(self, request: StepRequest, now: float) -> RequestStatus:
        """Offer a new arrival; returns the resulting status.

        A full queue triggers the configured policy; the returned status
        is one of QUEUED, REJECTED, or BLOCKED (shedding evicts an *old*
        request, so the new arrival still lands QUEUED).  A request
        whose deadline has already passed is refused outright as
        EXPIRED — queuing work that cannot meet its deadline only
        steals a slot from work that can.
        """
        trace_id = getattr(request.ctx, "trace_id", None)
        if request.expired(now):
            request.status = RequestStatus.EXPIRED
            self._outcome(request, "expired", now)
            if _TRACER.enabled:
                _TRACER.instant(
                    "serve.deadline-miss",
                    **self._request_args(request, where="submit"),
                )
            self._note_depth(trace_id)
            return request.status
        if len(self.queue) < self.capacity and not self.blocked:
            self._admit(request, now)
        elif self.policy == "reject":
            request.status = RequestStatus.REJECTED
            self._outcome(request, "rejected", now)
            if _TRACER.enabled:
                _TRACER.instant("serve.reject", **self._request_args(request))
        elif self.policy == "shed-oldest":
            if len(self.queue) >= self.capacity:
                victim = self.queue.popleft()
                victim.status = RequestStatus.SHED
                self._outcome(victim, "shed", now)
                if _TRACER.enabled:
                    _TRACER.instant(
                        "serve.shed",
                        **self._request_args(
                            victim, waited_s=now - (victim.admit_s or now)
                        ),
                    )
            self._admit(request, now)
        else:  # block
            request.status = RequestStatus.BLOCKED
            self.blocked.append(request)
            self._outcome(request, "blocked", now)
        self._note_depth(trace_id)
        return request.status

    def on_slots_freed(self, now: float) -> int:
        """Admit blocked requests into freshly freed queue slots.

        Called after a batch launch removes requests from the queue;
        returns how many blocked requests were admitted (FIFO order).
        """
        moved = 0
        while self.blocked and len(self.queue) < self.capacity:
            request = self.blocked.popleft()
            if request.expired(now):
                request.status = RequestStatus.EXPIRED
                self._outcome(request, "expired", now)
                continue
            self._admit(request, now)
            moved += 1
        if moved:
            self._note_depth()
        return moved

    # ------------------------------------------------------------------
    def drop_expired(self, now: float) -> "list[StepRequest]":
        """Remove queued requests whose deadline has passed.

        One pass partitions the queue; the deque is left untouched when
        nothing expired.
        """
        survivors: "list[StepRequest]" = []
        expired: "list[StepRequest]" = []
        for request in self.queue:
            (expired if request.expired(now) else survivors).append(request)
        if expired:
            for request in expired:
                request.status = RequestStatus.EXPIRED
                self._outcome(request, "expired", now)
                if _TRACER.enabled:
                    _TRACER.instant(
                        "serve.deadline-miss",
                        **self._request_args(request, where="dequeue"),
                    )
            self.queue.clear()
            self.queue.extend(survivors)
            self._note_depth()
        return expired

    def remove(self, requests: "list[StepRequest]") -> None:
        """Take launched requests out of the queue (batcher callback)."""
        taken = set(id(r) for r in requests)
        survivors = [r for r in self.queue if id(r) not in taken]
        self.queue.clear()
        self.queue.extend(survivors)
        self._note_depth()

    @property
    def depth(self) -> int:
        """Current number of queued (admitted, unlaunched) requests."""
        return len(self.queue)

    @property
    def pending(self) -> int:
        """Queued plus blocked requests still owed a launch."""
        return len(self.queue) + len(self.blocked)
