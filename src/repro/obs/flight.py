"""Request-centric causal tracing: trace contexts, span links, tail
sampling, and the per-device timeline profiler.

The wall-clock tracer (:mod:`repro.obs.tracer`) answers "where did the
*process* spend its time"; it cannot answer the question a serving
operator actually asks: *why was request 4817 slow?*  Once a request is
coalesced into a fused batch, retried after a fault, or failed over to
another device, its identity dissolves into loose ``request=`` instant
annotations with no causal chain.  This module supplies the missing
primitive — a propagated per-request **trace context** on the service's
*virtual* clock:

* :class:`TraceContext` is minted per request at
  :meth:`~repro.serve.service.SimulationService.submit` and rides on the
  request object through admission, batching, scheduling, and every
  retry/failover hop.  The recorder hears the service's lifecycle and
  opens a :class:`FlightSpan` per stage (``admit`` → ``queue`` →
  ``attempt-N``).
* **Span links** stitch causality across trace boundaries: one
  ``fused-launch`` span (per sub-batch, its own trace) links to every
  coalesced request's attempt span (``coalesced``), each attempt links
  back to the fused launch it rode (``fused-launch``), and a retried or
  failed-over attempt links to its predecessor (``retry-of`` /
  ``failover-of``) — so one connected graph survives batching, retries,
  and failover.
* **Tail sampling** keeps full-fidelity tracing affordable at
  loadgen scale: the :class:`FlightRecorder` buffers a trace only while
  its request is in flight, then *retains* it only when it was
  interesting (faulted, failed over, deadline-missed, slow) or caught by
  a deterministic 1-in-N head sample.  Retention is capped
  (``max_retained``), evicting head samples before interesting traces,
  oldest first — memory stays bounded no matter how long the run.
* The **per-device timeline profiler** folds the scheduler's device
  events (kernel busy, bus transfers, injected wedges) into utilization
  tracks: Chrome-trace rows on named per-device threads
  (:func:`device_chrome_trace`), a text gantt (:func:`render_gantt`),
  and busy/transfer/wedged/idle shares (:func:`device_utilization`).

Everything here is pure bookkeeping on explicitly passed virtual
timestamps — recording never touches a clock, never draws randomness,
and never perturbs the discrete-event schedule, so a run with flight
recording on produces byte-identical SLO numbers to one without.
``python -m repro.serve.explain`` consumes the recorder (live or
exported via :meth:`FlightRecorder.write`) to reconstruct one request's
full waterfall.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field

from repro.obs.lifecycle import ServeObserver

#: Link kinds the serving layer emits (other producers may add more).
LINK_KINDS = (
    "coalesced",      # fused-launch span -> each rider's attempt span
    "fused-launch",   # attempt span -> the fused-launch span it rode
    "retry-of",       # attempt N+1 -> attempt N after a transient fault
    "failover-of",    # attempt N+1 -> attempt N after eviction/rollback
)

#: Flags that make a finished trace worth retaining in full.
INTERESTING_FLAGS = ("fault", "failover", "failed", "deadline-miss", "slow")

#: The subset of interesting flags that marks a trace *critical*: under
#: retention pressure these evict last, so an incident's fault traces
#: outlive a flood of merely-slow ones.
CRITICAL_FLAGS = ("fault", "failover", "failed")

#: Faults after which the service rolled the session back and dropped its
#: residency: the next attempt is ``failover-of``, not ``retry-of``.
FAILOVER_REASONS = ("batch-timeout", "result-corrupt")

#: Device-track event kinds, in paint priority (later wins in the gantt).
DEVICE_TRACK_KINDS = ("busy", "transfer", "wedged")


@dataclass(frozen=True)
class SpanLink:
    """A causal edge to a span in (usually) another trace."""

    trace_id: str
    span_id: int
    kind: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id, "kind": self.kind}


@dataclass
class FlightSpan:
    """One timed unit of a request's journey, on the virtual clock."""

    trace_id: str
    span_id: int
    name: str
    start_s: float
    end_s: "float | None" = None
    parent_id: "int | None" = None
    attrs: dict = field(default_factory=dict)
    links: "list[SpanLink]" = field(default_factory=list)

    @property
    def dur_s(self) -> float:
        """Span duration (0.0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
            "links": [link.to_dict() for link in self.links],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FlightSpan":
        return cls(
            trace_id=doc["trace_id"],
            span_id=doc["span_id"],
            name=doc["name"],
            start_s=doc["start_s"],
            end_s=doc.get("end_s"),
            parent_id=doc.get("parent_id"),
            attrs=dict(doc.get("attrs", {})),
            links=[SpanLink(**l) for l in doc.get("links", [])],
        )


class TraceContext:
    """The propagated per-request context: identity plus live wiring.

    The recorder stores one on each :class:`~repro.serve.request
    .StepRequest` and, as it hears the request's lifecycle events,
    keeps the ``root``/``queue``/``attempt`` slots pointing at the
    latest span of each kind, so one event closes what an earlier one
    opened without a side table.
    """

    __slots__ = ("trace_id", "seq", "flags", "root", "queue", "attempt")

    def __init__(self, trace_id: str, seq: int) -> None:
        self.trace_id = trace_id
        self.seq = seq
        #: Retention verdict accumulators (subset of INTERESTING_FLAGS).
        self.flags: "set[str]" = set()
        self.root: "FlightSpan | None" = None
        self.queue: "FlightSpan | None" = None
        self.attempt: "FlightSpan | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id}, flags={sorted(self.flags)})"


@dataclass
class TraceRecord:
    """One retained (finished) trace."""

    trace_id: str
    request_id: "int | None"
    flags: "set[str]"
    spans: "list[FlightSpan]"
    finished_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "flags": sorted(self.flags),
            "finished_s": self.finished_s,
            "spans": [span.to_dict() for span in self.spans],
        }


@dataclass
class DeviceEvent:
    """One interval on a device's utilization track.

    ``stream`` tags the interval with the stream that scheduled it
    (``None`` for serial null-stream work); consumers split tagged
    events into per-stream sub-tracks so overlap is visible.
    """

    device: int
    kind: str  # one of DEVICE_TRACK_KINDS
    start_s: float
    end_s: float
    label: str = ""
    stream: "int | None" = None

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "label": self.label,
            "stream": self.stream,
        }


class FlightRecorder(ServeObserver):
    """Bounded-memory tail-sampling store for request flight traces.

    Parameters
    ----------
    head_sample_every:
        Deterministic head sampling: every Nth minted trace is retained
        regardless of verdict (0 disables head sampling).  Head samples
        are what keep the *normal* request shape visible next to the
        outliers tail sampling exists for.
    slow_threshold_s:
        A completed trace whose root span lasted at least this long is
        flagged ``slow`` and retained (``None`` disables the check).
    max_retained:
        Hard cap on retained traces.  Eviction is severity-tiered,
        oldest first within a tier: head samples go first, then
        merely-interesting traces (``slow``/``deadline-miss``), then
        critical ones (:data:`CRITICAL_FLAGS`).
    max_batch_spans / max_device_events:
        Caps on the fused-launch span ring and the device-event ring.
    """

    def __init__(
        self,
        head_sample_every: int = 64,
        slow_threshold_s: "float | None" = None,
        max_retained: int = 256,
        max_batch_spans: int = 4096,
        max_device_events: int = 1 << 17,
    ) -> None:
        if head_sample_every < 0:
            raise ValueError(
                f"head_sample_every must be >= 0, got {head_sample_every}"
            )
        if max_retained <= 0:
            raise ValueError(f"max_retained must be positive, got {max_retained}")
        self.head_sample_every = head_sample_every
        self.slow_threshold_s = slow_threshold_s
        self.max_retained = max_retained
        self.max_batch_spans = max_batch_spans
        self._next_trace = 0
        self._next_span = 0
        self._next_batch = 0
        #: Spans of traces whose request is still in flight.
        self._open: "dict[str, list[FlightSpan]]" = {}
        #: Retained traces, insertion (finish) order, one pool per
        #: severity tier so eviction can drain the least severe first.
        self._crit: "dict[str, TraceRecord]" = {}
        self._warm: "dict[str, TraceRecord]" = {}
        self._head: "dict[str, TraceRecord]" = {}
        #: Fused-launch spans (cross-trace link targets), bounded ring.
        self._batches: "dict[int, FlightSpan]" = {}
        self.device_events: "deque[DeviceEvent]" = deque(maxlen=max_device_events)
        #: Lifetime counters (JSON-friendly via stats()).
        self.minted = 0
        self.finished = 0
        self.dropped = 0
        self.evicted = 0

    # ------------------------------------------------------------------
    # producing
    # ------------------------------------------------------------------
    def mint(self) -> TraceContext:
        """A fresh trace context (deterministic monotone ids)."""
        seq = self._next_trace
        self._next_trace += 1
        self.minted += 1
        ctx = TraceContext(f"t{seq:06d}", seq)
        self._open[ctx.trace_id] = []
        return ctx

    def _new_span_id(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        return span_id

    def start(
        self,
        ctx: TraceContext,
        name: str,
        start_s: float,
        parent: "FlightSpan | None" = None,
        **attrs: object,
    ) -> FlightSpan:
        """Open one span on ``ctx``'s trace at virtual time ``start_s``."""
        span = FlightSpan(
            trace_id=ctx.trace_id,
            span_id=self._new_span_id(),
            name=name,
            start_s=start_s,
            parent_id=None if parent is None else parent.span_id,
            attrs=attrs,
        )
        buffer = self._open.get(ctx.trace_id)
        if buffer is not None:
            buffer.append(span)
        return span

    @staticmethod
    def end(span: FlightSpan, end_s: float, **attrs: object) -> FlightSpan:
        """Close ``span`` at ``end_s``, merging final attributes."""
        span.end_s = end_s
        if attrs:
            span.attrs.update(attrs)
        return span

    @staticmethod
    def link(
        span: FlightSpan, trace_id: str, span_id: int, kind: str
    ) -> None:
        """Add a causal edge from ``span`` to another span."""
        span.links.append(SpanLink(trace_id, span_id, kind))

    def start_batch(self, start_s: float, **attrs: object) -> FlightSpan:
        """Open a ``fused-launch`` span in its own (batch) trace.

        Batch spans are cross-trace link targets; they live in a bounded
        ring keyed by span id rather than in any request's trace.
        """
        seq = self._next_batch
        self._next_batch += 1
        span = FlightSpan(
            trace_id=f"b{seq:06d}",
            span_id=self._new_span_id(),
            name="fused-launch",
            start_s=start_s,
            attrs=attrs,
        )
        self._batches[span.span_id] = span
        while len(self._batches) > self.max_batch_spans:
            self._batches.pop(next(iter(self._batches)))
        return span

    def device_event(
        self,
        device: int,
        kind: str,
        start_s: float,
        end_s: float,
        label: str = "",
        stream: "int | None" = None,
    ) -> None:
        """Record one interval on a device's utilization track (tagged
        with its scheduling ``stream`` for overlapped work)."""
        if kind not in DEVICE_TRACK_KINDS:
            raise ValueError(
                f"unknown device track kind {kind!r}; one of {DEVICE_TRACK_KINDS}"
            )
        self.device_events.append(
            DeviceEvent(device, kind, start_s, end_s, label, stream)
        )

    # ------------------------------------------------------------------
    # the serving lifecycle: the only code that opens and closes spans
    # ------------------------------------------------------------------
    device_interval = device_event

    def request_submitted(self, request, now: float) -> None:
        ctx = request.ctx = self.mint()
        ctx.root = self.start(
            ctx, "request", now,
            request=request.request_id, session=request.session_id,
        )

    def admission_outcome(self, request, outcome: str, now: float) -> None:
        ctx = request.ctx
        if ctx is None:
            return
        if outcome == "admitted":
            if ctx.queue is not None and ctx.queue.end_s is None:
                # A blocked (or shed-path) request finally got a slot:
                # the open queue span absorbs the blocked wait.
                ctx.queue.attrs["admitted_s"] = now
            else:
                self.end(self.start(ctx, "admit", now, parent=ctx.root), now)
                ctx.queue = self.start(ctx, "queue", now, parent=ctx.root)
        elif outcome == "blocked":
            ctx.queue = self.start(ctx, "queue", now, parent=ctx.root, blocked=True)
        else:  # rejected, shed or expired: the request is gone
            if outcome == "expired":
                ctx.flags.add("deadline-miss")
            where = "submit" if request.admit_s is None else "dequeue"
            self._seal(ctx, ctx.queue, now, outcome, where=where)

    def sub_batch_launched(self, sub, batch_id: int, now: float) -> None:
        fused = sub.flight_span = self.start_batch(
            now, batch=batch_id, device=sub.device_index, size=len(sub.requests)
        )
        for request in sub.requests:
            ctx = request.ctx
            if ctx is None:
                continue
            if ctx.queue is not None and ctx.queue.end_s is None:
                self.end(ctx.queue, now, outcome="launched")
            prev = ctx.attempt
            attempt = ctx.attempt = self.start(
                ctx, f"attempt-{request.attempts + 1}", now,
                parent=ctx.root, device=sub.device_index, batch=batch_id,
            )
            # A retry links back to the faulted attempt, whose outcome
            # (the fault reason) says which kind of hop this is.
            if prev is not None:
                failover = prev.attrs.get("outcome") in FAILOVER_REASONS
                kind = "failover-of" if failover else "retry-of"
                self.link(attempt, ctx.trace_id, prev.span_id, kind)
            # The cross-trace stitch: the fused launch knows every
            # rider, every rider knows its fused launch.
            self.link(attempt, fused.trace_id, fused.span_id, "fused-launch")
            self.link(fused, ctx.trace_id, attempt.span_id, "coalesced")

    def sub_batch_ended(self, sub, outcome: str, now: float) -> None:
        if sub.flight_span is not None:
            self.end(sub.flight_span, now, outcome=outcome)

    def request_requeued(self, request, reason: str, failed: bool, now: float) -> None:
        ctx = request.ctx
        if ctx is None:
            return
        if ctx.attempt is not None and ctx.attempt.end_s is None:
            self.end(ctx.attempt, now, outcome=reason)
        ctx.flags.add("fault")
        if reason in FAILOVER_REASONS:
            ctx.flags.add("failover")
        if failed:
            ctx.flags.add("failed")
            self._seal(ctx, None, now, "failed", reason=reason)

    def request_completed(self, request, latency_us: int, now: float) -> None:
        ctx = request.ctx
        if ctx is not None:
            self._seal(ctx, ctx.attempt, now, "done", latency_us=latency_us)

    def _seal(self, ctx, stage, now: float, outcome: str, **root_attrs) -> None:
        """End the open ``stage`` span and the root; decide retention."""
        if stage is not None and stage.end_s is None:
            self.end(stage, now, outcome=outcome)
        if ctx.root is not None and ctx.root.end_s is None:
            self.end(ctx.root, now, outcome=outcome, **root_attrs)
        self.finish(ctx, now)

    # ------------------------------------------------------------------
    # the tail-sampling verdict
    # ------------------------------------------------------------------
    def finish(self, ctx: TraceContext, end_s: float) -> bool:
        """Seal ``ctx``'s trace and decide retention; True when kept.

        Interesting traces (any :data:`INTERESTING_FLAGS` flag, the
        ``slow`` check applied here from the root span's duration) are
        always retained; otherwise the deterministic head sample
        decides.  Dropped traces free their buffered spans immediately.
        """
        spans = self._open.pop(ctx.trace_id, [])
        self.finished += 1
        if (
            self.slow_threshold_s is not None
            and ctx.root is not None
            and ctx.root.end_s is not None
            and ctx.root.dur_s >= self.slow_threshold_s
        ):
            ctx.flags.add("slow")
        interesting = bool(ctx.flags)
        head = (
            self.head_sample_every > 0
            and ctx.seq % self.head_sample_every == 0
        )
        if not interesting and not head:
            self.dropped += 1
            return False
        if head and not interesting:
            ctx.flags.add("head")
        request_id = None
        if ctx.root is not None:
            request_id = ctx.root.attrs.get("request")
        record = TraceRecord(
            trace_id=ctx.trace_id,
            request_id=request_id,
            flags=set(ctx.flags),
            spans=spans,
            finished_s=end_s,
        )
        if not interesting:
            pool = self._head
        elif any(flag in ctx.flags for flag in CRITICAL_FLAGS):
            pool = self._crit
        else:
            pool = self._warm
        pool[ctx.trace_id] = record
        while self.retained_count > self.max_retained:
            victim_pool = self._head or self._warm or self._crit
            victim_pool.pop(next(iter(victim_pool)))
            self.evicted += 1
        return True

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def retained_count(self) -> int:
        """Retained traces currently held (always <= ``max_retained``)."""
        return len(self._crit) + len(self._warm) + len(self._head)

    @property
    def open_count(self) -> int:
        """Traces still buffering (their request is in flight)."""
        return len(self._open)

    def trace(self, trace_id: str) -> "TraceRecord | None":
        """A retained trace by id (``None`` when dropped or unknown)."""
        return (
            self._crit.get(trace_id)
            or self._warm.get(trace_id)
            or self._head.get(trace_id)
        )

    def trace_for_request(self, request_id: int) -> "TraceRecord | None":
        """The retained trace whose root carries ``request_id``."""
        for pool in (self._crit, self._warm, self._head):
            for record in pool.values():
                if record.request_id == request_id:
                    return record
        return None

    def retained(self, flag: "str | None" = None) -> "list[TraceRecord]":
        """Retained traces (optionally only those carrying ``flag``),
        oldest first."""
        records = (
            list(self._crit.values())
            + list(self._warm.values())
            + list(self._head.values())
        )
        records.sort(key=lambda r: r.trace_id)
        if flag is None:
            return records
        return [r for r in records if flag in r.flags]

    def request_ids(self, flag: "str | None" = None) -> "list[int]":
        """Request ids of retained traces (optionally filtered by flag)."""
        return [
            r.request_id
            for r in self.retained(flag)
            if r.request_id is not None
        ]

    def batch_span(self, span_id: int) -> "FlightSpan | None":
        """A fused-launch span by id (``None`` once evicted)."""
        return self._batches.get(span_id)

    def stats(self) -> dict:
        """Lifetime counters plus current occupancy."""
        return {
            "minted": self.minted,
            "finished": self.finished,
            "retained": self.retained_count,
            "retained_interesting": len(self._crit) + len(self._warm),
            "retained_critical": len(self._crit),
            "retained_head": len(self._head),
            "dropped": self.dropped,
            "evicted": self.evicted,
            "open": self.open_count,
            "cap": self.max_retained,
        }

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The whole recorder as one JSON-serializable document."""
        return {
            "config": {
                "head_sample_every": self.head_sample_every,
                "slow_threshold_s": self.slow_threshold_s,
                "max_retained": self.max_retained,
            },
            "stats": self.stats(),
            "traces": [r.to_dict() for r in self.retained()],
            "batch_spans": [s.to_dict() for s in self._batches.values()],
            "device_events": [e.to_dict() for e in self.device_events],
        }

    def write(self, path: str) -> dict:
        """Serialize :meth:`to_dict` to ``path``; returns the document."""
        doc = self.to_dict()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        return doc


def load_flight(path: str) -> dict:
    """Re-load a document written by :meth:`FlightRecorder.write`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# the per-device timeline profiler
# ----------------------------------------------------------------------
def device_utilization(
    events: "list[DeviceEvent]",
    t0: "float | None" = None,
    t1: "float | None" = None,
    by_stream: bool = False,
) -> dict:
    """Fold device events into per-device busy/transfer/wedged/idle time.

    The horizon defaults to the events' own extent; idle is whatever
    the horizon does not cover (floored at zero).  With streams the
    copy-engine and compute tracks may overlap, so a device's covered
    time can exceed the horizon — pass ``by_stream=True`` to key rows
    by ``(device, stream)`` instead and see each track's share.
    """
    if not events:
        return {}
    lo = min(e.start_s for e in events) if t0 is None else t0
    hi = max(e.end_s for e in events) if t1 is None else t1
    horizon = max(hi - lo, 0.0)
    out: dict = {}
    for event in events:
        key = (event.device, event.stream) if by_stream else event.device
        row = out.setdefault(
            key,
            {kind: 0.0 for kind in DEVICE_TRACK_KINDS},
        )
        row[event.kind] += max(0.0, event.end_s - event.start_s)
    for key, row in out.items():
        covered = sum(row.values())
        row["idle"] = max(0.0, horizon - covered)
        row["horizon_s"] = horizon
        row["utilization"] = (
            row["busy"] / horizon if horizon > 0 else 0.0
        )
    if by_stream:
        return dict(
            sorted(
                out.items(),
                key=lambda kv: (
                    kv[0][0],
                    -1 if kv[0][1] is None else kv[0][1],
                ),
            )
        )
    return dict(sorted(out.items()))


def device_chrome_trace(
    events: "list[DeviceEvent]",
    device_names: "dict[int, str] | None" = None,
) -> dict:
    """Device utilization tracks as a Chrome-trace document.

    One named thread row per device (``device-N``, satisfying
    Perfetto's need for ``M`` metadata to label tracks), one ``X``
    event per interval, timestamps in virtual microseconds.  Events
    tagged with a stream get their own sub-row (``device-N/sK``) so
    overlapped copy/compute intervals render side by side instead of
    stacking on one thread.
    """
    from repro.obs.export import chrome_trace
    from repro.obs.tracer import TraceEvent

    has_streams = any(e.stream is not None for e in events)

    def _tid(e: DeviceEvent) -> int:
        if not has_streams:
            return e.device
        # 64 sub-rows per device: row 0 is the null stream.
        return e.device * 64 + (0 if e.stream is None else e.stream + 1)

    def _name(e: DeviceEvent) -> str:
        base = (
            device_names.get(e.device, f"device-{e.device}")
            if device_names
            else f"device-{e.device}"
        )
        if not has_streams or e.stream is None:
            return base
        return f"{base}/s{e.stream}"

    rows = [
        TraceEvent(
            name=f"device.{e.kind}",
            kind="span",
            ts=e.start_s,
            dur=max(0.0, e.end_s - e.start_s),
            tid=_tid(e),
            depth=0,
            parent=None,
            args={"device": e.device, "label": e.label} if e.label else {"device": e.device},
        )
        for e in events
    ]
    names = {_tid(e): _name(e) for e in events}
    return chrome_trace(rows, process_name="devices", thread_names=names)


#: Gantt glyphs per track kind (idle is the background).
_GANTT_GLYPHS = {"busy": "#", "transfer": "=", "wedged": "X"}


def render_gantt(events: "list[DeviceEvent]", width: int = 72) -> str:
    """A fixed-width text gantt of the device utilization tracks.

    One line per device; each column is one time bin painted with the
    highest-priority kind overlapping it (wedged > transfer > busy),
    ``.`` when idle.  A scale line anchors the virtual-time extent.
    """
    if not events:
        return "(no device events)"
    lo = min(e.start_s for e in events)
    hi = max(e.end_s for e in events)
    span = max(hi - lo, 1e-12)
    bin_s = span / width
    # One line per device for serial traces; one per (device, stream)
    # track when any event is stream-tagged, so overlap is visible.
    has_streams = any(e.stream is not None for e in events)
    if has_streams:
        tracks = sorted(
            {(e.device, e.stream) for e in events},
            key=lambda t: (t[0], -1 if t[1] is None else t[1]),
        )
    else:
        tracks = [(d, None) for d in sorted({e.device for e in events})]
    priority = {kind: i for i, kind in enumerate(DEVICE_TRACK_KINDS)}
    lines = [
        f"device timeline  [{lo * 1e3:.3f} ms .. {hi * 1e3:.3f} ms]  "
        f"({bin_s * 1e6:.1f} us/col; #=busy ==transfer X=wedged .=idle)"
    ]
    for device, stream in tracks:
        cells = [-1] * width
        for event in events:
            if event.device != device:
                continue
            if has_streams and event.stream != stream:
                continue
            first = int((event.start_s - lo) / bin_s)
            last = int((event.end_s - lo) / bin_s)
            rank = priority[event.kind]
            for col in range(max(0, first), min(width - 1, last) + 1):
                if rank > cells[col]:
                    cells[col] = rank
        row = "".join(
            "." if c < 0 else _GANTT_GLYPHS[DEVICE_TRACK_KINDS[c]]
            for c in cells
        )
        label = (
            f"device-{device}"
            if not has_streams
            else f"device-{device}{'' if stream is None else f'/s{stream}'}"
        )
        lines.append(f"{label} |{row}|")
    return "\n".join(lines)
