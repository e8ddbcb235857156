"""Nestable spans and instant events on a monotonic clock.

The tracer is the event-producing half of the observability layer
(:mod:`repro.obs`): instrumented code opens :class:`Span` context
managers around units of work (a kernel launch, a pipeline stage) and
drops :meth:`Tracer.instant` markers for point-in-time facts (a dirty
flag flipping, a memcpy).  Events land in a :class:`Recorder`; the
exporters (:mod:`repro.obs.export`) turn recorded events into
Chrome-trace JSON.

Two design rules keep tracing safe to leave compiled into every hot
path:

* **Zero-cost when disabled.**  A disabled tracer hands out one shared
  :class:`NullSpan` singleton and never touches a clock, a lock, or a
  list.  Call sites that would build attribute dictionaries should
  guard on :attr:`Tracer.enabled` first.
* **Thread safety.**  The span stack is thread-local (so nesting is
  per-thread, like Chrome's ``tid`` tracks), and recorders serialize
  appends with a lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

#: The monotonic time source for every event (seconds, arbitrary epoch).
monotonic = time.perf_counter


@dataclass
class TraceEvent:
    """One finished span or instant event.

    ``ts``/``dur`` are seconds on the monotonic clock; ``depth`` and
    ``parent`` describe the span nesting at record time (instants adopt
    the depth of their enclosing span plus one).
    """

    name: str
    kind: str  # "span" | "instant"
    ts: float
    dur: float
    tid: int
    depth: int
    parent: "str | None"
    args: dict = field(default_factory=dict)


class Recorder:
    """Where trace events go.  Subclasses override :meth:`record`."""

    def record(self, event: TraceEvent) -> None:
        """Accept one finished event (base implementation drops it)."""


class NullRecorder(Recorder):
    """Discards everything — the disabled-tracing recorder."""


class InMemoryRecorder(Recorder):
    """Collects events in a list under a lock (the default when
    tracing is enabled); :meth:`drain` hands them to an exporter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        """Append one event (thread-safe)."""
        with self._lock:
            self._events.append(event)

    def events(self) -> "list[TraceEvent]":
        """A snapshot copy of everything recorded so far."""
        with self._lock:
            return list(self._events)

    def drain(self) -> "list[TraceEvent]":
        """Return all events and clear the buffer."""
        with self._lock:
            out, self._events = self._events, []
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class NullSpan:
    """The span handed out while tracing is disabled: a reusable no-op
    context manager.  One shared instance exists per process, so the
    disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: object) -> None:
        """Ignore attributes (disabled tracing)."""


#: The process-wide disabled span (identity-checkable by tests).
NULL_SPAN = NullSpan()


class Span:
    """A live, timed unit of work.

    Use as a context manager; :meth:`set` attaches attributes that are
    only known mid-flight (e.g. the instruction profile of a kernel
    launch, available only after the launch returns).
    """

    __slots__ = ("_tracer", "name", "args", "_start", "depth", "parent")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0.0
        self.depth = 0
        self.parent: "str | None" = None

    def set(self, **attrs: object) -> None:
        """Merge ``attrs`` into the span's attributes."""
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.depth = len(stack)
        self.parent = stack[-1].name if stack else None
        stack.append(self)
        self._start = monotonic()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = monotonic()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._recorder.record(
            TraceEvent(
                name=self.name,
                kind="span",
                ts=self._start,
                dur=end - self._start,
                tid=threading.get_ident(),
                depth=self.depth,
                parent=self.parent,
                args=self.args,
            )
        )


class Tracer:
    """The span/instant event source.

    Starts disabled (recording into a :class:`NullRecorder`); call
    :meth:`enable` to start collecting.  One process-wide instance lives
    in :mod:`repro.obs`; creating private tracers is supported for
    tests.
    """

    def __init__(self, recorder: "Recorder | None" = None) -> None:
        # Explicit None check: an empty InMemoryRecorder is falsy (__len__).
        self._recorder: Recorder = (
            recorder if recorder is not None else NullRecorder()
        )
        #: True when events are being kept (non-null recorder): a plain
        #: attribute, so a disabled hot path pays one load and a branch.
        self.enabled = not isinstance(self._recorder, NullRecorder)
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def recorder(self) -> Recorder:
        """The active recorder (a :class:`NullRecorder` when disabled)."""
        return self._recorder

    def enable(self, recorder: "Recorder | None" = None) -> Recorder:
        """Start recording (into ``recorder`` or a fresh in-memory one);
        returns the active recorder."""
        # Explicit None check: an empty InMemoryRecorder is falsy (__len__).
        if recorder is None:
            recorder = InMemoryRecorder()
        self._recorder = recorder
        self.enabled = not isinstance(recorder, NullRecorder)
        return self._recorder

    def disable(self) -> None:
        """Stop recording; subsequent spans are shared no-ops."""
        self._recorder = NullRecorder()
        self.enabled = False

    # ------------------------------------------------------------------
    def span(self, name: str, **args: object) -> "Span | NullSpan":
        """A context manager timing one unit of work.

        When disabled this returns the shared :data:`NULL_SPAN` without
        touching the clock — the zero-cost path.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, args)

    def instant(self, name: str, **args: object) -> None:
        """Record a point-in-time event at the current nesting depth."""
        if not self.enabled:
            return
        stack = self._stack()
        self._recorder.record(
            TraceEvent(
                name=name,
                kind="instant",
                ts=monotonic(),
                dur=0.0,
                tid=threading.get_ident(),
                depth=len(stack),
                parent=stack[-1].name if stack else None,
                args=args,
            )
        )

    def events(self) -> "list[TraceEvent]":
        """Events collected so far (empty unless the recorder keeps them)."""
        rec = self._recorder
        if isinstance(rec, InMemoryRecorder):
            return rec.events()
        return []
