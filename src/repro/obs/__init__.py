"""``repro.obs`` — the unified runtime tracing & metrics layer.

One process-wide trio backs all instrumentation in the runtime:

* a :class:`~repro.obs.tracer.Tracer` of nestable spans and instant
  events (monotonic-clock timed, thread-safe, and a shared no-op when
  disabled — the hot paths pay nothing by default);
* a :class:`~repro.obs.metrics.MetricsRegistry` of labeled counters,
  gauges, and histograms;
* a :class:`~repro.obs.ledger.TransferLedger` attributing every
  host<->device byte to a cause (``eager``, ``lazy-miss``,
  ``copy-back``, ``copy-back-skipped-const``,
  ``double-buffer-overlap``) so the paper's "which copies did CuPP
  avoid?" question has a queryable answer.

Instrumented code calls the module-level conveniences (:func:`span`,
:func:`instant`, :func:`record_transfer`, :func:`counter`), and hot
paths bind their series once with :func:`bind_counter` /
:func:`bind_gauge` / :func:`bind_histogram`; consumers
enable collection with :func:`enable_tracing` or scope it with
:func:`~repro.obs.session.capture` and export via
:mod:`repro.obs.export` (Chrome-trace JSON loadable in
``chrome://tracing`` / Perfetto, plus plain-dict snapshots).

Recording and exporting are deliberately split: recorders decide *what
is kept* (nothing, an in-memory list), exporters decide *how it is
rendered* (Chrome trace, JSON snapshot) — see ``DESIGN.md``.

On top of the producing half sit two consumers (not re-exported here):
:mod:`repro.obs.analyze` digests recorded or re-loaded traces into
per-span statistics, critical paths, and run-to-run diffs, and
:mod:`repro.obs.monitor` evaluates declarative SLO rules over sliding
:class:`~repro.obs.metrics.Window`\\ s while the workload runs; it also
names the canonical request series the registry helpers below use.
"""

from __future__ import annotations

from repro.obs.export import chrome_trace, write_chrome_trace, write_json
from repro.obs.flight import (
    DeviceEvent,
    FlightRecorder,
    FlightSpan,
    SpanLink,
    TraceContext,
    TraceRecord,
    device_chrome_trace,
    device_utilization,
    load_flight,
    render_gantt,
)
from repro.obs.ledger import (
    CAUSES,
    CONTAINER_CAUSES,
    DIRECTIONS,
    FAULT_CAUSES,
    MEMORY_CAUSES,
    STREAM_CAUSES,
    TransferLedger,
    TransferRecord,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, Window
from repro.obs.monitor import LATENCY_SERIES, OUTCOME_SERIES, QUEUE_DEPTH_SERIES
from repro.obs.session import Capture, capture
from repro.obs.tracer import (
    NULL_SPAN,
    InMemoryRecorder,
    NullRecorder,
    NullSpan,
    Recorder,
    Span,
    TraceEvent,
    Tracer,
    monotonic,
)

__all__ = [
    "CAUSES",
    "CONTAINER_CAUSES",
    "DIRECTIONS",
    "Capture",
    "Counter",
    "DeviceEvent",
    "FAULT_CAUSES",
    "FlightRecorder",
    "FlightSpan",
    "Gauge",
    "Histogram",
    "InMemoryRecorder",
    "MEMORY_CAUSES",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullRecorder",
    "NullSpan",
    "Recorder",
    "STREAM_CAUSES",
    "Span",
    "SpanLink",
    "TraceContext",
    "TraceEvent",
    "TraceRecord",
    "Tracer",
    "TransferLedger",
    "TransferRecord",
    "Window",
    "device_chrome_trace",
    "device_utilization",
    "load_flight",
    "render_gantt",
    "batch_size_histogram",
    "bind_counter",
    "bind_gauge",
    "bind_histogram",
    "capture",
    "chrome_trace",
    "counter",
    "disable_tracing",
    "enable_tracing",
    "enabled",
    "gauge",
    "get_ledger",
    "get_metrics",
    "get_tracer",
    "histogram",
    "instant",
    "monotonic",
    "queue_depth_gauge",
    "record_transfer",
    "request_latency_histogram",
    "request_outcome_counter",
    "reset",
    "span",
    "write_chrome_trace",
    "write_json",
]

_TRACER = Tracer()
_METRICS = MetricsRegistry()
_LEDGER = TransferLedger()


def get_tracer() -> Tracer:
    """The process-wide tracer all instrumentation reports to."""
    return _TRACER


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _METRICS


def get_ledger() -> TransferLedger:
    """The process-wide transfer ledger."""
    return _LEDGER


# ----------------------------------------------------------------------
# tracing conveniences
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Is the global tracer currently recording?"""
    return _TRACER.enabled


def enable_tracing(recorder: "Recorder | None" = None) -> Recorder:
    """Turn global tracing on; returns the active recorder."""
    return _TRACER.enable(recorder)


def disable_tracing() -> None:
    """Turn global tracing off (spans become shared no-ops)."""
    _TRACER.disable()


def span(name: str, **args: object):
    """Open a span on the global tracer (no-op context when disabled)."""
    return _TRACER.span(name, **args)


def instant(name: str, **args: object) -> None:
    """Record an instant event on the global tracer."""
    _TRACER.instant(name, **args)


# ----------------------------------------------------------------------
# metrics conveniences
# ----------------------------------------------------------------------
def counter(name: str, **labels: object) -> Counter:
    """A counter from the global registry."""
    return _METRICS.counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    """A gauge from the global registry."""
    return _METRICS.gauge(name, **labels)


def histogram(name: str, **labels: object) -> Histogram:
    """A histogram from the global registry."""
    return _METRICS.histogram(name, **labels)


def bind_counter(name: str, **labels: object) -> Counter:
    """A counter handle to keep: listed in snapshots once it counts, and
    still the registry's series after :func:`reset`."""
    return _METRICS.bind_counter(name, **labels)


def bind_gauge(name: str, **labels: object) -> Gauge:
    """A gauge handle to keep (see :func:`bind_counter`)."""
    return _METRICS.bind_gauge(name, **labels)


def bind_histogram(name: str, **labels: object) -> Histogram:
    """A histogram handle to keep (see :func:`bind_counter`)."""
    return _METRICS.bind_histogram(name, **labels)


def queue_depth_gauge(component: str, **labels: object) -> Gauge:
    """The canonical queue-depth series for ``component``.

    All queue-like structures report into the one ``repro.queue.depth``
    gauge family, distinguished by a ``component`` label, so dashboards
    and tests can find every queue the same way.
    """
    return _METRICS.gauge(QUEUE_DEPTH_SERIES, component=component, **labels)


def batch_size_histogram(component: str, **labels: object) -> Histogram:
    """The canonical batch-size distribution for ``component``.

    Batching layers (the serving batcher, future request coalescers)
    observe each formed batch's size into ``repro.batch.size`` labeled by
    ``component``; :meth:`~repro.obs.metrics.Histogram.percentile` and
    ``mean`` then answer "how well did batching amortize?".
    """
    return _METRICS.histogram("repro.batch.size", component=component, **labels)


def request_latency_histogram(component: str, **labels: object) -> Histogram:
    """The canonical per-request latency series for ``component``.

    Request-serving layers observe every completed request's end-to-end
    latency **in microseconds** into ``repro.request.latency`` labeled
    by ``component`` — one series family the SLO monitor and dashboards
    find uniformly, instead of reading per-component stats objects.
    """
    return _METRICS.histogram(LATENCY_SERIES, component=component, **labels)


def request_outcome_counter(
    component: str, outcome: str, **labels: object
) -> Counter:
    """The canonical request-outcome counter for ``component``.

    Terminal request outcomes (``done``, ``rejected``, ``shed``,
    ``expired``, ...) count into ``repro.request.outcome`` labeled by
    ``component`` and ``outcome``, so deadline-miss ratios are a ratio
    of two uniformly named counters.
    """
    return _METRICS.counter(
        OUTCOME_SERIES, component=component, outcome=outcome, **labels
    )


# ----------------------------------------------------------------------
# the transfer ledger funnel
# ----------------------------------------------------------------------
#: ``(cause, direction)`` -> its bound ``repro.transfer.{bytes,count}``.
_TRANSFER_SERIES: "dict[tuple[str, str], tuple[Counter, Counter]]" = {}


def _transfer_series(cause: str, direction: str) -> "tuple[Counter, Counter]":
    series = _TRANSFER_SERIES.get((cause, direction))
    if series is None:
        series = _TRANSFER_SERIES[cause, direction] = (
            _METRICS.bind_counter(
                "repro.transfer.bytes", cause=cause, direction=direction
            ),
            _METRICS.bind_counter(
                "repro.transfer.count", cause=cause, direction=direction
            ),
        )
    return series


def record_transfer(
    cause: str,
    direction: str,
    nbytes: int,
    *,
    moved: bool = True,
    label: str = "",
) -> None:
    """Attribute one transfer everywhere at once.

    Updates the global :class:`TransferLedger`, bumps the aggregate
    ``repro.transfer.bytes``/``repro.transfer.count`` registry series,
    and — when tracing is on — drops an instant event into the trace so
    transfers appear inline with the spans that caused them.

    The ledger entry is always stamped with the monotonic clock (not
    just when tracing is on) so phase attribution in
    :func:`repro.obs.analyze.ledger_rollup` works for metrics-only runs
    too.
    """
    ts = monotonic()
    _LEDGER.record(
        cause, direction, nbytes, moved=moved, label=label, ts=ts
    )
    byte_series, count_series = _transfer_series(cause, direction)
    byte_series.inc(int(nbytes))
    count_series.inc()
    if _TRACER.enabled:
        _TRACER.instant(
            f"transfer:{cause}",
            direction=direction,
            nbytes=int(nbytes),
            moved=moved,
            label=label,
        )


def reset() -> None:
    """Reset metrics and ledger and disable tracing (test isolation)."""
    _TRACER.disable()
    _METRICS.reset()
    _LEDGER.reset()
