"""Counters, gauges, histograms, and the labeled registry behind them.

Instruments are deliberately tiny mutable objects — a hot path holds a
direct reference to its :class:`Counter` and calls :meth:`Counter.inc`,
paying two attribute stores per event.  The :class:`MetricsRegistry`
interns instruments by ``(name, labels)`` so every caller asking for the
same series gets the same object, and renders everything into a plain
dict via :meth:`MetricsRegistry.snapshot` (the format
``repro.bench.report`` and the JSON exporters consume).

Bind once, reset keeps handles: a series' name and labels are fixed at
its call site, so hot code binds its instrument once (at import, or per
owner such as a kernel or a device) with :meth:`MetricsRegistry.bind_counter`
and friends, and :meth:`MetricsRegistry.reset` zeroes every instrument
in place, so a bound handle keeps counting into the registry.  Each
instrument carries a ``live`` mark: a lookup or any update sets it, a
reset clears it, and a snapshot lists live series only — a handle bound
but never used stays out of every snapshot.

Instrument classes are also usable standalone (unregistered): per-object
statistics such as a single ``cupp.Vector``'s upload count are backed by
private ``Counter`` instances, while the registry keeps the process-wide
aggregate series — that split keeps the registry's cardinality bounded
no matter how many vectors a workload creates.
"""

from __future__ import annotations

import threading
from collections import deque


class Counter:
    """A monotonically increasing count (events, bytes, launches)."""

    __slots__ = ("value", "live")

    def __init__(self, value: "int | float" = 0) -> None:
        self.value = value
        self.live = False

    def inc(self, n: "int | float" = 1) -> None:
        """Add ``n`` (defaults to 1) to the count."""
        self.value += n
        self.live = True

    def reset(self) -> None:
        """Back to zero and out of snapshots, keeping this object."""
        self.value = 0
        self.live = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Gauge:
    """A value that can go up and down (live allocations, queue depth)."""

    __slots__ = ("value", "live")

    def __init__(self, value: float = 0.0) -> None:
        self.value = value
        self.live = False

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = value
        self.live = True

    def inc(self, n: float = 1) -> None:
        """Move the gauge up by ``n``."""
        self.value += n
        self.live = True

    def dec(self, n: float = 1) -> None:
        """Move the gauge down by ``n``."""
        self.value -= n
        self.live = True

    def reset(self) -> None:
        """Back to zero and out of snapshots, keeping this object."""
        self.value = 0.0
        self.live = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value})"


class Histogram:
    """Distribution summary: count/sum/min/max plus power-of-two buckets.

    The bucket layout (upper bounds ``1, 2, 4, ...``) suits the layer's
    dominant distributions — transfer sizes in bytes and durations in
    microseconds — without per-series configuration.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "exemplars", "live")

    #: Number of power-of-two buckets (the last one is unbounded).
    BUCKETS = 40

    #: Exemplar reservoir depth per bucket.
    EXEMPLARS_PER_BUCKET = 4

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Empty the histogram and take it out of snapshots, keeping
        this object."""
        self.count = 0
        self.total = 0.0
        self.min: "float | None" = None
        self.max: "float | None" = None
        self.buckets = [0] * self.BUCKETS
        # Lazy: bucket index -> [(value, trace_id), ...]; allocated only
        # when a caller actually passes trace ids, so plain histograms
        # stay four-slot cheap.
        self.exemplars: "dict[int, list] | None" = None
        self.live = False

    def observe(self, value: float, trace_id: "str | None" = None) -> None:
        """Record one sample, optionally tagged with a trace exemplar."""
        self.live = True
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        b = 0
        bound = 1.0
        while value > bound and b < self.BUCKETS - 1:
            bound *= 2.0
            b += 1
        self.buckets[b] += 1
        if trace_id is not None:
            if self.exemplars is None:
                self.exemplars = {}
            slots = self.exemplars.setdefault(b, [])
            entry = (value, trace_id)
            if len(slots) < self.EXEMPLARS_PER_BUCKET:
                slots.append(entry)
            else:
                # Deterministic rotating overwrite (no RNG: runs must be
                # bit-identical per seed) — keeps the reservoir fresh so
                # late spikes displace stale exemplars.
                slots[(self.buckets[b] - 1) % self.EXEMPLARS_PER_BUCKET] = entry

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0-100) from the buckets.

        Linear interpolation inside the first bucket whose cumulative
        count reaches the target rank, clamped to the observed min/max so
        the coarse power-of-two bounds never over- or under-shoot the
        data.  Returns 0.0 when the histogram is empty.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            if seen + n >= rank:
                lo = 0.0 if i == 0 else float(2 ** (i - 1))
                hi = float(2**i)
                frac = (rank - seen) / n
                est = lo + (hi - lo) * frac
                return min(max(est, self.min), self.max)
            seen += n
        return float(self.max)

    def percentile_bucket(self, q: float) -> "int | None":
        """Index of the bucket holding the ``q``-th percentile rank.

        ``None`` when the histogram is empty.  This is the bucket whose
        exemplars explain a percentile spike (see :meth:`exemplars_for`).
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return None
        rank = q / 100.0 * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if n and seen + n >= rank:
                return i
            seen += n
        return self.BUCKETS - 1

    def exemplars_for(self, q: float) -> "list[tuple[float, str]]":
        """Exemplars from the bucket that contains the ``q``-th percentile.

        The resolution path for "p99 spiked — which requests?": find the
        percentile's bucket, return its retained ``(value, trace_id)``
        samples (empty when no exemplars were ever recorded there).
        """
        if self.exemplars is None:
            return []
        bucket = self.percentile_bucket(q)
        if bucket is None:
            return []
        return list(self.exemplars.get(bucket, []))

    def summary(self) -> dict:
        """Plain-dict rendering (non-empty buckets only)."""
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                f"le_{2 ** i}": n for i, n in enumerate(self.buckets) if n
            },
        }
        if self.exemplars:
            out["exemplars"] = {
                f"le_{2 ** i}": [
                    {"value": v, "trace_id": t} for v, t in slots
                ]
                for i, slots in sorted(self.exemplars.items())
                if slots
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, sum={self.total})"


class Window:
    """A sliding window of explicitly timestamped samples.

    Cumulative instruments (:class:`Counter`, :class:`Histogram`) cannot
    answer "what was the p99 over the *last 50 ms*" — windows can,
    because every observation carries its own timestamp (virtual or
    wall, the window does not care) and old samples age out as newer
    ones arrive.  This is the store the SLO monitor
    (:mod:`repro.obs.monitor`) evaluates rules against.

    Pruning happens on :meth:`observe` and on every read, driven by the
    newest timestamp seen (``now`` may be passed explicitly to read
    "as of" a later time).  Timestamps must be non-decreasing, which
    both the virtual-time serving clock and the monotonic wall clock
    guarantee.
    """

    __slots__ = ("horizon_s", "_samples", "_now")

    def __init__(self, horizon_s: float) -> None:
        if horizon_s <= 0:
            raise ValueError(f"window horizon must be positive, got {horizon_s}")
        self.horizon_s = horizon_s
        self._samples: "deque[tuple[float, float, object]]" = deque()
        self._now = 0.0

    def observe(
        self, ts: float, value: float, trace_id: "str | None" = None
    ) -> None:
        """Record one sample at time ``ts`` (non-decreasing), optionally
        tagged with the trace that produced it."""
        self._samples.append((ts, float(value), trace_id))
        self._prune(ts)

    def _prune(self, now: float) -> None:
        self._now = max(self._now, now)
        cutoff = self._now - self.horizon_s
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    # ------------------------------------------------------------------
    def values(self, now: "float | None" = None) -> "list[float]":
        """Samples currently inside the window, oldest first."""
        if now is not None:
            self._prune(now)
        return [v for _, v, _ in self._samples]

    def exemplars(
        self, k: int = 4, now: "float | None" = None
    ) -> "list[tuple[float, str]]":
        """The ``k`` largest tagged in-window samples as
        ``(value, trace_id)``, worst first — the traces to pull when a
        window-based SLO rule fires."""
        if now is not None:
            self._prune(now)
        tagged = [(v, t) for _, v, t in self._samples if t is not None]
        tagged.sort(key=lambda e: -e[0])
        return tagged[:k]

    def count(self, now: "float | None" = None) -> int:
        """Number of in-window samples."""
        return len(self.values(now))

    def mean(self, now: "float | None" = None) -> float:
        """Arithmetic mean of in-window samples (0.0 when empty)."""
        values = self.values(now)
        return sum(values) / len(values) if values else 0.0

    def max(self, now: "float | None" = None) -> float:
        """Largest in-window sample (0.0 when empty)."""
        values = self.values(now)
        return max(values) if values else 0.0

    def percentile(self, q: float, now: "float | None" = None) -> float:
        """Exact ``q``-th percentile (0-100) of in-window samples."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        values = sorted(self.values(now))
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        rank = q / 100.0 * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (rank - lo)

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Window(horizon_s={self.horizon_s}, samples={len(self._samples)})"


def _series_key(name: str, labels: dict) -> "tuple[str, tuple]":
    return name, tuple(sorted(labels.items()))


def _series_name(name: str, labels: "tuple[tuple[str, object], ...]") -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Interned, labeled instruments plus a snapshot renderer.

    ``counter``/``gauge``/``histogram`` get-or-create a series and mark
    it live: asking twice with the same name and labels returns the same
    instrument, and the series is listed from then on, even at zero.
    ``bind_counter``/``bind_gauge``/``bind_histogram`` return the same
    instrument without marking it, for code that resolves its handles
    once and updates them later: the series is listed once it is used.
    """

    def __init__(self) -> None:
        # Reentrant: a GC pass can run ``Device.__del__`` (which
        # publishes pool gauges) while this thread already holds the
        # lock inside ``_get`` — a plain Lock deadlocks the process.
        self._lock = threading.RLock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    # ------------------------------------------------------------------
    def _bind(self, table: dict, factory, name: str, labels: dict):
        key = _series_key(name, labels)
        with self._lock:
            inst = table.get(key)
            if inst is None:
                inst = table[key] = factory()
            return inst

    def _get(self, table: dict, factory, name: str, labels: dict):
        inst = self._bind(table, factory, name, labels)
        inst.live = True
        return inst

    def counter(self, name: str, **labels: object) -> Counter:
        """The :class:`Counter` for ``name`` + ``labels`` (created once)."""
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The :class:`Gauge` for ``name`` + ``labels`` (created once)."""
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The :class:`Histogram` for ``name`` + ``labels`` (created once)."""
        return self._get(self._histograms, Histogram, name, labels)

    def bind_counter(self, name: str, **labels: object) -> Counter:
        """The same :class:`Counter` as :meth:`counter`, listed in
        snapshots only once it is updated."""
        return self._bind(self._counters, Counter, name, labels)

    def bind_gauge(self, name: str, **labels: object) -> Gauge:
        """The same :class:`Gauge` as :meth:`gauge`, listed in snapshots
        only once it is updated."""
        return self._bind(self._gauges, Gauge, name, labels)

    def bind_histogram(self, name: str, **labels: object) -> Histogram:
        """The same :class:`Histogram` as :meth:`histogram`, listed in
        snapshots only once it observes a sample."""
        return self._bind(self._histograms, Histogram, name, labels)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every live series, as a JSON-serializable dict.

        Series names render as ``name{label=value,...}``; counters and
        gauges map to their value, histograms to their summary dict.
        """
        with self._lock:
            return {
                "counters": {
                    _series_name(n, l): c.value
                    for (n, l), c in sorted(self._counters.items())
                    if c.live
                },
                "gauges": {
                    _series_name(n, l): g.value
                    for (n, l), g in sorted(self._gauges.items())
                    if g.live
                },
                "histograms": {
                    _series_name(n, l): h.summary()
                    for (n, l), h in sorted(self._histograms.items())
                    if h.live
                },
            }

    def reset(self) -> None:
        """Zero every series in place (test isolation; bound handles
        keep counting into the registry)."""
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                for inst in table.values():
                    inst.reset()
