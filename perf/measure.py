"""Measuring one workload: timed windows of episodes and the metrics
derived from them.

An untraced run reports the end-to-end metrics.  A traced run alternates
untraced episodes with episodes under :class:`perf.trace.Tracer`, and
reports the per-layer metrics: self times and call counts
from the spans, transfer and pool counts from deltas of the program's
own ``repro.obs`` counters, and the tracing overhead as the ratio of the
two halves.  Per-layer counts and times are per *unit*: a ``step()`` for
the boids workloads, a request for the serving one.
"""

from __future__ import annotations

from array import array
import collections
from dataclasses import dataclass, field
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from perf.trace import Tracer
from perf.workloads import same_outcome
from repro import obs

#: End-to-end metrics and their units.  Throughput is taken at the
#: median operation, not as total items over total time: on a shared
#: 2-vCPU VM, contention slows a varying share of short operations, which
#: moved the mean-based rate of ``cupp-calls`` by up to 19% between runs
#: and the median by 9%.  Operation-time percentiles are printed with
#: their sample count and carry no bound.
END_TO_END = {
    "throughput": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Self-time shares: which span prefixes make up each layer.  Together
#: with the benchmark loop's own uncovered time they partition a unit's time.
SHARES = {
    "share.simgpu": ("simgpu",),
    "share.backend": ("backend",),
    "share.call_path": (
        "cupp.kernel",
        "cupp.device_reference",
        "cupp.device",
        "cupp.vector.device_request",
        "cupp.vector.dirty",
        "cupp.containers.device_request",
        "cuda",
        "obs",
    ),
    "share.vector_writes": ("cupp.vector.host_write",),
    "share.vector_reads": ("cupp.vector.host_read",),
    "share.containers": ("cupp.containers.build",),
    "share.gpusteer": ("gpusteer",),
    "share.steer": ("steer",),
    "share.mem": ("mem",),
    "share.serve": ("serve",),
}

#: Per-layer metrics and their units.
PER_LAYER = {
    "simgpu.launch_ms": "ms",
    "simgpu.warp_rounds": "count",
    "simgpu.warp_round_us": "us",
    "cupp.kernel.calls": "count",
    "cupp.kernel.self_us": "us",
    "cupp.device_reference.count": "count",
    "cupp.vector.device_requests": "count",
    "cupp.vector.lazy_hit_ratio": "ratio",
    "cupp.vector.uploads": "count",
    "cupp.vector.downloads": "count",
    "cupp.vector.host_writes": "count",
    "cupp.vector.host_write_us": "us",
    "cupp.vector.host_reads": "count",
    "cupp.vector.self_ms": "ms",
    "cupp.containers.build_ms": "ms",
    "cuda.calls": "count",
    "cuda.self_us": "us",
    "cuda.memcpy.count": "count",
    "cuda.memcpy.bytes": "B",
    "cuda.malloc.count": "count",
    "backend.launch_ms": "ms",
    "gpusteer.step.self_ms": "ms",
    "steer.flocking_ms": "ms",
    "mem.pool.hit_ratio": "ratio",
    "mem.pool.misses": "count",
    "obs.calls": "count",
    "obs.self_ms": "ms",
    "serve.submit_p50_us": "us",
    "serve.submit_p99_us": "us",
    "serve.advance_p99_us": "us",
    "serve.service.self_us": "us",
    "serve.admission.self_us": "us",
    "serve.batcher.self_us": "us",
    "serve.scheduler.self_us": "us",
    "serve.engine.self_us": "us",
    "serve.batches_per_kreq": "count",
    "serve.mean_batch_size": "count",
    "serve.launches_per_request": "count",
    "serve.modelled_p50_ms": "ms",
    "serve.modelled_p99_ms": "ms",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    **{name: "ratio" for name in SHARES},
}


@dataclass
class Window:
    """What one timed window of episodes measured."""

    #: Wall nanoseconds and items of every timed operation.
    op_ns: array = field(default_factory=lambda: array("q"))
    op_items: array = field(default_factory=lambda: array("q"))
    #: Seconds of each episode's construction and warm-up.
    setup_s: "list[float]" = field(default_factory=list)
    #: Units (steps or requests) attempted, and those that failed.
    attempted: int = 0
    failed: int = 0
    #: ``repro.obs`` counter deltas over the timed parts (traced only).
    counters: collections.Counter = field(default_factory=collections.Counter)
    #: Per-request timings of the serving workload, taken only when asked
    #: for: they cost two clock reads per request, and an array growing
    #: with the run would tie memory to speed.
    samples: "dict[str, array] | None" = None


def counter_totals() -> collections.Counter:
    """Every ``repro.obs`` counter, summed over its labels."""
    totals: collections.Counter = collections.Counter()
    for series, value in obs.get_metrics().snapshot()["counters"].items():
        totals[series.split("{", 1)[0]] += value
    return totals


class Runner:
    """Runs episodes of one workload and checks every one of them."""

    def __init__(self, spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        #: The first episode's outcome; later ones must equal it.
        self.first: "dict | None" = None
        self.problems: "list[str]" = []

    def window(self, seconds: float) -> Window:
        """Run whole episodes until their timed operations add up to
        ``seconds`` (at least one episode).  Set-up and checks are not
        counted, so a slow set-up cannot shrink the sample."""
        window = Window()
        while True:
            self._episode(window, None)
            if sum(window.op_ns) >= seconds * 1e9 or self.problems:
                return window

    def traced_pair(self, seconds: float, tracer: Tracer) -> "tuple[Window, Window]":
        """Alternate untraced and traced episodes until each side has
        timed ``seconds``; both sides then saw the same machine, so their
        ratio is the tracing overhead.  The wrappers are installed only
        for the traced episodes."""
        plain, traced = Window(samples={}), Window()
        while True:
            self._episode(plain, None)
            with tracer:
                self._episode(traced, tracer)
            timed = min(sum(plain.op_ns), sum(traced.op_ns))
            if timed >= seconds * 1e9 or self.problems:
                return plain, traced

    def _episode(self, window: Window, tracer: "Tracer | None") -> None:
        start = time.perf_counter()
        episode = self.spec.start(self.seed)
        window.setup_s.append(time.perf_counter() - start)
        try:
            episode.tracer = tracer
            episode.samples = {} if window.samples is not None else None
            before = counter_totals() if tracer is not None else None
            problems: "list[str]" = []
            units = 0
            for i in range(episode.ops):
                t0 = time.perf_counter_ns()
                try:
                    if tracer is None:
                        n = episode.op(i)
                    else:
                        n = tracer.call("op", episode.op, i)
                except Exception as exc:  # a failed operation is counted
                    traceback.print_exc(file=sys.stderr)
                    problems.append(f"operation {i} raised {exc!r}")
                    units += 1
                    break
                window.op_ns.append(time.perf_counter_ns() - t0)
                window.op_items.append(n * self.spec.items_per_unit)
                units += n
            if tracer is not None:
                window.counters.update(counter_totals() - before)
                tracer.calibrate()
            failed = units
            if not problems:
                outcome = episode.outcome()
                problems = episode.problems(outcome)
                if self.first is None:
                    problems += self.spec.reference_problems(self.seed, outcome)
                    self.first = outcome
                elif not same_outcome(outcome, self.first):
                    problems.append("final state differs from the first episode's")
                if not problems:
                    failed = episode.failed_units(outcome)
            self.problems += problems
            window.attempted += units
            window.failed += failed
            if window.samples is not None:
                for name, values in episode.samples.items():
                    window.samples.setdefault(name, array("q")).extend(values)
        finally:
            episode.close()


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def end_to_end(window: Window, import_s: float) -> dict:
    """The end-to-end metrics of an untraced window."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput": _pct(np.asarray(window.op_items) / np.asarray(window.op_ns), 50) * 1e9,
        "setup_s": import_s + statistics.median(window.setup_s),
        "peak_rss_mb": rss / 1024,  # ru_maxrss is KiB on Linux
    }


def per_layer(plain: Window, traced: Window, tracer: Tracer, first: "dict | None") -> dict:
    """The per-layer metrics of a traced window, per unit."""
    t, c = tracer, traced.counters
    per = 1 / max(1, traced.attempted)
    # The traced time less the tracing cost: the base of every share.
    total = max(1, t.total_self_ns())
    requests = t.calls("cupp.vector.device_request")
    writes = t.calls("cupp.vector.host_write")
    rounds = t.calls("simgpu.warp_round")
    pool = c["mem.pool.hits"] + c["mem.pool.misses"]
    served = first if first is not None and "modelled_p50_ms" in first else {}
    offered = served.get("offered", 0)
    submit = plain.samples.get("submit_ns", ())
    advance = plain.samples.get("advance_ns", ())
    return {
        "simgpu.launch_ms": t.self_ns("simgpu.launch") * per / 1e6,
        "simgpu.warp_rounds": rounds * per,
        "simgpu.warp_round_us": t.self_ns("simgpu.warp_round") / max(1, rounds) / 1e3,
        "cupp.kernel.calls": t.calls("cupp.kernel") * per,
        "cupp.kernel.self_us": t.self_ns("cupp.kernel") * per / 1e3,
        "cupp.device_reference.count": t.calls("cupp.device_reference.__init__") * per,
        "cupp.vector.device_requests": requests * per,
        "cupp.vector.lazy_hit_ratio": (
            max(0.0, 1 - c["cupp.vector.uploads"] / requests) if requests else 0.0
        ),
        "cupp.vector.uploads": c["cupp.vector.uploads"] * per,
        "cupp.vector.downloads": c["cupp.vector.downloads"] * per,
        "cupp.vector.host_writes": writes * per,
        "cupp.vector.host_write_us": t.self_ns("cupp.vector.host_write") / max(1, writes) / 1e3,
        "cupp.vector.host_reads": t.calls("cupp.vector.host_read") * per,
        "cupp.vector.self_ms": t.self_ns("cupp.vector") * per / 1e6,
        "cupp.containers.build_ms": t.wall_ns("cupp.containers.build") * per / 1e6,
        "cuda.calls": t.calls("cuda") * per,
        "cuda.self_us": t.self_ns("cuda") * per / 1e3,
        "cuda.memcpy.count": c["cuda.memcpy.count"] * per,
        "cuda.memcpy.bytes": c["cuda.memcpy.bytes"] * per,
        "cuda.malloc.count": c["cuda.malloc.count"] * per,
        "backend.launch_ms": t.self_ns("backend.launch") * per / 1e6,
        "gpusteer.step.self_ms": t.self_ns("gpusteer.step") * per / 1e6,
        "steer.flocking_ms": t.wall_ns("steer.flocking") * per / 1e6,
        "mem.pool.hit_ratio": c["mem.pool.hits"] / pool if pool else 0.0,
        "mem.pool.misses": c["mem.pool.misses"] * per,
        "obs.calls": t.calls("obs") * per,
        "obs.self_ms": t.self_ns("obs") * per / 1e6,
        "serve.submit_p50_us": _pct(submit, 50) / 1e3,
        "serve.submit_p99_us": _pct(submit, 99) / 1e3,
        "serve.advance_p99_us": _pct(advance, 99) / 1e3,
        **{
            f"serve.{part}.self_us": t.self_ns(f"serve.{part}") * per / 1e3
            for part in ("service", "admission", "batcher", "scheduler", "engine")
        },
        "serve.batches_per_kreq": served.get("batches", 0) / offered * 1e3 if offered else 0.0,
        "serve.mean_batch_size": served.get("mean_batch_size", 0.0),
        "serve.launches_per_request": served.get("launches", 0) / offered if offered else 0.0,
        "serve.modelled_p50_ms": served.get("modelled_p50_ms", 0.0),
        "serve.modelled_p99_ms": served.get("modelled_p99_ms", 0.0),
        "trace.overhead": _pct(traced.op_ns, 50) / max(1.0, _pct(plain.op_ns, 50)) - 1,
        "trace.coverage": 1 - t.self_ns("op") / total,
        **{
            name: sum(t.self_ns(p) for p in prefixes) / total
            for name, prefixes in SHARES.items()
        },
    }


def run(
    spec,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    chrome_path: "str | None" = None,
) -> "tuple[dict, list[str]]":
    """One benchmark run; returns the result object and summary lines."""
    runner = Runner(spec, seed)
    if trace:
        tracer = Tracer()
        tracer.calibrate()
        plain, traced = runner.traced_pair(seconds / 2, tracer)
        if chrome_path:
            tracer.write_chrome_trace(chrome_path)
        values, units = per_layer(plain, traced, tracer, runner.first), PER_LAYER
        windows = (plain, traced)
    else:
        plain = runner.window(seconds)
        values, units = end_to_end(plain, import_s), END_TO_END
        windows = (plain,)
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    ops = sum(len(w.op_ns) for w in windows)
    episodes = sum(len(w.setup_s) for w in windows)
    lines = [
        f"{spec.name} seed={seed} trace={int(trace)}: {ops} timed ops in "
        f"{episodes} episodes, {attempted} attempted, {failed} failed",
        f"  untraced op time: p50 {_pct(plain.op_ns, 50) / 1e6:.4g} ms, "
        f"p90 {_pct(plain.op_ns, 90) / 1e6:.4g} ms over n={len(plain.op_ns)} ops",
    ]
    if trace:
        lines.append(
            f"  tracing cost per wrapped call: {tracer.inner_ns:.0f} ns inside "
            f"the span, {tracer.outer_ns:.0f} ns around it (left out of self times)"
        )
    lines += [f"  {name:<30} {values[name]:.6g} {units[name]}" for name in units]
    lines += [f"  problem: {p}" for p in runner.problems]
    result = {
        "correct": not runner.problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    return result, lines
