"""Open-loop load generator + SLO report for the serving subsystem.

``python -m repro.serve.loadgen`` drives a :class:`SimulationService`
with Poisson arrivals at a configured offered rate, spread over a set of
client sessions, then reports the SLO numbers a serving team would put
on a dashboard: p50/p95/p99 latency, completed throughput, outcome
counts, mean batch size, and modelled kernel-launch totals.

The arrival process is **open-loop** (arrivals do not wait for earlier
responses), which is what makes overload visible: when the service
cannot keep up, the queue — not the client — absorbs the excess, and the
admission policy decides who pays.  All times are virtual seconds on the
service's modelled clock, so every run is deterministic for a given
seed and free of wall-clock noise; with ``--physics`` the flocks really
move (slower, identical timing numbers).

``--compare`` runs the same offered load twice — batching on, then off —
and prints both reports plus the headline ratios (throughput, p99,
launches).  ``--trace DIR`` additionally writes Chrome-trace and metrics
JSON via :func:`repro.obs.capture`.

SLO rules can ride along: ``--slo-p99-ms`` / ``--slo-miss-ratio`` /
``--slo-queue-depth`` build an :class:`repro.obs.monitor.SloMonitor`
that evaluates in virtual time inside the service, ``--slo-degrade``
lets admission switch policy while an alert fires, and the alert log
lands in the report (and as ``*.alerts.json`` next to the trace).
"""

from __future__ import annotations

import argparse
import contextlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.backend.base import normalize_backends
from repro.common.errors import ConfigurationError
from repro.fault import FaultConfig
from repro.gpusteer.versions import DEVICE_VERSIONS
from repro.serve.request import (
    FAILED_STATUSES,
    TERMINAL_STATUSES,
    RequestStatus,
    StepRequest,
)
from repro.serve.service import ServeConfig, SimulationService


@dataclass
class LoadReport:
    """One load run's SLO summary (all times virtual seconds)."""

    batching: bool
    offered: int
    offered_rate: float
    duration_s: float
    completed: int
    rejected: int
    shed: int
    expired: int
    finished_at_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_batch_size: float
    batches: int
    launches: int
    max_queue_depth: int
    #: Resilience outcomes (all zero / ``None`` on fault-free runs).
    failed: int = 0
    stranded: int = 0
    retries: int = 0
    timeouts: int = 0
    evictions: int = 0
    failovers: int = 0
    #: The injector's counters (``None`` when chaos was off).
    faults: "dict | None" = None
    latencies_ms: "list[float]" = field(default_factory=list, repr=False)
    #: Alert log from an attached SLO monitor (empty when none ran).
    alerts: "list[dict]" = field(default_factory=list, repr=False)
    #: Flight-recorder summary (``None`` when flight tracing was off —
    #: the key is always present so reports with and without tracing
    #: stay structurally identical).
    flight: "dict | None" = None
    #: Execution backend(s) the run used (``sim``/``native``/``mixed``).
    #: Kept a string so the perf gate's numeric flattening ignores it.
    backend: str = "sim"
    #: Kernel profiler report (``None`` when no ProfSession was
    #: attached — the default, keeping the report byte-identical to
    #: unprofiled runs).
    prof: "dict | None" = None

    @property
    def throughput_rps(self) -> float:
        """Completed requests per virtual second of the run."""
        horizon = max(self.finished_at_s, self.duration_s, 1e-9)
        return self.completed / horizon

    @property
    def launches_per_request(self) -> float:
        """Modelled kernel launches per completed request."""
        return self.launches / max(1, self.completed)

    def to_dict(self) -> dict:
        """JSON-friendly form (sans the raw latency samples)."""
        return {
            "batching": self.batching,
            "backend": self.backend,
            "offered": self.offered,
            "offered_rate_rps": self.offered_rate,
            "duration_s": self.duration_s,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "expired": self.expired,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_batch_size": self.mean_batch_size,
            "batches": self.batches,
            "launches": self.launches,
            "launches_per_request": self.launches_per_request,
            "max_queue_depth": self.max_queue_depth,
            "failed": self.failed,
            "stranded": self.stranded,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "evictions": self.evictions,
            "failovers": self.failovers,
            "faults": self.faults,
            "alerts_fired": len(self.alerts),
            "alerts": self.alerts,
            "flight": self.flight,
            "prof": self.prof,
        }

    def lines(self) -> "list[str]":
        """The human-readable report block."""
        mode = "batching on" if self.batching else "batching OFF"
        return [
            f"--- serve loadgen ({mode}, backend {self.backend}) ---",
            f"offered     {self.offered} requests "
            f"({self.offered_rate:.0f} req/s over {self.duration_s:g} s)",
            f"completed   {self.completed}  "
            f"(rejected {self.rejected}, shed {self.shed}, "
            f"expired {self.expired})",
            f"throughput  {self.throughput_rps:,.0f} req/s (virtual)",
            f"latency     p50 {self.p50_ms:.3f} ms   "
            f"p95 {self.p95_ms:.3f} ms   p99 {self.p99_ms:.3f} ms",
            f"batches     {self.batches}  "
            f"(mean size {self.mean_batch_size:.1f}, "
            f"max queue depth {self.max_queue_depth})",
            f"launches    {self.launches} modelled kernel launches "
            f"({self.launches_per_request:.3f} per completed request)",
        ] + (
            [
                f"chaos       {self.faults['injected']} faults injected "
                f"over {self.faults['consults']} consults "
                f"({', '.join(f'{k} {v}' for k, v in sorted(self.faults['by_kind'].items()) if v)})"
                if self.faults["injected"]
                else f"chaos       0 faults injected over "
                f"{self.faults['consults']} consults",
                f"recovery    {self.retries} retries, {self.timeouts} timeouts, "
                f"{self.evictions} evictions, {self.failovers} failovers, "
                f"{self.failed} failed, {self.stranded} stranded",
            ]
            if self.faults is not None
            else []
        ) + (
            [
                f"slo alerts  {len(self.alerts)} fired "
                f"({', '.join(sorted({a['rule'] for a in self.alerts}))})"
            ]
            if self.alerts
            else []
        ) + (
            [
                f"flight      {self.flight['retained']} traces retained "
                f"(cap {self.flight['cap']}; "
                f"{self.flight['retained_interesting']} interesting, "
                f"{self.flight['retained_head']} head-sampled, "
                f"{self.flight['dropped']} dropped)"
            ]
            if self.flight is not None
            else []
        ) + (
            [
                f"prof        {len(self.prof['kernels'])} kernels profiled "
                f"({self.prof['launches']} modelled launches, "
                f"{self.prof['totals']['modelled_s'] * 1e3:.3f} ms kernel time)"
            ]
            if self.prof is not None
            else []
        )


def _percentile(samples: "list[float]", q: float) -> float:
    """Exact percentile of collected samples (0 when empty)."""
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q))


def slo_monitor(
    p99_ms: "float | None" = None,
    miss_ratio: "float | None" = None,
    queue_depth: "float | None" = None,
    fault_count: "float | None" = None,
    window_s: float = 0.05,
):
    """Build an :class:`~repro.obs.monitor.SloMonitor` from thresholds.

    The rule vocabulary the serving layer cares about, over the
    canonical series the service feeds: p99 completed-request latency
    (``p99_ms``, milliseconds), terminal-failure ratio (``miss_ratio``,
    0-1), and admission queue depth (``queue_depth``).  Each rule uses
    ``window_s`` as its long window and a quarter of it as the
    burn-rate fast window.  Returns ``None`` when every threshold is
    ``None``.
    """
    from repro.obs import monitor as slo

    latency_us = None if p99_ms is None else p99_ms * 1e3
    wanted = (
        ("latency-p99", slo.LATENCY_SERIES, "p99", latency_us, 10),
        ("deadline-miss-ratio", slo.OUTCOME_SERIES, "ratio", miss_ratio, 10),
        ("queue-depth", slo.QUEUE_DEPTH_SERIES, "max", queue_depth, 1),
        ("fault-count", slo.FAULT_SERIES, "count", fault_count, 1),
    )
    rules = [
        slo.SloRule(
            name, series, stat, threshold=threshold, window_s=window_s,
            short_window_s=window_s / 4, min_count=min_count,
        )
        for name, series, stat, threshold, min_count in wanted
        if threshold is not None
    ]
    return slo.SloMonitor(rules) if rules else None


def run_load(
    clients: int = 64,
    duration_s: float = 2.0,
    rate_rps: float = 16000.0,
    seed: int = 0,
    config: "ServeConfig | None" = None,
    deadline_s: "float | None" = None,
    monitor=None,
    degrade_policy: "str | None" = None,
    flight=None,
    prof=None,
) -> LoadReport:
    """Drive one service instance with Poisson arrivals; summarize.

    Arrivals are generated up front from ``seed`` (so batched and
    unbatched runs in a comparison see the *identical* request stream),
    assigned uniformly to ``clients`` sessions, then replayed through
    :meth:`SimulationService.submit`/:meth:`~SimulationService.advance`.

    ``flight`` optionally attaches an
    :class:`~repro.obs.flight.FlightRecorder`; its tail-sampled summary
    (retention counts, failed-over request ids, and whether the p99
    latency bucket's exemplars resolve to retained traces) lands in
    :attr:`LoadReport.flight`.

    ``prof`` optionally attaches a
    :class:`~repro.prof.session.ProfSession` for the duration of the
    replay; the scheduler records the modelled kernel cost of every
    sub-batch into it and the per-kernel report lands in
    :attr:`LoadReport.prof`.
    """
    config = config or ServeConfig(physics=False, default_deadline_s=deadline_s)
    service = SimulationService(config)
    if monitor is not None:
        service.attach_monitor(monitor, degrade_policy=degrade_policy)
    if flight is not None:
        service.attach_flight(flight)
    for i in range(clients):
        service.create_session(f"client-{i}", seed=seed + i)

    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=max(1, int(rate_rps * duration_s * 2)))
    arrivals = np.cumsum(gaps)
    arrivals = arrivals[arrivals < duration_s]
    owners = rng.integers(0, clients, size=arrivals.size)

    requests: "list[StepRequest]" = []
    max_depth = 0
    prof_ctx = prof if prof is not None else contextlib.nullcontext()
    with prof_ctx:
        for t, owner in zip(arrivals, owners):
            service.advance(float(t))
            requests.append(service.submit(f"client-{owner}"))
            max_depth = max(max_depth, service.admission.depth)
        service.drain()

    latencies_ms = [
        r.latency_s * 1e3
        for r in requests
        if r.status is RequestStatus.DONE and r.latency_s is not None
    ]
    by_status = {
        status: sum(1 for r in requests if r.status is status)
        for status in FAILED_STATUSES
    }
    # Stranded = submitted but never driven to a terminal status; the
    # resilience layer's contract is that this is always zero.
    stranded = sum(1 for r in requests if r.status not in TERMINAL_STATUSES)
    stats = service.stats
    flight_summary = None
    if flight is not None:
        hist = obs.request_latency_histogram("serve")
        flight_summary = {
            **flight.stats(),
            "failover_request_ids": flight.request_ids("failover"),
            "failed_request_ids": flight.request_ids("failed"),
            # The exemplar resolution path: the run's p99 latency bucket
            # -> (value, trace) samples -> were those traces retained?
            "p99_exemplars": [
                {
                    "value_us": value,
                    "trace_id": trace_id,
                    "retained": flight.trace(trace_id) is not None,
                }
                for value, trace_id in hist.exemplars_for(99)
            ],
        }
    prof_summary = None
    if prof is not None:
        from repro.prof.report import session_report

        prof_summary = session_report(prof, label="serve")
    return LoadReport(
        batching=config.batching,
        backend=(
            config.backend
            if isinstance(config.backend, str)
            else ",".join(config.backend)
        ),
        offered=len(requests),
        offered_rate=rate_rps,
        duration_s=duration_s,
        completed=stats.completed,
        rejected=by_status[RequestStatus.REJECTED],
        shed=by_status[RequestStatus.SHED],
        expired=by_status[RequestStatus.EXPIRED],
        finished_at_s=service.now,
        p50_ms=_percentile(latencies_ms, 50),
        p95_ms=_percentile(latencies_ms, 95),
        p99_ms=_percentile(latencies_ms, 99),
        mean_batch_size=stats.mean_batch_size,
        batches=stats.batches,
        launches=stats.launches,
        max_queue_depth=max_depth,
        failed=by_status[RequestStatus.FAILED],
        stranded=stranded,
        retries=stats.retries,
        timeouts=stats.timeouts,
        evictions=stats.evictions,
        failovers=stats.failovers,
        faults=service.fault_stats,
        latencies_ms=latencies_ms,
        alerts=(
            [alert.to_dict() for alert in monitor.log]
            if monitor is not None
            else []
        ),
        flight=flight_summary,
        prof=prof_summary,
    )


def _build_parser() -> argparse.ArgumentParser:
    """The ``repro.serve.loadgen`` command line."""
    p = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Open-loop load generator for the repro.serve subsystem "
        "(virtual-time SLO report).",
    )
    p.add_argument("--clients", type=int, default=64, help="client sessions")
    p.add_argument(
        "--duration", type=float, default=2.0, help="virtual seconds of arrivals"
    )
    p.add_argument(
        "--rate", type=float, default=16000.0, help="offered requests/second"
    )
    p.add_argument("--agents", type=int, default=128, help="agents per session")
    p.add_argument(
        "--version",
        type=int,
        default=5,
        choices=DEVICE_VERSIONS,
        help="gpusteer pipeline version to serve (6 = grid-bucketed "
        "neighbor search over cupp.containers)",
    )
    p.add_argument("--max-batch", type=int, default=32, help="batch size cap")
    p.add_argument(
        "--window-ms", type=float, default=2.0, help="batching window (ms)"
    )
    p.add_argument(
        "--queue-capacity", type=int, default=256, help="admission queue slots"
    )
    p.add_argument(
        "--policy",
        default="reject",
        choices=("reject", "shed-oldest", "block"),
        help="backpressure policy when the queue is full",
    )
    p.add_argument("--devices", type=int, default=2, help="GPUs in the group")
    p.add_argument(
        "--streams",
        type=int,
        default=2,
        help="CUDA streams per device: 2 pipelines uploads/kernels/"
        "fetches (depth 2); 1 serializes everything on the null "
        "stream (depth 1)",
    )
    p.add_argument(
        "--backend",
        default="sim",
        help=(
            "execution backend: sim (cycle simulator, virtual time), "
            "native (vectorized numpy, wall-clock cost model), or mixed "
            "(alternating — heterogeneous group with cost-aware placement)"
        ),
    )
    p.add_argument(
        "--no-pool",
        action="store_true",
        help="bypass the repro.mem caching allocator (raw driver allocs)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline (ms after arrival); default none",
    )
    p.add_argument(
        "--no-batching",
        action="store_true",
        help="one launch per request (the baseline batching amortizes)",
    )
    p.add_argument(
        "--compare",
        action="store_true",
        help="run batched AND unbatched on the same arrivals; print both",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="arrival-stream (and chaos) seed"
    )
    chaos = p.add_argument_group("chaos (deterministic fault injection)")
    chaos.add_argument(
        "--chaos",
        action="store_true",
        help="inject the standard fault mix (FaultConfig.chaos) seeded "
        "from --seed; the run must leave zero stranded requests",
    )
    chaos.add_argument(
        "--chaos-rate",
        type=float,
        default=0.01,
        help="total device-fault probability per consult (default 0.01)",
    )
    p.add_argument(
        "--physics",
        action="store_true",
        help="run real boids physics (slower; identical virtual timing)",
    )
    p.add_argument(
        "--trace", default=None, metavar="DIR", help="write trace/metrics JSON"
    )
    p.add_argument(
        "--json", default=None, metavar="PATH", help="write the report as JSON"
    )
    flight = p.add_argument_group(
        "flight tracing (per-request causal traces, tail-sampled)"
    )
    flight.add_argument(
        "--flight",
        default=None,
        metavar="PATH",
        help="record per-request flight traces and write them here "
        "(feed the file to python -m repro.serve.explain)",
    )
    flight.add_argument(
        "--flight-slow-ms",
        type=float,
        default=2.0,
        help="retain any trace slower than this end-to-end (ms)",
    )
    flight.add_argument(
        "--flight-cap",
        type=int,
        default=256,
        help="retained-trace cap (head samples evict first)",
    )
    flight.add_argument(
        "--flight-head",
        type=int,
        default=64,
        help="deterministic head sampling: keep 1 in N normal traces "
        "(0 disables)",
    )
    p.add_argument(
        "--prof",
        default=None,
        metavar="PATH",
        help="attach a kernel profiler session (repro.prof) and write "
        "its per-kernel report JSON here",
    )
    slo = p.add_argument_group("SLO monitoring (virtual-time, in-service)")
    slo.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        help="alert when windowed p99 latency exceeds this (ms)",
    )
    slo.add_argument(
        "--slo-miss-ratio",
        type=float,
        default=None,
        help="alert when the windowed failure ratio exceeds this (0-1)",
    )
    slo.add_argument(
        "--slo-queue-depth",
        type=float,
        default=None,
        help="alert when the admission queue exceeds this depth",
    )
    slo.add_argument(
        "--slo-fault-count",
        type=float,
        default=None,
        help="alert when injected faults in the window exceed this count",
    )
    slo.add_argument(
        "--slo-window-ms",
        type=float,
        default=50.0,
        help="SLO sliding window (ms of virtual time)",
    )
    slo.add_argument(
        "--slo-degrade",
        default=None,
        choices=("reject", "shed-oldest", "block"),
        help="admission policy to switch to while an alert fires",
    )
    slo.add_argument(
        "--alerts",
        default=None,
        metavar="PATH",
        help="write the alert log as JSON (defaults into --trace DIR)",
    )
    return p


def _config(args: argparse.Namespace, batching: bool) -> ServeConfig:
    """Build a ServeConfig from parsed CLI arguments."""
    return ServeConfig(
        agents_per_session=args.agents,
        max_batch=args.max_batch,
        window_s=args.window_ms * 1e-3,
        batching=batching,
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        default_deadline_s=(
            None if args.deadline_ms is None else args.deadline_ms * 1e-3
        ),
        devices=args.devices,
        streams=args.streams,
        backend=args.backend,
        pool=not args.no_pool,
        physics=args.physics,
        version=args.version,
        faults=(
            FaultConfig.chaos(seed=args.seed, device_fault_rate=args.chaos_rate)
            if args.chaos
            else None
        ),
    )


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Validate up front for a clear CLI error naming the valid kinds
        # (instead of a KeyError deep inside device construction).
        normalize_backends(args.backend, args.devices)
    except ConfigurationError as exc:
        parser.error(str(exc))
    monitors: "list" = []
    flight_recorder = (
        obs.FlightRecorder(
            head_sample_every=args.flight_head,
            slow_threshold_s=args.flight_slow_ms * 1e-3,
            max_retained=args.flight_cap,
        )
        if args.flight
        else None
    )

    def one(batching: bool, flight=None, prof=None) -> LoadReport:
        monitor = slo_monitor(
            p99_ms=args.slo_p99_ms,
            miss_ratio=args.slo_miss_ratio,
            queue_depth=args.slo_queue_depth,
            fault_count=args.slo_fault_count,
            window_s=args.slo_window_ms * 1e-3,
        )
        if monitor is not None:
            monitors.append(monitor)
        return run_load(
            clients=args.clients,
            duration_s=args.duration,
            rate_rps=args.rate,
            seed=args.seed,
            config=_config(args, batching),
            monitor=monitor,
            degrade_policy=args.slo_degrade,
            flight=flight,
            prof=prof,
        )

    prof_session = None
    if args.prof:
        from repro.prof.session import ProfSession

        prof_session = ProfSession()

    reports: "list[LoadReport]" = []
    if args.trace:
        with obs.capture("serve-loadgen") as cap:
            reports.append(
                one(not args.no_batching, flight_recorder, prof_session)
            )
        paths = cap.write(args.trace, stem="serve-loadgen")
        trace_note = f"trace/metrics written: {', '.join(paths)}"
    else:
        reports.append(one(not args.no_batching, flight_recorder, prof_session))
        trace_note = None

    if args.compare:
        reports.append(one(False))

    for report in reports:
        print("\n".join(report.lines()))
        print()
    if args.compare and len(reports) == 2:
        on, off = reports
        print("--- batching vs no-batching ---")
        print(
            f"throughput  {on.throughput_rps:,.0f} vs {off.throughput_rps:,.0f} "
            f"req/s ({on.throughput_rps / max(off.throughput_rps, 1e-9):.2f}x)"
        )
        print(
            f"launches    {on.launches} vs {off.launches} "
            f"({off.launches / max(on.launches, 1):.1f}x fewer with batching)"
        )
        print(f"p99         {on.p99_ms:.3f} ms vs {off.p99_ms:.3f} ms")
    if trace_note:
        print(trace_note)
    if flight_recorder is not None:
        flight_recorder.write(args.flight)
        print(f"flight traces written: {args.flight}")
    if args.prof and reports[0].prof is not None:
        with open(args.prof, "w", encoding="utf-8") as fh:
            json.dump(reports[0].prof, fh, indent=2, sort_keys=True)
        print(f"kernel profile written: {args.prof}")
    alerts_path = args.alerts
    if alerts_path is None and args.trace and monitors:
        import os

        alerts_path = os.path.join(args.trace, "serve-loadgen.alerts.json")
    if alerts_path and monitors:
        alert_payload = (
            monitors[0].to_dict()
            if len(monitors) == 1
            else {
                "batching": monitors[0].to_dict(),
                "no_batching": monitors[1].to_dict(),
            }
        )
        with open(alerts_path, "w", encoding="utf-8") as fh:
            json.dump(alert_payload, fh, indent=2, sort_keys=True)
        print(f"alert log written: {alerts_path}")
    if args.json:
        payload = (
            reports[0].to_dict()
            if len(reports) == 1
            else {"batching": reports[0].to_dict(), "no_batching": reports[1].to_dict()}
        )
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"report written: {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
