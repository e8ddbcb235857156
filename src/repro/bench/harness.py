"""Experiment harness: one function per table/figure of the paper.

Each ``run_*`` function regenerates its experiment's data — workload
generation, parameter sweep, baselines — and returns structured rows plus
a rendered report.  The ``benchmarks/`` suite calls these (and asserts
the paper's qualitative shape); the ``examples/`` scripts reuse them.

Every reported number is modelled (virtual time, the analytic perf
model) or counted, never read off the wall clock, so every experiment is
reproducible and gated (:mod:`repro.bench.regression`).  The wall clock
is measured by ``perf/``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro import obs
from repro.bench.calibration import Calibration, DEFAULT_CALIBRATION
from repro.bench.report import format_series, format_table
from repro.gpusteer.cost_model import WorkloadStats
from repro.gpusteer.double_buffer import compare as compare_db
from repro.gpusteer.pipeline import version_ladder
from repro.gpusteer.versions import VERSIONS, update_time
from repro.simgpu.arch import ATHLON64_3700, CpuSpec, G80_8800GTS, scaled_arch
from repro.steer.params import DEFAULT_PARAMS, THINK_FREQ_PARAMS
from repro.steer.simulation import Simulation


@dataclass
class Experiment:
    """A regenerated table/figure: rows + the printable report."""

    experiment_id: str
    rows: list = field(default_factory=list)
    report: str = ""
    data: dict = field(default_factory=dict)
    #: Filled by :func:`observed` when global tracing is enabled: the
    #: run's :class:`repro.obs.Capture` (trace events + metrics snapshot
    #: + transfer-ledger delta).
    capture: "obs.Capture | None" = None

    def show(self) -> None:  # pragma: no cover - console convenience
        print(self.report)

    def dump_observability(self, directory: str) -> "list[str]":
        """Write this run's trace + metrics JSON next to its results.

        Returns the written paths (``<id>.trace.json``,
        ``<id>.metrics.json``); empty when the run was not traced.
        """
        if self.capture is None:
            return []
        return self.capture.write(directory, stem=self.experiment_id)


def observed(runner):
    """Decorator: attach observability data to an experiment runner.

    When the global tracer is enabled, the wrapped ``run_*`` executes
    inside an :func:`repro.obs.capture` session and the resulting
    :class:`~repro.obs.session.Capture` lands on ``Experiment.capture``.
    When tracing is disabled the runner is called directly — the no-op
    recorder keeps the hot path free.
    """

    @functools.wraps(runner)
    def wrapper(*args, **kwargs):
        if not obs.enabled():
            return runner(*args, **kwargs)
        with obs.capture() as cap:
            exp = runner(*args, **kwargs)
        exp.capture = cap
        return exp

    return wrapper


# ----------------------------------------------------------------------
# Fig 1.1 — peak GFLOPS, GPU vs CPU, across generations
# ----------------------------------------------------------------------
#: Reconstructed generation tables (the paper reprints NVIDIA's marketing
#: chart; we rebuild the trend from architecture parameters — ALU counts
#: approximated as multiprocessor-equivalents on the G80 clock template).
GPU_GENERATIONS = [
    ("2004", scaled_arch("NV40 (GeForce 6800U)", 2, bandwidth_scale=0.55)),
    ("2005", scaled_arch("G70 (GeForce 7800GTX)", 4, bandwidth_scale=0.6)),
    ("2006", scaled_arch("G71 (GeForce 7900GTX)", 6, bandwidth_scale=0.8)),
    ("2007", G80_8800GTS),
]

CPU_GENERATIONS = [
    ("2004", CpuSpec("Athlon 64 3500+", 2.2e9, 1, 4.0)),
    ("2005", ATHLON64_3700),
    ("2006", CpuSpec("Athlon 64 X2 4800+", 2.4e9, 2, 4.0)),
    ("2007", CpuSpec("Core 2 Duo E6700", 2.66e9, 2, 8.0)),
]


@observed
def run_fig_1_1() -> Experiment:
    """GPU vs CPU peak single-precision GFLOP/s over hardware generations."""
    rows = []
    gpu_series: dict[str, float] = {}
    cpu_series: dict[str, float] = {}
    cpus = dict(CPU_GENERATIONS)
    for year, arch in GPU_GENERATIONS:
        cpu = cpus[year]
        rows.append(
            (year, arch.name, round(arch.peak_gflops, 1),
             cpu.name, round(cpu.peak_gflops, 1),
             round(arch.peak_gflops / cpu.peak_gflops, 1))
        )
        gpu_series[year] = arch.peak_gflops
        cpu_series[year] = cpu.peak_gflops
    exp = Experiment("fig-1.1", rows)
    exp.data = {"gpu": gpu_series, "cpu": cpu_series}
    exp.report = format_table(
        "Fig 1.1 — peak GFLOP/s, GPU vs CPU by generation",
        ["year", "GPU", "GPU GFLOP/s", "CPU", "CPU GFLOP/s", "ratio"],
        rows,
        note="Paper: GPUs outrange CPUs roughly by a factor of 10 and the "
        "gap widens with each generation.",
    )
    return exp


# ----------------------------------------------------------------------
# Fig 5.5 — CPU cycle breakdown
# ----------------------------------------------------------------------
@observed
def run_fig_5_5(
    n: int = 1024, steps: int = 5, calib: Calibration = DEFAULT_CALIBRATION
) -> Experiment:
    """Per-stage share of the CPU update stage (neighbor search ~82%)."""
    sim = Simulation(n, DEFAULT_PARAMS, seed=7, cpu_model=calib.cpu_model())
    sim.run(steps)
    profile = sim.profile
    rows = [
        (stage, f"{profile.update_share(stage) * 100:.1f}%")
        for stage in ("neighbor_search", "steering", "modification")
    ]
    exp = Experiment("fig-5.5", rows)
    exp.data = {"neighbor_share": profile.update_share("neighbor_search")}
    exp.report = format_table(
        f"Fig 5.5 — CPU update-stage cycle breakdown ({n} agents)",
        ["stage", "share of update stage"],
        rows,
        note="Paper: 'The neighbor search is the performance bottleneck, "
        "with about 82% of the used CPU cycles.'",
    )
    return exp


# ----------------------------------------------------------------------
# Fig 5.6 — CPU scaling with/without think frequency
# ----------------------------------------------------------------------
@observed
def run_fig_5_6(
    populations: "tuple[int, ...]" = (1024, 2048, 4096, 8192, 16384, 32768),
    calib: Calibration = DEFAULT_CALIBRATION,
) -> Experiment:
    """CPU updates/second over population, think frequency off and 1/10."""
    cpu = calib.cpu_model()
    without: dict[int, float] = {}
    with_tf: dict[int, float] = {}
    for n in populations:
        without[n] = 1.0 / cpu.update_seconds(n, n)
        with_tf[n] = 1.0 / cpu.update_seconds(n, max(1, n // 10))
    exp = Experiment("fig-5.6")
    exp.rows = [(n, without[n], with_tf[n]) for n in populations]
    exp.data = {"without": without, "with_tf": with_tf}
    exp.report = format_series(
        "Fig 5.6 — CPU Boids update rate",
        "agents",
        {"think freq off": without, "think freq 1/10": with_tf},
        unit="updates/s",
        note="Paper: without think frequency the O(n^2) neighbor search "
        "dominates; the 1/10 think frequency flattens the curve.",
    )
    return exp


# ----------------------------------------------------------------------
# Fig 6.2 — the development-version ladder at 4096 agents
# ----------------------------------------------------------------------
PAPER_LADDER = {1: 3.9, 2: 12.9, 3: 27.0, 4: 28.8, 5: 42.0}


@observed
def run_fig_6_2(
    n: int = 4096, steps: int = 5, calib: Calibration = DEFAULT_CALIBRATION
) -> Experiment:
    """Updates/second per development version, with measured workload
    statistics from a live flock."""
    ladder = version_ladder(n, DEFAULT_PARAMS, steps=steps, seed=3, calib=calib)
    base = ladder[0].updates_per_second
    rows = []
    speedups: dict[int, float] = {}
    for v in range(6):
        r = ladder[v]
        speedup = r.updates_per_second / base
        speedups[v] = speedup
        rows.append(
            (f"v{v}" if v else "CPU",
             VERSIONS[v].name,
             round(r.updates_per_second, 1),
             round(speedup, 1),
             PAPER_LADDER.get(v, 1.0))
        )
    exp = Experiment("fig-6.2", rows)
    exp.data = {"speedups": speedups, "stats": ladder[5].stats}
    exp.report = format_table(
        f"Fig 6.2 — development versions at {n} agents",
        ["version", "description", "updates/s", "speedup", "paper speedup"],
        rows,
        note="Paper factors: 3.9 / 12.9 / 27 / 28.8 / 42 over the CPU "
        "version; shapes to check: the big shared-memory jump v1->v2, "
        "v4 slightly above v3, v5 the largest.",
    )
    return exp


# ----------------------------------------------------------------------
# Fig 6.3 — version-5 scaling
# ----------------------------------------------------------------------
@observed
def run_fig_6_3(
    populations: "tuple[int, ...]" = (1024, 2048, 4096, 8192, 16384, 32768),
    calib: Calibration = DEFAULT_CALIBRATION,
    measure: bool = True,
    steps: int = 3,
) -> Experiment:
    """v5 update rate over population, think frequency off and 1/10."""
    without: dict[int, float] = {}
    with_tf: dict[int, float] = {}
    for n in populations:
        if measure:
            sim = Simulation(n, DEFAULT_PARAMS, seed=5, cpu_model=calib.cpu_model())
            sim.run(steps)
            stats = WorkloadStats.measure(sim.positions, DEFAULT_PARAMS)
        else:
            stats = None
        without[n] = update_time(
            5, n, DEFAULT_PARAMS, stats, calib
        ).updates_per_second
        with_tf[n] = update_time(
            5, n, THINK_FREQ_PARAMS, stats, calib
        ).updates_per_second
    exp = Experiment("fig-6.3")
    exp.rows = [(n, without[n], with_tf[n]) for n in populations]
    exp.data = {"without": without, "with_tf": with_tf}
    exp.report = format_series(
        "Fig 6.3 — version 5 update rate",
        "agents",
        {"think freq off": without, "think freq 1/10": with_tf},
        unit="updates/s",
        note="Paper: O(n^2) visible without think frequency; with it, "
        "near-linear to 16384 and a ~4.8x drop at 32768 (divergence + "
        "complexity).",
    )
    return exp


# ----------------------------------------------------------------------
# Fig 6.4 — double buffering
# ----------------------------------------------------------------------
@observed
def run_fig_6_4(
    populations: "tuple[int, ...]" = (4096, 8192, 16384, 32768),
    calib: Calibration = DEFAULT_CALIBRATION,
) -> Experiment:
    """Frame-rate gain from overlapping draw with the next update."""
    rows = []
    gains: dict[str, dict[int, float]] = {"think freq off": {}, "think freq 1/10": {}}
    for n in populations:
        for label, params in (
            ("think freq off", DEFAULT_PARAMS),
            ("think freq 1/10", THINK_FREQ_PARAMS),
        ):
            t = compare_db(n, params, calib=calib)
            gains[label][n] = t.improvement * 100
            rows.append(
                (n, label, round(t.fps_without, 1), round(t.fps_with, 1),
                 f"{t.improvement * 100:.1f}%")
            )
    exp = Experiment("fig-6.4", rows)
    exp.data = {"gains": gains}
    exp.report = format_table(
        "Fig 6.4 — double buffering improvement (version 5)",
        ["agents", "think frequency", "fps without", "fps with", "gain"],
        rows,
        note="Paper: improvements between 12% and 32%, highest where host "
        "and device finish together (8192 without think frequency; 32768 "
        "with); 4096 agents are draw-bound either way.",
    )
    return exp


# ----------------------------------------------------------------------
# §7 — what the traits analysis costs and what it buys
# ----------------------------------------------------------------------
@observed
def run_sec_7_traits() -> Experiment:
    """What CuPP's kernel-signature analysis costs, and what it buys.

    The paper's analog: template metaprogramming more than doubled the
    Boids compile time (3.1 s -> 7.3 s), paid once.  Here the pay-once
    work is ``analyze_kernel``, counted by ``cupp.traits.analyses``:

    * **cost** — analyses per ``Kernel`` construction and per kernel call
      (1 and 0: no call path pays for the analysis);
    * **benefit** — each v5 kernel's parameters by :class:`PassKind`, and
      one v5 step's call semantics (64 agents, after a warm-up step) on
      both backends: value copies, reference uploads, write-backs, and
      the write-backs the const references elide (§4.3.2), with their
      bytes from the ``copy-back-skipped-const`` ledger cause.

    The wall-clock price of the analysis is timed by
    ``benchmarks/test_sec_7_traits_overhead.py``.
    """
    from repro.cupp import CallStats, Device, Kernel, PassKind
    from repro.gpusteer.emulated import EmulatedBoids
    from repro.gpusteer.kernels_emu import modify_kernel, simulate_v4

    agents = 64
    analyses = obs.counter("cupp.traits.analyses")
    before = analyses.value
    kernels = [Kernel(fn, 1, 32) for fn in (simulate_v4, modify_kernel)]
    per_construction = (analyses.value - before) / len(kernels)
    params = {
        k.traits.name: {
            kind.value: sum(p.kind is kind for p in k.traits.params)
            for kind in PassKind
        }
        for k in kernels
    }

    launches = [obs.counter("cupp.kernel.launches", kernel=k.traits.name)
                for k in kernels]
    fields = {f: obs.counter(f"cupp.kernel.{f}") for f in CallStats.FIELDS}
    ledger = obs.get_ledger()
    step: "dict[str, dict[str, int]]" = {}
    calls = analysed = 0
    for kind in ("sim", "native"):
        boids = EmulatedBoids(agents, 5, seed=11, device=Device(backend=kind))
        boids.step()  # warm-up: the first step uploads every vector
        counts = {f: c.value for f, c in fields.items()}
        launched = sum(c.value for c in launches)
        analysed_before = analyses.value
        ledger_before = ledger.snapshot()
        boids.step()
        step[kind] = {f: int(c.value - counts[f]) for f, c in fields.items()}
        # Named after its ledger cause, not "..._bytes": fewer elided
        # bytes is a broken elision, so the gate must read it as a band.
        step[kind]["copy_back_skipped_const"] = ledger.delta_since(
            ledger_before
        )["bytes_by_cause"]["copy-back-skipped-const"]
        calls += sum(c.value for c in launches) - launched
        analysed += analyses.value - analysed_before
    per_call = analysed / calls

    rows = [
        ("analyses per Kernel construction", f"{per_construction:g}"),
        ("analyses per kernel call", f"{per_call:g}"),
        *((f"{name} params value / ref / const_ref",
           " / ".join(map(str, kinds.values())))
          for name, kinds in params.items()),
        *((f"v5 step {field}", str(n)) for field, n in step["native"].items()),
    ]
    exp = Experiment("sec-7", rows)
    exp.data = {
        "agents": agents,
        "analyses_per_construction": per_construction,
        "analyses_per_call": per_call,
        "params": params,
        "step": step,
    }
    exp.report = format_table(
        "§7 — pay-once signature analysis: its cost and what it buys",
        ["measure", "count"],
        rows,
        note="Paper: CuPP's template metaprogramming raised compile time "
        "from 3.1 s to 7.3 s, once; it buys the const-reference copy-back "
        f"elision (§4.3.2).  Step counts from {agents} agents after a "
        "warm-up step"
        + (", identical on sim and native." if step["sim"] == step["native"]
           else f"; sim differs: {step['sim']}."),
    )
    return exp


# ----------------------------------------------------------------------
# Serving SLO — batched vs per-request launches at one offered load
# ----------------------------------------------------------------------
@observed
def run_serve_slo(
    clients: int = 32,
    duration_s: float = 0.25,
    rate_rps: float = 16000.0,
    seed: int = 0,
) -> Experiment:
    """repro.serve under open-loop load: batching on vs off.

    Runs the load generator twice on the identical Poisson arrival
    stream — dynamic batching enabled, then one-launch-per-request — and
    tabulates the SLO deltas.  The qualitative shape the serving layer
    exists for: batching amortizes launch + PCIe per-call overhead, so
    at the same offered load it completes more requests with far fewer
    modelled kernel launches, while the per-request baseline saturates
    its dispatch path and starts rejecting.
    """
    from repro.serve.loadgen import run_load
    from repro.serve.service import ServeConfig

    reports = {}
    for label, batching in (("batched", True), ("per-request", False)):
        reports[label] = run_load(
            clients=clients,
            duration_s=duration_s,
            rate_rps=rate_rps,
            seed=seed,
            config=ServeConfig(physics=False, batching=batching),
        )

    rows = []
    for label, r in reports.items():
        rows.append(
            (
                label,
                r.completed,
                f"{r.throughput_rps:,.0f}",
                f"{r.p50_ms:.2f}",
                f"{r.p99_ms:.2f}",
                f"{r.mean_batch_size:.1f}",
                r.launches,
                r.rejected + r.shed + r.expired,
            )
        )
    on, off = reports["batched"], reports["per-request"]
    exp = Experiment("serve-slo", rows)
    exp.data = {
        "batched": on.to_dict(),
        "per_request": off.to_dict(),
        "throughput_gain": on.throughput_rps / max(off.throughput_rps, 1e-9),
        "launch_ratio": off.launches / max(on.launches, 1),
    }
    exp.report = format_table(
        f"serve SLO — {clients} clients, {rate_rps:,.0f} req/s offered "
        f"for {duration_s:g} s (virtual)",
        ["mode", "done", "req/s", "p50 ms", "p99 ms", "batch", "launches",
         "failed"],
        rows,
        note="Dynamic batching amortizes launch + PCIe per-call overhead "
        "across coalesced sessions; the per-request baseline saturates "
        "its host dispatch path at the same offered load.",
    )
    return exp


# ----------------------------------------------------------------------
# Allocation churn — the repro.mem caching allocator, pooled vs raw
# ----------------------------------------------------------------------
@observed
def run_alloc_churn(
    clients: int = 16,
    warmup_s: float = 0.08,
    steady_s: float = 0.16,
    rate_rps: float = 12000.0,
    seed: int = 0,
) -> Experiment:
    """Allocation churn with and without the :mod:`repro.mem` pool.

    Two workloads, each run pooled and raw:

    * the serving loadgen (per-batch result/staging buffers plus session
      state blocks) — after a warmup window, a caching allocator should
      serve the steady state entirely from its bins, so the headline is
      *raw driver allocations in the steady window*;
    * a ``cupp.Vector`` growth microbench (push_back + transform churn,
      §4.6 realloc-on-growth) — every realloc re-allocates the next
      power-of-two bin, which the pool has cached after the first pass.

    All counts are deterministic (virtual-time serve, fixed seeds), so
    the perf gate can hold the reduction factors exactly.
    """
    import numpy as np

    from repro.cuda.runtime import CudaMachine
    from repro.cupp import Device
    from repro.cupp.vector import Vector
    from repro.serve.service import ServeConfig, SimulationService

    raw_mallocs = obs.counter("cuda.malloc.count")

    def pool_counts(devices: int) -> "tuple[int, int]":
        hits = sum(
            obs.counter("mem.pool.hits", device=i).value
            for i in range(devices)
        )
        misses = sum(
            obs.counter("mem.pool.misses", device=i).value
            for i in range(devices)
        )
        return int(hits), int(misses)

    def drive_serve(pool: bool) -> dict:
        # Serial scheduler: this experiment isolates the allocator, and
        # depth-2 stream pipelining would keep *two* staging buffers in
        # flight per device — a concurrency the warmup window doesn't
        # exercise, so the steady state would pay a couple of raw
        # allocations that say nothing about the pool itself.
        cfg = ServeConfig(physics=False, pool=pool, streams=1)
        service = SimulationService(cfg)
        for i in range(clients):
            service.create_session(f"client-{i}", seed=seed + i)
        rng = np.random.default_rng(seed)
        total = warmup_s + steady_s
        gaps = rng.exponential(
            1.0 / rate_rps, size=max(1, int(rate_rps * total * 2))
        )
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < total]
        owners = rng.integers(0, clients, size=arrivals.size)
        start = raw_mallocs.value
        boundary: "float | None" = None
        hits0 = misses0 = 0
        for t, owner in zip(arrivals, owners):
            if boundary is None and t >= warmup_s:
                service.advance(warmup_s)
                boundary = raw_mallocs.value
                hits0, misses0 = pool_counts(cfg.devices)
            service.advance(float(t))
            service.submit(f"client-{owner}")
        if boundary is None:
            boundary = raw_mallocs.value
            hits0, misses0 = pool_counts(cfg.devices)
        service.drain()
        hits1, misses1 = pool_counts(cfg.devices)
        steady_hits = hits1 - hits0
        steady_misses = misses1 - misses0
        steady_pool_allocs = steady_hits + steady_misses
        return {
            "completed": service.stats.completed,
            "warmup_raw": int(boundary - start),
            "steady_raw": int(raw_mallocs.value - boundary),
            "steady_hit_rate": (
                steady_hits / steady_pool_allocs if steady_pool_allocs else 0.0
            ),
        }

    def drive_vector(pool: bool) -> dict:
        machine = CudaMachine(
            [scaled_arch("alloc-churn-gpu", 12, memory_bytes=1 << 26)]
        )
        device = Device(machine=machine)
        if pool:
            device.enable_pool()
        raw0 = raw_mallocs.value
        re0 = obs.counter("cupp.vector.reallocs").value
        vec = Vector(dtype="float32")
        for i in range(512):
            vec.push_back(float(i))
            if (i + 1) % 16 == 0:
                vec.transform(device)  # grew -> realloc + re-upload
        stats = device.pool.stats() if pool else None
        raw = int(raw_mallocs.value - raw0)
        reallocs = int(obs.counter("cupp.vector.reallocs").value - re0)
        device.close()
        return {
            "raw": raw,
            "reallocs": reallocs,
            "hit_rate": stats.hit_rate if stats else 0.0,
        }

    serve_pooled = drive_serve(pool=True)
    serve_raw = drive_serve(pool=False)
    vec_pooled = drive_vector(pool=True)
    vec_raw = drive_vector(pool=False)

    serve_gain = serve_raw["steady_raw"] / max(serve_pooled["steady_raw"], 1)
    vec_gain = vec_raw["raw"] / max(vec_pooled["raw"], 1)

    rows = [
        (
            "serve loadgen (steady)",
            serve_raw["steady_raw"],
            serve_pooled["steady_raw"],
            f"{serve_gain:.1f}x",
            f"{serve_pooled['steady_hit_rate'] * 100:.1f}%",
        ),
        (
            "vector growth",
            vec_raw["raw"],
            vec_pooled["raw"],
            f"{vec_gain:.1f}x",
            f"{vec_pooled['hit_rate'] * 100:.1f}%",
        ),
    ]
    exp = Experiment("alloc-churn", rows)
    exp.data = {
        "serve": {
            "completed": serve_pooled["completed"],
            "warmup_raw_allocs_pooled": serve_pooled["warmup_raw"],
            "steady_raw_allocs_pooled": serve_pooled["steady_raw"],
            "steady_raw_allocs_nopool": serve_raw["steady_raw"],
            "alloc_reduction_gain": serve_gain,
            "steady_hit_rate": serve_pooled["steady_hit_rate"],
        },
        "vector": {
            "reallocs": vec_pooled["reallocs"],
            "raw_allocs_pooled": vec_pooled["raw"],
            "raw_allocs_nopool": vec_raw["raw"],
            "alloc_reduction_gain": vec_gain,
            "hit_rate": vec_pooled["hit_rate"],
        },
    }
    exp.report = format_table(
        f"alloc churn — raw driver allocations, pooled vs raw "
        f"({clients} clients, {rate_rps:,.0f} req/s; 512-element vector "
        f"growth)",
        ["workload", "raw allocs", "pooled allocs", "reduction", "hit rate"],
        rows,
        note="The repro.mem caching allocator serves the steady state from "
        "its bins: after warmup the serve loadgen performs (near-)zero raw "
        "driver allocations, and vector growth pays the driver only for "
        "the first visit to each power-of-two bin.",
    )
    return exp


# ----------------------------------------------------------------------
# Fault recovery — chaos injection vs the fault-free baseline
# ----------------------------------------------------------------------
@observed
def run_fault_recovery(
    clients: int = 32,
    duration_s: float = 0.25,
    rate_rps: float = 16000.0,
    seed: int = 0,
    device_fault_rate: float = 0.01,
) -> Experiment:
    """The serving layer under injected chaos vs the same load clean.

    Runs the serve-slo load point twice on the identical Poisson
    arrival stream: once fault-free, once with the standard
    :meth:`~repro.fault.FaultConfig.chaos` mix at ``device_fault_rate``
    (launch failures, hangs, ECC transfer corruption, spurious OOM).
    The resilience contract the gate holds: **zero stranded requests**
    and **zero failed requests** at this rate, with p99 degrading by
    less than 2x — retries, watchdog timeouts, device eviction, and
    checkpointed session failover absorb every injected fault.  All
    numbers are deterministic (seeded injector, virtual time), so the
    chaos counters themselves are gated as band metrics.
    """
    from repro.fault import FaultConfig
    from repro.serve.loadgen import run_load
    from repro.serve.service import ServeConfig

    reports = {}
    for label, faults in (
        ("fault-free", None),
        ("chaos", FaultConfig.chaos(seed=seed, device_fault_rate=device_fault_rate)),
    ):
        reports[label] = run_load(
            clients=clients,
            duration_s=duration_s,
            rate_rps=rate_rps,
            seed=seed,
            config=ServeConfig(physics=False, faults=faults),
        )

    clean, chaos = reports["fault-free"], reports["chaos"]
    degradation = chaos.p99_ms / max(clean.p99_ms, 1e-9)
    injected = chaos.faults["injected"] if chaos.faults else 0
    rows = [
        (
            label,
            r.completed,
            r.failed,
            r.stranded,
            f"{r.p99_ms:.2f}",
            r.retries,
            r.timeouts,
            r.failovers,
        )
        for label, r in reports.items()
    ]
    exp = Experiment("fault-recovery", rows)
    exp.data = {
        "fault_free": {
            "completed": clean.completed,
            "p99_ms": clean.p99_ms,
            "throughput_rps": clean.throughput_rps,
        },
        "chaos": {
            "completed": chaos.completed,
            "failed": chaos.failed,
            "stranded": chaos.stranded,
            "p99_ms": chaos.p99_ms,
            "retries": chaos.retries,
            "timeouts": chaos.timeouts,
            "evictions": chaos.evictions,
            "failovers": chaos.failovers,
            "faults_injected": injected,
        },
        "p99_degradation_x": degradation,
    }
    exp.report = format_table(
        f"fault recovery — {clients} clients, {rate_rps:,.0f} req/s for "
        f"{duration_s:g} s, {device_fault_rate:.0%} device-fault rate",
        ["mode", "done", "failed", "stranded", "p99 ms", "retries",
         "timeouts", "failovers"],
        rows,
        note=f"Injected chaos ({injected} faults) costs "
        f"{degradation:.2f}x on p99; retries, watchdog eviction, and "
        f"checkpointed session failover leave zero requests stranded.",
    )
    return exp


# ----------------------------------------------------------------------
# Backend compare — the cycle simulator vs the native numpy backend
# ----------------------------------------------------------------------
@observed
def run_backend_compare(
    agents: int = 512,
    conformance_agents: int = 32,
    conformance_steps: int = 2,
    seed: int = 11,
) -> Experiment:
    """The same kernels on two substrates: modelled time and conformance.

    * **modelled throughput** — the v5 pipeline at ``agents`` boids in
      the sim backend's virtual seconds per step (the analytic perf model
      the simulator's clock is built from — running the emulator at this
      scale would measure Python, not the G80);
    * **conformance** — every device version (``DEVICE_VERSIONS``) run
      on both backends from the same seed at a population the emulator
      handles quickly, reported as the number of bit-exact versions and
      the max abs difference.

    The native backend's wall-clock speed is measured by ``perf/``
    (``cupp-calls`` vs ``emu-v5``, ``grid-v6``) and checked by
    ``tests/bench/test_backend_compare.py``.
    """
    from repro.backend.conformance import run_suite
    from repro.gpusteer.versions import DEVICE_VERSIONS, update_time
    from repro.steer.params import DEFAULT_PARAMS

    sim_s = update_time(5, agents, DEFAULT_PARAMS).total_s
    suite = [r.to_dict() for r in run_suite(
        agents=conformance_agents, steps=conformance_steps, seed=seed
    )]
    exact = sum(r["exact"] for r in suite)
    max_diff = max(r["max_abs_diff"] for r in suite)

    rows = [
        ("sim (modelled)", f"{sim_s * 1e3:.3f}", f"{agents / sim_s:,.0f}"),
    ]
    exp = Experiment("backend-compare", rows)
    exp.data = {
        "agents": agents,
        "sim_modelled_s_per_step": sim_s,
        "conformance": {
            "versions": suite,
            "ok": all(r["ok"] for r in suite),
            "exact_versions": exact,
            "max_abs_diff": max_diff,
        },
    }
    exp.report = format_table(
        f"backend compare — v5 pipeline, {agents} agents",
        ["backend", "ms/step", "agent-steps/s"],
        rows,
        note=f"Conformance (v{DEVICE_VERSIONS[0]}-v{DEVICE_VERSIONS[-1]}, "
        f"{conformance_agents} agents, "
        f"{conformance_steps} steps): {exact} of {len(suite)} versions "
        f"bit-exact across backends, max |diff| {max_diff:.2e}.  Native "
        "wall-clock speed: python -m perf (cupp-calls vs emu-v5, grid-v6).",
    )
    return exp


# ----------------------------------------------------------------------
# kernel-prof — the profiler's v1-vs-v5 story, counter-attributed
# ----------------------------------------------------------------------
@observed
def run_kernel_prof(
    agents: int = 128,
    steps: int = 1,
    threads_per_block: int = 32,
    multiprocessors: int = 2,
    seed: int = 7,
) -> Experiment:
    """Profile v1 and v5 and attribute the speedup to counters.

    Runs ``repro.prof`` over both ends of the Table 6.1 ladder on the
    simulator, diffs the counter movement, and *validates* the advisor:
    the block-size suggestion its low-occupancy rule makes for the v1
    neighbor kernel is re-run at the suggested configuration and the
    measured (virtual-clock) improvement is reported next to the
    estimate.  Everything here is deterministic — emulated counters plus
    the analytic perf model — so the experiment sits inside the
    perf-regression gate.
    """
    from repro.prof.__main__ import profile_pipeline
    from repro.prof.advisor import advise
    from repro.prof.report import diff_reports, session_report

    def profile(version: int, tpb: int):
        return profile_pipeline(
            version,
            agents=agents,
            steps=steps,
            threads_per_block=tpb,
            multiprocessors=multiprocessors,
            seed=seed,
        )

    v1 = profile(1, threads_per_block)
    v5 = profile(5, threads_per_block)
    report_v1 = session_report(v1, label="v1")
    report_v5 = session_report(v5, label="v5")
    prof_diff = diff_reports(report_v1, report_v5)

    findings_v1 = advise(v1)
    findings_v5 = advise(v5)
    rules_v1 = {f"{f.rule}:{f.kernel}" for f in findings_v1}
    rules_v5 = {f"{f.rule}:{f.kernel}" for f in findings_v5}

    # Validate the advisor's block-size suggestion against the machine
    # model it advises about: re-run v1 at the suggested configuration
    # and compare virtual-clock kernel time.
    validation: dict = {"validated": False}
    suggestion = next(
        (
            f
            for f in findings_v1
            if f.rule == "low-occupancy" and f.suggestion is not None
        ),
        None,
    )
    if suggestion is not None:
        suggested_tpb = int(suggestion.suggestion["threads_per_block"])
        base_s = v1.kernels[suggestion.kernel].modelled_s
        retuned = profile(1, suggested_tpb)
        tuned_s = retuned.kernels[suggestion.kernel].modelled_s
        measured_speedup = base_s / tuned_s if tuned_s > 0 else 0.0
        validation = {
            "kernel": suggestion.kernel,
            "suggested_threads_per_block": suggested_tpb,
            "estimated_speedup": suggestion.estimated_speedup,
            "base_modelled_s": base_s,
            "tuned_modelled_s": tuned_s,
            "measured_speedup": measured_speedup,
            "validated": measured_speedup > 1.0,
        }

    rows = []
    for label, report in (("v1", report_v1), ("v5", report_v5)):
        for name, kc in sorted(report["kernels"].items()):
            rows.append(
                (
                    label,
                    name,
                    kc["instructions"],
                    kc["uncoalesced_read_transactions"],
                    f"{kc['bytes_moved']:,}",
                    f"{kc['modelled_s'] * 1e3:.4f}",
                )
            )

    speedup = prof_diff["totals"]["speedup"]
    exp = Experiment("kernel-prof", rows)
    exp.data = {
        "agents": agents,
        "steps": steps,
        "threads_per_block": threads_per_block,
        "multiprocessors": multiprocessors,
        "v1": report_v1,
        "v5": report_v5,
        "diff": prof_diff,
        "v1_to_v5_speedup": speedup,
        "v1_uncoalesced_load_finding": "uncoalesced-loads:find_neighbors_v1"
        in rules_v1,
        "v5_uncoalesced_load_findings": sum(
            1 for r in rules_v5 if r.startswith("uncoalesced-loads:")
        ),
        "block_size_validation": validation,
    }
    note = (
        f"v1 -> v5: {speedup:.2f}x modelled; "
        f"advisor block-size suggestion "
        + (
            f"({validation.get('kernel')} @ "
            f"{validation.get('suggested_threads_per_block')} tpb): "
            f"estimated {validation.get('estimated_speedup', 0.0):.2f}x, "
            f"measured {validation.get('measured_speedup', 0.0):.2f}x"
            if validation["validated"]
            else "not validated"
        )
    )
    exp.report = format_table(
        f"kernel profiler — v1 vs v5, {agents} agents, "
        f"{multiprocessors} MPs",
        ["version", "kernel", "instr", "uncoal.ld.tx", "bytes", "modelled ms"],
        rows,
        note=note,
    )
    return exp


# ----------------------------------------------------------------------
# million-boids — grid-bucketed neighbor search at scale (ch. 7)
# ----------------------------------------------------------------------
@observed
def run_million_boids(
    populations: "tuple[int, ...]" = (10_000, 100_000, 1_000_000),
    base_n: int = 4096,
    exact_agents: int = 64,
    exact_steps: int = 1,
    seed: int = 11,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> Experiment:
    """O(n^2) vs O(n·k): the all-pairs v5 against the grid-bucketed v6.

    Two halves, both deterministic:

    * **scaling** — the analytic update-time model at constant flock
      density (the world radius grows with the cube root of the
      population, so the neighborhood size k stays fixed while n grows).
      The all-pairs kernel scales with n per agent, the hash-grid kernel
      with ~27k per agent; the speedup column is the experiment's
      headline and must exceed 10x at a million boids.
    * **exactness** — the differential oracle at an emulatable
      population: v2 (all-pairs) and v6 (grid) neighbor sets after a
      step, on both the sim and native backends.  1.0 means bit-identical
      — the grid changes *time*, never *answers* (the (d2, index)
      tie-break makes the kept set traversal-order-independent).
    """
    import dataclasses

    import numpy as np

    allpairs_s: "dict[int, float]" = {}
    grid_s: "dict[int, float]" = {}
    speedup: "dict[int, float]" = {}
    rows = []
    for n in populations:
        params = dataclasses.replace(
            DEFAULT_PARAMS,
            world_radius=DEFAULT_PARAMS.world_radius * (n / base_n) ** (1 / 3),
        )
        t5 = update_time(5, n, params, calib=calib)
        t6 = update_time(6, n, params, calib=calib)
        allpairs_s[n] = t5.total_s
        grid_s[n] = t6.total_s
        speedup[n] = t5.total_s / t6.total_s
        rows.append(
            (
                f"{n:,}",
                f"{t5.total_s * 1e3:,.1f}",
                f"{t6.total_s * 1e3:,.1f}",
                f"{t6.host_compute_s * 1e3:,.2f}",
                f"{t6.transfer_s * 1e3:,.2f}",
                f"{speedup[n]:,.1f}x",
            )
        )

    from repro.cupp.device import Device
    from repro.gpusteer.emulated import EmulatedBoids

    exact_match: "dict[str, float]" = {}
    for kind in ("sim", "native"):
        sets = {}
        for version in (2, 6):
            boids = EmulatedBoids(
                exact_agents,
                version,
                seed=seed,
                device=Device(backend=kind),
                threads_per_block=32,
            )
            for _ in range(exact_steps):
                boids.step()
            sets[version] = boids.neighbor_sets()
        exact_match[kind] = float(np.array_equal(sets[2], sets[6]))

    exp = Experiment("million-boids", rows)
    exp.data = {
        "allpairs_s": allpairs_s,
        "grid_s": grid_s,
        "speedup": speedup,
        "exact_match": exact_match,
    }
    exp.report = format_table(
        "million boids — all-pairs v5 vs grid-bucketed v6 "
        "(constant density)",
        ["agents", "all-pairs ms", "grid ms", "grid host ms",
         "grid xfer ms", "speedup"],
        rows,
        note=(
            f"neighbor sets bit-identical to all-pairs: "
            f"sim={exact_match['sim']:.0f} native={exact_match['native']:.0f} "
            f"(at {exact_agents} agents, both backends); the grid pays a "
            "host rebuild + CSR upload per step and wins asymptotically."
        ),
    )
    return exp
