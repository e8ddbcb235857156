"""Ablations for the design choices DESIGN.md calls out.

Not paper figures — these quantify *why* the paper's choices work:
block-size/occupancy, the lazy-copy transfer savings, the const-ref
elision, the v3/v4 local-memory decision at kernel level, and the
chapter-7 read-only cache placement.  The chapter-7 grid-bucketed
neighbor search has its own experiment, ``million-boids``.
"""

import numpy as np
from conftest import emit

from repro.bench.report import format_table
from repro.gpusteer import (
    LaunchGeometry,
    THREADS_PER_BLOCK,
    WorkloadStats,
    neighbor_v2_cost,
    simulate_cost,
    update_time,
)
from repro.simgpu import kernel_time
from repro.steer import DEFAULT_PARAMS

N = 4096


def stats():
    return WorkloadStats.estimate(N, DEFAULT_PARAMS)


# ----------------------------------------------------------------------
def run_block_size_sweep():
    rows = []
    times = {}
    for tpb in (32, 64, 128, 256, 512):
        inputs = neighbor_v2_cost(LaunchGeometry(N, tpb), stats())
        t = kernel_time(inputs)
        times[tpb] = t.total_s
        rows.append(
            (tpb,
             t.occupancy.blocks_per_mp,
             t.occupancy.warps_per_mp,
             t.occupancy.limited_by,
             round(t.total_s * 1e3, 3),
             t.bound_by)
        )
    report = format_table(
        f"Ablation — v2 neighbor kernel block size at {N} agents",
        ["threads/block", "blocks/MP", "warps/MP", "limited by", "time [ms]", "bound"],
        rows,
        note="Occupancy must stay high enough to hide the 400-600 cycle "
        "read latency; beyond that, block size barely matters.",
    )
    return report, times


def test_block_size_sweep(benchmark):
    report, times = benchmark.pedantic(run_block_size_sweep, rounds=3, iterations=1)
    emit(report)
    best, worst = min(times.values()), max(times.values())
    assert worst / best < 2.0  # plateau, not a cliff
    # The paper's 128 sits on the plateau.
    assert times[128] <= best * 1.2


# ----------------------------------------------------------------------
def run_transfer_per_version():
    rows = []
    totals = {}
    for v in (1, 2, 3, 4, 5):
        b = update_time(v, N, DEFAULT_PARAMS, stats())
        per_frame = b.transfer_s + b.host_compute_s
        totals[v] = b.transfer_s
        rows.append(
            (f"v{v}",
             round(b.transfer_s * 1e6, 1),
             round(b.host_compute_s * 1e3, 3),
             round(b.gpu_kernel_s * 1e3, 3))
        )
    report = format_table(
        f"Ablation — per-update host costs by version at {N} agents",
        ["version", "transfers [us]", "host compute [ms]", "GPU [ms]"],
        rows,
        note="Lazy copying pays off in v5: agent state never crosses the "
        "bus, so transfer time drops to zero within the update stage "
        "(only the draw matrices move, in the frame loop).",
    )
    return report, totals


def test_lazy_copy_transfer_savings(benchmark):
    report, totals = benchmark.pedantic(run_transfer_per_version, rounds=3, iterations=1)
    emit(report)
    assert totals[5] == 0.0
    assert totals[3] > 0.0
    assert totals[1] > 0.0


# ----------------------------------------------------------------------
def run_local_cache_ablation():
    rows = []
    times = {}
    for cache, label in ((True, "v3 local-memory cache"), (False, "v4 recompute")):
        inputs = simulate_cost(
            LaunchGeometry(N, THREADS_PER_BLOCK), stats(), local_cache=cache
        )
        t = kernel_time(inputs)
        times[cache] = t.total_s
        rows.append(
            (label,
             round(t.total_s * 1e3, 3),
             f"{inputs.bytes_moved / 2**20:.1f} MiB",
             inputs.issue_cycles)
        )
    report = format_table(
        f"Ablation — caching vs recomputing neighbor data at {N} agents",
        ["variant", "kernel time [ms]", "device-memory traffic", "issue cycles"],
        rows,
        note="§6.2.2: local arrays spill to device memory on the G80, so "
        "recomputing from registers/shared memory wins.",
    )
    return report, times


def test_local_cache_vs_recompute(benchmark):
    report, times = benchmark.pedantic(run_local_cache_ablation, rounds=3, iterations=1)
    emit(report)
    assert times[False] < times[True]  # v4 beats v3
    assert times[True] / times[False] < 1.5  # by percent, not by multiples


# ----------------------------------------------------------------------
def run_readonly_space_ablation():
    from repro.cupp import Device, DeviceVector, Kernel, Vector
    from repro.cuda import global_
    from repro.cupp import ConstRef, Ref
    from repro.simgpu import OpClass
    from repro.simgpu import devicelib as dl
    from repro.simgpu.isa import op, st

    @global_
    def gather(ctx, src: ConstRef[DeviceVector], out: Ref[DeviceVector]):
        i = ctx.global_thread_id
        total = 0.0
        for j in range(len(src)):
            v = yield from dl.ld_auto(src, j)
            total += v
            yield op(OpClass.FADD)
        yield st(out.view, i, total)

    n = 64
    rows = []
    data = {}
    for space in ("global", "texture", "constant"):
        dev = Device()
        src = Vector(np.ones(n, np.float32), readonly_space=space)
        out = Vector(np.zeros(32, np.float32), dtype=np.float32)
        Kernel(gather, 1, 32)(dev, src, out)
        p = dev.runtime.last_launch.profile
        data[space] = p.bytes_read
        rows.append(
            (space, f"{p.bytes_read:,}", p.global_read_transactions,
             p.texture_hits or p.constant_hits or "-")
        )
        dev.close()
    report = format_table(
        "Ablation — const-ref vector placement (ch. 7 extension)",
        ["space", "device bytes read", "transactions", "cache hits"],
        rows,
        note="Every thread scans the whole vector (the Boids pattern): "
        "the texture cache turns the uncoalesced broadcast reads into "
        "line hits; constant memory broadcasts them for free.",
    )
    return report, data


def test_readonly_space_placement(benchmark):
    report, data = benchmark.pedantic(run_readonly_space_ablation, rounds=1, iterations=1)
    emit(report)
    assert data["texture"] * 20 < data["global"]
    assert data["constant"] <= data["texture"]


# ----------------------------------------------------------------------
def run_gl_interop_ablation():
    """§3.2's unused OpenGL interop: keep the draw matrices on the device.

    The paper's v5 copies 64 bytes/agent back every frame; a mapped GL
    buffer object removes the transfer entirely.  Measured on the serial
    (non-double-buffered) schedule, where the blocking fetch sits on the
    critical path — the stream-overlapped double-buffer schedule already
    hides the fetch behind the render, so interop saves nothing there.
    """
    from repro.gpusteer.double_buffer import simulate_frames

    rows = []
    saved = {}
    for n in (4096, 8192, 16384, 32768):
        plain = simulate_frames(
            n, DEFAULT_PARAMS, double_buffered=False, gl_interop=False
        )
        interop = simulate_frames(
            n, DEFAULT_PARAMS, double_buffered=False, gl_interop=True
        )
        saved[n] = plain - interop
        rows.append(
            (n, round(1 / plain, 1), round(1 / interop, 1),
             f"{saved[n] * 1e6:.0f} us/frame",
             f"{(plain / interop - 1) * 100:.2f}%")
        )
    report = format_table(
        "Ablation — GL buffer-object interop for the draw matrices",
        ["agents", "fps (memcpy)", "fps (interop)", "saved", "fps gain"],
        rows,
        note="The paper's v5 ships 64 B/agent over PCIe per frame; mapping "
        "a GL buffer object (§3.2 interop, unused in the paper) removes "
        "it from the serial schedule.  The absolute saving grows linearly "
        "with the flock, but the O(n^2) update dwarfs it — and the "
        "stream-overlapped double-buffer schedule hides the fetch anyway, "
        "so the paper lost little by skipping interop.",
    )
    return report, saved


def test_gl_interop_saves_the_matrix_transfer(benchmark):
    report, saved = benchmark.pedantic(
        run_gl_interop_ablation, rounds=2, iterations=1
    )
    emit(report)
    # Absolute per-frame saving is the (linear) transfer: grows with n.
    ns = sorted(saved)
    assert saved[ns[-1]] > saved[ns[0]]
    assert all(s >= -1e-6 for s in saved.values())  # never hurts
    assert saved[32768] > 0.4e-3  # ~2 MiB over PCIe is real time


# ----------------------------------------------------------------------
def run_multicore_cpu_ablation():
    """What would the cited OpenMP baseline [KLar] change?

    Even a perfectly-scaled multicore CPU cannot catch version 5: the
    O(n^2) neighbor search dominates, and the GPU's advantage (~42x) far
    exceeds any 2007-era core count.
    """
    from repro.bench.calibration import DEFAULT_CALIBRATION

    cpu = DEFAULT_CALIBRATION.cpu_model()
    v5 = update_time(5, N, DEFAULT_PARAMS, stats())
    rows = []
    speedups = {}
    for cores in (1, 2, 4, 8):
        t = cpu.seconds(cpu.parallel_update_cycles(N, N, cores))
        over_gpu = t / v5.total_s
        speedups[cores] = over_gpu
        rows.append(
            (cores, round(1.0 / t, 1), round(v5.updates_per_second, 1),
             f"{over_gpu:.1f}x slower")
        )
    report = format_table(
        f"Ablation — OpenMP-style multicore CPU [KLar] vs version 5 at {N} agents",
        ["CPU cores", "CPU updates/s", "v5 updates/s", "CPU vs GPU"],
        rows,
        note="The paper's CPU baseline descends from Knafla & Leopold's "
        "OpenMP parallelization; even 8 idealized cores stay an order of "
        "magnitude behind the G80.",
    )
    return report, speedups


def test_multicore_cpu_never_catches_the_gpu(benchmark):
    report, speedups = benchmark.pedantic(
        run_multicore_cpu_ablation, rounds=3, iterations=1
    )
    emit(report)
    # Monotone improvement with cores...
    vals = [speedups[c] for c in sorted(speedups)]
    assert vals == sorted(vals, reverse=True)
    # ...but still >5x behind the GPU at 8 cores.
    assert speedups[8] > 5.0
    assert speedups[1] > 30.0
