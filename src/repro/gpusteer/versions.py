"""The development versions of the GPU port (paper Table 6.1 + ch. 7).

======== ==================== ==================== ============
version  neighbor search      steering calculation modification
======== ==================== ==================== ============
CPU      host                 host                 host
1        device (global mem)  host                 host
2        device (shared mem)  host                 host
3        device (shared mem)  device (local cache) host
4        device (shared mem)  device (recompute)   host
5        device (shared mem)  device (recompute)   device
6        device (hash grid)   device (recompute)   device
======== ==================== ==================== ============

Version 6 is the chapter-7 extension: the host rebuilds a
``cupp.containers.HashGrid`` each step (O(n) counting sort) and the
device scans only the 27-cell neighborhood — O(n·k) in place of the
all-pairs O(n²).

:class:`VersionSpec` is the feature matrix; :func:`kernel_costs` is the
one list of the kernels each version launches; :func:`update_time` is the
per-version timing model that combines host work (CPU cost model), kernel
times (those closed-form counts -> analytic perf model), and transfers
(PCIe model).  The correctness of each version's *computation* is
established separately, by running the emulated kernels against the pure
reference (``tests/gpusteer/``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bench.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpusteer.cost_model import (
    LaunchGeometry,
    WorkloadStats,
    modify_cost,
    neighbor_v1_cost,
    neighbor_v2_cost,
    simulate_cost,
    simulate_grid_cost,
)
from repro.simgpu.arch import ArchSpec, G80_8800GTS
from repro.simgpu.perfmodel import KernelCostInputs, kernel_time
from repro.steer.params import BoidsParams

#: Block size the GPU port launches with (agents padded to a multiple).
THREADS_PER_BLOCK = 128

#: Bytes per agent moved for drawing: a 4x4 float matrix (§6.2.3).
DRAW_MATRIX_BYTES = 64

#: Host elements-equivalents per agent for the O(n) grid rebuild
#: (counting sort, CSR offsets, directory assign), charged at the
#: extraction-loop rate — the ch. 7 "fast construction" cost.
GRID_BUILD_ELEMENTS_PER_AGENT = 12


@dataclass(frozen=True)
class VersionSpec:
    """One row of Table 6.1."""

    number: int
    name: str
    neighbor_on_device: bool
    steering_on_device: bool
    modification_on_device: bool
    uses_shared_memory: bool
    local_mem_caching: bool
    #: Chapter 7: neighbor search through the cupp.containers hash grid.
    grid_neighbors: bool = False


CPU_VERSION = VersionSpec(0, "CPU", False, False, False, False, False)
VERSIONS: dict[int, VersionSpec] = {
    0: CPU_VERSION,
    1: VersionSpec(1, "v1 naive neighbor search", True, False, False, False, False),
    2: VersionSpec(2, "v2 shared-memory neighbor search", True, False, False, True, False),
    3: VersionSpec(3, "v3 simulation substage (local cache)", True, True, False, True, True),
    4: VersionSpec(4, "v4 simulation substage (recompute)", True, True, False, True, False),
    5: VersionSpec(5, "v5 full update on device", True, True, True, True, False),
    6: VersionSpec(
        6,
        "v6 grid-bucketed neighbor search (cupp.containers)",
        True,
        True,
        True,
        False,
        False,
        grid_neighbors=True,
    ),
}

#: The versions that launch device kernels (every row but the CPU one).
DEVICE_VERSIONS: tuple[int, ...] = tuple(v for v in VERSIONS if v)


@dataclass(frozen=True)
class UpdateBreakdown:
    """Where one update stage's time goes, per version."""

    version: int
    host_compute_s: float  # CPU-resident substages + extraction loops
    gpu_kernel_s: float  # device execution (runs async; bounded below)
    transfer_s: float  # cudaMemcpy calls (block the host)
    launch_overhead_s: float

    @property
    def total_s(self) -> float:
        """Serial update time (no draw overlap — Fig. 6.2/6.3 metric)."""
        return (
            self.host_compute_s
            + self.gpu_kernel_s
            + self.transfer_s
            + self.launch_overhead_s
        )

    @property
    def updates_per_second(self) -> float:
        return 1.0 / self.total_s


def _cohort_size(n: int, params: BoidsParams) -> int:
    """Thinking agents per step, padded to the block size (the kernels
    require a thread-count multiple of threads_per_block, §6.2.1)."""
    thinkers = max(1, math.ceil(n / params.think_every))
    return THREADS_PER_BLOCK * math.ceil(thinkers / THREADS_PER_BLOCK)


def kernel_costs(
    version: int, n: int, params: BoidsParams, stats: WorkloadStats
) -> "list[tuple[str, KernelCostInputs]]":
    """The kernels one update stage of ``version`` launches, in order.

    One ``(kernel_name, KernelCostInputs)`` row per launch, named after
    the emulated kernel it models.  The neighbor and simulate kernels
    run over the thinking cohort; the modification kernel over every
    agent.  The CPU version launches nothing.
    """
    spec = VERSIONS[version]
    if not spec.neighbor_on_device:
        return []
    geom = LaunchGeometry(_cohort_size(n, params), THREADS_PER_BLOCK)
    if not spec.steering_on_device:
        if spec.uses_shared_memory:
            return [("find_neighbors_v2", neighbor_v2_cost(geom, stats))]
        return [("find_neighbors_v1", neighbor_v1_cost(geom, stats))]
    if spec.grid_neighbors:
        simulate = ("simulate_grid", simulate_grid_cost(geom, stats))
    elif spec.local_mem_caching:
        simulate = ("simulate_v3", simulate_cost(geom, stats, local_cache=True))
    else:
        simulate = ("simulate_v4", simulate_cost(geom, stats, local_cache=False))
    if not spec.modification_on_device:
        return [simulate]
    all_geom = LaunchGeometry(
        THREADS_PER_BLOCK * math.ceil(n / THREADS_PER_BLOCK), THREADS_PER_BLOCK
    )
    return [simulate, ("modify_kernel", modify_cost(all_geom))]


def update_time(
    version: int,
    n: int,
    params: BoidsParams,
    stats: WorkloadStats | None = None,
    calib: Calibration = DEFAULT_CALIBRATION,
    arch: ArchSpec = G80_8800GTS,
) -> UpdateBreakdown:
    """Model one update stage of ``version`` at population ``n``.

    Kernel time and launch count come from :func:`kernel_costs`; the
    per-version branches below add the host work and the transfers.
    """
    spec = VERSIONS[version]
    cpu = calib.cpu_model()
    pcie = calib.pcie_model()
    if stats is None:
        stats = WorkloadStats.estimate(n, params, calib.density_clustering)
    thinkers = max(1, n // params.think_every)

    if not spec.neighbor_on_device:
        # Pure CPU version: everything on the host.
        return UpdateBreakdown(
            version,
            host_compute_s=cpu.seconds(cpu.update_cycles(n, thinkers)),
            gpu_kernel_s=0.0,
            transfer_s=0.0,
            launch_overhead_s=0.0,
        )

    rows = kernel_costs(version, n, params, stats)
    gpu = sum(kernel_time(inputs, arch).total_s for _, inputs in rows)
    host = 0.0
    transfer = 0.0

    if not spec.steering_on_device:
        # v1/v2: neighbor kernel only.  Host extracts positions each frame
        # (listing 6.1), then finishes steering + modification itself.
        host += calib.extract_seconds(3 * n)  # positions into cupp::vector
        transfer += pcie.transfer_time(12 * n)  # positions upload
        transfer += pcie.transfer_time(4 * 7 * thinkers)  # results download
        host += calib.extract_seconds(7 * thinkers)  # results back out
        host += cpu.seconds(cpu.steering_cycles(thinkers))
        host += cpu.seconds(cpu.modification_cycles(n))
    elif not spec.modification_on_device:
        # v3/v4: simulation substage on device; modification on host, so
        # the full agent state crosses the bus both ways every step.
        host += calib.extract_seconds(6 * n)  # positions + forwards out
        transfer += pcie.transfer_time(12 * n)  # positions
        transfer += pcie.transfer_time(12 * n)  # forwards
        transfer += pcie.transfer_time(12 * thinkers)  # steering download
        host += calib.extract_seconds(3 * thinkers)
        host += cpu.seconds(cpu.modification_cycles(n))
    elif spec.grid_neighbors:
        # v6: the host rebuilds the spatial hash each step — lazy
        # positions download, O(n) build, CSR + directory upload (the
        # ledger's grid-build cause) — then the grid kernel scans only
        # the 27-cell neighborhood.  Modification stays on the device,
        # so nothing else crosses the bus.
        transfer += pcie.transfer_time(12 * n)  # positions download
        host += calib.extract_seconds(GRID_BUILD_ELEMENTS_PER_AGENT * n)
        per_cell = max(stats.in_radius_per_agent, 1.0)
        segments = max(1, math.ceil(n / per_cell))
        capacity = 8
        while capacity < 2 * segments:
            capacity *= 2
        transfer += pcie.transfer_time(4 * n)  # members
        transfer += pcie.transfer_time(4 * (segments + 1))  # starts
        transfer += pcie.transfer_time(capacity * 12)  # directory
    # v5: everything stays on the device; lazy copying (§4.6) means no
    # per-frame uploads at all — only the draw matrices come back
    # (handled in the frame model, not the update stage).

    return UpdateBreakdown(
        version,
        host_compute_s=host,
        gpu_kernel_s=gpu,
        transfer_s=transfer,
        launch_overhead_s=len(rows) * calib.launch_overhead_s,
    )


def speedup_vs_cpu(
    version: int,
    n: int,
    params: BoidsParams,
    stats: WorkloadStats | None = None,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> float:
    """The Fig. 6.2 metric: CPU update time over version update time."""
    cpu_t = update_time(0, n, params, stats, calib).total_s
    ver_t = update_time(version, n, params, stats, calib).total_s
    return cpu_t / ver_t
