"""Closed-form instruction/traffic counts for the Boids kernels.

The emulator measures what a kernel executes, but emulating 4096 agents x
4096 candidates in Python is not feasible for a benchmark sweep.  These
builders reproduce the emulator's accounting *by construction*: each term
mirrors one line of :mod:`repro.gpusteer.kernels_emu`, scaled by the
launch geometry and by two data-dependent quantities:

* ``in_radius_per_agent`` — how many candidates pass the radius test
  (drives the divergent insert path, §6.3.1: "with more agents the number
  of agents within the neighbor search radius increases and therefore the
  times the warp diverges");
* ``full_insert_fraction`` — how many of those hit the scan-and-replace
  path (the neighbor list already held 7).

The test suite holds ``neighbor_v1_cost``, ``neighbor_v2_cost``,
``simulate_cost`` and ``modify_cost`` to the emulator's measured profile
on one n=64 cloud, within stated tolerances (see
``tests/gpusteer/test_cost_model.py``); the benchmarks then evaluate the
same formulas at paper scale.  ``simulate_grid_cost`` (v6) has no such
check yet: at n=64 it predicts 0.31x the emulator's issue cycles.

Divergence approximation: an in-radius insert is taken to cost one full
warp issue of its path (sparse-event assumption — inserts rarely line up
across a warp, which the validation tolerances cover).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.simgpu.costs import CostTable, G80_COSTS
from repro.simgpu.perfmodel import KernelCostInputs
from repro.steer.params import BoidsParams

#: Bytes one warp-level uncoalesced read/write of 32 float32 lanes moves
#: (32 threads x 32-byte minimum transaction).
UNCOALESCED_WARP_BYTES = 32 * 32

MAX_NEIGHBORS = 7

#: Issue cost of one instruction (cycles/warp).
C = 4


@dataclass(frozen=True)
class WorkloadStats:
    """Data-dependent inputs to the kernel cost model."""

    n: int
    in_radius_per_agent: float
    full_insert_fraction: float
    #: Mean final neighborhood size, min(in-radius count, 7).
    avg_neighbors: float = float(MAX_NEIGHBORS)

    @staticmethod
    def measure(positions: np.ndarray, params: BoidsParams) -> "WorkloadStats":
        """Exact statistics from an actual agent cloud (kd-tree count)."""
        from scipy.spatial import cKDTree

        tree = cKDTree(positions)
        counts = (
            np.array(tree.query_ball_point(
                positions, params.search_radius, return_length=True
            ))
            - 1  # exclude self
        )
        m = float(counts.mean())
        full = float(np.maximum(counts - MAX_NEIGHBORS, 0).sum()) / max(
            float(counts.sum()), 1.0
        )
        avg = float(np.minimum(counts, MAX_NEIGHBORS).mean())
        return WorkloadStats(positions.shape[0], m, full, avg)

    @staticmethod
    def estimate(
        n: int, params: BoidsParams, clustering: float = 2.0
    ) -> "WorkloadStats":
        """Analytic estimate for a flocked population.

        A uniform population sees ``(n-1) * (r/R)^3`` agents in radius;
        flocking concentrates agents, raising local density by the
        ``clustering`` factor (calibrated against measured runs).
        """
        volume_fraction = (params.search_radius / params.world_radius) ** 3
        m = min(n - 1.0, (n - 1.0) * volume_fraction * clustering)
        full = max(0.0, (m - MAX_NEIGHBORS) / m) if m > 0 else 0.0
        return WorkloadStats(n, m, full, min(m, float(MAX_NEIGHBORS)))

    def insert_issues(self, candidates: int) -> float:
        """Expected warp-level insert-path *issues* over a candidate scan.

        An insert round serializes against the rest of the warp, but all
        threads inserting at the same candidate share one issue group —
        so per candidate the warp pays the path at probability
        ``1 - (1-p)^32`` with ``p`` the per-thread in-radius chance.  At
        paper densities this approaches one issue per event (sparse); at
        dense test clouds simultaneous inserts collapse (§6.3.1's "it is
        expected that only a single thread executes a branch most of the
        time" is exactly the sparse limit).
        """
        if self.n <= 0:
            return 0.0
        p = min(self.in_radius_per_agent / self.n, 1.0)
        return candidates * (1.0 - (1.0 - p) ** 32)

    def insert_events(self, threads: int = 32) -> float:
        """Total per-thread insert *events* across a warp (memory traffic
        is per-thread even when the issue groups collapse)."""
        return threads * self.in_radius_per_agent


@dataclass(frozen=True)
class LaunchGeometry:
    """How a kernel is launched: thread count and block size."""

    threads: int
    threads_per_block: int

    @property
    def blocks(self) -> int:
        return math.ceil(self.threads / self.threads_per_block)

    @property
    def warps(self) -> int:
        return self.blocks * math.ceil(self.threads_per_block / 32)


def _insert_cost_cycles(stats: WorkloadStats) -> float:
    """Warp-issue cycles of one in-radius insert event.

    Cheap path (list not full): compare + branch + iadd.
    Full path: the 7-slot max scan (6 compares + final compare + branch).
    """
    cheap = 3 * C
    full = (1 + 6 + 1) * C + 2 * C
    f = stats.full_insert_fraction
    return (1.0 - f) * cheap + f * full


# ----------------------------------------------------------------------
# Version 1: naive neighbor search
# ----------------------------------------------------------------------
def neighbor_v1_cost(
    geom: LaunchGeometry,
    stats: WorkloadStats,
    costs: CostTable = G80_COSTS,
) -> KernelCostInputs:
    """Version 1: the naive global-memory neighbor search (§6.2.1)."""
    n = stats.n
    w = geom.warps
    # Per-warp, per-candidate: loop (compare+iadd), sub3 (3), length_squared
    # (FMUL+2 FMAD), 2 compares + branch, plus the 3 global-read issues.
    arith_per_candidate = (2 + 3 + 3 + 3) * C
    read_issue_per_candidate = 3 * C
    per_warp = n * (arith_per_candidate + read_issue_per_candidate)
    # Init: my position (3 reads) + r2; results: 7 writes + loop.
    per_warp += 3 * C + 1 * C + MAX_NEIGHBORS * (C + 2 * C)
    # Divergent inserts: issue groups collapse across the warp.
    per_warp += stats.insert_issues(n) * _insert_cost_cycles(stats)

    issue_cycles = int(per_warp * w)
    global_reads = w * (n * 3 + 3)
    # Same-address candidate reads never coalesce: 1 KiB per warp read.
    bytes_moved = (
        w * n * 3 * UNCOALESCED_WARP_BYTES  # candidate loop
        + w * 3 * UNCOALESCED_WARP_BYTES  # own position (stride-3)
        + w * MAX_NEIGHBORS * 32 * 32  # scattered result writes
    )
    return KernelCostInputs(
        blocks=geom.blocks,
        threads_per_block=geom.threads_per_block,
        issue_cycles=issue_cycles,
        global_reads=global_reads,
        bytes_moved=bytes_moved,
        shared_bytes_per_block=0,
        registers_per_thread=12,
    )


# ----------------------------------------------------------------------
# Version 2: shared-memory tiled neighbor search (listings 6.2/6.3)
# ----------------------------------------------------------------------
def neighbor_v2_cost(
    geom: LaunchGeometry,
    stats: WorkloadStats,
    costs: CostTable = G80_COSTS,
) -> KernelCostInputs:
    """Version 2: the shared-memory tiled neighbor search (listing 6.2)."""
    n = stats.n
    w = geom.warps
    tpb = geom.threads_per_block
    tiles = math.ceil(n / tpb)
    # Candidate work now reads from shared memory (3 lds) instead of global.
    arith_per_candidate = (2 + 2 + 3 + 3 + 3) * C  # + tile-index iadds
    shared_per_candidate = 3 * costs.shared_cycles
    per_warp = n * (arith_per_candidate + shared_per_candidate)
    # Per tile: stage one element (3 reads + 3 shared writes), 2 syncs,
    # loop overhead.
    per_warp += tiles * (3 * C + 3 * costs.shared_cycles + 2 * costs.sync_base_cycles + 2 * C)
    per_warp += 3 * C + 1 * C + MAX_NEIGHBORS * (C + 2 * C)
    per_warp += stats.insert_issues(n) * _insert_cost_cycles(stats)

    issue_cycles = int(per_warp * w)
    global_reads = w * (tiles * 3 + 3)
    bytes_moved = (
        w * tiles * 3 * UNCOALESCED_WARP_BYTES  # staging loads (stride 3)
        + w * 3 * UNCOALESCED_WARP_BYTES
        + w * MAX_NEIGHBORS * 32 * 32
    )
    shared_bytes = tpb * 3 * 4
    return KernelCostInputs(
        blocks=geom.blocks,
        threads_per_block=geom.threads_per_block,
        issue_cycles=issue_cycles,
        global_reads=global_reads,
        bytes_moved=bytes_moved,
        shared_bytes_per_block=shared_bytes,
        registers_per_thread=14,
    )


# ----------------------------------------------------------------------
# Versions 3/4: full simulation substage
# ----------------------------------------------------------------------
def _steering_phase_cycles(costs: CostTable, avg_neighbors: float) -> float:
    """Warp cycles of the flocking calculation (the _flocking_steering
    helper), excluding gather.  Per-neighbor work scales with the mean
    neighborhood size."""
    per_neighbor = (
        costs.rsqrt_cycles  # rsqrt(d2)
        + 1 * C  # inv*inv
        + 3 * C  # scale3 contrib
        + 3 * C  # sep update
        + 3 * C  # coh update
        + 3 * C  # ali update
        + 3 * C  # forward read issue
        + 1 * C  # counter
    )
    finalize = (
        3 * C + 3 * C  # scaled_fwd + ali
        + 3 * (2 * C + costs.rsqrt_cycles + 3 * C)  # three normalizes
        + 3 * 3 * C  # three weight scales
        + 2 * 3 * C  # two adds
    )
    return avg_neighbors * per_neighbor + finalize


def simulate_cost(
    geom: LaunchGeometry,
    stats: WorkloadStats,
    *,
    local_cache: bool,
    costs: CostTable = G80_COSTS,
) -> KernelCostInputs:
    """Versions 3 (``local_cache=True``) and 4 (``False``)."""
    base = neighbor_v2_cost(geom, stats, costs)
    w = geom.warps
    extra_issue = 0.0
    extra_reads = 0
    extra_bytes = 0

    # Forward vector load at kernel entry.
    extra_issue += 3 * C * w
    extra_reads += 3 * w
    extra_bytes += 3 * UNCOALESCED_WARP_BYTES * w

    k = stats.avg_neighbors
    if local_cache:
        # v3: 4 spilled stores per kept insert + 4 spilled reads per
        # gathered neighbor.  Kept-insert fraction: everything the full
        # scan did not reject.
        keep_frac = max(1.0 - stats.full_insert_fraction * 0.5, 0.0)
        kept_events = stats.insert_events() * keep_frac  # per warp
        kept_issues = stats.insert_issues(stats.n) * keep_frac
        extra_issue += kept_issues * (4 * C + 3 * C) * w  # stores + offset
        extra_bytes += int(kept_events) * 4 * 32 * w  # per-thread stores
        gather_reads = k * 4
        extra_issue += gather_reads * C * w
        extra_reads += int(gather_reads) * w
        extra_bytes += int(gather_reads) * 32 * 32 * w
    else:
        # v4: re-read positions and recompute offset/d2 per neighbor.
        gather = k * (3 * C + 3 * C + 3 * C)
        extra_issue += gather * w
        extra_reads += int(k * 3) * w
        extra_bytes += int(k * 3 * UNCOALESCED_WARP_BYTES) * w

    # The steering computation itself + the result store.
    extra_issue += _steering_phase_cycles(costs, k) * w
    extra_reads += int(k * 3) * w  # forward reads inside steering
    extra_bytes += int(k * 3 * UNCOALESCED_WARP_BYTES) * w
    extra_issue += 3 * C * w  # st_vec3 steering_out
    extra_bytes += 3 * UNCOALESCED_WARP_BYTES * w

    return KernelCostInputs(
        blocks=base.blocks,
        threads_per_block=base.threads_per_block,
        issue_cycles=int(base.issue_cycles + extra_issue),
        global_reads=int(base.global_reads + extra_reads),
        bytes_moved=int(base.bytes_moved + extra_bytes),
        shared_bytes_per_block=base.shared_bytes_per_block,
        registers_per_thread=18,
    )


# ----------------------------------------------------------------------
# Version 6: grid-bucketed simulation substage (cupp.containers)
# ----------------------------------------------------------------------
def grid_candidates(stats: WorkloadStats) -> float:
    """Expected member-scan candidates per agent under the hash grid.

    With cell_edge = search radius the 3x3x3 neighborhood spans 27 cell
    volumes; in the cube convention of :meth:`WorkloadStats.estimate`
    (``(r/R)^3`` volume fraction) one cell holds about the in-radius
    count, so the scan touches ~``27 * in_radius_per_agent`` candidates
    — the O(n·k) replacement for the all-pairs n.
    """
    return min(float(stats.n), 27.0 * stats.in_radius_per_agent)


#: Expected linear-probe walk per directory lookup (load factor <= 1/2).
GRID_PROBE_WALK = 1.5


def simulate_grid_cost(
    geom: LaunchGeometry,
    stats: WorkloadStats,
    costs: CostTable = G80_COSTS,
) -> KernelCostInputs:
    """Version 6: the fused grid-bucketed simulate kernel.

    Mirrors :func:`repro.gpusteer.kernels_grid.simulate_grid` line by
    line: cell locate, 27 directory probes + CSR bounds, the member
    scan over ``grid_candidates`` agents, then the v4-style gather and
    steering.  Per-warp work uses the *mean* candidate count — threads
    of a warp sit in different cells, so this is the sparse-divergence
    approximation the other builders already make.
    """
    n = stats.n
    w = geom.warps
    cand = grid_candidates(stats)
    k = stats.avg_neighbors

    # Entry: my position + forward loads, r2, cell locate (3 axes of
    # divide + floor-bias + clamp).
    per_warp = (3 + 3) * C + 1 * C + (3 + 3 + 6) * C
    # Per cell of the 27: offset iadds + bounds compares, key pack,
    # probe-start hash, the probe walk (key load + 2 compares + branch
    # each), segment compare + branch, two CSR bounds loads.
    per_cell = (
        (3 + 3) * C
        + 4 * C
        + 2 * C
        + GRID_PROBE_WALK * (1 + 2 + 1) * C
        + 2 * C
        + 2 * C
    )
    per_warp += 27 * per_cell
    # Member scan: loop compare + iadd, member-id load, position load,
    # candidate test (sub3, length_squared, 2 compares + branch).
    per_warp += cand * ((1 + 1) * C + 1 * C + 3 * C + (3 + 3 + 3) * C)
    # Divergent inserts: the grid pre-filters candidates, so the
    # per-candidate in-radius probability is ~1/27, not ~m/n.
    p = min(stats.in_radius_per_agent / cand, 1.0) if cand > 0 else 0.0
    insert_issue_count = cand * (1.0 - (1.0 - p) ** 32)
    per_warp += insert_issue_count * _insert_cost_cycles(stats)
    # Result stores, the v4 recompute gather, the steering itself.
    per_warp += MAX_NEIGHBORS * (C + 2 * C)
    per_warp += k * (3 * C + 3 * C + 3 * C)
    per_warp += _steering_phase_cycles(costs, k)
    per_warp += 3 * C  # st_vec3 steering_out

    reads_per_warp = (
        6  # my position + forward
        + 27 * (GRID_PROBE_WALK + 1 + 2)  # directory keys + vals + CSR
        + cand * (1 + 3)  # member ids + candidate positions
        + k * 3  # gather position re-reads
        + k * 3  # forward reads inside steering
    )
    writes_per_warp = MAX_NEIGHBORS + 3  # result slots + steering store
    return KernelCostInputs(
        blocks=geom.blocks,
        threads_per_block=geom.threads_per_block,
        issue_cycles=int(per_warp * w),
        global_reads=int(reads_per_warp * w),
        # Scattered per-thread accesses: every read/write pays the
        # uncoalesced warp transaction, like the builders above.
        bytes_moved=int(
            (reads_per_warp + writes_per_warp) * UNCOALESCED_WARP_BYTES * w
        ),
        shared_bytes_per_block=0,
        registers_per_thread=22,
    )


# ----------------------------------------------------------------------
# Version 5: the modification kernel
# ----------------------------------------------------------------------
def modify_cost(
    geom: LaunchGeometry,
    costs: CostTable = G80_COSTS,
) -> KernelCostInputs:
    """Version 5's modification kernel (§6.2.3): straight-line vehicle
    model + draw-matrix stores, shared memory as local scratch."""
    w = geom.warps
    # Straight-line vehicle model: parameter loads (6), steering load (3),
    # state loads (7), state stores (7), matrix stores (16), ~60 cycles of
    # arithmetic issues + 3 rsqrts + a handful of branch/compare pairs.
    reads = (6 + 3 + 3 + 1 + 3) * w
    writes = (3 + 3 + 1 + 3 + 16) * w
    arith = (60 * C + 3 * costs.rsqrt_cycles + 10 * C) * w
    issue = arith + (reads + writes) * C
    bytes_moved = (reads + writes) * UNCOALESCED_WARP_BYTES
    return KernelCostInputs(
        blocks=geom.blocks,
        threads_per_block=geom.threads_per_block,
        issue_cycles=int(issue),
        global_reads=int(reads),
        bytes_moved=int(bytes_moved),
        shared_bytes_per_block=geom.threads_per_block * 12,
        registers_per_thread=16,
    )
