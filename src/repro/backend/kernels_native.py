"""Vectorized numpy twins of the gpusteer emulator kernels.

Each function here is the *same program* as its emulator counterpart in
:mod:`repro.gpusteer.kernels_emu`, re-expressed as numpy array code over
all threads at once.  The conformance contract is bit-identity, which
follows from mirroring the emulator's numerics exactly:

* the emulator returns every load as a Python float — the float64 value
  of the float32-rounded element — so twins upcast loads with
  ``astype(float64)``;
* all intermediate arithmetic is float64 **in the emulator's operation
  order** (numpy elementwise binary ops in the same association produce
  the same IEEE results as scalar Python);
* stores round to float32 exactly like assigning into the float32
  backing array;
* reductions that the emulator performs sequentially (the per-neighbor
  steering accumulation) are kept slot-sequential here — vectorized only
  across *agents* — because numpy's pairwise summation would re-associate
  the adds.

Tie-breaking is exact, not accepted-divergent: the emulator's streaming
keep-7 insert (listing 5.2) compares full ``(d2, index)`` pairs, which
makes its kept set *the* seven lexicographically smallest pairs
regardless of insertion order — identical to the one ``(d2, index)``
ranking every twin here uses (``steer.neighbors.rank_nearest``) even
when tied distances straddle the seventh slot, and identical across
candidate traversal orders (all-pairs scan, shared tiles, grid
buckets).  The conformance suite asserts this with
manufactured exact ties.
"""

from __future__ import annotations

import numpy as np

from repro.backend.native import native_kernel
from repro.cupp.containers.flatmap import EMPTY_KEY
from repro.cupp.containers.hashgrid import (
    _AXIS_MAX,
    CELL_KEY_BITS,
    cell_coords,
    pack_cell_key,
)
from repro.gpusteer.kernels_emu import (
    MAX_NEIGHBORS,
    NO_NEIGHBOR,
    find_neighbors_v1,
    find_neighbors_v2,
    modify_kernel,
    simulate_v3,
    simulate_v4,
)
from repro.gpusteer.kernels_grid import find_neighbors_hash, simulate_grid
from repro.simgpu.memory import InvalidDeviceAccess
from repro.steer.neighbors import rank_nearest

F64 = np.float64


def _threads(grid_dim, block_dim) -> int:
    return grid_dim.volume * block_dim.volume


def _load3(vec, count: int) -> np.ndarray:
    """Load a packed float3 array as (count, 3) float64 — the emulator's
    view of float32 data after ``ld``."""
    raw = vec.view._raw()
    if 3 * count > raw.shape[0]:
        raise InvalidDeviceAccess(
            f"kernel reads {3 * count} elements from a vector of {raw.shape[0]}"
        )
    return raw[: 3 * count].astype(F64).reshape(count, 3)


def _rsqrt(x: np.ndarray) -> np.ndarray:
    """devicelib.rsqrt: ``1/sqrt(x)`` guarded to 0 for ``x <= 0``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, 1.0 / np.sqrt(x), 0.0)


def _length_squared3(v: np.ndarray) -> np.ndarray:
    """devicelib.length_squared3's association: ``(x*x + y*y) + z*z``."""
    return (v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]) + v[:, 2] * v[:, 2]


def _normalize3(v: np.ndarray) -> np.ndarray:
    """devicelib.normalize3: scale by rsqrt of the squared length."""
    return v * _rsqrt(_length_squared3(v))[:, None]


def _neighbor_candidates(pos: np.ndarray, m: int, r2: float):
    """The v1/v2 candidate scan for threads 0..m-1 over all n agents.

    Returns ``(order, found)``: per thread, up to 7 neighbor indexes in
    the canonical nearest-first (d2, index) order the emulator's
    ``_write_results``/gather produce, and the validity mask.
    """
    n = pos.shape[0]
    my = pos[:m]
    # offset = my_pos - other_pos, per component; d2 in dot3's order.
    ox = my[:, None, 0] - pos[None, :, 0]
    oy = my[:, None, 1] - pos[None, :, 1]
    oz = my[:, None, 2] - pos[None, :, 2]
    d2 = (ox * ox + oy * oy) + oz * oz
    in_radius = (d2 < r2) & (np.arange(n)[None, :] != np.arange(m)[:, None])
    owner, j = np.nonzero(in_radius)
    return rank_nearest(owner, d2[owner, j], j, m, MAX_NEIGHBORS)


def _steering_from_neighbors(
    pos: np.ndarray,
    fwd: np.ndarray,
    my_pos: np.ndarray,
    my_fwd: np.ndarray,
    order: np.ndarray,
    found: np.ndarray,
    w_sep: float,
    w_ali: float,
    w_coh: float,
) -> np.ndarray:
    """_flocking_steering over the nearest-first gather ``(order, found)``,
    slot-sequential (vectorized across agents; the per-neighbor adds must
    stay in the emulator's sequential order).  Shared by the all-pairs and
    grid simulate twins — the steering math is identical, only the
    candidate enumeration differs."""
    m = my_pos.shape[0]
    sep = np.zeros((m, 3), dtype=F64)
    coh = np.zeros((m, 3), dtype=F64)
    ali_sum = np.zeros((m, 3), dtype=F64)
    count = np.zeros(m, dtype=np.int64)
    for slot in range(order.shape[1]):
        j = order[:, slot]
        valid = found[:, slot]
        offset = pos[j] - my_pos  # v4's recompute: neighbor - my
        d2 = _length_squared3(offset)
        inv = _rsqrt(d2)
        contrib = offset * (inv * inv)[:, None]
        vcol = valid[:, None]
        # Masked no-ops are exact: x - (+0) == x and the accumulators
        # never hold -0 (sums of +0 addends), so x + (+0) == x too.
        sep = sep - np.where(vcol, contrib, 0.0)
        coh = coh + np.where(vcol, offset, 0.0)
        ali_sum = ali_sum + np.where(vcol, fwd[j], 0.0)
        count = count + valid

    scaled_fwd = my_fwd * count.astype(F64)[:, None]
    ali = ali_sum - scaled_fwd
    a = _normalize3(sep) * float(w_sep)
    b = _normalize3(ali) * float(w_ali)
    c = _normalize3(coh) * float(w_coh)
    return (a + b) + c


def _store_results(results, order: np.ndarray, found: np.ndarray, m: int) -> None:
    """Store the gather as result slots, NO_NEIGHBOR where none was found."""
    out = np.where(found, order, NO_NEIGHBOR)
    results.view._raw()[: m * MAX_NEIGHBORS] = out.reshape(-1)


def _find_neighbors(device, grid_dim, block_dim, args) -> None:
    positions, search_radius, results = args
    m = _threads(grid_dim, block_dim)
    n = len(positions) // 3
    if m > n:
        # Thread i >= n would read past the positions array — the same
        # out-of-range access the emulator faults on.
        raise InvalidDeviceAccess(f"{m} threads over {n} agents")
    pos = _load3(positions, n)
    r2 = float(search_radius * search_radius)
    order, found = _neighbor_candidates(pos, m, r2)
    _store_results(results, order, found, m)


# v1 and v2 visit the identical candidate set (the tile staging only
# changes *where* the reads come from), so they share one twin.
native_kernel(find_neighbors_v1.impl)(_find_neighbors)
native_kernel(find_neighbors_v2.impl)(_find_neighbors)


def _simulate(device, grid_dim, block_dim, args) -> None:
    positions, forwards, search_radius, w_sep, w_ali, w_coh, steering_out = args
    m = _threads(grid_dim, block_dim)
    n = len(positions) // 3
    if m > n:
        raise InvalidDeviceAccess(f"{m} threads over {n} agents")
    pos = _load3(positions, n)
    fwd = _load3(forwards, n)
    my_pos = pos[:m]
    my_fwd = fwd[:m]
    r2 = float(search_radius * search_radius)
    order, found = _neighbor_candidates(pos, m, r2)
    steering = _steering_from_neighbors(
        pos, fwd, my_pos, my_fwd, order, found, w_sep, w_ali, w_coh
    )
    out = steering_out.view._raw()
    out[: 3 * m] = steering.reshape(-1)  # float32 store rounds here


# v3 (local-memory cache) and v4 (recompute) produce identical values —
# the cached d2/offset are bit-equal to the recomputation from the same
# inputs — so they also share one twin.
native_kernel(simulate_v3.impl)(_simulate)
native_kernel(simulate_v4.impl)(_simulate)


def _modify(device, grid_dim, block_dim, args) -> None:
    (
        steering,
        positions,
        forwards,
        speeds,
        smoothed,
        params_packed,
        step_index,
        matrices_out,
    ) = args
    m = _threads(grid_dim, block_dim)
    params = params_packed.view._raw().astype(F64)
    max_force, max_speed, mass, dt, smoothing, world_r = (
        float(params[k]) for k in range(6)
    )

    steer = _load3(steering, m)
    f2 = _length_squared3(steer)
    over_f = f2 > max_force * max_force
    inv_f = _rsqrt(f2)
    steer = np.where(over_f[:, None], steer * (max_force * inv_f)[:, None], steer)
    accel = steer / mass

    if step_index == 0:
        smooth = accel
    else:
        old = _load3(smoothed, m)
        smooth = old * (1.0 - smoothing) + accel * smoothing
    sm_raw = smoothed.view._raw()
    sm_raw[: 3 * m] = smooth.reshape(-1)
    # The emulator round-trips the smoothed accel through a float32
    # shared-memory scratch before using it — replicate the rounding.
    smooth32 = smooth.astype(np.float32).astype(F64)

    fwd = _load3(forwards, m)
    speed = speeds.view._raw()[:m].astype(F64)
    vel_base = fwd * speed[:, None]
    delta = smooth32 * dt
    velocity = vel_base + delta

    v2 = _length_squared3(velocity)
    over_v = v2 > max_speed * max_speed
    inv_v = _rsqrt(v2)
    velocity = np.where(
        over_v[:, None], velocity * (max_speed * inv_v)[:, None], velocity
    )
    new_speed = np.where(over_v, max_speed, v2 * inv_v)

    pos = _load3(positions, m)
    pos = pos + velocity * dt
    p2 = _length_squared3(pos)
    pos = np.where((p2 > world_r * world_r)[:, None], -pos, pos)
    positions.view._raw()[: 3 * m] = pos.reshape(-1)

    moving = new_speed > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        fwd = np.where(moving[:, None], velocity / new_speed[:, None], fwd)
    forwards.view._raw()[: 3 * m] = fwd.reshape(-1)
    speeds.view._raw()[:m] = new_speed

    # Draw matrix from the *unrounded* register fwd/pos (the stores above
    # rounded the arrays, not the registers).
    hint_y = np.abs(fwd[:, 1]) < 0.99
    up_hint = np.where(
        hint_y[:, None],
        np.array([0.0, 1.0, 0.0], dtype=F64),
        np.array([1.0, 0.0, 0.0], dtype=F64),
    )

    def _cross(u, v):
        return np.stack(
            [
                u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
                u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0],
            ],
            axis=1,
        )

    side = _normalize3(_cross(fwd, up_hint))
    up = _cross(side, fwd)

    mat = np.empty((m, 16), dtype=F64)
    mat[:, 0:3] = side
    mat[:, 3] = 0.0
    mat[:, 4:7] = up
    mat[:, 7] = 0.0
    mat[:, 8:11] = fwd
    mat[:, 11] = 0.0
    mat[:, 12:15] = pos
    mat[:, 15] = 1.0
    matrices_out.view._raw()[: 16 * m] = mat.reshape(-1)


native_kernel(modify_kernel.impl)(_modify)


# ----------------------------------------------------------------------
# Version 6: grid-bucketed neighbor search (cupp.containers hash grid).
# The twins below enumerate candidates from the grid's cell directory
# instead of scanning all pairs; because cell_edge >= search_radius the
# 27-cell neighborhood is a superset of the in-radius set, so selecting
# the smallest-(d2, index) seven over it is bit-identical to the
# all-pairs selection.  The directory is looked up once per distinct
# owner cell, not once per agent; a slice of agents then expands its
# cells' segments, reads candidate coordinates from one cell-sorted
# copy of the positions and ranks its survivors with one rank_nearest
# sort (a packed integer key at a slice's usual size).
# ----------------------------------------------------------------------


#: The candidate budget of one slice of the grid query.  A slice is a
#: run of consecutive agents; it expands fewer candidates than this
#: plus its first agent's own 27-cell count, and the directory lookup
#: runs over blocks of this many cell probes, which bounds the query's
#: working set at a few MB plus O(n) index arrays, however dense or
#: sparse the flock is.
GRID_SLICE_CANDIDATES = 1 << 14

#: The 27 neighbor-cell offsets, x-major like ``_grid_scan``'s walk, as
#: packed-key deltas: for an in-range neighbor cell, ``pack(c + d) ==
#: pack(c) + delta(d)`` because no axis field over- or underflows.
_AXIS_STEPS = np.array([-1, 0, 1], dtype=np.int64)
_KEY_DELTAS = (
    (_AXIS_STEPS[:, None, None] << (2 * CELL_KEY_BITS))
    + (_AXIS_STEPS[None, :, None] << CELL_KEY_BITS)
    + _AXIS_STEPS[None, None, :]
).reshape(-1)
_CELLS = _KEY_DELTAS.size


def _cell_segments(hgrid, my_pos: np.ndarray):
    """``_grid_scan``'s directory walk, once per occupied owner cell.

    Owners in one cell share its 27-cell neighborhood, so the walk runs
    over the distinct cells of ``my_pos`` (found from the positions, as
    the kernel finds them).  Neighbor cells with an axis out of range
    are skipped, and the flat map's probe becomes a ``searchsorted``
    over its sorted occupied keys.  Returns ``(cell_of, seg_off,
    seg_start, seg_len)``: each owner's cell number, and cell ``c``'s
    occupied neighbor segments as CSR ``(start, length)`` pairs at
    ``seg_off[c]:seg_off[c + 1]``, x-major.
    """
    keys_raw = hgrid.cells.keys._raw()
    occupied = keys_raw != EMPTY_KEY
    # Packed keys use 63 bits, so they are exact as int64.
    dir_keys = keys_raw[occupied].astype(np.int64)
    dir_segs = hgrid.cells.vals._raw()[occupied]
    by_key = np.argsort(dir_keys)
    dir_keys = dir_keys[by_key]
    dir_segs = dir_segs[by_key]
    starts = hgrid.starts._raw()

    coords = cell_coords(my_pos, hgrid.cell_edge)
    cell_keys, first, cell_of = np.unique(
        pack_cell_key(*coords.T), return_index=True, return_inverse=True
    )
    coords = coords[first]
    per_cell = np.zeros(cell_keys.size, dtype=np.int64)
    seg_start, seg_len = [], []
    block = GRID_SLICE_CANDIDATES // _CELLS
    for a in range(0, cell_keys.size if dir_keys.size else 0, block):
        steps = coords[a : a + block, :, None] + _AXIS_STEPS  # (cell, axis, step)
        axis_ok = (steps >= 0) & (steps <= _AXIS_MAX)
        hit = (
            axis_ok[:, 0, :, None, None]
            & axis_ok[:, 1, None, :, None]
            & axis_ok[:, 2, None, None, :]
        ).reshape(-1, _CELLS)
        keys = cell_keys[a : a + block, None] + _KEY_DELTAS
        slot = np.searchsorted(dir_keys, keys)
        np.minimum(slot, dir_keys.size - 1, out=slot)
        hit &= dir_keys[slot] == keys
        seg = dir_segs[slot[hit]]
        seg_start.append(starts[seg])
        seg_len.append(starts[seg + 1] - starts[seg])
        per_cell[a : a + block] = hit.sum(axis=1)
    seg_off = np.zeros(cell_keys.size + 1, dtype=np.int64)
    np.cumsum(per_cell, out=seg_off[1:])
    empty = np.zeros(0, dtype=np.int32)
    return (
        cell_of,
        seg_off,
        np.concatenate(seg_start) if seg_start else empty,
        np.concatenate(seg_len) if seg_len else empty,
    )


def _runs(first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated index runs ``first[i] .. first[i] + lens[i] - 1``."""
    idx = np.repeat(first - (np.cumsum(lens) - lens), lens)
    idx += np.arange(idx.size)
    return idx


def _grid_neighbors(hgrid, pos: np.ndarray, m: int, r2: float):
    """The grid query pass for threads 0..m-1: per agent, the nearest-7
    ``(d2, index)`` selection over its 3x3x3 cell neighborhood.

    Returns ``(order, found)`` shaped (m, MAX_NEIGHBORS) — the same
    canonical nearest-first layout ``_neighbor_candidates`` produces.
    Array code over slices of agents: each slice expands its agents'
    cells' CSR segments into one flat candidate list, filters it by
    radius and self, and ranks every owner's survivors with one sort.
    The kept set is the seven smallest ``(d2, index)`` pairs, so neither
    the slicing nor the candidate order can change it.

    Candidate coordinates come from one cell-sorted copy of the
    positions, ``pos[members]``, where every segment is a contiguous
    run; a grid holding an agent the positions lack raises
    :class:`InvalidDeviceAccess` up front.
    """
    starts = hgrid.starts._raw()
    members = hgrid.members._raw()[: int(starts[-1])]
    n = pos.shape[0]
    if members.size and int(members.max()) >= n:
        raise InvalidDeviceAccess(
            f"the grid holds agent {int(members.max())}; positions hold {n}"
        )
    cell_cols = pos[members].T.copy()  # contiguous x, y, z, cell-sorted
    cell_of, seg_off, seg_start, seg_len = _cell_segments(hgrid, pos[:m])
    seg_end = np.zeros(seg_len.size + 1, dtype=np.int64)
    np.cumsum(seg_len, out=seg_end[1:])
    count = (seg_end[seg_off[1:]] - seg_end[seg_off[:-1]])[cell_of]
    # Cut a new slice wherever the running candidate count passes
    # another multiple of the budget.
    budget_mark = np.cumsum(count) // GRID_SLICE_CANDIDATES
    cuts = np.flatnonzero(np.diff(budget_mark)) + 1
    bounds = np.concatenate(([0], cuts, [m]))

    order = np.zeros((m, MAX_NEIGHBORS), dtype=np.int64)
    found = np.zeros((m, MAX_NEIGHBORS), dtype=bool)
    for a, b in zip(bounds[:-1], bounds[1:]):
        cells = cell_of[a:b]
        seg = _runs(seg_off[cells], seg_off[cells + 1] - seg_off[cells])
        slot = _runs(seg_start[seg], seg_len[seg])
        j = members[slot]
        cnt = count[a:b]
        owner = np.repeat(np.arange(a, b), cnt)
        # offset = my_pos - other_pos; d2 in dot3's order.
        ox, oy, oz = (
            np.repeat(pos[a:b, c], cnt) - cell_cols[c][slot] for c in range(3)
        )
        d2 = (ox * ox + oy * oy) + oz * oz
        keep = np.flatnonzero((d2 < r2) & (j != owner))
        order[a:b], found[a:b] = rank_nearest(
            owner[keep] - a, d2[keep], j[keep], b - a, MAX_NEIGHBORS
        )
    return order, found


def _find_neighbors_hash(device, grid_dim, block_dim, args) -> None:
    hgrid, positions, search_radius, results = args
    m = _threads(grid_dim, block_dim)
    n = len(positions) // 3
    if m > n:
        raise InvalidDeviceAccess(f"{m} threads over {n} agents")
    pos = _load3(positions, n)
    r2 = float(search_radius * search_radius)
    order, found = _grid_neighbors(hgrid, pos, m, r2)
    _store_results(results, order, found, m)


native_kernel(find_neighbors_hash.impl)(_find_neighbors_hash)


def _simulate_grid(device, grid_dim, block_dim, args) -> None:
    (
        hgrid,
        positions,
        forwards,
        search_radius,
        w_sep,
        w_ali,
        w_coh,
        steering_out,
        results,
    ) = args
    m = _threads(grid_dim, block_dim)
    n = len(positions) // 3
    if m > n:
        raise InvalidDeviceAccess(f"{m} threads over {n} agents")
    pos = _load3(positions, n)
    fwd = _load3(forwards, n)
    r2 = float(search_radius * search_radius)
    order, found = _grid_neighbors(hgrid, pos, m, r2)
    _store_results(results, order, found, m)
    steering = _steering_from_neighbors(
        pos, fwd, pos[:m], fwd[:m], order, found, w_sep, w_ali, w_coh
    )
    steering_out.view._raw()[: 3 * m] = steering.reshape(-1)


native_kernel(simulate_grid.impl)(_simulate_grid)
