"""The native v6 grid twin against the all-pairs twin, element by element.

``kernels_native._grid_neighbors`` answers the keep-7 query from the
hash grid's cell directory in slices of agents; ``_neighbor_candidates``
answers it by scanning all pairs.  Both must return the same
nearest-first ``(d2, index)`` lists, so each input below compares the
two result arrays slot by slot:

* random flocks large enough that the grid query runs several slices;
* an integer lattice, where nearly every distance is tied;
* a lattice whose every pair is at the radius or beyond it;
* coordinates exactly on cell boundaries, zero and negatives included;
* agents past the 21-bit axis clamp (and past int64 once divided);
* a sparse world where most agents find nothing;
* worlds of fewer than eight agents.

A scale oracle launches the native grid kernel once over 100,000 agents
and checks a sample of its rows against a brute-force ``(d2, index)``
keep-7 over the whole flock.  A last test caps the query's traced
allocations, so the slicing keeps the working set bounded.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.backend.kernels_native import (
    GRID_SLICE_CANDIDATES,
    _cell_segments,
    _grid_neighbors,
    _neighbor_candidates,
)
from repro.cupp import Device, Kernel, Vector
from repro.cupp.containers import HashGrid
from repro.gpusteer.kernels_emu import MAX_NEIGHBORS, NO_NEIGHBOR
from repro.gpusteer.kernels_grid import find_neighbors_hash
from repro.simgpu.memory import InvalidDeviceAccess
from repro.steer import DEFAULT_PARAMS
from repro.steer.neighbors import rank_nearest

RADIUS = DEFAULT_PARAMS.search_radius
R2 = float(RADIUS * RADIUS)
ORACLE_ROWS = 256  # all-pairs rows per block: bounds the oracle's memory


def _device_grid(pos32: np.ndarray):
    """Build a HashGrid over float32 positions; return it (it owns the
    device memory) and its device twin."""
    grid = HashGrid(cell_edge=RADIUS)
    grid.build(pos32)
    return grid, grid.transform(Device(backend="native"))


def _slots(order: np.ndarray, found: np.ndarray) -> np.ndarray:
    """The result slots a kernel stores: NO_NEIGHBOR-padded to 7 columns."""
    out = np.full((order.shape[0], MAX_NEIGHBORS), NO_NEIGHBOR, np.int64)
    out[:, : order.shape[1]] = np.where(found, order, NO_NEIGHBOR)
    return out


def _all_pairs(pos: np.ndarray, m: int) -> np.ndarray:
    """``_neighbor_candidates``'s answer for threads 0..m-1, in row blocks
    so large worlds stay small in memory (same d2 association and the
    same keep-7 primitive)."""
    if m <= ORACLE_ROWS:
        return _slots(*_neighbor_candidates(pos, m, R2))
    rows = []
    for a in range(0, m, ORACLE_ROWS):
        my = pos[a : min(a + ORACLE_ROWS, m)]
        ox = my[:, None, 0] - pos[None, :, 0]
        oy = my[:, None, 1] - pos[None, :, 1]
        oz = my[:, None, 2] - pos[None, :, 2]
        d2 = (ox * ox + oy * oy) + oz * oz
        keep = d2 < R2
        keep[np.arange(my.shape[0]), np.arange(a, a + my.shape[0])] = False
        owner, j = np.nonzero(keep)
        rows.append(
            _slots(*rank_nearest(owner, d2[owner, j], j, my.shape[0], MAX_NEIGHBORS))
        )
    return np.concatenate(rows)


def _grid(pos32: np.ndarray, m: "int | None" = None) -> np.ndarray:
    pos = pos32.astype(np.float64)  # the twin's view of float32 data
    m = pos.shape[0] if m is None else m
    _grid_owner, hgrid = _device_grid(pos32)
    return _slots(*_grid_neighbors(hgrid, pos, m, R2))


def _assert_twins_agree(pos32: np.ndarray, m: "int | None" = None) -> None:
    m = pos32.shape[0] if m is None else m
    expected = _all_pairs(pos32.astype(np.float64), m)
    np.testing.assert_array_equal(_grid(pos32, m), expected)


def _flock(n: int, seed: int) -> np.ndarray:
    """A uniform cube at the pipeline's density (~80 candidates/agent)."""
    half = 0.5 * (n * 19683.0 / 84.0) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)
    return rng.uniform(-half, half, size=(n, 3)).astype(np.float32)


def test_blocked_oracle_is_the_all_pairs_twin():
    pos = _flock(600, seed=3).astype(np.float64)
    np.testing.assert_array_equal(
        _all_pairs(pos, 600), _slots(*_neighbor_candidates(pos, 600, R2))
    )


@pytest.mark.parametrize("n", [1024, 4096])
def test_random_flock_over_several_slices(n):
    pos32 = _flock(n, seed=n)
    _grid_owner, hgrid = _device_grid(pos32)
    cell_of, seg_off, _, seg_len = _cell_segments(hgrid, pos32.astype(np.float64))
    seg_end = np.concatenate(([0], np.cumsum(seg_len)))
    per_cell = seg_end[seg_off[1:]] - seg_end[seg_off[:-1]]
    assert per_cell[cell_of].sum() > GRID_SLICE_CANDIDATES  # several slices
    _assert_twins_agree(pos32)


def test_fewer_threads_than_agents():
    _assert_twins_agree(_flock(1024, seed=9), m=333)


def test_integer_lattice_mass_ties():
    # Spacing 2 inside a radius of 9: every agent has dozens of in-radius
    # neighbours at a handful of exactly equal distances, so the seventh
    # slot always splits a tie and only the index decides it.
    axis = np.arange(10, dtype=np.float32) * 2.0
    pos32 = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    pos32 = pos32.reshape(-1, 3)
    rng = np.random.default_rng(1)
    pos32 = pos32[rng.permutation(pos32.shape[0])]  # index order != cell order
    _assert_twins_agree(pos32)


def test_coordinates_on_cell_boundaries():
    # Multiples of the cell edge (0, +-9, +-18, ...) and the half-edges
    # between them, -0.0 included, so floor() sits exactly on boundaries.
    axis = np.arange(-4, 5, dtype=np.float32) * np.float32(RADIUS / 2)
    pos32 = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    pos32 = pos32.reshape(-1, 3).copy()
    pos32[0] = (-0.0, -0.0, -0.0)
    pos32[1] = (0.0, -0.0, 0.0)
    _assert_twins_agree(pos32)


def test_agents_past_the_axis_clamp():
    rng = np.random.default_rng(4)
    clamp = float(RADIUS) * (1 << 20)  # |x| past this shares a clamp cell
    clusters = [
        (2e7, 0.0, 0.0),
        (-2e7, 5.0, -3e7),
        (clamp, clamp, -clamp),
        (1e30, -1e30, 3e38),  # p / edge overflows int64
    ]
    parts = [
        (np.asarray(c) + rng.uniform(-6, 6, size=(40, 3))).astype(np.float32)
        for c in clusters
    ]
    parts.append(rng.uniform(-20, 20, size=(40, 3)).astype(np.float32))
    pos32 = np.concatenate(parts)
    pos32 = pos32[rng.permutation(pos32.shape[0])]
    assert np.isfinite(pos32).all()
    _assert_twins_agree(pos32)


def test_sparse_world():
    rng = np.random.default_rng(6)
    pos32 = rng.uniform(-5000, 5000, size=(512, 3)).astype(np.float32)
    pos32[:3] = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]  # one small group
    result = _grid(pos32)
    assert (result[:, 0] == NO_NEIGHBOR).mean() > 0.9
    _assert_twins_agree(pos32)


@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_fewer_than_eight_agents(n):
    rng = np.random.default_rng(n)
    _assert_twins_agree(rng.uniform(-4, 4, size=(n, 3)).astype(np.float32))


def test_pairs_exactly_at_the_radius_are_left_out():
    # A lattice with the radius as spacing: every d2 is exact, every
    # pair is at the radius or beyond it, and d2 < r2 keeps none.
    axis = np.arange(-3, 3, dtype=np.float32) * np.float32(RADIUS)
    pos32 = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    pos32 = pos32.reshape(-1, 3)
    assert (_grid(pos32) == NO_NEIGHBOR).all()
    _assert_twins_agree(pos32)


def test_grid_holding_agents_past_the_positions_raises():
    # Candidate coordinates come from pos[members]: a grid built over
    # more agents than the positions hold is refused up front.
    pos32 = _flock(64, seed=2)
    _grid_owner, hgrid = _device_grid(pos32)
    with pytest.raises(InvalidDeviceAccess, match="grid holds agent 63"):
        _grid_neighbors(hgrid, pos32[:32].astype(np.float64), 32, R2)


#: The scale oracle's flock (a multiple of the 32-thread blocks) and
#: how many of its agents are checked against brute force.
SCALE_AGENTS = 100_000
SCALE_SAMPLE = 1_000


def test_sampled_scale_oracle_at_100k_agents():
    n = SCALE_AGENTS
    pos32 = _flock(n, seed=11)
    grid = HashGrid(cell_edge=RADIUS)
    grid.build(pos32)
    results = Vector(np.full(MAX_NEIGHBORS * n, NO_NEIGHBOR, np.int32), np.int32)
    device = Device(backend="native")
    try:
        Kernel(find_neighbors_hash, n // 32, 32)(
            device, grid, Vector(pos32.reshape(-1)), RADIUS, results
        )
        got = results.to_numpy().reshape(n, MAX_NEIGHBORS)
    finally:
        device.close()

    pos = pos32.astype(np.float64)
    sample = np.random.default_rng(11).choice(n, SCALE_SAMPLE, replace=False)
    everyone = np.arange(n)
    for rows in np.array_split(sample, SCALE_SAMPLE // 25):
        # offset = my_pos - other_pos, d2 in dot3's order, over all n.
        o = [pos[rows, None, c] - pos[None, :, c] for c in range(3)]
        d2 = (o[0] * o[0] + o[1] * o[1]) + o[2] * o[2]
        for r, i in enumerate(rows):
            j = np.flatnonzero((d2[r] < R2) & (everyone != i))
            nearest = j[np.lexsort((j, d2[r, j]))][:MAX_NEIGHBORS]
            expected = np.full(MAX_NEIGHBORS, NO_NEIGHBOR)
            expected[: nearest.size] = nearest
            np.testing.assert_array_equal(got[i], expected, err_msg=f"agent {i}")
    assert (got[sample] != NO_NEIGHBOR).sum() > 5 * SCALE_SAMPLE  # not vacuous


def test_query_working_set_is_bounded():
    pos32 = _flock(4096, seed=12)
    _grid_owner, hgrid = _device_grid(pos32)
    pos = pos32.astype(np.float64)
    tracemalloc.start()
    try:
        _grid_neighbors(hgrid, pos, pos.shape[0], R2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"grid query peaked at {peak / 1e6:.2f} MB"
