"""Version 6: grid-bucketed neighbor search over ``cupp.containers``.

The chapter-7 sketch, industrialized: agents are bucketed into a
:class:`~repro.cupp.containers.hashgrid.HashGrid` on the host (O(n)
counting sort, "fast construction"), then the device queries only the
27 cells around each agent ("fast neighborhood lookup") — O(n·k)
total instead of the all-pairs O(n²) of versions 1-5.

Two kernels:

* :func:`find_neighbors_hash` — the standalone query pass (the grid
  twin of ``find_neighbors_v1/v2``): probe the cell directory, scan the
  member segments, keep the 7 nearest, store the result slots.
* :func:`simulate_grid` — the fused v6 kernel (the grid twin of
  ``simulate_v4``): the same query, then the flocking steering computed
  in-place from recomputed neighbor data, plus the result slots so the
  neighbor sets stay observable.

Cell edge = search radius guarantees the 3x3x3 neighborhood contains
every agent within the radius, so both kernels return *bit-identical*
neighbor sets to the all-pairs kernels — including under tied
distances, because ``_insert_neighbor`` selects the smallest seven
``(d2, index)`` pairs regardless of traversal order.
"""

from __future__ import annotations

from repro.cuda.qualifiers import global_
from repro.cupp.containers.flatmap import device_map_get
from repro.cupp.containers.hashgrid import (
    _AXIS_MAX,
    CELL_KEY_BITS,
    DeviceHashGrid,
    axis_cell,
)
from repro.cupp.traits import ConstRef, Ref
from repro.cupp.vector import DeviceVector
from repro.simgpu import devicelib as dl
from repro.simgpu.costs import OpClass
from repro.simgpu.isa import bundle, ld, op, reconv

from repro.gpusteer.kernels_emu import (
    _CANDIDATE_TEST,
    _GUARD,
    _LOOP,
    _RECOMPUTE,
    _candidate_test,
    _flocking_steering,
    _insert_neighbor,
    _write_results,
)

# Interned multi-issue events and straight-line runs of the grid query
# (built once, see repro.simgpu.isa).
_IADD4 = dl.iadd(4)
#: Locate my cell: float divide, floor, bias/clamp per axis.
_LOCATE = bundle(dl.FMUL3, dl.FADD3, op(OpClass.MINMAX, 6))
#: A neighbor cell's coordinates and their bounds test.
_CELL = bundle(dl.iadd(3), dl.compare(3))


def _grid_scan(grid: DeviceHashGrid, positions_view, my_pos, r2, i):
    """The shared query pass: keep-7 over the 27-cell neighborhood.

    Yields instruction events; returns the ``best`` list of (d2, index)
    pairs.  Candidate enumeration order (cells x-major, members in
    stable index order) matches ``HashGrid.candidates`` — and with the
    lexicographic insert the kept set does not depend on it anyway.
    """
    # Locate my cell (float64 divide + floor + bias/clamp per axis).
    yield _LOCATE
    cx = axis_cell(my_pos[0], grid.cell_edge)
    cy = axis_cell(my_pos[1], grid.cell_edge)
    cz = axis_cell(my_pos[2], grid.cell_edge)

    best: list = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                yield _CELL
                x, y, z = cx + dx, cy + dy, cz + dz
                if not (
                    0 <= x <= _AXIS_MAX
                    and 0 <= y <= _AXIS_MAX
                    and 0 <= z <= _AXIS_MAX
                ):
                    yield reconv()
                    continue
                # Pack the neighbor cell key (two shifts + two ors).
                yield _IADD4
                key = (
                    (x << (2 * CELL_KEY_BITS)) | (y << CELL_KEY_BITS) | z
                )
                segment = yield from device_map_get(grid.cells, key)
                yield _GUARD
                if segment < 0:
                    yield reconv()
                    continue
                start = yield ld(grid.starts, segment)
                stop = yield ld(grid.starts, segment + 1)
                for slot in range(start, stop):
                    yield _LOOP
                    j = yield ld(grid.members, slot)
                    other = yield from dl.ld_vec3(positions_view, j)
                    yield _CANDIDATE_TEST
                    in_radius, d2 = _candidate_test(my_pos, other, r2, j, i)
                    if in_radius:
                        yield from _insert_neighbor(best, d2, j)
                    yield reconv()
                yield reconv()
    return best


@global_
def find_neighbors_hash(
    ctx,
    grid: ConstRef[DeviceHashGrid],
    positions: ConstRef[DeviceVector],
    search_radius: float,
    results: Ref[DeviceVector],
):
    """The standalone grid query pass: listing 5.2's semantics over the
    hash grid's 27-cell neighborhood."""
    i = ctx.global_thread_id
    my_pos = yield from dl.ld_vec3(positions.view, i)
    yield dl.FMUL
    r2 = search_radius * search_radius
    best = yield from _grid_scan(grid, positions.view, my_pos, r2, i)
    yield from _write_results(results.view, i, best)


@global_
def simulate_grid(
    ctx,
    grid: ConstRef[DeviceHashGrid],
    positions: ConstRef[DeviceVector],
    forwards: ConstRef[DeviceVector],
    search_radius: float,
    w_sep: float,
    w_ali: float,
    w_coh: float,
    steering_out: Ref[DeviceVector],
    results: Ref[DeviceVector],
):
    """Version 6: the full simulation substage with grid-bucketed
    neighbor search — v4's recompute gather and steering, fed by the
    hash grid instead of the all-pairs tile scan."""
    i = ctx.global_thread_id
    my_pos = yield from dl.ld_vec3(positions.view, i)
    my_fwd = yield from dl.ld_vec3(forwards.view, i)
    yield dl.FMUL
    r2 = search_radius * search_radius
    best = yield from _grid_scan(grid, positions.view, my_pos, r2, i)
    yield from _write_results(results.view, i, best)

    # Gather per-neighbor (d2, offset) in canonical nearest-first order,
    # recomputing from the position data (the v4 strategy that won).
    order = sorted(range(len(best)), key=lambda k: best[k])
    gathered = []
    for slot in order:
        _d2, j = best[slot]
        npos = yield from dl.ld_vec3(positions.view, j)
        yield _RECOMPUTE
        offset = dl.vsub3(npos, my_pos)
        gathered.append((dl.vlength_squared3(offset), j, offset))
    yield reconv()  # gather loop length differs per thread
    steering = yield from _flocking_steering(
        my_fwd, gathered, forwards.view, (w_sep, w_ali, w_coh)
    )
    yield from dl.st_vec3(steering_out.view, i, steering)
