"""The Boids device kernels, written for the SIMT emulator (paper ch. 6).

These are the paper's kernels transcribed into the simulator's
event-generator dialect.  Data layout matches the GPU port: each agent
attribute is a flat float32 array (``positions[3*i .. 3*i+2]`` is agent
``i``'s position), neighbor results are ``7`` int32 slots per agent, and
agent count must be a multiple of ``threads_per_block`` (§6.2.1 — the
paper's kernels have the same restriction, which keeps every barrier
uniform across the block).

Kernel inventory (Table 6.1):

=======  ===========================================================
version  device code
=======  ===========================================================
1        ``find_neighbors_v1`` — naive neighbor search, global memory
2        ``find_neighbors_v2`` — neighbor search with shared-memory tile
3        ``simulate_v3`` — full simulation substage, local-memory cache
4        ``simulate_v4`` — full simulation substage, recompute
5        v4's simulate + ``modify_kernel`` (modification on device,
         shared memory as extra thread-local storage)
=======  ===========================================================
"""

from __future__ import annotations

import numpy as np

from repro.cuda.qualifiers import global_
from repro.cupp.traits import ConstRef, Ref
from repro.cupp.vector import DeviceVector
from repro.simgpu import devicelib as dl
from repro.simgpu.costs import OpClass
from repro.simgpu.isa import ld, op, reconv, st, sync

#: Neighbor-slot count (§5.2.1: "We only consider the 7 nearest").
MAX_NEIGHBORS = 7

NO_NEIGHBOR = -1

# Interned multi-issue events these kernels yield besides devicelib's
# (see repro.simgpu.isa: built once here, not per instruction).
_COMPARE2 = dl.compare(2)
_IADD2 = dl.iadd(2)
_FMUL4 = op(OpClass.FMUL, 4)
_FMUL6 = op(OpClass.FMUL, 6)


# ----------------------------------------------------------------------
# building blocks
# ----------------------------------------------------------------------
def _insert_neighbor(best: list, d2: float, j: int):
    """The listing 5.2 keep-7-nearest insert, with instruction events.

    ``best`` is a register-resident list of (d2, index) pairs (registers
    cost nothing, Table 2.2); the *instructions* — compares, the max-scan
    when full — are what we account.

    Comparisons are lexicographic on ``(d2, index)``, which makes the
    kept set *the* seven smallest (d2, index) pairs regardless of
    insertion order — candidates may arrive in any traversal order (the
    all-pairs scan, the shared-memory tiles, a grid's bucket-by-bucket
    enumeration) and every engine converges on the identical neighbor
    set, ties included.  Tied distances are measure-zero for continuous
    random positions, so the index tiebreak changes no instruction
    count and no non-degenerate result.
    """
    yield dl.COMPARE  # neighbors_found < 7 ?
    yield dl.BRANCH
    if len(best) < MAX_NEIGHBORS:
        best.append((d2, j))
        yield dl.IADD  # ++neighbors_found
    else:
        # Scan the 7 slots for the farthest stored neighbor.
        worst = 0
        for k in range(1, MAX_NEIGHBORS):
            yield dl.COMPARE
            if best[k] > best[worst]:
                worst = k
        yield dl.COMPARE  # (d2, index)(worst) > (d2, index)(new) ?
        yield dl.BRANCH
        if best[worst] > (d2, j):
            best[worst] = (d2, j)


def _candidate_test(my_pos, other_pos, r2: float, j: int, my_index: int):
    """Listing 6.3's per-candidate test: offset, d2, radius + self check.

    Returns (in_radius, d2).
    """
    offset = yield from dl.sub3(my_pos, other_pos)
    d2 = yield from dl.length_squared3(offset)
    yield _COMPARE2  # d2 < r2 && global_index != my_index
    yield dl.BRANCH
    return (d2 < r2 and j != my_index), d2


def _flocking_steering(my_fwd, gathered, forwards_view, weights):
    """Device-side listing 5.1 from gathered neighbor data.

    ``gathered`` holds (d2, index, offset) triples already in registers
    (offset = neighbor_position - my_position).  Returns the weighted
    steering vector.
    """
    sep = dl.ZERO3
    coh = dl.ZERO3
    ali_sum = dl.ZERO3
    count = 0
    for d2, j, offset in gathered:
        inv = yield from dl.rsqrt(d2)
        # separation -= offset.normalize() / length  == offset / d2
        yield dl.FMUL  # inv * inv
        contrib = yield from dl.scale3(offset, inv * inv)
        sep = yield from dl.sub3(sep, contrib)
        coh = yield from dl.add3(coh, offset)
        fwd_j = yield from dl.ld_vec3(forwards_view, j)
        ali_sum = yield from dl.add3(ali_sum, fwd_j)
        count += 1
        yield dl.IADD
    yield reconv()  # neighbor counts differ per thread; re-join here
    scaled_fwd = yield from dl.scale3(my_fwd, float(count))
    ali = yield from dl.sub3(ali_sum, scaled_fwd)

    w_sep, w_ali, w_coh = weights
    sep_n = yield from dl.normalize3(sep)
    ali_n = yield from dl.normalize3(ali)
    coh_n = yield from dl.normalize3(coh)
    a = yield from dl.scale3(sep_n, w_sep)
    b = yield from dl.scale3(ali_n, w_ali)
    c = yield from dl.scale3(coh_n, w_coh)
    ab = yield from dl.add3(a, b)
    return (yield from dl.add3(ab, c))


def _write_results(results_view, i: int, best: list):
    """Store the found neighbor indexes (7 int32 per agent), sorted by
    distance so every engine reports the identical canonical order."""
    best = sorted(best)
    for slot in range(MAX_NEIGHBORS):
        value = best[slot][1] if slot < len(best) else NO_NEIGHBOR
        yield st(results_view, i * MAX_NEIGHBORS + slot, value)


# ----------------------------------------------------------------------
# Version 1: naive neighbor search (§6.2.1, "hardly more than copy and
# paste of the CPU code") — every thread reads every position from
# global memory; same-address reads do not coalesce.
# ----------------------------------------------------------------------
@global_
def find_neighbors_v1(
    ctx,
    positions: ConstRef[DeviceVector],
    search_radius: float,
    results: Ref[DeviceVector],
):
    """Listing 5.2 on the device, reading every candidate from global
    memory — same-address warp reads never coalesce (version 1)."""
    i = ctx.global_thread_id
    n = len(positions) // 3
    my_pos = yield from dl.ld_vec3(positions.view, i)
    yield dl.FMUL  # r2 = search_radius * search_radius
    r2 = search_radius * search_radius
    best: list = []
    for j in range(n):
        yield dl.COMPARE  # loop condition
        yield dl.IADD  # ++j
        other = yield from dl.ld_vec3(positions.view, j)
        in_radius, d2 = yield from _candidate_test(my_pos, other, r2, j, i)
        if in_radius:
            yield from _insert_neighbor(best, d2, j)
        yield reconv()  # post-dominator of the insert branch
    yield from _write_results(results.view, i, best)


# ----------------------------------------------------------------------
# Version 2: shared-memory tiling (listings 6.2 + 6.3) — each thread
# stages one position per tile, the block scans the tile from shared
# memory.  Global reads per block drop from threads_per_block * n to n.
# ----------------------------------------------------------------------
@global_
def find_neighbors_v2(
    ctx,
    positions: ConstRef[DeviceVector],
    search_radius: float,
    results: Ref[DeviceVector],
):
    """Listings 6.2/6.3: the shared-memory tiled neighbor search
    (version 2) — one staged global read per tile element per block."""
    i = ctx.global_thread_id
    tpb = ctx.block_dim.x
    n = len(positions) // 3
    s_positions = ctx.shared_array("s_positions", np.float32, tpb * 3)

    my_pos = yield from dl.ld_vec3(positions.view, i)
    yield dl.FMUL
    r2 = search_radius * search_radius
    best: list = []
    for base in range(0, n, tpb):
        yield dl.COMPARE
        yield dl.IADD
        # Each thread stages one element of the tile (listing 6.2 line 8).
        staged = yield from dl.ld_vec3(positions.view, base + ctx.thread_idx.x)
        yield from dl.sts_vec3(s_positions, ctx.thread_idx.x, staged)
        yield sync()
        for t in range(tpb):
            yield dl.COMPARE
            yield dl.IADD
            j = base + t
            yield dl.IADD  # global_index = base + i (listing 6.3)
            other = yield from dl.lds_vec3(s_positions, t)
            in_radius, d2 = yield from _candidate_test(my_pos, other, r2, j, i)
            if in_radius:
                yield from _insert_neighbor(best, d2, j)
            yield reconv()  # post-dominator of the insert branch
        yield sync()
    yield from _write_results(results.view, i, best)


# ----------------------------------------------------------------------
# Versions 3 & 4: the full simulation substage on the device (§6.2.2).
# Both do the v2 neighbor search, then compute the flocking steering
# vector.  v3 caches per-neighbor values (distance + offset) in *local*
# memory, which spills to device memory; v4 recomputes them instead and
# turned out faster on the G80.
# ----------------------------------------------------------------------
def _simulate_common(
    ctx, positions, forwards, search_radius, weights, steering_out, cache
):
    """Shared v3/v4 body, through the steering store.  ``cache`` selects
    the local-memory variant."""
    i = ctx.global_thread_id
    tpb = ctx.block_dim.x
    n = len(positions) // 3
    s_positions = ctx.shared_array("s_positions", np.float32, tpb * 3)
    local_cache = (
        ctx.local_array("neighbor_cache", np.float32, MAX_NEIGHBORS * 4)
        if cache
        else None
    )

    my_pos = yield from dl.ld_vec3(positions.view, i)
    my_fwd = yield from dl.ld_vec3(forwards.view, i)
    yield dl.FMUL
    r2 = search_radius * search_radius
    best: list = []
    for base in range(0, n, tpb):
        yield dl.COMPARE
        yield dl.IADD
        staged = yield from dl.ld_vec3(positions.view, base + ctx.thread_idx.x)
        yield from dl.sts_vec3(s_positions, ctx.thread_idx.x, staged)
        yield sync()
        for t in range(tpb):
            yield dl.COMPARE
            yield _IADD2
            j = base + t
            other = yield from dl.lds_vec3(s_positions, t)
            in_radius, d2 = yield from _candidate_test(my_pos, other, r2, j, i)
            if in_radius:
                yield from _insert_neighbor(best, d2, j)
                if cache and (d2, j) in best:
                    # v3: the candidate was kept — persist (d2, offset) in
                    # its slot of the *local-memory* cache.  Dynamic slot
                    # indexing forces the array to device memory, so these
                    # are 4 spilled float stores (Table 2.1).
                    slot = best.index((d2, j))
                    yield st(local_cache, slot * 4, d2)
                    yield dl.FADD3  # offset = other - my_pos
                    yield st(local_cache, slot * 4 + 1, other[0] - my_pos[0])
                    yield st(local_cache, slot * 4 + 2, other[1] - my_pos[1])
                    yield st(local_cache, slot * 4 + 3, other[2] - my_pos[2])
            yield reconv()  # post-dominator of the insert/cache branch
        yield sync()

    # Gather per-neighbor (d2, offset) for the steering calculation.
    # Canonical nearest-first order so all engines agree bit-for-bit.
    order = sorted(range(len(best)), key=lambda k: best[k])
    gathered = []
    for slot in order:
        d2, j = best[slot]
        if cache:
            # v3: read the cached values back from spilled local memory
            # (4 device-memory reads, the cost that makes v3 lose to v4).
            cd2 = yield ld(local_cache, slot * 4)
            ox = yield ld(local_cache, slot * 4 + 1)
            oy = yield ld(local_cache, slot * 4 + 2)
            oz = yield ld(local_cache, slot * 4 + 3)
            gathered.append((cd2, j, (ox, oy, oz)))
        else:
            # v4: recompute from the position data instead.
            npos = yield from dl.ld_vec3(positions.view, j)
            offset = yield from dl.sub3(npos, my_pos)
            rd2 = yield from dl.length_squared3(offset)
            gathered.append((rd2, j, offset))
    yield reconv()  # gather loop length differs per thread
    steering = yield from _flocking_steering(
        my_fwd, gathered, forwards.view, weights
    )
    yield from dl.st_vec3(steering_out.view, i, steering)


@global_
def simulate_v3(
    ctx,
    positions: ConstRef[DeviceVector],
    forwards: ConstRef[DeviceVector],
    search_radius: float,
    w_sep: float,
    w_ali: float,
    w_coh: float,
    steering_out: Ref[DeviceVector],
):
    """Version 3: the full simulation substage with the per-neighbor
    cache in (spilled) local memory (§6.2.2).

    Returns the shared body's generator itself rather than wrapping it in
    ``yield from``, which would add a frame to every event it yields.
    """
    return _simulate_common(
        ctx,
        positions,
        forwards,
        search_radius,
        (w_sep, w_ali, w_coh),
        steering_out,
        cache=True,
    )


@global_
def simulate_v4(
    ctx,
    positions: ConstRef[DeviceVector],
    forwards: ConstRef[DeviceVector],
    search_radius: float,
    w_sep: float,
    w_ali: float,
    w_coh: float,
    steering_out: Ref[DeviceVector],
):
    """Version 4: the full simulation substage, recomputing neighbor
    data instead of caching it — the variant that won on the G80.

    Like :func:`simulate_v3`, returns the shared body's generator.
    """
    return _simulate_common(
        ctx,
        positions,
        forwards,
        search_radius,
        (w_sep, w_ali, w_coh),
        steering_out,
        cache=False,
    )


# ----------------------------------------------------------------------
# Version 5: the modification substage on the device (§6.2.3).  Shared
# memory is used as an *extension of thread-local storage* so the vehicle
# state scratch does not spill to device memory.
# ----------------------------------------------------------------------
@global_
def modify_kernel(
    ctx,
    steering: ConstRef[DeviceVector],
    positions: Ref[DeviceVector],
    forwards: Ref[DeviceVector],
    speeds: Ref[DeviceVector],
    smoothed: Ref[DeviceVector],
    params_packed: ConstRef[DeviceVector],
    step_index: int,
    matrices_out: Ref[DeviceVector],
):
    """Version 5: the modification substage on the device (§6.2.3) —
    vehicle model, world wrap, and the 4x4 draw-matrix store, with
    shared memory as extra thread-local scratch."""
    i = ctx.global_thread_id
    tpb = ctx.block_dim.x
    # §6.2.3: shared memory as extra thread-local storage (one float3
    # scratch slot per thread) so the intermediate vector stays on chip.
    scratch = ctx.shared_array("v5_scratch", np.float32, tpb * 3)

    # Unpack the simulation parameters from constant-style global memory.
    max_force = yield ld(params_packed.view, 0)
    max_speed = yield ld(params_packed.view, 1)
    mass = yield ld(params_packed.view, 2)
    dt = yield ld(params_packed.view, 3)
    smoothing = yield ld(params_packed.view, 4)
    world_r = yield ld(params_packed.view, 5)

    steer = yield from dl.ld_vec3(steering.view, i)
    # Clip the steering force to max_force (truncate_length).
    f2 = yield from dl.length_squared3(steer)
    yield dl.COMPARE
    yield dl.BRANCH  # division-through-zero guard (§6.3.1)
    if f2 > max_force * max_force:
        inv = yield from dl.rsqrt(f2)
        yield dl.FMUL
        steer = yield from dl.scale3(steer, max_force * inv)
    yield reconv()
    yield dl.FMUL3  # accel = force / mass
    accel = (steer[0] / mass, steer[1] / mass, steer[2] / mass)

    yield dl.COMPARE
    yield dl.BRANCH  # "prevent calculation not needed in the first step"
    if step_index == 0:
        smooth = accel
    else:
        old = yield from dl.ld_vec3(smoothed.view, i)
        a = yield from dl.scale3(old, 1.0 - smoothing)
        b = yield from dl.scale3(accel, smoothing)
        smooth = yield from dl.add3(a, b)
    yield reconv()
    yield from dl.st_vec3(smoothed.view, i, smooth)
    # Stage the smoothed acceleration in the shared scratch (on-chip).
    yield from dl.sts_vec3(scratch, ctx.thread_idx.x, smooth)

    fwd = yield from dl.ld_vec3(forwards.view, i)
    speed = yield ld(speeds.view, i)
    vel_base = yield from dl.scale3(fwd, speed)
    smooth = yield from dl.lds_vec3(scratch, ctx.thread_idx.x)
    delta = yield from dl.scale3(smooth, dt)
    velocity = yield from dl.add3(vel_base, delta)

    v2 = yield from dl.length_squared3(velocity)
    yield dl.COMPARE
    yield dl.BRANCH
    if v2 > max_speed * max_speed:
        inv = yield from dl.rsqrt(v2)
        yield dl.FMUL
        velocity = yield from dl.scale3(velocity, max_speed * inv)
        new_speed = max_speed
    else:
        inv = yield from dl.rsqrt(v2)
        yield dl.FMUL
        new_speed = v2 * inv  # sqrt(v2)
    yield reconv()

    pos = yield from dl.ld_vec3(positions.view, i)
    step_vec = yield from dl.scale3(velocity, dt)
    pos = yield from dl.add3(pos, step_vec)
    # Spherical world wrap (§5.1).
    p2 = yield from dl.length_squared3(pos)
    yield dl.COMPARE
    yield dl.BRANCH
    if p2 > world_r * world_r:
        yield dl.FMUL3
        pos = (-pos[0], -pos[1], -pos[2])
    yield reconv()
    yield from dl.st_vec3(positions.view, i, pos)

    yield dl.COMPARE
    yield dl.BRANCH  # division-through-zero guard
    if new_speed > 1e-12:
        yield _FMUL4
        fwd = (
            velocity[0] / new_speed,
            velocity[1] / new_speed,
            velocity[2] / new_speed,
        )
    yield reconv()
    yield from dl.st_vec3(forwards.view, i, fwd)
    yield st(speeds.view, i, new_speed)

    # Build the 4x4 draw matrix — the only data the host reads back (§6.2.3).
    up_hint = (0.0, 1.0, 0.0) if abs(fwd[1]) < 0.99 else (1.0, 0.0, 0.0)
    yield dl.COMPARE
    yield dl.BRANCH
    yield _FMUL6
    yield dl.FADD3  # cross product
    side = (
        fwd[1] * up_hint[2] - fwd[2] * up_hint[1],
        fwd[2] * up_hint[0] - fwd[0] * up_hint[2],
        fwd[0] * up_hint[1] - fwd[1] * up_hint[0],
    )
    side = yield from dl.normalize3(side)
    yield _FMUL6
    yield dl.FADD3
    up = (
        side[1] * fwd[2] - side[2] * fwd[1],
        side[2] * fwd[0] - side[0] * fwd[2],
        side[0] * fwd[1] - side[1] * fwd[0],
    )
    mat = (
        side[0], side[1], side[2], 0.0,
        up[0], up[1], up[2], 0.0,
        fwd[0], fwd[1], fwd[2], 0.0,
        pos[0], pos[1], pos[2], 1.0,
    )
    for c, value in enumerate(mat):
        yield st(matrices_out.view, i * 16 + c, value)
