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
from repro.simgpu.isa import bundle, ld, op, reconv, st, sync

#: Neighbor-slot count (§5.2.1: "We only consider the 7 nearest").
MAX_NEIGHBORS = 7

NO_NEIGHBOR = -1

# Interned multi-issue events these kernels yield besides devicelib's
# (see repro.simgpu.isa: built once here, not per instruction).
_COMPARE2 = dl.compare(2)
_IADD2 = dl.iadd(2)
_FMUL4 = op(OpClass.FMUL, 4)
_FMUL6 = op(OpClass.FMUL, 6)

# The straight-line runs these kernels issue as one bundle each; every
# part is the event the listing's line issues, in listing order.
#: A loop head: condition + counter increment.
_LOOP = bundle(dl.COMPARE, dl.IADD)
#: Listing 6.3's tile loop head: condition + ++t + ``global_index``.
_TILE_LOOP = bundle(dl.COMPARE, dl.IADD, dl.IADD)
#: v3/v4's tile loop head, counter and index math fused.
_TILE_LOOP2 = bundle(dl.COMPARE, _IADD2)
#: A guarded branch: the condition and the branch instruction.
_GUARD = bundle(dl.COMPARE, dl.BRANCH)
#: The candidate test: offset, squared length, ``d2 < r2 && j != i``.
_CANDIDATE_TEST = bundle(dl.FADD3, dl.LENGTH_SQUARED3, _COMPARE2, dl.BRANCH)
#: The keep-7 insert into a full list: the 6-compare max-scan, then the
#: compare against the new pair and its branch.
_INSERT_SCAN = bundle(*[dl.COMPARE] * (MAX_NEIGHBORS - 1), _GUARD)
#: Per gathered neighbor, up to the forward load: rsqrt, ``inv * inv``,
#: the scaled offset, and the separation and cohesion sums.
_STEER_NEIGHBOR = bundle(dl.RSQRT, dl.FMUL, dl.FMUL3, dl.FADD3, dl.FADD3)
#: Per gathered neighbor, after the forward load: the alignment sum and
#: ``++count``.
_STEER_ALIGN = bundle(dl.FADD3, dl.IADD)
#: The steering tail: the alignment average, three normalizes, three
#: weights and the weighted sum.
_STEER_TAIL = bundle(
    dl.FMUL3,
    dl.FADD3,
    dl.NORMALIZE3,
    dl.NORMALIZE3,
    dl.NORMALIZE3,
    dl.FMUL3,
    dl.FMUL3,
    dl.FMUL3,
    dl.FADD3,
    dl.FADD3,
)
#: v4's recompute of a gathered neighbor: offset and squared length.
_RECOMPUTE = bundle(dl.FADD3, dl.LENGTH_SQUARED3)
#: modify_kernel: a squared length tested against a limit.
_LENGTH_TEST = bundle(dl.LENGTH_SQUARED3, _GUARD)
#: modify_kernel: clip a vector to a length (rsqrt, ``limit * inv``, scale).
_CLIP = bundle(dl.RSQRT, dl.FMUL, dl.FMUL3)
#: modify_kernel: ``accel = force / mass`` and the first-step test.
_ACCEL = bundle(dl.FMUL3, _GUARD)
#: modify_kernel: the smoothing blend (two scales and a sum).
_BLEND = bundle(dl.FMUL3, dl.FMUL3, dl.FADD3)
#: modify_kernel: scale, add, and test the result's squared length.
_STEP_TEST = bundle(dl.FMUL3, dl.FADD3, _LENGTH_TEST)
#: modify_kernel: the draw matrix's up-hint test, two cross products and
#: the side normalize.
_FRAME = bundle(
    _GUARD, _FMUL6, dl.FADD3, dl.NORMALIZE3, _FMUL6, dl.FADD3
)


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
    yield _GUARD  # neighbors_found < 7 ?
    if len(best) < MAX_NEIGHBORS:
        best.append((d2, j))
        yield dl.IADD  # ++neighbors_found
    else:
        # Scan the 7 slots for the farthest stored neighbor (one compare
        # per slot after the first), then compare
        # (d2, index)(worst) > (d2, index)(new) and branch.
        yield _INSERT_SCAN
        worst = 0
        for k in range(1, MAX_NEIGHBORS):
            if best[k] > best[worst]:
                worst = k
        if best[worst] > (d2, j):
            best[worst] = (d2, j)


def _candidate_test(my_pos, other_pos, r2: float, j: int, my_index: int):
    """Listing 6.3's per-candidate test: offset, d2, radius + self check.

    The registers only: a kernel yields :data:`_CANDIDATE_TEST` (the
    test's instructions) right before calling it, in the candidate loop
    where a helper generator per candidate would cost a frame per lane.
    Returns (in_radius, d2).
    """
    d2 = dl.vlength_squared3(dl.vsub3(my_pos, other_pos))
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
        yield _STEER_NEIGHBOR
        inv = dl.vrsqrt(d2)
        # separation -= offset.normalize() / length  == offset / d2
        contrib = dl.vscale3(offset, inv * inv)
        sep = dl.vsub3(sep, contrib)
        coh = dl.vadd3(coh, offset)
        fwd_j = yield from dl.ld_vec3(forwards_view, j)
        yield _STEER_ALIGN
        ali_sum = dl.vadd3(ali_sum, fwd_j)
        count += 1
    yield reconv()  # neighbor counts differ per thread; re-join here
    yield _STEER_TAIL
    ali = dl.vsub3(ali_sum, dl.vscale3(my_fwd, float(count)))

    w_sep, w_ali, w_coh = weights
    a = dl.vscale3(dl.vnormalize3(sep), w_sep)
    b = dl.vscale3(dl.vnormalize3(ali), w_ali)
    c = dl.vscale3(dl.vnormalize3(coh), w_coh)
    return dl.vadd3(dl.vadd3(a, b), c)


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
        yield _LOOP  # loop condition, ++j
        other = yield from dl.ld_vec3(positions.view, j)
        yield _CANDIDATE_TEST
        in_radius, d2 = _candidate_test(my_pos, other, r2, j, i)
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
        yield _LOOP
        # Each thread stages one element of the tile (listing 6.2 line 8).
        staged = yield from dl.ld_vec3(positions.view, base + ctx.thread_idx.x)
        yield from dl.sts_vec3(s_positions, ctx.thread_idx.x, staged)
        yield sync()
        for t in range(tpb):
            yield _TILE_LOOP  # loop condition, ++t, global_index = base + t
            j = base + t
            other = yield from dl.lds_vec3(s_positions, t)
            yield _CANDIDATE_TEST
            in_radius, d2 = _candidate_test(my_pos, other, r2, j, i)
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
        yield _LOOP
        staged = yield from dl.ld_vec3(positions.view, base + ctx.thread_idx.x)
        yield from dl.sts_vec3(s_positions, ctx.thread_idx.x, staged)
        yield sync()
        for t in range(tpb):
            yield _TILE_LOOP2
            j = base + t
            other = yield from dl.lds_vec3(s_positions, t)
            yield _CANDIDATE_TEST
            in_radius, d2 = _candidate_test(my_pos, other, r2, j, i)
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
            yield _RECOMPUTE
            offset = dl.vsub3(npos, my_pos)
            gathered.append((dl.vlength_squared3(offset), j, offset))
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
    # Clip the steering force to max_force (truncate_length), behind the
    # division-through-zero guard (§6.3.1).
    yield _LENGTH_TEST
    f2 = dl.vlength_squared3(steer)
    if f2 > max_force * max_force:
        yield _CLIP
        steer = dl.vscale3(steer, max_force * dl.vrsqrt(f2))
    yield reconv()
    # accel = force / mass; "prevent calculation not needed in the first
    # step".
    yield _ACCEL
    accel = (steer[0] / mass, steer[1] / mass, steer[2] / mass)
    if step_index == 0:
        smooth = accel
    else:
        old = yield from dl.ld_vec3(smoothed.view, i)
        yield _BLEND
        smooth = dl.vadd3(
            dl.vscale3(old, 1.0 - smoothing), dl.vscale3(accel, smoothing)
        )
    yield reconv()
    yield from dl.st_vec3(smoothed.view, i, smooth)
    # Stage the smoothed acceleration in the shared scratch (on-chip).
    yield from dl.sts_vec3(scratch, ctx.thread_idx.x, smooth)

    fwd = yield from dl.ld_vec3(forwards.view, i)
    speed = yield ld(speeds.view, i)
    yield dl.FMUL3
    vel_base = dl.vscale3(fwd, speed)
    smooth = yield from dl.lds_vec3(scratch, ctx.thread_idx.x)
    # velocity = vel_base + smooth * dt, clipped to max_speed.
    yield _STEP_TEST
    velocity = dl.vadd3(vel_base, dl.vscale3(smooth, dt))
    v2 = dl.vlength_squared3(velocity)
    if v2 > max_speed * max_speed:
        yield _CLIP
        velocity = dl.vscale3(velocity, max_speed * dl.vrsqrt(v2))
        new_speed = max_speed
    else:
        yield dl.SQRT
        new_speed = v2 * dl.vrsqrt(v2)  # sqrt(v2)
    yield reconv()

    pos = yield from dl.ld_vec3(positions.view, i)
    # pos += velocity * dt, then the spherical world wrap (§5.1).
    yield _STEP_TEST
    pos = dl.vadd3(pos, dl.vscale3(velocity, dt))
    p2 = dl.vlength_squared3(pos)
    if p2 > world_r * world_r:
        yield dl.FMUL3
        pos = (-pos[0], -pos[1], -pos[2])
    yield reconv()
    yield from dl.st_vec3(positions.view, i, pos)

    yield _GUARD  # division-through-zero guard
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

    # Build the 4x4 draw matrix — the only data the host reads back
    # (§6.2.3): up-hint test, side = fwd x up_hint normalized,
    # up = side x fwd.
    yield _FRAME
    up_hint = (0.0, 1.0, 0.0) if abs(fwd[1]) < 0.99 else (1.0, 0.0, 0.0)
    side = dl.vnormalize3(
        (
            fwd[1] * up_hint[2] - fwd[2] * up_hint[1],
            fwd[2] * up_hint[0] - fwd[0] * up_hint[2],
            fwd[0] * up_hint[1] - fwd[1] * up_hint[0],
        )
    )
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
