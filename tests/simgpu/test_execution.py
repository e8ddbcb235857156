"""Warp/block execution: lockstep semantics, divergence, barriers."""

import numpy as np
import pytest

from repro.simgpu import (
    BarrierDeadlock,
    Dim3,
    KernelFault,
    OpClass,
    SimDevice,
)
from repro.simgpu.isa import ld, op, st, sync
from repro.simgpu.memory import DeviceArrayView, InvalidDeviceAccess


def make_array(device, dtype, count) -> DeviceArrayView:
    ptr = device.memory.alloc(np.dtype(dtype).itemsize * count)
    return DeviceArrayView(device.memory, ptr, np.dtype(dtype), count)


class TestBasicExecution:
    def test_every_thread_runs(self, device):
        out = make_array(device, np.int32, 64)

        def kernel(ctx, out):
            i = ctx.global_thread_id
            yield op(OpClass.IADD)
            yield st(out, i, i * 2)

        device.launch(kernel, 2, 32, (out,))
        result = device.memory.copy_out(out.ptr, 64 * 4).view(np.int32)
        np.testing.assert_array_equal(result, np.arange(64) * 2)

    def test_load_returns_stored_value(self, device):
        src = make_array(device, np.float32, 32)
        dst = make_array(device, np.float32, 32)
        device.memory.copy_in(src.ptr, np.arange(32, dtype=np.float32))

        def kernel(ctx, src, dst):
            i = ctx.global_thread_id
            v = yield ld(src, i)
            yield op(OpClass.FMUL)
            yield st(dst, i, v * 3.0)

        device.launch(kernel, 1, 32, (src, dst))
        result = device.memory.copy_out(dst.ptr, 128).view(np.float32)
        np.testing.assert_array_equal(result, np.arange(32, dtype=np.float32) * 3)

    def test_builtin_variables(self, device):
        seen = {}

        def kernel(ctx):
            seen[
                (ctx.block_idx.x, ctx.thread_idx.x)
            ] = ctx.global_thread_id
            yield op(OpClass.IADD)

        device.launch(kernel, 3, 4, ())
        assert seen[(2, 3)] == 11
        assert len(seen) == 12

    def test_2d_block_indexing(self, device):
        seen = set()

        def kernel(ctx):
            seen.add((ctx.thread_idx.x, ctx.thread_idx.y, ctx.thread_idx.z))
            yield op(OpClass.IADD)

        device.launch(kernel, 1, Dim3(4, 2, 2), ())
        assert len(seen) == 16
        assert (3, 1, 1) in seen

    def test_non_generator_kernel_rejected(self, device):
        def not_a_kernel(ctx):
            return 42

        with pytest.raises(KernelFault, match="generator"):
            device.launch(not_a_kernel, 1, 1, ())

    def test_kernel_exception_reported_with_thread(self, device):
        def kernel(ctx):
            yield op(OpClass.IADD)
            if ctx.global_thread_id == 3:
                raise ValueError("boom")
            yield op(OpClass.IADD)

        with pytest.raises(KernelFault, match="thread 3"):
            device.launch(kernel, 1, 8, ())


class TestDivergence:
    def test_uniform_flow_has_no_divergence(self, device):
        def kernel(ctx):
            for _ in range(4):
                yield op(OpClass.FADD)

        result = device.launch(kernel, 1, 32, ())
        assert result.profile.divergent_rounds == 0

    def test_two_way_branch_serializes(self, device):
        def kernel(ctx):
            if ctx.global_thread_id % 2 == 0:
                yield op(OpClass.FADD)
            else:
                yield op(OpClass.FMUL)

        result = device.launch(kernel, 1, 32, ())
        assert result.profile.divergent_rounds == 1
        assert result.profile.serialized_groups == 1
        # Both paths execute: the warp pays both instructions.
        assert result.profile.op_counts[OpClass.FADD] == 1
        assert result.profile.op_counts[OpClass.FMUL] == 1

    def test_divergence_is_per_warp_not_per_block(self, device):
        # Threads 0-31 take one path, 32-63 the other: uniform per warp.
        def kernel(ctx):
            if ctx.global_thread_id < 32:
                yield op(OpClass.FADD)
            else:
                yield op(OpClass.FMUL)

        result = device.launch(kernel, 1, 64, ())
        assert result.profile.divergent_rounds == 0

    def test_serialization_multiplies_issue_count(self, device):
        # 4 distinct paths in one warp -> 4 serialized issues of that round.
        def kernel(ctx):
            lane = ctx.global_thread_id % 4
            yield op(OpClass.FADD, count=lane + 1)

        result = device.launch(kernel, 1, 32, ())
        assert result.profile.divergent_rounds == 1
        assert result.profile.serialized_groups == 3

    def test_early_exit_threads_deactivate(self, device):
        # Threads exiting early must not stall the rest of the warp.
        def kernel(ctx):
            if ctx.global_thread_id < 16:
                return
                yield  # pragma: no cover - makes this a generator fn
            yield op(OpClass.FADD)
            yield op(OpClass.FADD)

        result = device.launch(kernel, 1, 32, ())
        assert result.profile.op_counts[OpClass.FADD] == 2


class TestBarrier:
    def test_sync_orders_shared_memory_accesses(self, device):
        # The listing-6.2 pattern: each thread publishes one element, all
        # threads then read every element.
        out = make_array(device, np.int32, 32)

        def kernel(ctx, out):
            sh = ctx.shared_array("vals", np.int32, 32)
            from repro.simgpu.isa import lds, sts

            i = ctx.thread_idx.x
            yield sts(sh, i, i + 1)
            yield sync()
            total = 0
            for j in range(32):
                v = yield lds(sh, j)
                total += v
                yield op(OpClass.IADD)
            yield st(out, i, total)

        device.launch(kernel, 1, 32, (out,))
        result = device.memory.copy_out(out.ptr, 128).view(np.int32)
        np.testing.assert_array_equal(result, np.full(32, 32 * 33 // 2))

    def test_sync_cost_counted_per_warp(self, device):
        def kernel(ctx):
            yield op(OpClass.FADD)
            yield sync()
            yield op(OpClass.FADD)

        result = device.launch(kernel, 1, 64, ())  # 2 warps
        assert result.profile.op_counts[OpClass.SYNC] == 2

    def test_divergent_sync_deadlocks_in_strict_mode(self, device):
        # §3.1.4: __syncthreads in conditional code that does not evaluate
        # identically across the block is undefined.
        def kernel(ctx):
            if ctx.global_thread_id < 16:
                yield sync()
            yield op(OpClass.FADD)

        with pytest.raises(BarrierDeadlock):
            device.launch(kernel, 1, 32, ())

    def test_divergent_sync_tolerated_in_permissive_mode(self, device):
        def kernel(ctx):
            if ctx.global_thread_id < 16:
                yield sync()
            yield op(OpClass.FADD)

        result = device.launch(kernel, 1, 32, (), strict_sync=False)
        # The non-syncing half executes FADD first; the parked half executes
        # it after the (permissively released) barrier: two serialized issues.
        assert result.profile.op_counts[OpClass.FADD] == 2

    def test_multiple_barriers(self, device):
        order = []

        def kernel(ctx):
            order.append(("a", ctx.global_thread_id))
            yield sync()
            order.append(("b", ctx.global_thread_id))
            yield sync()
            order.append(("c", ctx.global_thread_id))
            yield op(OpClass.FADD)

        device.launch(kernel, 1, 64, ())
        phases = [p for p, _ in order]
        # All "a" entries must precede all "b", which precede all "c".
        assert phases.index("b") >= 64
        assert phases.index("c") >= 128


class TestSharedMemory:
    def test_shared_array_is_block_scoped(self, device):
        # Two blocks write the same names; they must not see each other.
        out = make_array(device, np.int32, 2)

        def kernel(ctx, out):
            from repro.simgpu.isa import lds, sts

            sh = ctx.shared_array("x", np.int32, 1)
            yield sts(sh, 0, ctx.block_idx.x + 10)
            yield sync()
            v = yield lds(sh, 0)
            yield st(out, ctx.block_idx.x, v)

        device.launch(kernel, 2, 1, (out,))
        result = device.memory.copy_out(out.ptr, 8).view(np.int32)
        np.testing.assert_array_equal(result, [10, 11])

    def test_shared_capacity_enforced(self, device):
        def kernel(ctx):
            ctx.shared_array("huge", np.float32, 10_000)  # 40 KB > 16 KB
            yield op(OpClass.FADD)

        with pytest.raises(Exception, match="shared memory"):
            device.launch(kernel, 1, 1, ())

    def test_shared_bytes_reported(self, device):
        def kernel(ctx):
            ctx.shared_array("buf", np.float32, 256)
            yield op(OpClass.FADD)

        result = device.launch(kernel, 1, 32, ())
        assert result.shared_bytes_per_block == 1024


class TestNonEvents:
    """A yielded non-event is a KernelFault naming the lane, on both the
    convergent path and the grouped (divergent) path."""

    def test_convergent_non_event_names_first_lane(self, device):
        def kernel(ctx):
            yield op(OpClass.IADD)
            yield None

        with pytest.raises(KernelFault, match="thread 0 yielded a non-event"):
            device.launch(kernel, 1, 8, ())

    def test_divergent_non_event_names_its_lane(self, device):
        def kernel(ctx):
            if ctx.global_thread_id == 5:
                yield "not an event"
            else:
                yield op(OpClass.IADD)

        with pytest.raises(KernelFault, match="thread 5 yielded a non-event"):
            device.launch(kernel, 1, 8, ())


class TestSharedBounds:
    """Shared accesses are bounds-checked like global ones: no negative
    wrap-around and no raw numpy IndexError."""

    @pytest.mark.parametrize("index", [-1, 32])
    @pytest.mark.parametrize("broadcast", [True, False])
    def test_out_of_bounds_shared_read(self, device, index, broadcast):
        from repro.simgpu.isa import lds

        def kernel(ctx):
            sh = ctx.shared_array("s", np.float32, 32)
            lane = ctx.thread_idx.x
            i = index if broadcast or lane == 3 else lane
            yield lds(sh, i)

        with pytest.raises(InvalidDeviceAccess, match=f"index {index}"):
            device.launch(kernel, 1, 32, ())

    @pytest.mark.parametrize("index", [-1, 32])
    @pytest.mark.parametrize("broadcast", [True, False])
    def test_out_of_bounds_shared_write(self, device, index, broadcast):
        from repro.simgpu.isa import sts

        def kernel(ctx):
            sh = ctx.shared_array("s", np.float32, 32)
            lane = ctx.thread_idx.x
            i = index if broadcast or lane == 3 else lane
            yield sts(sh, i, 1.0)

        with pytest.raises(InvalidDeviceAccess, match=f"index {index}"):
            device.launch(kernel, 1, 32, ())

    def test_last_element_is_in_bounds(self, device):
        from repro.simgpu.isa import lds, sts

        out = make_array(device, np.float32, 32)

        def kernel(ctx, out):
            sh = ctx.shared_array("s", np.float32, 32)
            yield sts(sh, 31, 7.0)
            v = yield lds(sh, 31)
            yield st(out, ctx.thread_idx.x, v)

        device.launch(kernel, 1, 32, (out,))
        result = device.memory.copy_out(out.ptr, 128).view(np.float32)
        np.testing.assert_array_equal(result, np.full(32, 7.0, np.float32))


class TestGlobalBoundsWithTwoArrays:
    """One round touching two global arrays resolves each array once; an
    out-of-bounds lane still fails its own per-lane bounds check."""

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_out_of_bounds_load(self, device, bad):
        a = make_array(device, np.float32, 16)
        b = make_array(device, np.float32, 16)

        def kernel(ctx, a, b):
            lane = ctx.thread_idx.x
            array = a if lane % 2 else b
            yield ld(array, bad if lane == 9 else lane)

        with pytest.raises(InvalidDeviceAccess, match=f"index {bad}"):
            device.launch(kernel, 1, 16, (a, b))

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_out_of_bounds_store(self, device, bad):
        a = make_array(device, np.float32, 16)
        b = make_array(device, np.float32, 16)

        def kernel(ctx, a, b):
            lane = ctx.thread_idx.x
            array = a if lane % 2 else b
            yield st(array, bad if lane == 9 else lane, 1.0)

        with pytest.raises(InvalidDeviceAccess, match=f"index {bad}"):
            device.launch(kernel, 1, 16, (a, b))

    def test_in_bounds_round_reads_and_writes_both_arrays(self, device):
        a = make_array(device, np.float32, 16)
        b = make_array(device, np.float32, 16)
        device.memory.copy_in(a.ptr, np.arange(16, dtype=np.float32))
        device.memory.copy_in(b.ptr, -np.arange(16, dtype=np.float32))

        def kernel(ctx, a, b):
            lane = ctx.thread_idx.x
            src, dst = (a, b) if lane % 2 else (b, a)
            v = yield ld(src, lane)
            yield st(dst, lane, v * 10.0)

        device.launch(kernel, 1, 16, (a, b))
        got_a = device.memory.copy_out(a.ptr, 64).view(np.float32)
        got_b = device.memory.copy_out(b.ptr, 64).view(np.float32)
        lanes = np.arange(16, dtype=np.float32)
        odd = lanes % 2 == 1
        np.testing.assert_array_equal(got_a[odd], lanes[odd])
        np.testing.assert_array_equal(got_a[~odd], -lanes[~odd] * 10)
        np.testing.assert_array_equal(got_b[odd], lanes[odd] * 10)
        np.testing.assert_array_equal(got_b[~odd], -lanes[~odd])
