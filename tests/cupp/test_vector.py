"""cupp.Vector: STL behaviour + lazy memory copying (§4.6)."""

import copy

import numpy as np
import pytest

from repro.cuda import CudaMachine, global_
from repro.cupp import (
    ConstRef,
    CuppUsageError,
    Device,
    DeviceVector,
    Kernel,
    Ref,
    Vector,
)
from repro.simgpu import OpClass, scaled_arch
from repro.simgpu.isa import ld, op, st


@pytest.fixture
def dev() -> Device:
    return Device(machine=CudaMachine([scaled_arch("t", 2, memory_bytes=1 << 22)]))


@global_
def double_all(ctx, v: Ref[DeviceVector]):
    i = ctx.global_thread_id
    if i < len(v):
        x = yield ld(v.view, i)
        yield op(OpClass.FMUL)
        yield st(v.view, i, x * 2.0)


@global_
def read_only(ctx, v: ConstRef[DeviceVector]):
    i = ctx.global_thread_id
    if i < len(v):
        _ = yield ld(v.view, i)


class TestStlBehaviour:
    def test_push_back_and_index(self):
        v = Vector(dtype=np.float32)
        for i in range(10):
            v.push_back(i * 1.5)
        assert len(v) == 10
        assert v[3] == pytest.approx(4.5)
        assert v[-1] == pytest.approx(13.5)

    def test_pop_back(self):
        v = Vector([1, 2, 3], dtype=np.int32)
        assert v.pop_back() == 3
        assert len(v) == 2

    def test_pop_empty_raises(self):
        with pytest.raises(CuppUsageError):
            Vector(dtype=np.int32).pop_back()

    def test_resize_grow_and_shrink(self):
        v = Vector([1, 2], dtype=np.int32)
        v.resize(5, fill=7)
        assert list(v) == [1, 2, 7, 7, 7]
        v.resize(1)
        assert list(v) == [1]

    def test_setitem_getitem(self):
        v = Vector([0, 0, 0], dtype=np.int64)
        v[1] = 42
        assert v[1] == 42

    def test_out_of_range(self):
        v = Vector([1], dtype=np.int32)
        with pytest.raises(IndexError):
            v[5]
        with pytest.raises(IndexError):
            v[5] = 1

    def test_iteration_and_extend(self):
        v = Vector(dtype=np.int32)
        v.extend(range(5))
        assert list(v) == [0, 1, 2, 3, 4]

    def test_insert(self):
        v = Vector([1, 3], dtype=np.int32)
        v.insert(1, 2)
        assert list(v) == [1, 2, 3]
        v.insert(0, 0)
        v.insert(4, 4)
        assert list(v) == [0, 1, 2, 3, 4]

    def test_insert_out_of_range(self):
        with pytest.raises(IndexError):
            Vector([1], dtype=np.int32).insert(5, 9)

    def test_erase(self):
        v = Vector([10, 20, 30], dtype=np.int32)
        assert v.erase(1) == 20
        assert list(v) == [10, 30]

    def test_insert_and_erase_invalidate_device(self):
        v = Vector([1.0, 2.0], dtype=np.float32)
        v._device_valid = True  # pretend a copy exists
        v.insert(0, 0.0)
        assert not v._device_valid

    def test_copy_has_own_dataset(self):
        v = Vector([1, 2, 3], dtype=np.int32)
        w = copy.copy(v)
        w[0] = 99
        assert v[0] == 1

    def test_to_numpy_is_read_only(self):
        v = Vector([1, 2], dtype=np.int32)
        arr = v.to_numpy()
        with pytest.raises(ValueError):
            arr[0] = 5

    def test_equality(self):
        assert Vector([1, 2], dtype=np.int32) == Vector([1, 2], dtype=np.int32)
        assert not Vector([1], dtype=np.int32) == Vector([2], dtype=np.int32)


class TestSizeArguments:
    """``resize``/``reserve`` reject a count that is negative or not an
    integer with ``CuppUsageError`` before touching any state: a vector
    whose only fresh copy is on the device is not downloaded."""

    @pytest.mark.parametrize(
        "call, value",
        [("resize", -1), ("reserve", -3), ("resize", 2.5), ("reserve", "x")],
    )
    def test_bad_count_raises_before_any_change(self, dev, call, value):
        v = Vector(np.arange(32, dtype=np.float32))
        Kernel(double_all, 1, 32)(dev, v)  # device copy is now the fresh one
        with pytest.raises(CuppUsageError):
            getattr(v, call)(value)
        assert v.downloads == 0
        assert len(v) == 32
        np.testing.assert_array_equal(
            v.to_numpy(), np.arange(32, dtype=np.float32) * 2
        )

    def test_integer_like_counts_pass(self):
        v = Vector([1, 2], dtype=np.int32)
        v.reserve(np.int64(16))
        v.resize(np.int32(3), fill=5)
        assert list(v) == [1, 2, 5]


class TestKernelInterplay:
    def test_mutable_ref_roundtrip(self, dev):
        v = Vector(np.arange(32, dtype=np.float32))
        Kernel(double_all, 1, 32)(dev, v)
        np.testing.assert_array_equal(
            v.to_numpy(), np.arange(32, dtype=np.float32) * 2
        )

    def test_two_kernels_one_upload(self, dev):
        # §4.6: "the developer may pass a vector directly to one or
        # multiple kernels ... memory is only transferred if really needed".
        v = Vector(np.arange(32, dtype=np.float32))
        k = Kernel(double_all, 1, 32)
        k(dev, v)
        k(dev, v)
        assert v.uploads == 1  # second launch reuses the device copy
        np.testing.assert_array_equal(
            v.to_numpy(), np.arange(32, dtype=np.float32) * 4
        )

    def test_download_deferred_until_host_read(self, dev):
        v = Vector(np.arange(32, dtype=np.float32))
        Kernel(double_all, 1, 32)(dev, v)
        assert v.downloads == 0  # nothing read back yet
        _ = v[0]
        assert v.downloads == 1

    def test_const_ref_never_invalidates_host(self, dev):
        v = Vector(np.arange(32, dtype=np.float32))
        Kernel(read_only, 1, 32)(dev, v)
        assert v.downloads == 0
        _ = v[5]  # host data still valid: no download triggered
        assert v.downloads == 0

    def test_host_write_invalidates_device(self, dev):
        v = Vector(np.arange(32, dtype=np.float32))
        k = Kernel(double_all, 1, 32)
        k(dev, v)
        v[0] = 100.0  # host mutation -> device copy stale
        k(dev, v)
        assert v.uploads == 2
        assert v[0] == pytest.approx(200.0)

    def test_interleaved_host_device_mutation(self, dev):
        v = Vector(np.ones(32, dtype=np.float32))
        k = Kernel(double_all, 1, 32)
        k(dev, v)  # x2 on device
        for i in range(32):
            v[i] = v[i] + 1  # host: 2 -> 3 (forces download + upload)
        k(dev, v)  # x2 on device: 6
        np.testing.assert_array_equal(v.to_numpy(), np.full(32, 6.0, np.float32))

    def test_pass_by_value_copies_all_elements(self, dev):
        # The §7 performance trap: by-value vector = copy-constructor call
        # per element, and device changes are lost.
        @global_
        def scale(ctx, v: DeviceVector):
            i = ctx.global_thread_id
            if i < len(v):
                x = yield ld(v.view, i)
                yield op(OpClass.FMUL)
                yield st(v.view, i, x * 10.0)

        v = Vector(np.ones(8, dtype=np.float32))
        stats = Kernel(scale, 1, 8)(dev, v)
        assert stats.value_copies == 1
        # By-value: the ORIGINAL vector must be unchanged...
        np.testing.assert_array_equal(v.to_numpy(), np.ones(8, np.float32))

    def test_resize_after_kernel_reallocates_device_block(self, dev):
        v = Vector(np.arange(16, dtype=np.float32))
        k = Kernel(double_all, 1, 32)
        k(dev, v)
        v.push_back(99.0)
        k(dev, v)
        assert v.uploads == 2
        assert len(v) == 17
        assert v[16] == pytest.approx(198.0)

    def test_vector_bound_to_one_device(self, dev):
        other = Device(
            machine=CudaMachine([scaled_arch("o", 2, memory_bytes=1 << 22)])
        )
        v = Vector(np.arange(8, dtype=np.float32))
        Kernel(read_only, 1, 8)(dev, v)
        with pytest.raises(CuppUsageError, match="different device"):
            Kernel(read_only, 1, 8)(other, v)


class TestDeviceVector:
    def test_pack_unpack_is_pointer_sized_not_data_sized(self, dev):
        # The reference image in global memory holds {ptr, size}, not the
        # payload — the payload already lives in global memory.
        v = Vector(np.arange(1024, dtype=np.float32))
        dv = v.transform(dev)
        blob = dv.pack()
        assert blob.size < 256  # metadata only, nothing like 4 KiB
        rebuilt = DeviceVector.unpack(blob, dev)
        assert rebuilt.view.ptr == dv.view.ptr
        assert len(rebuilt) == 1024

    def test_type_bindings_are_1_to_1(self):
        from repro.cupp import validate_binding

        validate_binding(Vector)
        validate_binding(DeviceVector)
