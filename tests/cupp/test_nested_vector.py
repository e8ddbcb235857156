"""vector<vector<T>> across the kernel boundary (§4.6's claim)."""

import numpy as np
import pytest

from repro.cuda import CudaMachine, global_
from repro.cupp import (
    ConstRef,
    CuppUsageError,
    Device,
    DeviceNestedVector,
    DeviceVector,
    Kernel,
    NestedVector,
    Ref,
    Vector,
)
from repro.simgpu import OpClass, scaled_arch
from repro.simgpu.isa import ld, op, st


@pytest.fixture
def dev() -> Device:
    return Device(machine=CudaMachine([scaled_arch("t", 2, memory_bytes=1 << 22)]))


@global_
def row_sums(ctx, m: ConstRef[DeviceNestedVector], out: Ref[DeviceVector]):
    """One thread per row: sum the row through the CSR layout."""
    r = ctx.global_thread_id
    if r < len(m):
        start = yield ld(m.offsets, r)
        stop = yield ld(m.offsets, r + 1)
        total = 0.0
        for slot in range(start, stop):
            v = yield ld(m.values, slot)
            total += v
            yield op(OpClass.FADD)
        yield st(out.view, r, total)


@global_
def scale_rows(ctx, m: Ref[DeviceNestedVector]):
    """One thread per row: multiply every element by (row index + 1)."""
    r = ctx.global_thread_id
    if r < len(m):
        start = yield ld(m.offsets, r)
        stop = yield ld(m.offsets, r + 1)
        for slot in range(start, stop):
            v = yield ld(m.values, slot)
            yield op(OpClass.FMUL)
            yield st(m.values, slot, v * (r + 1.0))


@global_
def double_all(ctx, v: Ref[DeviceVector]):
    i = ctx.global_thread_id
    if i < len(v):
        x = yield ld(v.view, i)
        yield op(OpClass.FMUL)
        yield st(v.view, i, x * 2.0)


class TestHostInterface:
    def test_construction_and_lengths(self):
        nv = NestedVector([[1, 2, 3], [4], [], [5, 6]])
        assert len(nv) == 4
        assert nv.row_lengths() == [3, 1, 0, 2]
        assert nv.total_elements() == 6

    def test_rows_grow_independently(self):
        nv = NestedVector([[1], [2]])
        nv[0].push_back(9)
        assert nv.to_lists() == [[1, 9], [2]]

    def test_push_and_pop_rows(self):
        nv = NestedVector()
        nv.push_back([1, 2])
        nv.push_back(Vector([3], dtype=np.float32))
        assert len(nv) == 2
        popped = nv.pop_back()
        assert list(popped) == [3]

    def test_dtype_mismatch_rejected(self):
        nv = NestedVector(dtype=np.float32)
        with pytest.raises(CuppUsageError):
            nv.push_back(Vector([1], dtype=np.int32))

    def test_pop_empty(self):
        with pytest.raises(CuppUsageError):
            NestedVector().pop_back()


class TestKernelInterplay:
    def test_ragged_row_sums(self, dev):
        rows = [[1.0, 2.0, 3.0], [10.0], [], [4.0, 4.0]]
        nv = NestedVector(rows)
        out = Vector(np.zeros(4, np.float32), dtype=np.float32)
        Kernel(row_sums, 1, 4)(dev, nv, out)
        np.testing.assert_array_equal(out.to_numpy(), [6.0, 10.0, 0.0, 8.0])

    def test_device_mutation_lazily_visible(self, dev):
        nv = NestedVector([[1.0, 1.0], [1.0], [1.0, 1.0, 1.0]])
        Kernel(scale_rows, 1, 3)(dev, nv)
        assert nv.downloads == 0  # nothing read back yet
        assert nv.to_lists() == [[1.0, 1.0], [2.0], [3.0, 3.0, 3.0]]
        assert nv.downloads == 1

    def test_const_ref_reuses_device_copy(self, dev):
        nv = NestedVector([[1.0], [2.0]])
        out = Vector(np.zeros(2, np.float32), dtype=np.float32)
        k = Kernel(row_sums, 1, 2)
        k(dev, nv, out)
        k(dev, nv, out)
        assert nv.uploads == 1

    def test_host_row_growth_reuploads(self, dev):
        nv = NestedVector([[1.0], [2.0]])
        out = Vector(np.zeros(2, np.float32), dtype=np.float32)
        k = Kernel(row_sums, 1, 2)
        k(dev, nv, out)
        nv[1].push_back(5.0)  # ragged growth on the host
        k(dev, nv, out)
        assert nv.uploads == 2
        np.testing.assert_array_equal(out.to_numpy(), [1.0, 7.0])

    def test_empty_nested_vector(self, dev):
        nv = NestedVector()
        out = Vector(np.zeros(1, np.float32), dtype=np.float32)
        Kernel(row_sums, 1, 1)(dev, nv, out)  # guard keeps threads out
        assert out[0] == 0.0

    def test_type_bindings(self):
        from repro.cupp import validate_binding

        validate_binding(NestedVector)
        validate_binding(DeviceNestedVector)

    def test_reference_image_is_metadata_sized(self, dev):
        big = NestedVector([list(range(100)) for _ in range(10)])
        dref = big.get_device_reference(dev)
        assert dref.nbytes < 256  # pointers, not payload


class TestNoStaleRows:
    """Every change to a row reaches the nested vector's device copy,
    however the row was reached."""

    @staticmethod
    def _sum(dev, nv) -> float:
        out = Vector(np.zeros(1, np.float32), dtype=np.float32)
        Kernel(row_sums, 1, 1)(dev, nv, out)
        return out[0]

    def test_write_through_a_retained_pushed_row(self, dev):
        row = Vector([1.0, 2.0, 3.0])
        nv = NestedVector()
        nv.push_back(row)
        assert self._sum(dev, nv) == 6.0
        row[0] = 100.0
        assert self._sum(dev, nv) == 105.0

    def test_write_through_a_row_taken_before_the_upload(self, dev):
        nv = NestedVector([[1.0, 2.0, 3.0]])
        row = nv[0]
        assert self._sum(dev, nv) == 6.0
        row[0] = 100.0
        assert self._sum(dev, nv) == 105.0

    def test_kernel_writing_the_row_through_ref(self, dev):
        row = Vector([1.0, 2.0, 3.0])
        nv = NestedVector()
        nv.push_back(row)
        assert self._sum(dev, nv) == 6.0
        Kernel(double_all, 1, 3)(dev, row)
        assert self._sum(dev, nv) == 12.0

    def test_own_download_does_not_mark_itself_stale(self, dev):
        nv = NestedVector([[1.0, 1.0], [1.0]])
        Kernel(scale_rows, 1, 2)(dev, nv)
        assert nv.to_lists() == [[1.0, 1.0], [2.0]]
        assert self._sum(dev, nv) == 2.0
        assert nv.uploads == 1

    def test_sizes_of_a_host_stale_nested_vector_download_nothing(self, dev):
        nv = NestedVector([[1.0, 1.0], [1.0]])
        Kernel(scale_rows, 1, 2)(dev, nv)
        assert len(nv) == 2
        assert nv.row_lengths() == [2, 1]
        assert nv.downloads == 0

    def test_swapping_a_row_reaches_its_holder(self, dev):
        row = Vector([1.0, 2.0, 3.0])
        nv = NestedVector()
        nv.push_back(row)
        assert self._sum(dev, nv) == 6.0
        row.swap(Vector([10.0]))
        assert self._sum(dev, nv) == 10.0

    def test_a_popped_row_no_longer_reaches_its_old_holder(self, dev):
        nv = NestedVector([[1.0], [2.0]])
        assert self._sum(dev, nv) == 1.0
        popped = nv.pop_back()
        self._sum(dev, nv)
        popped[0] = 50.0
        assert self._sum(dev, nv) == 1.0
        assert nv.uploads == 2  # the pop, not the write to the popped row
