"""``v[a:b] = values``: one §4.6 write detection per range, on both backends.

A range write is ``std::copy`` into an existing range: it never
resizes, and it must have exactly the effects of the same writes done
one element at a time — the same host and device state, the same
transfer-ledger bytes — while passing write detection once.  Each
check runs on the cycle simulator and on the native backend.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import obs
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
from repro.simgpu import devicelib as dl
from repro.simgpu.isa import ld, op, st

N = 16


@pytest.fixture(params=["sim", "native"])
def dev(request) -> Device:
    arch = scaled_arch(f"range-{request.param}", 2, memory_bytes=1 << 22)
    return Device(machine=CudaMachine([arch], backend=request.param))


@pytest.fixture(autouse=True)
def fresh_obs():
    gc.collect()
    obs.reset()
    yield
    obs.reset()


@global_
def double_all(ctx, v: Ref[DeviceVector]):
    i = ctx.global_thread_id
    if i < len(v):
        x = yield ld(v.view, i)
        yield op(OpClass.FMUL)
        yield st(v.view, i, x * 2.0)


@global_
def gather_sum(ctx, src: ConstRef[DeviceVector], out: Ref[DeviceVector]):
    """Thread 0 sums the source through its read-only placement."""
    if ctx.global_thread_id == 0:
        total = 0.0
        for j in range(len(src)):
            v = yield from dl.ld_auto(src, j)
            total += v
            yield op(OpClass.FADD)
        yield st(out.view, 0, total)


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


def _invalidations(events) -> int:
    return sum(e.name == "vector.invalidate-device" for e in events)


def _kernel_write_host_write_kernel(dev, write) -> "tuple[np.ndarray, dict]":
    """Double on the device, write on the host (the host copy is stale,
    so the write downloads first), double again; the final host data and
    the ledger the sequence produced."""
    v = Vector(np.arange(N, dtype=np.float32))
    k = Kernel(double_all, 1, N)
    with obs.capture() as cap:
        k(dev, v)
        write(v)
        k(dev, v)
        out = v.to_numpy()
    return out, cap.ledger


VALUES = np.linspace(-1.0, 1.0, 6) / 3.0  # float64, rounds at the store


def _elementwise(v: Vector) -> None:
    for i, x in enumerate(VALUES):
        v[4 + i] = x


def _ranged(v: Vector) -> None:
    v[4:10] = VALUES


class TestSameEffectsAsElementWrites:
    def test_state_and_ledger_bytes_match(self, dev):
        by_element, ledger_e = _kernel_write_host_write_kernel(dev, _elementwise)
        by_range, ledger_r = _kernel_write_host_write_kernel(dev, _ranged)
        np.testing.assert_array_equal(by_range, by_element)
        assert ledger_r == ledger_e
        expected = np.arange(N, dtype=np.float32) * 2
        expected[4:10] = VALUES  # float32 rounding of the store
        np.testing.assert_array_equal(by_range, expected * 2)

    def test_one_invalidate_instant_per_range(self, dev):
        v = Vector(np.arange(N, dtype=np.float32))
        Kernel(gather_sum, 1, 1)(dev, v, Vector(np.zeros(1, np.float32)))
        with obs.capture() as cap:
            v[0:N] = np.ones(N)
            v[2:5] = np.zeros(3)  # device already stale: no second flip
        assert _invalidations(cap.events) == 1
        assert not v._device_valid

    def test_host_stale_vector_downloads_first(self, dev):
        v = Vector(np.arange(N, dtype=np.float32))
        Kernel(double_all, 1, N)(dev, v)
        assert v.downloads == 0
        v[0:2] = [-1.0, -2.0]
        assert v.downloads == 1
        expected = np.arange(N, dtype=np.float32) * 2
        expected[:2] = [-1.0, -2.0]
        np.testing.assert_array_equal(v.to_numpy(), expected)

    def test_host_stale_holder_is_pulled_first(self, dev):
        nv = NestedVector([[1.0, 1.0, 1.0], [1.0, 1.0]])
        row = nv[1]
        Kernel(scale_rows, 1, 2)(dev, nv)  # row 1 doubled on the device
        row[0:1] = [7.0]
        assert nv.downloads == 1
        assert nv.to_lists() == [[1.0, 1.0, 1.0], [7.0, 2.0]]

    def test_constant_mirror_is_dropped(self, dev):
        v = Vector(np.ones(8, np.float32), readonly_space="constant")
        out = Vector(np.zeros(1, np.float32))
        k = Kernel(gather_sum, 1, 1)
        k(dev, v, out)
        assert out[0] == 8.0
        assert v._const_valid
        v[0:4] = np.full(4, 3.0)
        assert not v._const_valid
        k(dev, v, out)
        assert out[0] == 16.0


class TestContract:
    def test_negative_and_open_bounds_resolve_like_a_slice(self):
        v = Vector(np.zeros(6, np.float32))
        v[-2:] = [1.0, 2.0]
        v[:1] = [3.0]
        assert list(v) == [3.0, 0.0, 0.0, 0.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "index, values",
        [
            (slice(0, 4), [1.0, 2.0, 3.0]),  # too few
            (slice(0, 2), [1.0, 2.0, 3.0]),  # too many: no resize
            (slice(4, 10), np.ones(6)),  # clipped to 2 slots
            (slice(0, 4), np.ones((2, 2))),  # not one-dimensional
            (slice(0, 4), 1.0),  # a scalar has no length
        ],
    )
    def test_length_mismatch_raises_and_changes_nothing(self, dev, index, values):
        v = Vector(np.arange(6, dtype=np.float32))
        Kernel(double_all, 1, 6)(dev, v)
        _ = v[0]  # host valid again, device still valid
        with obs.capture() as cap:
            with pytest.raises(CuppUsageError, match="never resizes"):
                v[index] = values
        assert len(v) == 6
        assert v._device_valid
        assert _invalidations(cap.events) == 0
        np.testing.assert_array_equal(
            v.to_numpy(), np.arange(6, dtype=np.float32) * 2
        )

    def test_rejected_element_write_changes_nothing(self, dev):
        v = Vector(np.arange(6, dtype=np.float32))
        Kernel(double_all, 1, 6)(dev, v)
        with pytest.raises(IndexError):
            v[6] = 1.0
        assert v._device_valid
        assert v.downloads == 0

    @pytest.mark.parametrize("step", [2, -1])
    def test_non_unit_step_raises(self, step):
        v = Vector(np.zeros(6, np.float32))
        with pytest.raises(CuppUsageError, match="unit step"):
            v[::step] = np.ones(len(range(6)[::step]))
        np.testing.assert_array_equal(v.to_numpy(), np.zeros(6, np.float32))
