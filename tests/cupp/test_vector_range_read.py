"""``v[a:b]``: one §4.6 read detection per range, on both backends.

A range read returns a read-only copy of an existing range.  It must
have exactly the effects of reading the same elements one at a time —
the same values, the same transfer-ledger bytes — while passing read
detection once.  A rejected read, by index or by step, downloads
nothing.  Each check runs on the cycle simulator and on the native
backend.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import obs
from repro.cuda import CudaMachine, global_
from repro.cupp import (
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

N = 16


@pytest.fixture(params=["sim", "native"])
def dev(request) -> Device:
    arch = scaled_arch(f"range-read-{request.param}", 2, memory_bytes=1 << 22)
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


def _host_stale(dev) -> Vector:
    """A vector a kernel has doubled: its host copy is stale."""
    v = Vector(np.arange(N, dtype=np.float32) / 3)
    Kernel(double_all, 1, N)(dev, v)
    return v


class TestSameEffectsAsElementReads:
    def test_values_and_ledger_match(self, dev):
        by_element = _host_stale(dev)
        with obs.capture() as cap_e:
            values_e = [by_element[i] for i in range(3, 11)]
        by_range = _host_stale(dev)
        with obs.capture() as cap_r:
            values_r = by_range[3:11]
        assert values_r.tolist() == values_e
        assert cap_r.ledger == cap_e.ledger
        assert by_range.downloads == by_element.downloads == 1

    def test_one_read_detection_per_range(self, dev, monkeypatch):
        v = _host_stale(dev)
        calls = []
        ensure = Vector._ensure_host

        def counted(self, *args, **kwargs):
            calls.append(self)
            return ensure(self, *args, **kwargs)

        monkeypatch.setattr(Vector, "_ensure_host", counted)
        v[0:N]
        assert calls == [v]

    def test_result_is_a_read_only_copy(self, dev):
        v = _host_stale(dev)
        out = v[2:5]
        assert out.dtype == np.float32
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1.0
        v[2] = -1.0
        assert out[0] != -1.0
        assert v._device_valid is False  # the element write still detects

    def test_host_stale_holder_is_pulled_first(self, dev):
        nv = NestedVector([[1.0, 1.0, 1.0], [1.0, 1.0]])
        row = nv[1]
        Kernel(scale_rows, 1, 2)(dev, nv)  # row 1 doubled on the device
        assert row[0:2].tolist() == [2.0, 2.0]
        assert nv.downloads == 1


class TestContract:
    def test_bounds_resolve_like_a_slice(self):
        v = Vector(np.arange(6, dtype=np.float32))
        assert v[-2:].tolist() == [4.0, 5.0]
        assert v[:2].tolist() == [0.0, 1.0]
        assert v[4:100].tolist() == [4.0, 5.0]
        assert v[5:2].tolist() == []
        assert v[:].tolist() == list(v)

    @pytest.mark.parametrize("step", [2, -1])
    def test_non_unit_step_raises_and_moves_nothing(self, dev, step):
        v = _host_stale(dev)
        with obs.capture() as cap:
            with pytest.raises(CuppUsageError, match="unit step"):
                v[::step]
        assert v.downloads == 0
        assert not v._host_valid
        assert sum(cap.ledger["moved_bytes_by_direction"].values()) == 0

    @pytest.mark.parametrize("index", [N, -N - 1])
    def test_bad_element_index_raises_and_moves_nothing(self, dev, index):
        v = _host_stale(dev)
        with obs.capture() as cap:
            with pytest.raises(IndexError):
                v[index]
        assert v.downloads == 0
        assert not v._host_valid
        assert sum(cap.ledger["moved_bytes_by_direction"].values()) == 0
        assert v[N - 1] == pytest.approx((N - 1) / 3 * 2)
