"""Shared pointers and memory1d (§4.2), and what finalizers count."""

import copy
import gc

import numpy as np
import pytest

from repro import obs
from repro.cuda import CudaMachine
from repro.cupp import (
    CuppUsageError,
    Device,
    DeviceReference,
    DeviceSharedPtr,
    Memory1D,
    make_shared,
)
from repro.simgpu import scaled_arch


@pytest.fixture
def dev() -> Device:
    machine = CudaMachine([scaled_arch("t", 2, memory_bytes=1 << 22)])
    return Device(machine=machine)


class TestSharedPtr:
    def test_allocates_on_construction(self, dev):
        sim = dev.runtime.device
        before = sim.memory.allocation_count
        ptr = DeviceSharedPtr(dev, 1024)
        assert sim.memory.allocation_count == before + 1
        assert ptr.use_count == 1

    def test_clone_shares_allocation(self, dev):
        a = DeviceSharedPtr(dev, 256)
        b = a.clone()
        assert a.get() == b.get()
        assert a.use_count == b.use_count == 2

    def test_copy_module_integration(self, dev):
        a = DeviceSharedPtr(dev, 256)
        b = copy.copy(a)
        assert b.use_count == 2
        c = copy.deepcopy(a)
        assert c.use_count == 3

    def test_freed_only_after_last_release(self, dev):
        # §4.2: "The memory is freed automatically after the last smart
        # pointer pointing to a specific memory address is destroyed."
        sim = dev.runtime.device
        a = make_shared(dev, 512)
        b = a.clone()
        baseline = sim.memory.allocation_count
        a.release()
        assert sim.memory.allocation_count == baseline
        b.release()
        assert sim.memory.allocation_count == baseline - 1

    def test_release_is_idempotent_per_instance(self, dev):
        a = DeviceSharedPtr(dev, 64)
        b = a.clone()
        a.release()
        a.release()  # must not decrement twice
        assert b.use_count == 1

    def test_use_after_release_raises(self, dev):
        a = DeviceSharedPtr(dev, 64)
        a.release()
        with pytest.raises(CuppUsageError):
            a.get()


class TestMemory1D:
    def test_raii_alloc_and_free(self, dev):
        sim = dev.runtime.device
        before = sim.memory.allocation_count
        with Memory1D(dev, np.float32, 100) as mem:
            assert sim.memory.allocation_count == before + 1
            assert mem.nbytes == 400
        assert sim.memory.allocation_count == before

    def test_pointer_style_roundtrip(self, dev):
        data = np.linspace(0, 1, 50, dtype=np.float32)
        mem = Memory1D.from_host(dev, data)
        np.testing.assert_array_equal(mem.copy_to_host(), data)

    def test_iterator_style_transfer(self, dev):
        # §4.2: "the value of the iterator passed to the function is the
        # first value in the memory block, the value the iterator points
        # to when incrementing is the next value ..."
        mem = Memory1D.from_iterable(dev, np.int32, (i * i for i in range(10)))
        assert list(mem) == [i * i for i in range(10)]

    def test_copy_from_iter_preserves_traversal_order(self, dev):
        mem = Memory1D(dev, np.int32, 4)
        mem.copy_from_iter(reversed([1, 2, 3, 4]))
        assert list(mem) == [4, 3, 2, 1]

    def test_copy_is_deep(self, dev):
        # §4.2: "When the object is copied, the copy allocates new memory
        # and copies the data".
        original = Memory1D.from_host(dev, np.array([1, 2, 3], dtype=np.int32))
        dup = copy.copy(original)
        assert dup.ptr != original.ptr
        original.copy_from_host(np.array([9, 9, 9], dtype=np.int32))
        assert list(dup) == [1, 2, 3]

    def test_size_mismatch_rejected(self, dev):
        mem = Memory1D(dev, np.float32, 8)
        with pytest.raises(CuppUsageError):
            mem.copy_from_host(np.zeros(9, dtype=np.float32))

    def test_use_after_close_raises(self, dev):
        mem = Memory1D(dev, np.float32, 8)
        mem.close()
        with pytest.raises(CuppUsageError):
            mem.copy_to_host()

    def test_close_idempotent_and_safe_after_device_close(self, dev):
        mem = Memory1D(dev, np.float32, 8)
        dev.close()
        mem.close()  # device already reclaimed everything; must not raise

    def test_view_not_host_indexable(self, dev):
        mem = Memory1D(dev, np.float32, 8)
        with pytest.raises(Exception, match="host"):
            mem.view()[0]


def _teardown_errors() -> "int | None":
    return obs.get_metrics().snapshot()["counters"].get("cupp.teardown_errors")


def _failing_free(*args: object) -> None:
    raise RuntimeError("driver gone")


#: Handle kind -> (make it on ``dev``, the device hook its teardown calls).
HANDLES = {
    "DeviceReference": (lambda dev: DeviceReference(dev, 5), "free"),
    "Memory1D": (lambda dev: Memory1D(dev, np.float32, 8), "free"),
    "DeviceSharedPtr": (lambda dev: DeviceSharedPtr(dev, 64), "free"),
    "Device": (lambda dev: dev, "free_all"),
}


class TestTeardownErrors:
    """A finalizer must not raise; one that fails is counted in
    ``cupp.teardown_errors``, not swallowed silently."""

    @pytest.fixture(autouse=True)
    def fresh_obs(self):
        gc.collect()
        obs.reset()
        yield
        obs.reset()

    @pytest.mark.parametrize("kind", sorted(HANDLES))
    def test_failing_finalizer_is_counted(self, dev, kind, monkeypatch):
        make, hook = HANDLES[kind]
        handle = make(dev)
        owner = dev.runtime.device.memory if hook == "free_all" else dev
        monkeypatch.setattr(owner, hook, _failing_free)
        handle.__del__()  # what the garbage collector calls
        assert _teardown_errors() == 1
        monkeypatch.undo()
        dev.close()

    @pytest.mark.parametrize("kind", sorted(HANDLES))
    def test_clean_finalizer_lists_no_series(self, dev, kind):
        make, _hook = HANDLES[kind]
        make(dev).__del__()
        assert _teardown_errors() is None
