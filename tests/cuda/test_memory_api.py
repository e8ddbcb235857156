"""Memory management API (§3.2.3): malloc/free/memcpy with error codes."""

import numpy as np
import pytest

from repro import obs
from repro.cuda import CudaMachine, CudaRuntime, cudaError, cudaMemcpyKind
from repro.obs.tracer import InMemoryRecorder
from repro.simgpu import scaled_arch
from repro.simgpu.memory import DevicePtr

H2D = cudaMemcpyKind.cudaMemcpyHostToDevice
D2H = cudaMemcpyKind.cudaMemcpyDeviceToHost
D2D = cudaMemcpyKind.cudaMemcpyDeviceToDevice
H2H = cudaMemcpyKind.cudaMemcpyHostToHost


@pytest.fixture
def rt() -> CudaRuntime:
    return CudaRuntime(CudaMachine([scaled_arch("t", 2, memory_bytes=1 << 22)]))


class TestMallocFree:
    def test_malloc_returns_pointer(self, rt):
        err, ptr = rt.cudaMalloc(1024)
        assert err.ok and isinstance(ptr, DevicePtr)

    def test_malloc_failure_returns_error_code(self, rt):
        err, ptr = rt.cudaMalloc(1 << 30)
        assert err is cudaError.cudaErrorMemoryAllocation
        assert ptr is None

    def test_free_roundtrip(self, rt):
        _, ptr = rt.cudaMalloc(128)
        assert rt.cudaFree(ptr).ok

    def test_double_free_returns_error_code(self, rt):
        # This is the C-style behaviour CuPP replaces with exceptions.
        _, ptr = rt.cudaMalloc(128)
        rt.cudaFree(ptr)
        assert rt.cudaFree(ptr) is cudaError.cudaErrorInvalidDevicePointer


class TestBadArguments:
    """The C-style API reports bad arguments as error codes and changes
    nothing; it never raises."""

    @pytest.mark.parametrize("count", [1.5, "x", None])
    def test_malloc_of_a_non_integer_is_invalid_value(self, rt, count):
        free = rt.device.memory.free_bytes
        assert rt.cudaMalloc(count) == (cudaError.cudaErrorInvalidValue, None)
        assert rt.device.memory.free_bytes == free

    def test_malloc_accepts_an_integer_like_count(self, rt):
        err, ptr = rt.cudaMalloc(np.int64(64))
        assert err.ok and isinstance(ptr, DevicePtr)

    @pytest.mark.parametrize("ptr", [12345, "p", 1.5])
    def test_free_of_a_non_pointer_is_invalid_device_pointer(self, rt, ptr):
        _, live = rt.cudaMalloc(128)
        free = rt.device.memory.free_bytes
        assert rt.cudaFree(ptr) is cudaError.cudaErrorInvalidDevicePointer
        assert rt.device.memory.free_bytes == free
        assert rt.cudaFree(live).ok


class TestMemcpy:
    def test_h2d_d2h_roundtrip(self, rt):
        data = np.arange(32, dtype=np.float32)
        _, ptr = rt.cudaMalloc(data.nbytes)
        assert rt.cudaMemcpy(ptr, data, data.nbytes, H2D).ok
        back = np.zeros_like(data)
        assert rt.cudaMemcpy(back, ptr, data.nbytes, D2H).ok
        np.testing.assert_array_equal(back, data)

    def test_d2d_copy(self, rt):
        data = np.arange(8, dtype=np.int32)
        _, a = rt.cudaMalloc(data.nbytes)
        _, b = rt.cudaMalloc(data.nbytes)
        rt.cudaMemcpy(a, data, data.nbytes, H2D)
        assert rt.cudaMemcpy(b, a, data.nbytes, D2D).ok
        back = np.zeros_like(data)
        rt.cudaMemcpy(back, b, data.nbytes, D2H)
        np.testing.assert_array_equal(back, data)

    def test_h2h_copy(self, rt):
        src = np.arange(4, dtype=np.float64)
        dst = np.zeros_like(src)
        assert rt.cudaMemcpy(dst, src, src.nbytes, H2H).ok
        np.testing.assert_array_equal(dst, src)

    def test_kind_mismatch_rejected(self, rt):
        # Passing a host array where the kind says device (and vice versa)
        data = np.zeros(4, dtype=np.float32)
        _, ptr = rt.cudaMalloc(16)
        assert (
            rt.cudaMemcpy(data, data, 16, H2D)
            is cudaError.cudaErrorInvalidMemcpyDirection
        )
        assert (
            rt.cudaMemcpy(ptr, ptr, 16, D2H)
            is cudaError.cudaErrorInvalidMemcpyDirection
        )

    def test_stale_pointer_rejected(self, rt):
        data = np.zeros(4, dtype=np.float32)
        _, ptr = rt.cudaMalloc(16)
        rt.cudaFree(ptr)
        assert (
            rt.cudaMemcpy(data, ptr, 16, D2H)
            is cudaError.cudaErrorInvalidDevicePointer
        )

    def test_d2d_copy_avoids_the_pcie_bus(self, rt):
        # Device-to-device copies run at device-memory bandwidth (64 GB/s
        # class), not PCIe (2.5 GB/s) — over an order of magnitude faster.
        nbytes = 1 << 20
        _, a = rt.cudaMalloc(nbytes)
        _, b = rt.cudaMalloc(nbytes)
        data = np.zeros(nbytes, np.uint8)

        t0 = rt.device.timeline.host_time
        rt.cudaMemcpy(a, data, nbytes, H2D)
        pcie_cost = rt.device.timeline.host_time - t0

        t0 = rt.device.timeline.host_time
        rt.cudaMemcpy(b, a, nbytes, D2D)
        d2d_cost = rt.device.timeline.host_time - t0

        assert d2d_cost * 5 < pcie_cost

    def test_memcpy_synchronizes_with_kernel(self, rt):
        # A memcpy issued while the device is busy blocks the host until
        # the kernel finishes (§2.2).
        rt.device.timeline.launch_kernel(0.05)
        data = np.zeros(4, dtype=np.float32)
        _, ptr = rt.cudaMalloc(16)
        before = rt.device.timeline.host_time
        rt.cudaMemcpy(ptr, data, 16, H2D)
        assert rt.device.timeline.host_time - before >= 0.05 - 1e-9



class TestRejectedCopyHasNoSideEffects:
    """A copy whose host buffer is shorter than ``count`` returns
    ``cudaErrorInvalidValue`` before it charges time, bumps a counter,
    writes a ledger row or records an instant."""

    @pytest.mark.parametrize("call", ["cudaMemcpy", "cudaMemcpyAsync"])
    @pytest.mark.parametrize("kind", [H2D, D2H, H2H])
    def test_short_host_buffer(self, rt, call, kind):
        _, ptr = rt.cudaMalloc(64)
        _, stream = rt.cudaStreamCreate()
        tl = rt.device.timeline
        tl.launch_kernel(1e-3)  # in flight: a charged copy would wait
        short = np.zeros(1, dtype=np.float32)  # 4 bytes < 64
        host = np.zeros(16, dtype=np.float32)
        dst, src = {H2D: (ptr, short), D2H: (short, ptr), H2H: (short, host)}[kind]
        extra = (stream,) if call == "cudaMemcpyAsync" else ()
        obs.reset()
        recorder = obs.enable_tracing(InMemoryRecorder())

        def state():
            metrics, ledger = obs.get_metrics(), obs.get_ledger()
            return (tl.host_time, tl.device_busy_until, rt.memcpy_count,
                    metrics.snapshot(), ledger.snapshot(), len(recorder))

        try:
            before = state()
            err = getattr(rt, call)(dst, src, 64, kind, *extra)
            assert state() == before
        finally:
            obs.disable_tracing()
        assert err is cudaError.cudaErrorInvalidValue
        np.testing.assert_array_equal(short, 0.0)
