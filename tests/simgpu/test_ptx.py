"""Pseudo-PTX tracing: the §6.2.3 local-memory detective tool."""

import numpy as np
import pytest

from repro.simgpu import OpClass, SimDevice
from repro.simgpu.isa import ld, op, st, sync
from repro.simgpu.memory import DeviceArrayView
from repro.simgpu.ptx import find_local_spills, trace_kernel


@pytest.fixture
def scratch(device):
    ptr = device.memory.alloc(4 * 64)
    return device, DeviceArrayView(device.memory, ptr, np.dtype(np.float32), 64)


class TestTraceKernel:
    def test_arithmetic_rendered(self, scratch):
        device, _ = scratch

        def k(ctx):
            yield op(OpClass.FADD, 2)
            yield op(OpClass.RSQRT)

        trace = trace_kernel(k, (), device=device)
        listing = trace.listing()
        assert listing.count("add.f32") == 2
        assert "rsqrt.f32" in listing
        assert listing.startswith(".entry k")

    def test_memory_ops_rendered(self, scratch):
        device, arr = scratch

        def k(ctx, a):
            v = yield ld(a, 0)
            yield st(a, 1, v)

        trace = trace_kernel(k, (arr,), device=device)
        assert "ld.global.f32" in trace.listing()
        assert "st.global.f32" in trace.listing()

    def test_sync_rendered_as_bar(self, scratch):
        device, _ = scratch

        def k(ctx):
            yield op(OpClass.IADD)
            yield sync()

        trace = trace_kernel(k, (), threads=2, device=device)
        assert "bar.sync 0" in trace.listing()

    def test_shared_declarations_listed(self, scratch):
        device, _ = scratch

        def k(ctx):
            ctx.shared_array("tile", np.float32, 8)
            yield op(OpClass.IADD)

        trace = trace_kernel(k, (), device=device)
        assert trace.shared_arrays == {"tile": 32}
        assert ".shared .align 4 .b8 __shared_tile[32];" in trace.listing()

    def test_kernel_side_effects_happen(self, scratch):
        device, arr = scratch

        def k(ctx, a):
            yield st(a, 5, 42.0)

        trace_kernel(k, (arr,), device=device)
        assert device.memory.view(arr.ptr, np.float32, 64)[5] == 42.0


class TestLocalSpillDetection:
    def test_spilling_kernel_detected(self, scratch):
        device, _ = scratch

        def spilling(ctx):
            cache = ctx.local_array("cache", np.float32, 28)
            yield st(cache, 0, 1.0)

        trace = trace_kernel(spilling, (), device=device)
        assert trace.spills_to_device_memory
        assert trace.local_arrays == {"cache": 112}
        assert ".local .align 4 .b8 __local_cache[112];" in trace.listing()

    def test_clean_kernel_reports_no_spills(self, scratch):
        device, _ = scratch

        def clean(ctx):
            yield op(OpClass.FADD)

        assert find_local_spills(clean, ()) == {}

    def test_v3_spill_found_v4_clean(self):
        """The paper's actual investigation (§6.2.2): version 3's neighbor
        cache lives in local memory; version 4's does not."""
        import numpy as np

        from repro.cupp.vector import DeviceVector
        from repro.gpusteer import simulate_v3, simulate_v4

        device = SimDevice()

        def make_vec(count):
            ptr = device.memory.alloc(4 * count)
            return DeviceVector(
                DeviceArrayView(device.memory, ptr, np.dtype(np.float32), count)
            )

        n = 32
        positions = make_vec(3 * n)
        forwards = make_vec(3 * n)
        steering = make_vec(3 * n)
        args = (positions, forwards, 9.0, 12.0, 8.0, 8.0, steering)

        v3_spills = find_local_spills(simulate_v3, args, threads=32)
        v4_spills = find_local_spills(simulate_v4, args, threads=32)
        assert "neighbor_cache" in v3_spills
        assert v3_spills["neighbor_cache"] == 7 * 4 * 4  # 7 slots x 4 floats
        assert v4_spills == {}


class TestMultiPartEvents:
    """Bundles and float3 accesses are listed part by part: a kernel's
    listing equals the listing of the same kernel with every multi-part
    event expanded into plain yields."""

    @staticmethod
    def _args(device, kernel_name):
        from repro.cupp.vector import DeviceVector

        rng = np.random.default_rng(3)
        n = 32

        def make_vec(count, data=None):
            ptr = device.memory.alloc(4 * count)
            if data is not None:
                device.memory.copy_in(ptr, data.astype(np.float32))
            return DeviceVector(
                DeviceArrayView(device.memory, ptr, np.dtype(np.float32), count)
            )

        positions = make_vec(3 * n, rng.uniform(-10.0, 10.0, 3 * n))
        forwards = make_vec(3 * n, rng.standard_normal(3 * n))
        steering = make_vec(3 * n, rng.standard_normal(3 * n))
        if kernel_name == "simulate_v4":
            return (positions, forwards, 9.0, 12.0, 8.0, 8.0, steering)
        speeds = make_vec(n, rng.uniform(0.0, 1.0, n))
        smoothed = make_vec(3 * n, rng.standard_normal(3 * n))
        params = make_vec(6, np.array([1.0, 2.0, 1.0, 0.1, 0.5, 50.0]))
        matrices = make_vec(16 * n)
        return (steering, positions, forwards, speeds, smoothed, params, 1, matrices)

    @pytest.mark.parametrize("kernel_name", ["simulate_v4", "modify_kernel"])
    def test_listing_equals_the_expanded_kernel(self, kernel_name):
        from repro.gpusteer import kernels_emu

        from tests.simgpu.test_bundle_reference import expand_kernel

        kernel = getattr(kernels_emu, kernel_name)
        listings = []
        for fn in (kernel, expand_kernel(kernel)):
            device = SimDevice()
            args = self._args(device, kernel_name)
            trace = trace_kernel(fn, args, threads=32, device=device)
            listings.append(trace.listing())
        assert listings[0] == listings[1]
        assert "ld.shared.f32" in listings[0]  # a float3 shared load
        assert "// unknown event" not in listings[0]
