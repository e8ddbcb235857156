"""The native backend as a device: same surface, different substrate."""

import numpy as np
import pytest

from repro.backend.base import (
    BACKEND_KINDS,
    ExecutionBackend,
    normalize_backends,
    resolve_backend,
)
from repro import obs
from repro.backend.native import EwmaCost, NativeDevice
from repro.common.errors import ConfigurationError
from repro.cuda import CudaMachine, global_
from repro.cupp import ConstRef, CuppUsageError, Device, DeviceVector, Kernel, Ref, Vector
from repro.simgpu import OpClass
from repro.simgpu import devicelib as dl
from repro.simgpu.arch import G80_8800GTS
from repro.simgpu.dims import Dim3
from repro.simgpu.isa import op, st


class TestBackendSpecs:
    def test_resolve_accepts_both_kinds(self):
        for kind in BACKEND_KINDS:
            assert resolve_backend(kind) == kind
        assert resolve_backend("  Native ") == "native"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="sim, native"):
            resolve_backend("warp")

    def test_normalize_single_kind_fans_out(self):
        assert normalize_backends("sim", 3) == ["sim", "sim", "sim"]
        assert normalize_backends("native", 2) == ["native", "native"]

    def test_normalize_mixed_alternates(self):
        assert normalize_backends("mixed", 4) == ["sim", "native", "sim", "native"]
        assert normalize_backends("mixed", 1) == ["sim"]

    def test_normalize_explicit_list(self):
        assert normalize_backends(["native", "sim"], 2) == ["native", "sim"]

    def test_normalize_list_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="2 entries for 3 devices"):
            normalize_backends(["sim", "native"], 3)

    def test_normalize_rejects_unknown_with_mixed_hint(self):
        with pytest.raises(ConfigurationError, match="mixed"):
            normalize_backends("gpu", 2)

    def test_normalize_needs_a_device(self):
        with pytest.raises(ConfigurationError, match="at least one device"):
            normalize_backends("sim", 0)


class TestDeviceConstruction:
    def test_default_device_is_sim(self):
        assert Device().backend_kind == "sim"

    def test_backend_kwarg_selects_native(self):
        dev = Device(backend="native")
        assert dev.backend_kind == "native"
        assert isinstance(dev.backend, NativeDevice)
        assert isinstance(dev.backend, ExecutionBackend)
        # The historical alias still reaches the same object.
        assert dev.sim is dev.backend

    def test_backend_and_machine_are_mutually_exclusive(self):
        with pytest.raises(CuppUsageError, match="machine or a backend"):
            Device(machine=CudaMachine(), backend="native")

    def test_machine_mixed_kinds(self):
        machine = CudaMachine([G80_8800GTS, G80_8800GTS], backend="mixed")
        kinds = [d.backend_kind for d in machine.devices]
        assert kinds == ["sim", "native"]

    def test_native_properties_match_sim(self):
        sim_props = Device(backend="sim").properties()
        nat_props = Device(backend="native").properties()
        assert nat_props == sim_props


@global_
def _double(ctx, src: ConstRef[DeviceVector], out: Ref[DeviceVector]):
    """Unregistered generator kernel — exercises the SIMT fallback."""
    i = ctx.global_thread_id
    v = yield from dl.ld_auto(src, i)
    yield op(OpClass.FMUL)
    yield st(out.view, i, v * 2.0)


class TestNativeExecution:
    def test_memory_roundtrip_through_kernel(self):
        dev = Device(backend="native")
        data = np.arange(8, dtype=np.float32)
        src = Vector(data, dtype=np.float32)
        out = Vector(np.zeros(8, np.float32), dtype=np.float32)
        Kernel(_double, 1, 8)(dev, src, out)
        np.testing.assert_array_equal(out.to_numpy(), data * 2.0)

    def test_simt_fallback_matches_sim(self):
        results = {}
        for kind in BACKEND_KINDS:
            dev = Device(backend=kind)
            src = Vector(np.linspace(0, 1, 16).astype(np.float32), dtype=np.float32)
            out = Vector(np.zeros(16, np.float32), dtype=np.float32)
            Kernel(_double, 1, 16)(dev, src, out)
            results[kind] = out.to_numpy()
        np.testing.assert_array_equal(results["sim"], results["native"])

    def test_validate_launch_enforced_on_native(self):
        dev = Device(backend="native")
        with pytest.raises(ConfigurationError, match="non-zero"):
            dev.backend.validate_launch(Dim3(0, 1, 1), Dim3(32, 1, 1))
        with pytest.raises(ConfigurationError, match="exceeds the limit"):
            dev.backend.validate_launch(Dim3(1, 1, 1), Dim3(1024, 1, 1))

    def test_duration_is_measured_wall_clock(self):
        dev = Device(backend="native")
        src = Vector(np.ones(8, np.float32), dtype=np.float32)
        out = Vector(np.zeros(8, np.float32), dtype=np.float32)
        Kernel(_double, 1, 8)(dev, src, out)
        result = dev.backend.launches[-1]
        assert result.elapsed_s > 0.0
        assert dev.backend.duration_s(result) == result.elapsed_s

    def test_pool_attaches_to_native_device(self):
        dev = Device(backend="native")
        pool = dev.enable_pool()
        assert dev.pool is pool
        src = Vector(np.ones(4, np.float32), dtype=np.float32)
        out = Vector(np.zeros(4, np.float32), dtype=np.float32)
        Kernel(_double, 1, 4)(dev, src, out)
        np.testing.assert_array_equal(out.to_numpy(), np.full(4, 2.0, np.float32))

    def test_simt_fallback_is_counted_per_kernel(self):
        obs.reset()
        dev = Device(backend="native")
        src = Vector(np.ones(8, np.float32), dtype=np.float32)
        out = Vector(np.zeros(8, np.float32), dtype=np.float32)
        for _ in range(2):
            Kernel(_double, 1, 8)(dev, src, out)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["backend.simt_fallbacks{kernel=_double}"] == 2
        obs.reset()

    def test_vectorized_launches_list_no_fallback_series(self):
        from repro.gpusteer import EmulatedBoids

        obs.reset()
        EmulatedBoids(32, 5, seed=1, device=Device(backend="native")).step()
        counters = obs.get_metrics().snapshot()["counters"]
        assert not any(k.startswith("backend.simt_fallbacks") for k in counters)
        obs.reset()


class TestEwmaCost:
    def test_first_observation_replaces_seed(self):
        cost = EwmaCost()
        assert cost.predict(2.0) == 2.0  # seed ratio 1.0
        cost.observe(modelled_s=1.0, measured_s=3.0)
        assert cost.predict(2.0) == pytest.approx(6.0)

    def test_later_observations_smooth(self):
        cost = EwmaCost(alpha=0.5)
        cost.observe(1.0, 4.0)
        cost.observe(1.0, 2.0)
        # ratio = 0.5 * 2 + 0.5 * 4 = 3
        assert cost.predict(1.0) == pytest.approx(3.0)
