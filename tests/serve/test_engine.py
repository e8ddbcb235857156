"""StepEngine: its kernel rows are the timing model's, launch for launch."""

import pytest

from repro import obs
from repro.bench.calibration import DEFAULT_CALIBRATION
from repro.cupp import CuppUsageError
from repro.gpusteer.versions import DEVICE_VERSIONS, update_time
from repro.serve.engine import StepEngine
from repro.serve.service import ServeConfig, SimulationService
from repro.steer.params import DEFAULT_PARAMS


class TestDeviceVersionsOnly:
    @pytest.mark.parametrize("version", [0, 7])
    def test_a_version_without_device_kernels_is_rejected(self, version):
        with pytest.raises(CuppUsageError):
            StepEngine(version=version)
        with pytest.raises(CuppUsageError):
            SimulationService(ServeConfig(version=version))


class TestNoDriftFromTheTimingModel:
    @pytest.mark.parametrize("version", DEVICE_VERSIONS)
    @pytest.mark.parametrize("n", [128, 1000, 4096])
    def test_rows_sum_to_update_time(self, version, n):
        engine = StepEngine(version=version)
        rows = engine.kernel_cost_rows(n)
        breakdown = update_time(version, n, DEFAULT_PARAMS)
        assert sum(secs for _, _, secs in rows) == breakdown.gpu_kernel_s
        assert engine.kernel_seconds(n) == breakdown.gpu_kernel_s
        assert (
            len(rows) * DEFAULT_CALIBRATION.launch_overhead_s
            == breakdown.launch_overhead_s
        )
        assert engine.launches_per_batch == len(rows)


class TestServeChargesItsVersionsLaunches:
    @pytest.mark.parametrize("version, launches", [(2, 1), (5, 2)])
    def test_launches_per_batch(self, version, launches):
        service = SimulationService(
            ServeConfig(
                version=version, agents_per_session=16, devices=1,
                physics=False,
            )
        )
        for sid in ("a", "b"):
            service.create_session(sid)
            service.submit(sid)
        service.drain()
        stats = service.stats
        assert stats.batches > 0
        assert stats.launches == launches * stats.batches
        assert obs.counter("repro.serve.launches").value == stats.launches
