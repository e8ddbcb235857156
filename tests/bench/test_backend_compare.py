"""The backend-compare experiment: native throughput and conformance.

The native backend must record a throughput, beat instruction-level
emulation on the same kernels, and agree with the emulator on every
device version; the report's note names the versions it covered.  The
experiment itself reports only deterministic numbers (it is gated), so
the two wall-clock checks time the backends here.
"""

import time

import pytest

from repro.cupp import Device
from repro.gpusteer.emulated import EmulatedBoids
from repro.gpusteer.versions import DEVICE_VERSIONS


@pytest.fixture(scope="module")
def experiment():
    from repro.bench.harness import run_backend_compare

    return run_backend_compare()


def wall_s_per_step(kind, agents, steps, threads_per_block):
    """Wall-clock seconds per v5 step on one backend, after a warm-up."""
    boids = EmulatedBoids(
        agents, 5, seed=11, device=Device(backend=kind),
        threads_per_block=threads_per_block,
    )
    boids.step()  # warm the kernel registry + pools before timing
    start = time.perf_counter()
    for _ in range(steps):
        boids.step()
    return (time.perf_counter() - start) / steps


class TestBackendCompare:
    def test_native_records_throughput(self):
        assert 512 / wall_s_per_step("native", 512, 5, 32) > 0

    def test_native_beats_emulation(self):
        emulated = wall_s_per_step("sim", 32, 2, 16)
        assert emulated > wall_s_per_step("native", 32, 2, 16)

    def test_every_device_version_conforms(self, experiment):
        conf = experiment.data["conformance"]
        assert conf["ok"], conf
        assert {v["version"] for v in conf["versions"]} == set(DEVICE_VERSIONS)
        assert conf["exact_versions"] == len(DEVICE_VERSIONS)
        assert conf["max_abs_diff"] == 0.0

    def test_note_names_the_versions_it_covered(self, experiment):
        span = f"v{DEVICE_VERSIONS[0]}-v{DEVICE_VERSIONS[-1]}"
        assert f"Conformance ({span}," in experiment.report
