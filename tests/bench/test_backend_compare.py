"""The backend-compare experiment: native throughput and conformance.

The native backend must record a throughput, beat instruction-level
emulation on the same kernels, and agree with the emulator on every
device version; the report's note names the versions it covered.
"""

import pytest

from repro.gpusteer.versions import DEVICE_VERSIONS


@pytest.fixture(scope="module")
def experiment():
    from repro.bench.harness import run_backend_compare

    return run_backend_compare()


class TestBackendCompare:
    def test_native_records_throughput(self, experiment):
        assert experiment.data["native_agent_steps_per_s"] > 0

    def test_native_beats_emulation(self, experiment):
        assert experiment.data["native_speedup_vs_emulator"] > 1

    def test_every_device_version_conforms(self, experiment):
        conf = experiment.data["conformance"]
        assert conf["ok"], conf
        assert {v["version"] for v in conf["versions"]} == set(DEVICE_VERSIONS)

    def test_note_names_the_versions_it_covered(self, experiment):
        span = f"v{DEVICE_VERSIONS[0]}-v{DEVICE_VERSIONS[-1]}"
        assert f"Conformance ({span}," in experiment.report
