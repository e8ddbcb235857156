"""The kernel-prof bench experiment: its story, validated and gated."""

from pathlib import Path

import pytest

from repro.bench.__main__ import EXPERIMENTS
from repro.bench.regression import flatten_scalars, load_snapshot

BASELINE_PATH = str(
    Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"
)


@pytest.fixture(scope="module")
def experiment():
    from repro.bench.harness import run_kernel_prof

    return run_kernel_prof()


class TestKernelProf:
    def test_registered_and_gated(self):
        assert "kernel-prof" in EXPERIMENTS
        # Fully deterministic (emulated counters + analytic model), so
        # it belongs inside the perf-regression gate.
        assert "kernel-prof" in load_snapshot(BASELINE_PATH)["experiments"]

    def test_v1_vs_v5_story(self, experiment):
        data = experiment.data
        assert data["v1_to_v5_speedup"] > 1.0
        assert data["v1_uncoalesced_load_finding"] is True
        assert data["v5_uncoalesced_load_findings"] == 0

    def test_block_size_suggestion_validated(self, experiment):
        validation = experiment.data["block_size_validation"]
        assert validation["validated"] is True
        assert validation["measured_speedup"] > 1.0
        assert validation["suggested_threads_per_block"] > (
            experiment.data["threads_per_block"]
        )

    def test_scalars_flatten_for_the_gate(self, experiment):
        flat = flatten_scalars(experiment.data)
        assert flat["v1_to_v5_speedup"] > 1.0
        assert any(k.startswith("diff.") for k in flat)

    def test_report_prints_the_validation(self, experiment):
        assert "estimated" in experiment.report
        assert "measured" in experiment.report
