"""The bench layer: report rendering, calibration, harness smoke tests."""

import pytest

from repro.bench.calibration import Calibration, DEFAULT_CALIBRATION
from repro.bench.report import format_series, format_table


class TestReport:
    def test_table_alignment(self):
        out = format_table(
            "T", ["a", "longheader"], [(1, 2.5), (10, 3.14159)]
        )
        lines = out.splitlines()
        assert lines[0] == "== T =="
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all rows equally wide

    def test_number_formatting(self):
        out = format_table("T", ["x"], [(123456.0,), (float("nan"),), (1.5,)])
        assert "123,456" in out
        assert "1.500" in out
        assert "-" in out  # NaN placeholder

    def test_note_appended(self):
        out = format_table("T", ["x"], [(1,)], note="hello note")
        assert out.endswith("hello note")

    def test_series_merges_x_values(self):
        out = format_series(
            "S", "n", {"a": {1: 10.0, 2: 20.0}, "b": {2: 5.0, 3: 7.0}}
        )
        assert "n" in out
        # x=1 has no 'b' point -> NaN placeholder appears.
        assert "-" in out

    def test_series_unit_label(self):
        out = format_series("S", "n", {"a": {1: 1.0}}, unit="fps")
        assert "a [fps]" in out


class TestCalibration:
    def test_default_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CALIBRATION.pcie_bandwidth = 1.0

    def test_cpu_model_reflects_constants(self):
        calib = Calibration(cpu_cycles_per_candidate=99.0)
        assert calib.cpu_model().cycles_per_candidate == 99.0

    def test_pcie_model_reflects_constants(self):
        calib = Calibration(pcie_bandwidth=1e9, pcie_call_overhead_s=1e-6)
        t = calib.pcie_model().transfer_time(1_000_000)
        assert t == pytest.approx(1e-6 + 1e-3)

    def test_extract_seconds_scales_linearly(self):
        c = DEFAULT_CALIBRATION
        assert c.extract_seconds(2000) == pytest.approx(
            2 * c.extract_seconds(1000)
        )

    def test_calibration_changes_rescale_not_reorder(self):
        # Halving the CPU constants halves every speedup but cannot change
        # who wins — the ladder ordering is structural.
        from repro.gpusteer import speedup_vs_cpu
        from repro.steer import DEFAULT_PARAMS

        cheap_cpu = Calibration(cpu_cycles_per_candidate=7.5)
        default = [
            speedup_vs_cpu(v, 4096, DEFAULT_PARAMS, calib=DEFAULT_CALIBRATION)
            for v in range(1, 6)
        ]
        rescaled = [
            speedup_vs_cpu(v, 4096, DEFAULT_PARAMS, calib=cheap_cpu)
            for v in range(1, 6)
        ]
        assert default == sorted(default)
        assert rescaled == sorted(rescaled)
        for d, r in zip(default, rescaled):
            assert r < d  # cheaper CPU -> smaller GPU advantage


class TestHarnessSmoke:
    def test_fig_5_6_rows(self):
        from repro.bench.harness import run_fig_5_6

        exp = run_fig_5_6(populations=(256, 512))
        assert len(exp.rows) == 2
        assert "Fig 5.6" in exp.report

    def test_fig_6_2_small_population(self):
        from repro.bench.harness import run_fig_6_2

        exp = run_fig_6_2(n=512, steps=2)
        assert set(exp.data["speedups"]) == set(range(6))

    def test_fig_6_3_estimated_stats_path(self):
        from repro.bench.harness import run_fig_6_3

        exp = run_fig_6_3(populations=(1024, 2048), measure=False)
        assert set(exp.data["without"]) == {1024, 2048}

    def test_sec_7_runs(self):
        from repro.bench.harness import run_sec_7_traits

        exp = run_sec_7_traits()
        assert exp.experiment_id == "sec-7"  # its --trace file stem
        assert exp.data["step"]["sim"] == exp.data["step"]["native"]
