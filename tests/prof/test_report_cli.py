"""Report building, diffing, and the ``python -m repro.prof`` CLI."""

import json

import pytest

from repro.prof.__main__ import main, parse_target, profile_pipeline
from repro.prof.report import (
    diff_reports,
    render_diff,
    render_report,
    session_report,
)


@pytest.fixture(scope="module")
def report_v1():
    return session_report(profile_pipeline(1), label="v1")


@pytest.fixture(scope="module")
def report_v5():
    return session_report(profile_pipeline(5), label="v5")


class TestSessionReport:
    def test_shape(self, report_v1):
        assert set(report_v1) == {
            "label", "launches", "totals", "kernels", "roofline", "findings",
        }
        assert report_v1["label"] == "v1"
        assert "find_neighbors_v1" in report_v1["kernels"]
        assert "find_neighbors_v1" in report_v1["roofline"]
        assert report_v1["findings"]

    def test_json_serializable(self, report_v1):
        parsed = json.loads(json.dumps(report_v1))
        assert parsed["kernels"]["find_neighbors_v1"]["launches"] == 1

    def test_render_mentions_kernels_and_findings(self, report_v1):
        text = render_report(report_v1)
        assert "find_neighbors_v1" in text
        assert "uncoalesced-loads" in text
        assert "roofline" in text


class TestDiff:
    def test_v1_to_v5_speedup_is_attributed(self, report_v1, report_v5):
        d = diff_reports(report_v1, report_v5)
        assert d["totals"]["speedup"] > 1.0
        assert d["totals"]["verdict"] == "improved"
        # The attribution must lead with the counters that moved down the
        # most — for v1 -> v5 that is the global-memory traffic story.
        leading = [row["counter"] for row in d["attribution"][:5]]
        assert "uncoalesced_read_transactions" in leading
        assert "bytes_moved" in leading
        for row in d["attribution"]:
            if row["counter"] in ("uncoalesced_read_transactions",
                                  "read_transactions", "bytes_moved"):
                assert row["change"] < 0, row

    def test_kernel_turnover_is_reported(self, report_v1, report_v5):
        d = diff_reports(report_v1, report_v5)
        assert d["only_in_a"] == ["find_neighbors_v1"]
        assert set(d["only_in_b"]) == {"modify_kernel", "simulate_v4"}

    def test_findings_resolved(self, report_v1, report_v5):
        d = diff_reports(report_v1, report_v5)
        assert "uncoalesced-loads:find_neighbors_v1" in (
            d["findings_resolved"]
        )
        assert not any(
            f.startswith("uncoalesced-loads:")
            for f in d["findings_introduced"]
        )

    def test_render_diff(self, report_v1, report_v5):
        text = render_diff(diff_reports(report_v1, report_v5))
        assert "speedup attribution" in text
        assert "findings resolved" in text

    def test_same_report_diff_is_flat(self, report_v1):
        d = diff_reports(report_v1, report_v1)
        assert d["totals"]["speedup"] == pytest.approx(1.0)
        assert d["totals"]["verdict"] == "same"
        for entry in d["kernels"].values():
            assert entry["modelled_s"]["verdict"] == "same"


class TestCli:
    def test_parse_target(self):
        assert parse_target("v3") == ("sim", 3)
        assert parse_target("native:v1") == ("native", 1)
        assert parse_target("serve") == ("sim", "serve")
        for bad in ("v9", "foo", "cuda:v1"):
            with pytest.raises(ValueError):
                parse_target(bad)

    def test_single_target_with_json(self, tmp_path, capsys):
        out = tmp_path / "v5.json"
        code = main(["v5", "--agents", "32", "--tpb", "16",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["label"] == "v5"
        assert "simulate_v4" in payload["kernels"]
        assert "repro.prof — v5" in capsys.readouterr().out

    def test_v1_json_is_memory_bound_and_uncoalesced(self, tmp_path, capsys):
        out = tmp_path / "v1.json"
        assert main(["v1", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        kernel = payload["kernels"]["find_neighbors_v1"]
        assert kernel["uncoalesced_read_transactions"] > 0
        assert payload["roofline"]["find_neighbors_v1"]["bound"] == "memory"

    def test_diff_two_targets(self, tmp_path, capsys):
        out = tmp_path / "diff.json"
        code = main(["--diff", "v4", "v5", "--agents", "32",
                     "--tpb", "16", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"a", "b", "diff"}
        assert payload["diff"]["a"] == "v4"
        assert "repro.prof diff" in capsys.readouterr().out

    def test_diff_requires_exactly_two(self, capsys):
        with pytest.raises(SystemExit):
            main(["--diff", "v1"])

    def test_bad_target_rejected_before_profiling(self, capsys):
        with pytest.raises(SystemExit):
            main(["v7"])
