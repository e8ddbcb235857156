"""The perf-regression gate: flattening, direction, compare, CLI wiring."""

import copy
import json
from pathlib import Path

from repro.bench.regression import (
    compare,
    direction_of,
    flatten_scalars,
    load_snapshot,
    snapshot,
    write_snapshot,
)

BASELINE_PATH = str(
    Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"
)


class TestDirection:
    def test_latency_like_metrics_are_lower_is_better(self):
        for name in ("p99_ms", "batched.latency", "launches", "shed",
                     "max_queue_depth", "bytes_by_cause.eager"):
            assert direction_of(name) == "lower", name

    def test_throughput_like_metrics_are_higher_is_better(self):
        for name in ("speedups.5", "throughput_rps", "updates_per_second",
                     "throughput_gain"):
            assert direction_of(name) == "higher", name

    def test_lower_tokens_win_ties(self):
        assert direction_of("throughput_p99") == "lower"

    def test_shape_constants_are_band(self):
        assert direction_of("neighbor_share") == "band"


class TestFlatten:
    def test_nested_numeric_leaves_get_dotted_keys(self):
        data = {"a": {"b": 1, "c": 2.5}, "d": 3}
        assert flatten_scalars(data) == {"a.b": 1.0, "a.c": 2.5, "d": 3.0}

    def test_non_numeric_leaves_are_skipped(self):
        data = {
            "flag": True,
            "name": "v5",
            "rows": [1, 2, 3],
            "obj": object(),
            "n": 7,
        }
        assert flatten_scalars(data) == {"n": 7.0}

    def test_integer_dict_keys_stringify(self):
        assert flatten_scalars({"speedups": {0: 1.0}}) == {"speedups.0": 1.0}


def _snap(**experiments):
    return {"format": 1, "experiments": experiments}


class TestCompare:
    def test_within_tolerance_is_silent(self):
        base = _snap(e={"p99_ms": 100.0})
        assert compare(base, _snap(e={"p99_ms": 110.0}), 25.0) == []

    def test_wrong_direction_is_a_regression(self):
        base = _snap(e={"p99_ms": 100.0, "throughput_rps": 100.0})
        current = _snap(e={"p99_ms": 200.0, "throughput_rps": 50.0})
        deltas = compare(base, current, 25.0)
        assert [d.verdict for d in deltas] == ["regression", "regression"]
        assert all(d.failed for d in deltas)

    def test_good_direction_is_an_improvement_not_a_failure(self):
        base = _snap(e={"p99_ms": 100.0, "throughput_rps": 100.0})
        current = _snap(e={"p99_ms": 10.0, "throughput_rps": 500.0})
        deltas = compare(base, current, 25.0)
        assert [d.verdict for d in deltas] == ["improvement", "improvement"]
        assert not any(d.failed for d in deltas)

    def test_band_metrics_fail_on_any_drift(self):
        base = _snap(e={"neighbor_share": 0.5})
        for current_value in (0.1, 0.9):
            deltas = compare(base, _snap(e={"neighbor_share": current_value}))
            assert deltas[0].verdict == "regression"

    def test_missing_metric_fails_the_gate(self):
        deltas = compare(_snap(e={"p99_ms": 1.0}), _snap(e={}), 25.0)
        assert deltas[0].verdict == "missing" and deltas[0].failed

    def test_per_metric_tolerance_override(self):
        base = _snap(e={"p99_ms": 100.0})
        current = _snap(e={"p99_ms": 150.0})
        assert compare(base, current, 25.0)[0].failed
        assert compare(base, current, 25.0, {"e.p99_ms": 60.0}) == []

    def test_zero_baseline_only_flags_nonzero_current(self):
        base = _snap(e={"shed": 0.0, "expired": 0.0})
        current = _snap(e={"shed": 5.0, "expired": 0.0})
        (delta,) = compare(base, current, 25.0)
        assert delta.metric == "shed" and delta.failed


class TestCommittedBaseline:
    """The acceptance scenario, against the repo's real baseline file."""

    def test_fresh_snapshot_matches_committed_baseline(self):
        baseline = load_snapshot(BASELINE_PATH)
        # Re-run a representative pair (full snapshot = minutes of CI,
        # covered by the workflow's perf-gate job).
        from repro.bench.__main__ import EXPERIMENTS

        subset = {k: EXPERIMENTS[k] for k in ("fig-5.5", "fig-6.2")}
        fresh = snapshot(subset)
        trimmed = {
            "format": baseline["format"],
            "experiments": {
                k: baseline["experiments"][k] for k in subset
            },
        }
        deltas = compare(trimmed, fresh, tolerance_pct=25.0)
        assert [d for d in deltas if d.failed] == []

    def test_injected_regression_trips_the_gate(self):
        baseline = load_snapshot(BASELINE_PATH)
        doctored = copy.deepcopy(baseline)
        doctored["experiments"]["fig-6.2"]["speedups.5"] *= 4.0
        deltas = compare(
            doctored,
            {
                "format": 1,
                "experiments": {
                    "fig-6.2": baseline["experiments"]["fig-6.2"]
                },
            },
            tolerance_pct=25.0,
        )
        failing = [d for d in deltas if d.failed]
        assert any(
            d.metric == "speedups.5" and d.verdict == "regression"
            for d in failing
        )

    def test_lowered_const_elision_trips_the_gate(self):
        # A broken const-reference elision (§4.3.2) must not pass as an
        # "improvement": the elided count and bytes are band metrics.
        sec_7 = load_snapshot(BASELINE_PATH)["experiments"]["sec-7"]
        for metric in ("step.native.elided_writebacks",
                       "step.native.copy_back_skipped_const"):
            lowered = dict(sec_7, **{metric: sec_7[metric] - 1})
            deltas = compare(_snap(**{"sec-7": sec_7}),
                             _snap(**{"sec-7": lowered}), 0.0)
            assert [(d.metric, d.verdict) for d in deltas] == [
                (metric, "regression")
            ]

    def test_excluded_experiments_never_snapshotted(self):
        # snapshot() excludes no experiment: ids that once measured the
        # wall clock are snapshotted like every other.
        from types import SimpleNamespace

        runners = {
            name: (lambda: SimpleNamespace(data={"n": 1}))
            for name in ("sec-7", "backend-compare", "fig-6.2")
        }
        excluded = set(runners) - set(snapshot(runners)["experiments"])
        assert excluded == set()

    def test_every_registered_experiment_is_gated(self):
        from repro.bench.__main__ import EXPERIMENTS

        baseline = load_snapshot(BASELINE_PATH)
        assert set(EXPERIMENTS) <= set(baseline["experiments"])

    def test_snapshot_round_trips_to_disk(self, tmp_path):
        snap = _snap(e={"p99_ms": 1.25})
        path = str(tmp_path / "snap.json")
        write_snapshot(path, snap)
        assert load_snapshot(path) == snap
        # Stable formatting: sorted keys + trailing newline (diffable).
        text = (tmp_path / "snap.json").read_text()
        assert text.endswith("\n")
        assert text == json.dumps(snap, indent=1, sort_keys=True) + "\n"
