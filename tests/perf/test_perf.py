"""Tests of the wall-clock benchmark in ``perf/``: tiny workloads,
checks, tracing, and ``BENCHMARK.json``."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
import re

import numpy as np
import pytest

from perf import compare, measure, trace, workloads
from perf.__main__ import PINNED, main

ROOT = Path(__file__).resolve().parents[2]


def tiny(name: str):
    """The workload at the smallest size its kernels accept."""
    spec = workloads.WORKLOADS[name]
    if isinstance(spec, workloads.Boids):
        return dataclasses.replace(spec, agents=32, steps=2)
    return dataclasses.replace(spec, episode_s=0.01, block=16)


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def results() -> dict:
    """One untraced and one traced run of every tiny workload."""
    out = {}
    for name in workloads.WORKLOADS:
        spec = tiny(name)
        out[name] = (
            measure.run(spec, spec.seed, 0, False, 0.0)[0],
            measure.run(spec, spec.seed, 0, True, 0.0)[0],
        )
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_metric_and_passes_checks(name, results, bench):
    plain, traced = results[name]
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in bench[kind]}
        for m in bench[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert traced["metrics"]["trace.coverage"]["value"] >= 0.9
    if name == "serve-load":  # per-request timings come from the untraced half
        assert traced["metrics"]["serve.submit_p50_us"]["value"] > 0


def test_corrupted_final_state_fails_the_run(monkeypatch, capsys):
    outcome = workloads.BoidsEpisode.outcome

    def corrupted(self):
        state = outcome(self)
        state["positions"][0, 0] = np.nan
        return state

    monkeypatch.setattr(workloads.BoidsEpisode, "outcome", corrupted)
    result, _ = measure.run(tiny("cupp-calls"), 11, 0, False, 0.0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0

    for key, value in PINNED.items():
        monkeypatch.setenv(key, value)  # no re-exec
    monkeypatch.setitem(workloads.WORKLOADS, "cupp-calls", tiny("cupp-calls"))
    assert main(["--workload", "cupp-calls", "--seconds", "0"]) != 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_and_adjacent_spans():
    # op [0,100]: a [10,30] and b [30,60] are adjacent siblings;
    # c [40,50] nests in b.
    t = trace.Tracer(clock=FakeClock([0, 10, 30, 30, 40, 50, 60, 100]))
    t.enter("op")
    t.enter("a")
    t.exit()
    t.enter("b")
    t.enter("c")
    t.exit()
    t.exit()
    t.exit()
    assert {n: t.self_ns(n) for n in ("op", "a", "b", "c")} == {
        "op": 50, "a": 20, "b": 20, "c": 10,
    }
    assert t.total_self_ns() == 100
    assert [s[3] for s in t.spans] == [-1, 0, 0, 2]  # parent indexes


def test_same_named_inner_call_counts_once():
    t = trace.Tracer(clock=FakeClock([0, 5, 8, 10]))
    t.enter("cupp.vector.device_request")
    t.enter("cupp.vector.device_request")
    t.exit()
    t.exit()
    assert t.calls("cupp.vector") == 1
    assert t.wall_ns("cupp.vector") == 10
    assert t.self_ns("cupp.vector") == 10


def test_tracing_cost_is_left_out_of_self_times():
    t = trace.Tracer(clock=FakeClock([0, 10, 30, 100]))
    t.inner_ns, t.outer_ns = 2, 5
    t.enter("op")
    t.enter("a")
    t.exit()
    t.exit()
    assert t.self_ns("a") == 18
    assert t.self_ns("op") == 73
    assert t.total_self_ns() == 100 - 2 * 2 - 5


def _targets() -> dict:
    found = {}
    for _, spec, attrs in trace.TARGETS:
        owner = trace._resolve(spec)
        for attr in trace._expand(owner, attrs):
            found[(spec, attr)] = (attr in vars(owner), vars(owner).get(attr))
    return found


def test_wrappers_are_removed_after_a_traced_run():
    before = _targets()
    assert len(before) > 40
    result, _ = measure.run(tiny("serve-load"), 0, 0, True, 0.0)
    assert result["correct"]
    after = _targets()
    assert after.keys() == before.keys()
    for key, (owned, original) in before.items():
        assert after[key][0] == owned
        assert after[key][1] is original, key


def test_benchmark_json_matches_the_runner(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        n: s.why for n, s in workloads.WORKLOADS.items()
    }
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == measure.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert bench["paths"] == ["perf", "tests/perf"]
    assert bench["command"][1:] == ["-m", "perf"]


BASE = [10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10]


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        (BASE, [v + 2 for v in BASE], "higher", "better"),
        (BASE[:4], [v + 2 for v in BASE[:4]], "higher", "same"),  # too few pairs
        (BASE, [v - 2 for v in BASE], "higher", "worse"),
        (BASE, [v - 1 for v in BASE], "lower", "better"),
        (BASE, BASE[::-1], "lower", "same"),
        ([10, 14, 6, 10], [11, 7, 15, 10], "lower", "unresolved"),
        ([10, 14, 6, 10], [20, 21, 22, 23], "lower", "worse"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, better, 0.1) == expected


def test_compare_reads_set_files(bench):
    def doc(scale):
        return {
            "runs": [
                {
                    "workload": "emu-v5",
                    "trace": 0,
                    "result": {"metrics": {"throughput": {"value": v * scale}}},
                }
                for v in (100, 101, 99)
            ]
        }

    rows = compare.compare(doc(1.0), doc(0.5), bench)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("emu-v5", "throughput", "worse")
    ]
    assert "worse" in compare.render(rows)[1]
