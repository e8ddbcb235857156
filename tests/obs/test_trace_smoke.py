"""End-to-end trace smoke: the traced CLI and the tracing demo emit
well-formed Chrome traces.

Runs ``python -m repro.bench --trace DIR fig-6.2`` and
``examples/tracing_demo.py DIR`` as subprocesses, exactly as a user
would, and validates every ``*.trace.json`` they write.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def trace_paths(tmp_path_factory) -> "list[Path]":
    out = tmp_path_factory.mktemp("traces")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in (
        ["-m", "repro.bench", "--trace", str(out), "fig-6.2"],
        [str(ROOT / "examples" / "tracing_demo.py"), str(out)],
    ):
        subprocess.run(
            [sys.executable, *argv],
            env=env,
            cwd=ROOT,
            check=True,
            capture_output=True,
            timeout=300,
        )
    return sorted(out.glob("*.trace.json"))


def test_both_runs_emit_traces(trace_paths):
    assert {p.name for p in trace_paths} >= {
        "fig-6.2.trace.json",
        "saxpy.trace.json",
    }


def test_every_trace_is_well_formed(trace_paths):
    for path in trace_paths:
        events = json.loads(path.read_text())["traceEvents"]
        assert events and events[0]["ph"] == "M", path.name
        assert "X" in {e["ph"] for e in events}, f"{path.name}: no spans"
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= event.keys(), path.name
