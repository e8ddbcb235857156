"""Golden oracle for the serving schedule, observed through the loadgen.

Each case runs ``python -m repro.serve.loadgen`` with ``--json`` and
reduces the written ``LoadReport.to_dict()`` to a sha256 of its
canonical JSON, compared with the digests committed in
``loadgen_golden.json``.  The report carries every latency percentile,
batch count, launch total, and failure count, so any change to *when*
the service runs an event or forms a batch shows up here — including in
runs without a flight recorder or a fault injector, which the flight
golden does not cover.

The cases span both pipeline depths, chaos, deadlines under the
``block`` policy, and the CI perf-gate's saturation run (one device,
``shed-oldest`` degradation under live SLOs).  To regenerate the fixture
after an intended change::

    PYTHONPATH=src python tests/serve/test_loadgen_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro import obs
from repro.serve import loadgen

FIXTURE = pathlib.Path(__file__).with_name("loadgen_golden.json")

#: Case name -> loadgen command line (minus ``--json``).
CASES = {
    "streams1-seed3": ["--streams", "1", "--seed", "3", "--duration", "0.3"],
    "streams2-seed3": ["--streams", "2", "--seed", "3", "--duration", "0.3"],
    "streams1-chaos11": [
        "--streams", "1", "--chaos", "--seed", "11", "--duration", "0.3",
    ],
    "streams2-chaos11": [
        "--streams", "2", "--chaos", "--seed", "11", "--duration", "0.3",
    ],
    "block-deadline": [
        "--policy", "block", "--rate", "40000", "--duration", "0.2",
        "--deadline-ms", "3",
    ],
    # The CI perf-gate's "past saturation" command line.
    "saturation-slo": [
        "--clients", "16", "--duration", "0.25", "--rate", "48000",
        "--devices", "1", "--queue-capacity", "64", "--slo-p99-ms", "3",
        "--slo-queue-depth", "48", "--slo-window-ms", "20",
        "--slo-degrade", "shed-oldest",
    ],
}


def golden_digest(args: "list[str]", out: pathlib.Path) -> str:
    """Run one loadgen case; returns the sha256 of its canonical report."""
    obs.reset()
    path = out / "report.json"
    assert loadgen.main(args + ["--json", str(path)]) == 0
    report = json.loads(path.read_text())
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_loadgen_report_matches_the_golden_digest(case, tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    assert golden_digest(CASES[case], tmp_path) == fixture[case]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fixture = {
            case: golden_digest(args, pathlib.Path(tmp))
            for case, args in sorted(CASES.items())
        }
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
