"""Golden oracle for the instrumented serving loop.

Two chaos loadgen runs (``--streams 2`` and ``--streams 1``) with a
flight recorder and a degrading SLO monitor attached.  Every output the
observers produce — the flight ``traces``, ``batch_spans``,
``device_events`` and ``stats``, the alert log, and the ``LoadReport``
dict — is reduced to a sha256 of its canonical JSON and compared with
the digests committed in ``flight_golden.json``.  Any change to what the
service or the scheduler tells its observers, or to the schedule itself,
shows up as a digest mismatch here.

The run is also checked to exercise the hang, timeout, failover, expiry
and alert paths, so the digests keep guarding them.  To regenerate the
fixture after an intended change::

    PYTHONPATH=src python tests/serve/test_flight_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro import obs
from repro.serve import loadgen

FIXTURE = pathlib.Path(__file__).with_name("flight_golden.json")

#: The loadgen command line of the golden runs, minus ``--streams`` and
#: the output paths.
ARGS = [
    "--chaos", "--seed", "7", "--duration", "0.3", "--deadline-ms", "4",
    "--slo-p99-ms", "3", "--slo-window-ms", "5", "--slo-degrade",
    "shed-oldest",
]

STREAMS = (2, 1)

FLIGHT_SECTIONS = ("traces", "batch_spans", "device_events", "stats")


def _digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def golden_run(streams: int, out: pathlib.Path) -> "tuple[dict, dict, dict]":
    """Run the golden loadgen; returns ``(digests, path counts, docs)``."""
    obs.reset()
    paths = {
        name: out / f"streams{streams}.{name}.json"
        for name in ("flight", "alerts", "report")
    }
    code = loadgen.main(
        ARGS + [
            "--streams", str(streams),
            "--flight", str(paths["flight"]),
            "--alerts", str(paths["alerts"]),
            "--json", str(paths["report"]),
        ]
    )
    assert code == 0
    docs = {
        name: json.loads(path.read_text()) for name, path in paths.items()
    }
    digests = {
        section: _digest(docs["flight"][section])
        for section in FLIGHT_SECTIONS
    }
    digests["alerts"] = _digest(docs["alerts"])
    digests["report"] = _digest(docs["report"])
    report = docs["report"]
    counts = {
        "hangs": report["faults"]["by_kind"].get("hang", 0),
        "timeouts": report["timeouts"],
        "failovers": report["failovers"],
        "expired": report["expired"],
        "alerts": report["alerts_fired"],
    }
    return digests, counts, docs


@pytest.fixture(scope="module", params=STREAMS, ids=lambda s: f"streams{s}")
def golden(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    return (request.param, *golden_run(request.param, out))


def test_observer_outputs_match_the_golden_digests(golden):
    streams, digests, counts, _ = golden
    fixture = json.loads(FIXTURE.read_text())[f"streams={streams}"]
    assert counts == fixture["counts"]
    # The fixture only guards paths the run actually takes.
    assert all(counts.values()), counts
    assert digests == fixture["digests"]


def test_the_alert_log_records_rules_and_alerts(golden):
    docs = golden[-1]
    assert docs["alerts"]["rules"], "no SLO rules were registered"
    assert docs["alerts"]["alerts"], "the run fired no SLO alert"


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    import tempfile

    fixture = {}
    with tempfile.TemporaryDirectory() as tmp:
        for streams in STREAMS:
            digests, counts, _ = golden_run(streams, pathlib.Path(tmp))
            fixture[f"streams={streams}"] = {
                "counts": counts, "digests": digests,
            }
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
