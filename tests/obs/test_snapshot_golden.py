"""Golden oracle for what the instrumented stack reports.

Each case resets the global observability state, runs a small workload
inside :func:`repro.obs.capture`, and reduces the captured metrics
snapshot and transfer-ledger delta to a sha256 of their canonical JSON,
compared with the digests committed in ``snapshot_golden.json``.  The
``loadgen-trace`` case hashes the metrics JSON that
``python -m repro.serve.loadgen --trace DIR`` writes.

Every counter, gauge and histogram the CuPP call path, the CUDA runtime,
the lazy containers and the serving stack publish lands in these
snapshots, so a change to *how* a series is resolved (a bound handle
instead of a registry lookup) must leave every digest as it is.  To
regenerate the fixture after an intended change::

    PYTHONPATH=src python tests/obs/test_snapshot_golden.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro import obs
from repro.cuda import global_
from repro.cupp import Boxed, ConstRef, Device, Kernel, Ref
from repro.cupp.containers import HashGrid
from repro.gpusteer.emulated import EmulatedBoids
from repro.serve import loadgen
from repro.simgpu import OpClass
from repro.simgpu.isa import op

FIXTURE = pathlib.Path(__file__).with_name("snapshot_golden.json")


def _digest(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _boids_steps(backend: str, steps: int) -> None:
    boids = EmulatedBoids(64, 5, seed=11, device=Device(backend=backend))
    for _ in range(steps):
        boids.step()


@global_
def count_cells(ctx, grid: ConstRef[HashGrid], out: Ref[int]):
    """Reads a HashGrid and writes one int: one ``cupp.containers`` query."""
    yield op(OpClass.IADD)
    out.value = len(grid.members)


def _containers_query() -> None:
    rng = np.random.default_rng(3)
    grid = HashGrid(cell_edge=2.0)
    grid.build(rng.uniform(-8, 8, (16, 3)).astype(np.float32))
    out = Boxed(0)
    Kernel(count_cells, 1, 1)(Device(), grid, out)
    assert out.value > 0


#: Case name -> workload run inside one capture.
CASES = {
    "native-v5-2-steps": lambda: _boids_steps("native", 2),
    "sim-v5-1-step": lambda: _boids_steps("sim", 1),
    "containers-query": _containers_query,
}


def capture_digest(case: str) -> str:
    """Run one case; returns the sha256 of its metrics and ledger."""
    # Devices left by earlier code publish pool gauges when collected.
    gc.collect()
    obs.reset()
    with obs.capture() as cap:
        CASES[case]()
    obs.reset()
    return _digest({"metrics": cap.metrics, "ledger": cap.ledger})


def loadgen_trace_digest(out: pathlib.Path) -> str:
    """The sha256 of a traced loadgen run's metrics JSON."""
    gc.collect()
    obs.reset()
    args = ["--streams", "2", "--seed", "3", "--duration", "0.1"]
    assert loadgen.main(args + ["--trace", str(out)]) == 0
    obs.reset()
    return _digest(json.loads((out / "serve-loadgen.metrics.json").read_text()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_capture_matches_the_golden_digest(case):
    assert capture_digest(case) == json.loads(FIXTURE.read_text())[case]


def test_loadgen_trace_metrics_match_the_golden_digest(tmp_path, capsys):
    fixture = json.loads(FIXTURE.read_text())
    assert loadgen_trace_digest(tmp_path) == fixture["loadgen-trace"]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    import tempfile

    fixture = {case: capture_digest(case) for case in sorted(CASES)}
    with tempfile.TemporaryDirectory() as tmp:
        fixture["loadgen-trace"] = loadgen_trace_digest(pathlib.Path(tmp))
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
