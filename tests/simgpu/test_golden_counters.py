"""Golden per-launch counters for the Boids pipelines on the SIMT emulator.

``golden_counters.json`` holds :meth:`InstructionProfile.summary` of every
kernel launch of two steps of pipeline versions 1–6 (n=64, seed 11, 32
threads/block), recorded from the warp executor before it gained its
convergent fast path.  Any executor change that moves a single counter of
a single launch fails here — unlike the sim-vs-native counter conformance,
whose two sides both run the same executor.

Regenerate (only when a counter change is intended and explained)::

    PYTHONPATH=src python tests/simgpu/test_golden_counters.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cupp.device import Device
from repro.gpusteer.emulated import EmulatedBoids
from repro.prof.session import ProfSession

GOLDEN = Path(__file__).with_name("golden_counters.json")
VERSIONS = (1, 2, 3, 4, 5, 6)
AGENTS, SEED, THREADS_PER_BLOCK, STEPS = 64, 11, 32, 2


class _LaunchLog(ProfSession):
    """A profiling session that keeps each launch's summary, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.rows: list[dict] = []

    def record_launch(self, name, backend, result, duration_s, arch, **_kw):
        self.rows.append({"kernel": name, **result.profile.summary()})


def launch_summaries(version: int) -> list[dict]:
    """Per-launch counter summaries of ``STEPS`` emulated steps."""
    boids = EmulatedBoids(
        AGENTS,
        version,
        seed=SEED,
        device=Device(backend="sim"),
        threads_per_block=THREADS_PER_BLOCK,
    )
    log = _LaunchLog()
    with log:
        for _ in range(STEPS):
            boids.step()
    return log.rows


@pytest.mark.parametrize("version", VERSIONS)
def test_launch_counters_match_golden(version):
    golden = json.loads(GOLDEN.read_text())[str(version)]
    assert launch_summaries(version) == golden


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {str(v): launch_summaries(v) for v in VERSIONS}, indent=1
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
