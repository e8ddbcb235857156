"""Cross-backend differential conformance: sim vs native, same kernels.

The oracle for the native backend is the cycle simulator: run the same
workload from the same seed on both, compare every array the pipeline
produces.  The conformance policy (DESIGN.md §6):

* integer paths (neighbor-index results) must be **exactly** equal;
* float paths are tolerance-bounded (``FLOAT_TOLERANCE`` max absolute
  difference) — but because the native twins mirror the emulator's
  float64-between-float32-stores numerics op for op, the observed
  difference is 0.0 in practice, and the suite records exactness;
* keep-7 tie-breaking is exact, not tolerated: every engine selects the
  smallest seven ``(d2, index)`` pairs (see
  :mod:`repro.backend.kernels_native`), so neighbor sets are
  bit-identical across backends, across pipeline versions (all-pairs,
  tiled, grid-bucketed), and under manufactured exact-tie inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusteer.versions import DEVICE_VERSIONS

#: Max absolute difference allowed on float arrays.  The twins are
#: bit-exact by construction; the bound exists so the suite degrades
#: into a meaningful tolerance check if a platform's libm ever differs.
FLOAT_TOLERANCE = 1e-6


@dataclass
class ArrayReport:
    """Comparison of one named array across the two backends."""

    name: str
    dtype: str
    exact: bool
    max_abs_diff: float

    @property
    def ok(self) -> bool:
        if np.issubdtype(np.dtype(self.dtype), np.integer):
            return self.exact
        return self.exact or self.max_abs_diff <= FLOAT_TOLERANCE


@dataclass
class ConformanceReport:
    """All array comparisons for one differential run."""

    version: int
    agents: int
    steps: int
    arrays: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.arrays)

    @property
    def exact(self) -> bool:
        return all(a.exact for a in self.arrays)

    @property
    def max_abs_diff(self) -> float:
        return max((a.max_abs_diff for a in self.arrays), default=0.0)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "agents": self.agents,
            "steps": self.steps,
            "ok": self.ok,
            "exact": self.exact,
            "max_abs_diff": self.max_abs_diff,
            "arrays": {
                a.name: {
                    "dtype": a.dtype,
                    "exact": a.exact,
                    "max_abs_diff": a.max_abs_diff,
                }
                for a in self.arrays
            },
        }


def compare_arrays(name: str, a, b) -> ArrayReport:
    """Compare one array pair under the int-exact / float-bounded policy."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return ArrayReport(name, str(a.dtype), exact=False, max_abs_diff=float("inf"))
    exact = bool(np.array_equal(a, b))
    if exact or a.size == 0:
        diff = 0.0
    elif np.issubdtype(a.dtype, np.integer):
        diff = float(np.max(np.abs(a.astype(np.int64) - b.astype(np.int64))))
    else:
        diff = float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
    return ArrayReport(name, str(a.dtype), exact=exact, max_abs_diff=diff)


def run_differential(
    version: int,
    agents: int = 32,
    steps: int = 3,
    seed: int = 7,
    threads_per_block: int = 16,
) -> ConformanceReport:
    """Run one gpusteer pipeline version on both backends, same seed,
    and compare everything it produces."""
    from repro.cupp.device import Device
    from repro.gpusteer.emulated import EmulatedBoids

    pair = {}
    for kind in ("sim", "native"):
        boids = EmulatedBoids(
            agents,
            version,
            seed=seed,
            device=Device(backend=kind),
            threads_per_block=threads_per_block,
        )
        for _ in range(steps):
            boids.step()
        pair[kind] = boids

    report = ConformanceReport(version=version, agents=agents, steps=steps)
    sim, native = pair["sim"], pair["native"]
    native_snap = native.snapshot()
    for name, a in sim.snapshot().items():
        report.arrays.append(compare_arrays(name, a, native_snap[name]))
    report.arrays.append(
        # The int path: device-computed neighbor indexes, exact by policy.
        compare_arrays("results", sim.neighbor_sets(), native.neighbor_sets())
    )
    if version in (5, 6):
        report.arrays.append(
            compare_arrays("matrices", sim.draw_data(), native.draw_data())
        )
    return report


def run_suite(
    versions=DEVICE_VERSIONS, agents: int = 32, steps: int = 3, seed: int = 7
) -> "list[ConformanceReport]":
    """The full differential suite: every pipeline version."""
    return [
        run_differential(v, agents=agents, steps=steps, seed=seed)
        for v in versions
    ]
