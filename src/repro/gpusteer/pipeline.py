"""Paper-scale GPU Boids runs: functional state + modelled timing.

At benchmark populations (1024-32768 agents) the per-thread emulator is
out of reach, so :class:`GpuBoidsRun` advances the *functional* flock
with the vectorized engines (the same mathematics the kernels execute —
``tests/gpusteer`` proves the equivalence on emulated populations) and
charges every frame its modelled cost: host substages from the CPU cost
model, kernels from the closed-form counts through the analytic SIMT
model, transfers from the PCIe model.

The workload statistics that drive the divergence terms are *measured*
from the live flock each sampling interval, so clustering feeds back into
kernel cost exactly as the paper describes (§6.3: the performance drop at
32768 agents "is not only based on the complexity of the neighbor search,
but also on the number of times a warp diverges").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.bench.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpusteer.cost_model import WorkloadStats
from repro.gpusteer.double_buffer import compare as compare_double_buffering
from repro.gpusteer.versions import UpdateBreakdown, update_time
from repro.obs import NULL_SPAN
from repro.steer.params import BoidsParams, DEFAULT_PARAMS
from repro.steer.simulation import Simulation

_TRACER = obs.get_tracer()


@dataclass
class RunResult:
    """Outcome of a modelled GPU Boids run."""

    version: int
    n: int
    updates_per_second: float
    update_breakdown: UpdateBreakdown
    stats: WorkloadStats
    final_positions: np.ndarray


class GpuBoidsRun:
    """Advance a real flock, time it with the version model."""

    def __init__(
        self,
        n: int,
        version: int = 5,
        params: BoidsParams = DEFAULT_PARAMS,
        seed: int | None = None,
        calib: Calibration = DEFAULT_CALIBRATION,
        engine: str = "auto",
    ) -> None:
        self.version = version
        self.params = params
        self.calib = calib
        self.sim = Simulation(
            n, params, seed=seed, engine=engine, cpu_model=calib.cpu_model()
        )

    def run(self, steps: int = 10, measure_stats: bool = True) -> RunResult:
        """Advance ``steps`` frames; model the steady-state update rate
        from the final (clustered) configuration."""
        with (
            _TRACER.span(
                "gpusteer.run", version=self.version, n=self.sim.n, steps=steps
            )
            if _TRACER.enabled
            else NULL_SPAN
        ) as span:
            for step in range(steps):
                with (
                    _TRACER.span("gpusteer.step", step=step)
                    if _TRACER.enabled
                    else NULL_SPAN
                ):
                    self.sim.update()
            if measure_stats:
                stats = WorkloadStats.measure(self.sim.positions, self.params)
            else:
                stats = WorkloadStats.estimate(
                    self.sim.n, self.params, self.calib.density_clustering
                )
            breakdown = update_time(
                self.version, self.sim.n, self.params, stats, self.calib
            )
            span.set(
                updates_per_second=breakdown.updates_per_second,
                host_compute_s=breakdown.host_compute_s,
                gpu_kernel_s=breakdown.gpu_kernel_s,
                transfer_s=breakdown.transfer_s,
            )
        return RunResult(
            version=self.version,
            n=self.sim.n,
            updates_per_second=breakdown.updates_per_second,
            update_breakdown=breakdown,
            stats=stats,
            final_positions=self.sim.positions.copy(),
        )


def version_ladder(
    n: int = 4096,
    params: BoidsParams = DEFAULT_PARAMS,
    steps: int = 10,
    seed: int | None = None,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> dict[int, RunResult]:
    """Fig. 6.2's dataset: one run per development version, including the
    CPU baseline as version 0, all on the same measured flock."""
    sim = Simulation(n, params, seed=seed, engine="auto", cpu_model=calib.cpu_model())
    with (
        _TRACER.span("gpusteer.version_ladder", n=n, steps=steps)
        if _TRACER.enabled
        else NULL_SPAN
    ):
        for _ in range(steps):
            sim.update()
        stats = WorkloadStats.measure(sim.positions, params)
    out: dict[int, RunResult] = {}
    for version in range(6):
        breakdown = update_time(version, n, params, stats, calib)
        if _TRACER.enabled:
            # One span per ladder rung, carrying the Fig. 6.2 breakdown
            # so the version story is reconstructible from a trace.
            with _TRACER.span(
                f"gpusteer.version:{version}",
                n=n,
                updates_per_second=breakdown.updates_per_second,
                host_compute_s=breakdown.host_compute_s,
                gpu_kernel_s=breakdown.gpu_kernel_s,
                transfer_s=breakdown.transfer_s,
                launch_overhead_s=breakdown.launch_overhead_s,
            ):
                pass
        out[version] = RunResult(
            version=version,
            n=n,
            updates_per_second=breakdown.updates_per_second,
            update_breakdown=breakdown,
            stats=stats,
            final_positions=sim.positions,
        )
    return out


__all__ = [
    "GpuBoidsRun",
    "RunResult",
    "compare_double_buffering",
    "version_ladder",
]
