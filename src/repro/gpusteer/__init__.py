"""The GPU port of the Boids scenario via CuPP (paper ch. 6).

- :mod:`repro.gpusteer.kernels_emu` — the five versions' device kernels
  for the SIMT emulator.
- :class:`EmulatedBoids` — the full pipeline through real CuPP calls at
  emulable populations (integration tests).
- :mod:`repro.gpusteer.cost_model` — closed-form kernel counts validated
  against the emulator.
- :mod:`repro.gpusteer.versions` — Table 6.1 and the per-version update
  timing model (Fig. 6.2 / 6.3).
- :mod:`repro.gpusteer.double_buffer` — the update/draw overlap
  (Fig. 6.4).
- :class:`GpuBoidsRun` — paper-scale runs: functional flock + modelled
  timing.
"""

from repro.gpusteer.cost_model import (
    LaunchGeometry,
    WorkloadStats,
    modify_cost,
    neighbor_v1_cost,
    neighbor_v2_cost,
    simulate_cost,
)
from repro.gpusteer.double_buffer import FrameTimings, compare, simulate_frames
from repro.gpusteer.emulated import EmulatedBoids
from repro.gpusteer.kernels_emu import (
    MAX_NEIGHBORS,
    find_neighbors_v1,
    find_neighbors_v2,
    modify_kernel,
    simulate_v3,
    simulate_v4,
)
from repro.gpusteer.pipeline import GpuBoidsRun, RunResult, version_ladder
from repro.gpusteer.versions import (
    CPU_VERSION,
    DEVICE_VERSIONS,
    THREADS_PER_BLOCK,
    UpdateBreakdown,
    VERSIONS,
    VersionSpec,
    kernel_costs,
    speedup_vs_cpu,
    update_time,
)

__all__ = [
    "CPU_VERSION",
    "DEVICE_VERSIONS",
    "EmulatedBoids",
    "FrameTimings",
    "GpuBoidsRun",
    "LaunchGeometry",
    "MAX_NEIGHBORS",
    "RunResult",
    "THREADS_PER_BLOCK",
    "UpdateBreakdown",
    "VERSIONS",
    "VersionSpec",
    "WorkloadStats",
    "compare",
    "find_neighbors_v1",
    "find_neighbors_v2",
    "kernel_costs",
    "modify_cost",
    "modify_kernel",
    "neighbor_v1_cost",
    "neighbor_v2_cost",
    "simulate_cost",
    "simulate_frames",
    "simulate_v4",
    "simulate_v3",
    "speedup_vs_cpu",
    "update_time",
    "version_ladder",
]
