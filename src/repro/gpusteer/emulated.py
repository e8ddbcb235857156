"""End-to-end emulated GPU Boids: every version through real CuPP calls.

This is the integration harness: agent state lives in ``cupp.Vector``
objects, kernels are launched through ``cupp.Kernel`` functors onto the
SIMT emulator, and the host-resident substages of versions 1-4 read the
vectors back through the lazy-copy machinery — exactly the data flow of
chapter 6, at populations small enough to emulate.

The paper's observable behaviours fall out and are asserted in the test
suite: version 5 never downloads agent state (only the draw matrices
cross the bus), version 1-2 re-upload positions every frame because the
host modification dirtied them, and the whole pipeline produces the same
flock the pure CPU reference computes.

Version 6 adds the chapter-7 spatial hash: each step downloads the
positions (lazy), rebuilds a ``cupp.containers.HashGrid`` on the host
("fast construction"), and the fused simulate kernel queries only the
27-cell neighborhood — O(n·k) instead of the all-pairs O(n²), with
bit-identical neighbor sets.
"""

from __future__ import annotations

import numpy as np

from repro.cupp.containers import HashGrid
from repro.cupp.device import Device
from repro.cupp.kernel import Kernel
from repro.cupp.vector import Vector
from repro.gpusteer.kernels_grid import simulate_grid
from repro.gpusteer.kernels_emu import (
    MAX_NEIGHBORS,
    find_neighbors_v1,
    find_neighbors_v2,
    modify_kernel,
    simulate_v3,
    simulate_v4,
)
from repro.gpusteer.versions import DEVICE_VERSIONS
from repro.steer.agent import spawn_agents
from repro.steer.behaviors import flocking_np
from repro.steer.params import BoidsParams, DEFAULT_PARAMS
from repro.steer.simulation import _truncate_rows


class EmulatedBoids:
    """One Boids population driven by emulated device kernels.

    Parameters
    ----------
    n:
        Agent count; must be a multiple of ``threads_per_block`` (the
        paper's kernels share the restriction, §6.2.1).
    version:
        Development version 1-5 (Table 6.1), or 6 — the chapter-7
        grid-bucketed neighbor search over ``cupp.containers``.
    """

    def __init__(
        self,
        n: int,
        version: int,
        params: BoidsParams = DEFAULT_PARAMS,
        seed: int | None = None,
        device: Device | None = None,
        threads_per_block: int = 32,
    ) -> None:
        if n % threads_per_block != 0:
            raise ValueError(
                f"agent count {n} must be a multiple of threads_per_block "
                f"({threads_per_block}) — §6.2.1"
            )
        if version not in DEVICE_VERSIONS:
            raise ValueError(f"unknown development version {version}")
        self.version = version
        self.params = params
        self.n = n
        self.tpb = threads_per_block
        self.device = device or Device()
        self.step_count = 0

        agents = spawn_agents(n, params, seed)
        pos = np.array([a.position.as_tuple() for a in agents], np.float32)
        fwd = np.array([a.forward.as_tuple() for a in agents], np.float32)
        self.positions = Vector(pos.reshape(-1), dtype=np.float32)
        self.forwards = Vector(fwd.reshape(-1), dtype=np.float32)
        self.speeds = Vector(
            np.array([a.speed for a in agents], np.float32), dtype=np.float32
        )
        self.smoothed = Vector(np.zeros(3 * n, np.float32), dtype=np.float32)
        self.steering = Vector(np.zeros(3 * n, np.float32), dtype=np.float32)
        self.results = Vector(
            np.full(MAX_NEIGHBORS * n, -1, np.int32), dtype=np.int32
        )
        self.matrices = Vector(np.zeros(16 * n, np.float32), dtype=np.float32)
        p = params
        self.params_packed = Vector(
            np.array(
                [p.max_force, p.max_speed, p.mass, p.dt, p.accel_smoothing,
                 p.world_radius],
                np.float32,
            ),
            dtype=np.float32,
        )

        grid = n // threads_per_block
        self._k_neighbors = Kernel(
            find_neighbors_v1 if version == 1 else find_neighbors_v2,
            grid,
            threads_per_block,
        )
        if version == 6:
            simulate = simulate_grid
        elif version == 3:
            simulate = simulate_v3
        else:
            simulate = simulate_v4
        self._k_simulate = Kernel(simulate, grid, threads_per_block)
        self._k_modify = Kernel(modify_kernel, grid, threads_per_block)
        # v6: cell edge = search radius, so the 3x3x3 neighborhood covers
        # the query sphere; rebuilt each step from the fresh positions.
        self._grid = HashGrid(params.search_radius) if version == 6 else None

    # ------------------------------------------------------------------
    # host-side helpers (versions 1-4)
    # ------------------------------------------------------------------
    def _host_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pos = self.positions.to_numpy().reshape(self.n, 3).astype(np.float64)
        fwd = self.forwards.to_numpy().reshape(self.n, 3).astype(np.float64)
        return pos, fwd

    def _host_steering_from_results(self) -> None:
        """v1/v2: the host computes the steering vectors from the device's
        neighbor indexes (reading ``results`` triggers the lazy download)."""
        neighbors = (
            self.results.to_numpy().reshape(self.n, MAX_NEIGHBORS).astype(np.int64)
        )
        pos, fwd = self._host_arrays()
        steer = flocking_np(pos, fwd, neighbors, self.params)
        self.steering[:] = steer.reshape(-1)

    def _host_modification(self) -> None:
        """Versions 1-4: the modification substage on the host (vectorized
        twin of the modify kernel, float64 on the host as in OpenSteer)."""
        p = self.params
        pos, fwd = self._host_arrays()
        speed = self.speeds.to_numpy().astype(np.float64)
        steer = self.steering.to_numpy().reshape(self.n, 3).astype(np.float64)
        smooth_old = (
            self.smoothed.to_numpy().reshape(self.n, 3).astype(np.float64)
        )

        force = _truncate_rows(steer, p.max_force)
        accel = force / p.mass
        if self.step_count == 0:
            smooth = accel
        else:
            smooth = smooth_old * (1.0 - p.accel_smoothing) + accel * p.accel_smoothing
        velocity = fwd * speed[:, None] + smooth * p.dt
        new_speed = np.linalg.norm(velocity, axis=1)
        over = new_speed > p.max_speed
        if over.any():
            velocity[over] *= (p.max_speed / new_speed[over])[:, None]
            new_speed[over] = p.max_speed
        pos = pos + velocity * p.dt
        outside = (pos**2).sum(axis=1) > p.world_radius**2
        if outside.any():
            pos[outside] = -pos[outside]
        moving = new_speed > 1e-12
        fwd[moving] = velocity[moving] / new_speed[moving][:, None]

        # One range write per vector: one §4.6 write detection each, and
        # the float32 store rounds every element as an element store would.
        self.positions[:] = pos.reshape(-1)
        self.forwards[:] = fwd.reshape(-1)
        self.smoothed[:] = smooth.reshape(-1)
        self.speeds[:] = new_speed

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One update stage through the version's device/host split."""
        p = self.params
        if self.version in (1, 2):
            self._k_neighbors(
                self.device, self.positions, p.search_radius, self.results
            )
            self._host_steering_from_results()
            self._host_modification()
        elif self.version in (3, 4):
            self._k_simulate(
                self.device,
                self.positions,
                self.forwards,
                p.search_radius,
                p.separation_weight,
                p.alignment_weight,
                p.cohesion_weight,
                self.steering,
            )
            self._host_modification()
        elif self.version == 6:
            # Chapter 7: host rebuild ("fast construction") from the lazy
            # position download, then the grid-bucketed fused kernel.
            self._grid.build(
                self.positions.to_numpy().reshape(self.n, 3)
            )
            self._k_simulate(
                self.device,
                self._grid,
                self.positions,
                self.forwards,
                p.search_radius,
                p.separation_weight,
                p.alignment_weight,
                p.cohesion_weight,
                self.steering,
                self.results,
            )
            self._k_modify(
                self.device,
                self.steering,
                self.positions,
                self.forwards,
                self.speeds,
                self.smoothed,
                self.params_packed,
                self.step_count,
                self.matrices,
            )
        else:  # version 5: the whole update stage on the device
            self._k_simulate(
                self.device,
                self.positions,
                self.forwards,
                p.search_radius,
                p.separation_weight,
                p.alignment_weight,
                p.cohesion_weight,
                self.steering,
            )
            self._k_modify(
                self.device,
                self.steering,
                self.positions,
                self.forwards,
                self.speeds,
                self.smoothed,
                self.params_packed,
                self.step_count,
                self.matrices,
            )
        self.step_count += 1

    def draw_data(self) -> np.ndarray:
        """The per-agent 4x4 matrices — version 5's only device->host
        traffic (§6.2.3)."""
        if self.version in (5, 6):
            return self.matrices.to_numpy().reshape(self.n, 4, 4)
        # Versions 1-4 build the matrices on the host.
        pos, fwd = self._host_arrays()
        mats = np.zeros((self.n, 4, 4), np.float32)
        up_hint = np.where(
            (np.abs(fwd[:, 1]) < 0.99)[:, None],
            np.array([0.0, 1.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
        )
        side = np.cross(fwd, up_hint)
        side /= np.maximum(np.linalg.norm(side, axis=1, keepdims=True), 1e-12)
        up = np.cross(side, fwd)
        mats[:, 0, :3] = side
        mats[:, 1, :3] = up
        mats[:, 2, :3] = fwd
        mats[:, 3, :3] = pos
        mats[:, 3, 3] = 1.0
        return mats

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, np.ndarray]:
        """Host view of the agent state (triggers lazy downloads)."""
        return {
            "positions": self.positions.to_numpy().reshape(self.n, 3),
            "forwards": self.forwards.to_numpy().reshape(self.n, 3),
            "speeds": self.speeds.to_numpy().copy(),
        }

    def neighbor_sets(self) -> np.ndarray:
        """The device-computed neighbor indexes (versions 1/2 and 6)."""
        return self.results.to_numpy().reshape(self.n, MAX_NEIGHBORS)
