"""Differential oracle: grid-bucketed vs all-pairs keep-7 under ties.

The conformance suite compares random flocks, where exact distance ties
are measure-zero.  This oracle *manufactures* them: eight agents at the
corners of a cube are all exactly ``sqrt(12)`` from the center agent —
an 8-way tie straddling the keep-7 cut, spread across eight different
grid cells so the grid's cell-by-cell scan order differs maximally from
the all-pairs index order.  Every engine must still keep exactly the
seven lexicographically smallest ``(d2, index)`` pairs:

* the emulated all-pairs kernel (v2) and the grid kernel (v6),
* their native numpy twins,
* the three host engines (pure, blocked numpy, kdtree).

This is the test that retires the documented keep-7 tie caveat.  A
second input, a dense cluster where every neighbor list overflows seven,
runs the same engines against the same oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuda import CudaMachine
from repro.cupp import Device
from repro.gpusteer import EmulatedBoids
from repro.steer import DEFAULT_PARAMS, Vec3
from repro.steer.neighbors import (
    NO_NEIGHBOR,
    neighbor_search_all_kdtree,
    neighbor_search_all_numpy,
    neighbor_search_all_pure,
)

N = 32
RADIUS = DEFAULT_PARAMS.search_radius  # 9.0; cube side 4 fits inside


def _tie_positions() -> np.ndarray:
    """32 agents; agent 0 sees an 8-way exact tie at the keep-7 cut."""
    pos = np.zeros((N, 3), dtype=np.float32)
    corners = [
        (sx * 2.0, sy * 2.0, sz * 2.0)
        for sx in (-1, 1)
        for sy in (-1, 1)
        for sz in (-1, 1)
    ]
    pos[1:9] = corners  # d2 = 12 exactly, eight different grid cells
    pos[9] = (1.0, 0.0, 0.0)  # d2 = 1 — closer, always kept
    pos[10] = (0.0, 1.0, 0.0)  # d2 = 1 — ties with agent 9 as well
    # The rest: isolated, far outside everyone's radius.
    for i in range(11, N):
        pos[i] = (100.0 + 30.0 * i, 0.0, 0.0)
    return pos


def _dense_cluster() -> np.ndarray:
    """32 agents in a 12-unit cube: a handful of grid cells, each holding
    many agents, and everyone in radius of almost everyone else."""
    rng = np.random.default_rng(5)
    return rng.uniform(-6, 6, size=(N, 3)).astype(np.float32)


def _expected_keep7(pos: np.ndarray) -> "list[tuple[int, ...]]":
    """The oracle: smallest seven (d2, index) pairs, brute force."""
    p64 = pos.astype(np.float64)
    rows = []
    for i in range(N):
        d2 = np.sum((p64 - p64[i]) ** 2, axis=1)
        pairs = sorted(
            (float(d2[j]), j)
            for j in range(N)
            if j != i and d2[j] < RADIUS * RADIUS
        )[:7]
        rows.append(tuple(sorted(j for _, j in pairs)))
    return rows


def _row_sets(results: np.ndarray) -> "list[tuple[int, ...]]":
    return [
        tuple(sorted(int(j) for j in row if j != NO_NEIGHBOR))
        for row in np.asarray(results)
    ]


def _host_sets(engine, pos: np.ndarray) -> np.ndarray:
    p64 = pos.astype(np.float64)
    if engine is neighbor_search_all_pure:
        return engine([Vec3(*row) for row in p64], DEFAULT_PARAMS)
    return engine(p64, DEFAULT_PARAMS)


def _device_sets(pos: np.ndarray, version: int, backend: str) -> np.ndarray:
    from repro.simgpu import scaled_arch

    arch = scaled_arch(f"oracle-{backend}", 2, memory_bytes=1 << 22)
    device = Device(machine=CudaMachine([arch], backend=backend))
    eb = EmulatedBoids(N, version=version, seed=0, device=device)
    eb.positions[:] = pos.reshape(-1)
    eb.step()
    return eb.neighbor_sets()


class _KeepSevenOracle:
    """Every engine against the brute-force oracle on the class's ``POS``."""

    POS: np.ndarray

    @pytest.fixture(scope="class")
    def device_results(self) -> "dict[tuple[int, str], np.ndarray]":
        return {
            (version, backend): _device_sets(self.POS, version, backend)
            for version in (2, 6)
            for backend in ("sim", "native")
        }

    @pytest.mark.parametrize("version", [2, 6])
    @pytest.mark.parametrize("backend", ["sim", "native"])
    def test_device_engines_match_the_oracle(
        self, device_results, version, backend
    ):
        assert _row_sets(device_results[(version, backend)]) == (
            _expected_keep7(self.POS)
        )

    def test_grid_bit_identical_to_all_pairs(self, device_results):
        # The satellite's headline: grid-bucketed (v6) and all-pairs
        # (v2) produce byte-identical result arrays, ties included.
        for backend in ("sim", "native"):
            assert np.array_equal(
                device_results[(2, backend)],
                device_results[(6, backend)],
            )

    @pytest.mark.parametrize(
        "engine",
        [
            neighbor_search_all_pure,
            neighbor_search_all_numpy,
            neighbor_search_all_kdtree,
        ],
        ids=["pure", "numpy", "kdtree"],
    )
    def test_host_engines_match_the_oracle(self, engine):
        assert _row_sets(_host_sets(engine, self.POS)) == (
            _expected_keep7(self.POS)
        )

    def test_host_engines_agree_elementwise(self):
        pure = _host_sets(neighbor_search_all_pure, self.POS)
        fast = _host_sets(neighbor_search_all_numpy, self.POS)
        tree = _host_sets(neighbor_search_all_kdtree, self.POS)
        assert _row_sets(pure) == _row_sets(fast) == _row_sets(tree)


class TestManufacturedTies(_KeepSevenOracle):
    POS = _tie_positions()

    def test_the_tie_actually_straddles_the_cut(self):
        # Ten in-radius candidates for agent 0, eight of them at the
        # same exact distance — the selection is forced to split a tie.
        p64 = self.POS.astype(np.float64)
        d2 = np.sum((p64 - p64[0]) ** 2, axis=1)[1:11]
        assert np.count_nonzero(d2 == 12.0) == 8
        assert _expected_keep7(self.POS)[0] == (1, 2, 3, 4, 5, 9, 10)

    @pytest.mark.parametrize("version", [2, 6])
    def test_backends_bit_identical_under_ties(self, device_results, version):
        assert np.array_equal(
            device_results[(version, "sim")],
            device_results[(version, "native")],
        )


class TestDenseCluster(_KeepSevenOracle):
    """Many agents per cell: every list fills and the grid's per-cell
    member scans are long."""

    POS = _dense_cluster()
