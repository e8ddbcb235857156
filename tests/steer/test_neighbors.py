"""Neighbor search: listing 5.2 semantics across all three engines."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.steer import (
    BoidsParams,
    NO_NEIGHBOR,
    Vec3,
    neighbor_search_all_kdtree,
    neighbor_search_all_numpy,
    neighbor_search_all_pure,
    neighbor_search_pure,
)
from repro import obs
from repro.steer.neighbors import (
    AUTO_KDTREE_ABOVE,
    neighbor_search_all,
    rank_nearest,
)

PARAMS = BoidsParams()


def line_positions(n, spacing=1.0):
    return [Vec3(i * spacing, 0.0, 0.0) for i in range(n)]


class TestPureSearch:
    def test_finds_nearest_within_radius(self):
        pos = line_positions(5, spacing=2.0)
        found = neighbor_search_pure(pos, 0, search_radius=5.0)
        assert found[:2] == [1, 2]
        assert found[2:] == [NO_NEIGHBOR] * 5

    def test_excludes_self(self):
        pos = [Vec3(0, 0, 0)] * 3  # all stacked at the origin
        found = neighbor_search_pure(pos, 1, search_radius=1.0)
        assert 1 not in found
        assert set(found[:2]) == {0, 2}

    def test_keeps_only_seven_nearest(self):
        pos = line_positions(20, spacing=0.5)
        found = neighbor_search_pure(pos, 0, search_radius=100.0)
        assert found == [1, 2, 3, 4, 5, 6, 7]

    def test_replacement_rule_keeps_closest(self):
        # Agents appear far-first so the replacement branch exercises.
        pos = [Vec3(0, 0, 0)] + [Vec3(10.0 - i, 0, 0) for i in range(9)]
        found = neighbor_search_pure(pos, 0, search_radius=100.0)
        dists = [pos[j].x for j in found]
        assert dists == sorted(dists)
        assert len(found) == 7
        assert max(dists) == 8.0  # the two farthest (x=9, x=10) got replaced

    def test_radius_is_exclusive(self):
        pos = [Vec3(0, 0, 0), Vec3(5.0, 0, 0)]
        assert neighbor_search_pure(pos, 0, search_radius=5.0)[0] == NO_NEIGHBOR
        assert neighbor_search_pure(pos, 0, search_radius=5.001)[0] == 1

    def test_isolated_agent_has_no_neighbors(self):
        pos = [Vec3(0, 0, 0), Vec3(1000, 0, 0)]
        assert neighbor_search_pure(pos, 0, 9.0) == [NO_NEIGHBOR] * 7


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "engine", [neighbor_search_all_numpy, neighbor_search_all_kdtree]
    )
    def test_matches_pure_on_random_cloud(self, engine):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-20, 20, size=(64, 3))
        pure = neighbor_search_all_pure(
            [Vec3.from_tuple(p) for p in pts], PARAMS
        )
        fast = engine(pts, PARAMS)
        for i in range(64):
            assert set(pure[i]) == set(fast[i]), f"agent {i} differs"

    @pytest.mark.parametrize(
        "engine", [neighbor_search_all_numpy, neighbor_search_all_kdtree]
    )
    def test_sorted_by_distance(self, engine):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-10, 10, size=(32, 3))
        result = engine(pts, PARAMS)
        for i in range(32):
            valid = [j for j in result[i] if j != NO_NEIGHBOR]
            dists = [np.sum((pts[i] - pts[j]) ** 2) for j in valid]
            assert dists == sorted(dists)

    @pytest.mark.parametrize(
        "engine", [neighbor_search_all_numpy, neighbor_search_all_kdtree]
    )
    def test_tiny_populations(self, engine):
        for n in (1, 2, 3):
            pts = np.zeros((n, 3))
            result = engine(pts, PARAMS)
            assert result.shape == (n, PARAMS.max_neighbors)
            for i in range(n):
                assert i not in set(result[i])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**31 - 1))
    def test_engines_agree_property(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-15, 15, size=(n, 3))
        a = neighbor_search_all_numpy(pts, PARAMS)
        b = neighbor_search_all_kdtree(pts, PARAMS)
        for i in range(n):
            assert set(a[i]) == set(b[i])

    def test_blocked_bruteforce_matches_unblocked(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-20, 20, size=(100, 3))
        whole = neighbor_search_all_numpy(pts, PARAMS, block=4096)
        blocked = neighbor_search_all_numpy(pts, PARAMS, block=17)
        np.testing.assert_array_equal(whole, blocked)

    @pytest.mark.parametrize(
        "engine", [neighbor_search_all_numpy, neighbor_search_all_kdtree]
    )
    def test_cohort_restriction_fills_only_cohort_rows(self, engine):
        # The think-frequency path (§5.3): only the cohort searches.
        rng = np.random.default_rng(13)
        pts = rng.uniform(-15, 15, size=(50, 3))
        cohort = np.arange(3, 50, 10)
        full = engine(pts, PARAMS)
        partial = engine(pts, PARAMS, rows=cohort)
        np.testing.assert_array_equal(partial[cohort], full[cohort])
        others = np.setdiff1d(np.arange(50), cohort)
        assert (partial[others] == NO_NEIGHBOR).all()

    def test_cohort_restriction_through_dispatcher(self):
        from repro.steer import neighbor_search_all

        rng = np.random.default_rng(14)
        pts = rng.uniform(-15, 15, size=(40, 3))
        cohort = np.array([0, 7, 21])
        a = neighbor_search_all(pts, PARAMS, engine="numpy", rows=cohort)
        b = neighbor_search_all(pts, PARAMS, engine="kdtree", rows=cohort)
        for i in cohort:
            assert set(a[i]) == set(b[i])


class TestRankNearest:
    """The one keep-7 ranker every engine and twin uses, against a
    pure-Python ``sorted((d2, j))[:7]`` per row."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=30
        ),
        st.lists(st.integers(0, 29), max_size=10),
        st.randoms(use_true_random=False),
    )
    def test_matches_sorted_reference(self, lattice, copies, rnd):
        # A coarse lattice plus duplicated points: tied distances
        # everywhere, including across the seventh slot.
        pts = lattice + [lattice[c % len(lattice)] for c in copies]
        pos = np.array(pts, dtype=np.float64)
        n = pos.shape[0]
        d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        owner, j = np.nonzero((d2 < 4.5) & ~np.eye(n, dtype=bool))
        # Candidate order must not matter (the grid twin's is arbitrary).
        shuffle = list(range(owner.size))
        rnd.shuffle(shuffle)
        owner, j = owner[shuffle], j[shuffle]
        order, found = rank_nearest(owner, d2[owner, j], j, n, 7)
        assert order.shape == found.shape == (n, 7)
        for i in range(n):
            expected = sorted(
                (d2[i, c], c) for c in range(n) if c != i and d2[i, c] < 4.5
            )[:7]
            assert order[i][found[i]].tolist() == [c for _, c in expected]
            assert not found[i][len(expected):].any()
            assert (order[i][~found[i]] == 0).all()

    def test_no_candidates(self):
        empty = np.zeros(0, dtype=np.int64)
        order, found = rank_nearest(empty, np.zeros(0), empty, 3, 7)
        assert order.shape == (3, 7)
        assert not found.any()


class TestAutoEngineSwitch:
    """``auto`` switching to the kdtree is counted, not silent."""

    SERIES = "steer.neighbor_engine_switches{engine=kdtree}"

    @pytest.fixture(autouse=True)
    def fresh_obs(self):
        obs.reset()
        yield
        obs.reset()

    def _counters(self) -> dict:
        return obs.get_metrics().snapshot()["counters"]

    def _flock(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(n)
        return rng.uniform(-20.0, 20.0, (n, 3))

    def test_switch_to_kdtree_is_counted(self):
        positions = self._flock(AUTO_KDTREE_ABOVE + 1)
        rows = np.arange(4)
        found = neighbor_search_all(positions, PARAMS, engine="auto", rows=rows)
        assert self._counters()[self.SERIES] == 1
        expected = neighbor_search_all_kdtree(positions, PARAMS, rows=rows)
        np.testing.assert_array_equal(found, expected)

    @pytest.mark.parametrize("engine", ["auto", "kdtree", "numpy"])
    def test_no_switch_lists_no_series(self, engine):
        positions = self._flock(AUTO_KDTREE_ABOVE)
        neighbor_search_all(positions, PARAMS, engine=engine, rows=np.arange(4))
        assert not any(
            k.startswith("steer.neighbor_engine_switches") for k in self._counters()
        )
