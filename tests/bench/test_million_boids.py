"""The million-boids experiment: the grid wins at scale, with exact answers."""

import pytest


@pytest.fixture(scope="module")
def data():
    from repro.bench.harness import run_million_boids

    return run_million_boids().data


class TestMillionBoids:
    def test_grid_wins_tenfold_at_a_million(self, data):
        assert data["speedup"][1_000_000] >= 10.0

    def test_speedup_rises_with_population(self, data):
        speedup = data["speedup"]
        assert speedup[10_000] < speedup[100_000] < speedup[1_000_000]

    @pytest.mark.parametrize("backend", ["sim", "native"])
    def test_grid_neighbor_sets_match_all_pairs(self, data, backend):
        assert data["exact_match"][backend] == 1.0
