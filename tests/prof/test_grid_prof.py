"""Profiling the grid-bucketed pipeline (v6): the coalescing story.

v1's all-pairs scan streams every agent's float3 through uncoalesced
loads, so the advisor's uncoalesced-loads rule fires on it.  v6 reads
only the ~27-cell candidate neighborhood per agent — the bulk of the
traffic disappears, and with it the finding.  This is the profiler-side
evidence for the ISSUE's "grid fixes the memory story" claim.
"""

import pytest

from repro.prof.__main__ import profile_pipeline
from repro.prof.advisor import advise


@pytest.fixture(scope="module")
def v1():
    return profile_pipeline(1)


@pytest.fixture(scope="module")
def v6():
    return profile_pipeline(6)


def rules(session):
    return {f"{f.rule}:{f.kernel}" for f in advise(session)}


class TestGridCoalescingStory:
    def test_v6_does_not_fire_uncoalesced_loads(self, v6):
        assert not any(
            r.startswith("uncoalesced-loads:") for r in rules(v6)
        ), rules(v6)

    def test_v1_still_fires_for_contrast(self, v1):
        assert "uncoalesced-loads:find_neighbors_v1" in rules(v1)

    def test_grid_reads_far_fewer_bytes_than_all_pairs(self, v1, v6):
        scan_v1 = v1.kernels["find_neighbors_v1"]
        scan_v6 = v6.kernels["simulate_grid"]
        # At 128 agents the flock is dense, so the win is bounded; at
        # bench scale it grows with n (the million-boids experiment).
        assert (
            scan_v6.uncoalesced_read_bytes
            < scan_v1.uncoalesced_read_bytes / 2
        )

    def test_instructions_grow_slower_than_all_pairs(self, v6):
        # Doubling the flock (same world) roughly quadruples v2's
        # all-pairs scan; v6's 27-cell scan grows far less.  At these
        # sizes the grid still executes more instructions in total: its
        # fixed 27-cell probe and per-lane divergence dominate until the
        # flock is much larger (the million-boids experiment).
        def instructions(version, kernel, agents):
            return profile_pipeline(version, agents=agents).kernels[
                kernel
            ].instructions

        grid_growth = v6.kernels["simulate_grid"].instructions / (
            instructions(6, "simulate_grid", 64)
        )
        all_pairs_growth = instructions(
            2, "find_neighbors_v2", 128
        ) / instructions(2, "find_neighbors_v2", 64)
        assert grid_growth < all_pairs_growth

    def test_v6_profiles_the_expected_kernels(self, v6):
        assert set(v6.kernels) == {"simulate_grid", "modify_kernel"}
        assert v6.launch_count == 2

    def test_native_replay_agrees_on_the_story(self):
        session = profile_pipeline(6, backend="native")
        assert not any(
            r.startswith("uncoalesced-loads:") for r in rules(session)
        )
        assert set(session.kernels) == {"simulate_grid", "modify_kernel"}
