"""End-to-end emulated pipeline: all versions vs the CPU reference, plus
the transfer behaviour that motivates CuPP's lazy copying."""

import numpy as np
import pytest

from repro.cupp import Device, Vector
from repro.gpusteer import EmulatedBoids
from repro.steer import DEFAULT_PARAMS, ReferenceSimulation

N = 32
STEPS = 3


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
class TestVersionCorrectness:
    def test_matches_cpu_reference(self, version):
        eb = EmulatedBoids(N, version=version, seed=42)
        ref = ReferenceSimulation(N, DEFAULT_PARAMS, seed=42)
        for _ in range(STEPS):
            eb.step()
            ref.update()
        got = eb.snapshot()
        want = ref.state_snapshot()
        # float32 device storage bounds the agreement.
        np.testing.assert_allclose(
            got["positions"], want["positions"], atol=1e-3
        )
        np.testing.assert_allclose(got["forwards"], want["forwards"], atol=1e-3)
        np.testing.assert_allclose(got["speeds"], want["speeds"], atol=1e-3)

    def test_draw_matrices_valid(self, version):
        eb = EmulatedBoids(N, version=version, seed=7)
        eb.step()
        mats = eb.draw_data()
        assert mats.shape == (N, 4, 4)
        rot = mats[:, :3, :3].astype(np.float64)
        eye = np.einsum("nij,nkj->nik", rot, rot)
        np.testing.assert_allclose(
            eye, np.broadcast_to(np.eye(3), (N, 3, 3)), atol=1e-3
        )
        np.testing.assert_allclose(mats[:, 3, 3], 1.0)


class TestVersionsAgree:
    def test_all_versions_produce_the_same_flock(self):
        snaps = []
        for version in (1, 2, 3, 4, 5):
            eb = EmulatedBoids(N, version=version, seed=5)
            for _ in range(2):
                eb.step()
            snaps.append(eb.snapshot()["positions"])
        for other in snaps[1:]:
            np.testing.assert_allclose(snaps[0], other, atol=5e-4)


class TestLazyCopyingBehaviour:
    def test_v5_keeps_state_on_device(self):
        # §6.2.3: "All other data stays on the device" — after the initial
        # upload, agent state never crosses the bus in version 5.
        eb = EmulatedBoids(N, version=5, seed=1)
        for _ in range(4):
            eb.step()
        assert eb.positions.uploads == 1
        assert eb.positions.downloads == 0
        assert eb.forwards.uploads == 1
        assert eb.forwards.downloads == 0
        # Only the draw matrices come back.
        _ = eb.draw_data()
        assert eb.matrices.downloads == 1
        assert eb.positions.downloads == 0

    def test_v1_reuploads_positions_every_step(self):
        # Versions 1/2: the host modification dirties positions, so lazy
        # copying must re-upload them for every neighbor-search launch.
        eb = EmulatedBoids(N, version=1, seed=1)
        for _ in range(3):
            eb.step()
        assert eb.positions.uploads == 3
        # And the results vector comes back each step for host steering.
        assert eb.results.downloads == 3

    def test_v3_uploads_positions_and_forwards(self):
        eb = EmulatedBoids(N, version=3, seed=1)
        for _ in range(2):
            eb.step()
        assert eb.positions.uploads == 2
        assert eb.forwards.uploads == 2
        assert eb.steering.downloads == 2  # host modification reads it

    def test_v5_snapshot_forces_download(self):
        eb = EmulatedBoids(N, version=5, seed=1)
        eb.step()
        _ = eb.snapshot()
        assert eb.positions.downloads == 1

    def test_v2_host_stage_writes_each_vector_as_one_range(self, monkeypatch):
        # The host stage writes steering, positions, forwards, smoothed
        # and speeds: one range write (one §4.6 write detection) each,
        # not one element write per float (3,328 at n=256).
        eb = EmulatedBoids(256, version=2, seed=11, device=Device(backend="native"))
        eb.step()  # warm-up: the first step uploads every vector
        calls = []
        setitem = Vector.__setitem__

        def counted(vec, index, value):
            calls.append(index)
            setitem(vec, index, value)

        monkeypatch.setattr(Vector, "__setitem__", counted)
        eb.step()
        assert len(calls) <= 5
        assert all(isinstance(index, slice) for index in calls)


class TestValidation:
    def test_population_must_be_block_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            EmulatedBoids(33, version=5)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            EmulatedBoids(32, version=7)
