"""``cupp.containers`` — FlatMap/HashGrid invariants + the CuPP protocol.

Three layers, mirroring the subsystem's design:

* hypothesis property tests for the **host-side** structures: the
  FlatMap behaves like a ``dict``, the HashGrid never loses or
  duplicates an agent across rebuilds, and the 27-cell candidate set is
  a superset of every brute-force in-radius neighborhood;
* the **CuPP protocol**: the §4.5 host/device type binding is 1:1,
  first ``transform()`` uploads (``grid-build`` ledger bytes,
  ``cupp.containers.uploads``), repeats are lazy hits,
  rebuilds invalidate, size changes realloc, and ``dirty()`` refuses —
  containers are const on the device (paper ch. 7);
* the **device twins** round-trip their pack()/unpack() kernel-argument
  encoding and expose the same arrays the host built.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cuda import CudaMachine
from repro.cupp import CuppUsageError, Device
from repro.cupp.containers import (
    CELL_KEY_BITS,
    DeviceFlatMap,
    DeviceHashGrid,
    EMPTY_KEY,
    FlatMap,
    HashGrid,
    pack_cell_key,
)
from repro.cupp.containers.flatmap import NOT_FOUND
from repro.cupp.containers.hashgrid import _cell_keys, axis_cell
from repro.simgpu import scaled_arch


@pytest.fixture
def dev() -> Device:
    machine = CudaMachine([scaled_arch("t", 2, memory_bytes=1 << 22)])
    return Device(machine=machine)


@pytest.fixture
def fresh_obs():
    obs.reset()
    ledger = obs.get_ledger()
    prev = ledger.keep_entries
    ledger.keep_entries = True
    yield
    ledger.keep_entries = prev
    obs.reset()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
coords = st.floats(
    min_value=-1e4,
    max_value=1e4,
    allow_nan=False,
    allow_infinity=False,
    width=32,
)

positions_arrays = st.lists(
    st.tuples(coords, coords, coords), min_size=1, max_size=48
).map(lambda rows: np.array(rows, dtype=np.float32))

map_keys = st.integers(min_value=0, max_value=EMPTY_KEY - 1)
map_vals = st.integers(min_value=-(2**31), max_value=2**31 - 1)
map_models = st.dictionaries(map_keys, map_vals, max_size=48)

HYP = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# FlatMap vs dict (the std::unordered_map contract)
# ----------------------------------------------------------------------
class TestFlatMapModel:
    @HYP
    @given(model=map_models)
    def test_matches_dict_semantics(self, model):
        fmap = FlatMap(model)
        assert len(fmap) == len(model)
        assert fmap.empty() == (not model)
        for key, value in model.items():
            assert key in fmap
            assert fmap[key] == np.int32(value)
            assert fmap.get(key) == np.int32(value)
        assert dict(fmap.items()) == {
            k: int(np.int32(v)) for k, v in model.items()
        }

    @HYP
    @given(model=map_models, probe=map_keys)
    def test_missing_keys_miss(self, model, probe):
        fmap = FlatMap(model)
        if probe not in model:
            assert probe not in fmap
            assert fmap.get(probe) == NOT_FOUND
            assert fmap.get(probe, default=-7) == -7
            with pytest.raises(KeyError):
                fmap[probe]

    @HYP
    @given(model=map_models)
    def test_erase_matches_dict_del(self, model):
        fmap = FlatMap(model)
        for key in list(model):
            assert fmap.erase(key) is True
            del model[key]
            assert key not in fmap
            assert dict(fmap.items()) == {
                k: int(np.int32(v)) for k, v in model.items()
            }
        assert fmap.erase(12345) is False

    @HYP
    @given(model=map_models)
    def test_assign_bulk_build_round_trips(self, model):
        keys = np.array(sorted(model), dtype=np.uint64)
        vals = np.array([model[int(k)] for k in keys], dtype=np.int32)
        fmap = FlatMap()
        fmap.assign(keys, vals)
        assert dict(fmap.items()) == {
            int(k): int(v) for k, v in zip(keys, vals)
        }

    @HYP
    @given(
        keys=st.lists(
            st.one_of(map_keys, st.integers(0, 40)), max_size=80
        ),
        data=st.data(),
    )
    def test_assign_builds_the_sequential_insert_table(self, keys, data):
        # The bulk build must lay out the probe arrays exactly as
        # inserting the pairs one by one into a table of the final
        # capacity does (the emulated v6 kernel walks them), for any key
        # order and with repeated keys keeping their last value.
        vals = data.draw(st.lists(map_vals, min_size=len(keys), max_size=len(keys)))
        keys = np.array(keys, dtype=np.uint64)
        vals = np.array(vals, dtype=np.int64).astype(np.int32)
        fmap = FlatMap()
        fmap.assign(keys, vals)
        ref = FlatMap()
        capacity = 8
        while capacity < 2 * keys.size:
            capacity *= 2
        ref._keys = np.full(capacity, EMPTY_KEY, dtype=np.uint64)
        ref._vals = np.zeros(capacity, dtype=np.int32)
        for key, value in zip(keys.tolist(), vals.tolist()):
            ref._insert(key, value)
        assert fmap._keys.tobytes() == ref._keys.tobytes()
        assert fmap._vals.tobytes() == ref._vals.tobytes()
        assert len(fmap) == len(set(keys.tolist())) == ref._size

    def test_rejected_assign_changes_nothing(self, dev, fresh_obs):
        fmap = FlatMap({1: 10, 2: 20, 3: 30})
        fmap.transform(dev)
        before = (dict(fmap.items()), fmap.capacity, len(fmap))
        ledger = list(obs.get_ledger().entries)
        with pytest.raises(CuppUsageError, match="sentinel"):
            fmap.assign(
                np.array([4, EMPTY_KEY, 5], dtype=np.uint64),
                np.array([1, 2, 3], dtype=np.int32),
            )
        assert (dict(fmap.items()), fmap.capacity, len(fmap)) == before
        assert fmap._device_valid
        assert list(obs.get_ledger().entries) == ledger
        fmap.transform(dev)
        assert obs.counter("cupp.containers.uploads").value == 1
        assert obs.counter("cupp.containers.lazy_hits").value == 1

    @HYP
    @given(model=map_models)
    def test_capacity_is_pow2_with_load_factor_half(self, model):
        fmap = FlatMap(model)
        assert fmap.capacity & (fmap.capacity - 1) == 0
        assert fmap.capacity >= max(8, 2 * len(fmap))

    def test_key_range_enforced(self):
        fmap = FlatMap()
        with pytest.raises(CuppUsageError, match="sentinel"):
            fmap[EMPTY_KEY] = 1
        with pytest.raises(CuppUsageError, match="sentinel"):
            fmap[-1] = 1
        with pytest.raises(CuppUsageError, match="shape mismatch"):
            fmap.assign(np.arange(3, dtype=np.uint64), np.arange(2))

    def test_clear_empties(self):
        fmap = FlatMap({1: 2, 3: 4})
        fmap.clear()
        assert len(fmap) == 0
        assert 1 not in fmap


# ----------------------------------------------------------------------
# HashGrid invariants (satellite: insert/query/rebuild round-trip)
# ----------------------------------------------------------------------
def _all_members(grid: HashGrid) -> np.ndarray:
    """Concatenate every occupied cell's segment through the public API."""
    return np.concatenate(
        [grid.members_of(int(key)) for key in grid._keys]
        or [np.empty(0, np.int32)]
    )


class TestHashGridInvariants:
    @HYP
    @given(positions=positions_arrays)
    def test_no_lost_or_duplicated_agents(self, positions):
        grid = HashGrid(cell_edge=9.0)
        grid.build(positions)
        n = positions.shape[0]
        assert grid.agent_count == n
        members = _all_members(grid)
        assert np.array_equal(np.sort(members), np.arange(n))

    @HYP
    @given(positions=positions_arrays, positions2=positions_arrays)
    def test_rebuild_round_trips(self, positions, positions2):
        grid = HashGrid(cell_edge=9.0)
        grid.build(positions)
        grid.build(positions2)  # rebuild with a different population
        n = positions2.shape[0]
        assert np.array_equal(np.sort(_all_members(grid)), np.arange(n))
        # Segments partition the agents: CSR offsets are monotone and
        # cover exactly n members.
        starts = grid._starts
        assert starts[0] == 0 and starts[-1] == n
        assert np.all(np.diff(starts) > 0)  # only occupied cells exist
        assert grid.cell_count == starts.size - 1
        assert len(grid.cells) == grid.cell_count

    @HYP
    @given(positions=positions_arrays, query=st.integers(min_value=0))
    def test_candidates_cover_every_in_radius_neighbor(
        self, positions, query
    ):
        radius = 9.0
        grid = HashGrid(cell_edge=radius)
        grid.build(positions)
        i = query % positions.shape[0]
        point = positions[i]
        d2 = np.sum(
            (positions.astype(np.float64) - point.astype(np.float64)) ** 2,
            axis=1,
        )
        in_radius = set(np.nonzero(d2 < radius * radius)[0].tolist())
        assert in_radius <= set(grid.candidates(point).tolist())

    @HYP
    @given(positions=positions_arrays)
    def test_vectorized_keys_match_scalar_twin(self, positions):
        edge = 9.0
        keys = _cell_keys(positions, edge)
        for row, key in zip(positions, keys):
            expected = pack_cell_key(
                axis_cell(row[0], edge),
                axis_cell(row[1], edge),
                axis_cell(row[2], edge),
            )
            assert int(key) == expected

    def test_keys_past_int64_clamp_like_scalar_twin(self):
        # |p / edge| beyond int64: the build clamps these agents into the
        # edge cells the query side (axis_cell) puts them in.
        edge = 9.0
        positions = np.array(
            [[3e38, -3e38, 1e30], [-1e25, 1e25, 0.0]], dtype=np.float32
        )
        keys = _cell_keys(positions, edge)
        for row, key in zip(positions, keys):
            assert int(key) == pack_cell_key(
                *(axis_cell(x, edge) for x in row)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_are_refused(self, bad):
        positions = np.zeros((6, 3), np.float32)
        positions[3, 1] = bad
        positions[5, 0] = bad
        grid = HashGrid(cell_edge=1.0)
        with pytest.raises(CuppUsageError, match="agent 3 "):
            grid.build(positions)

    def test_members_of_missing_cell_is_empty(self):
        grid = HashGrid(cell_edge=1.0)
        grid.build(np.zeros((4, 3), np.float32))
        far = pack_cell_key(0, 0, 0)
        assert grid.members_of(far).size == 0

    def test_requires_build_before_queries(self):
        grid = HashGrid(cell_edge=1.0)
        with pytest.raises(CuppUsageError, match="build"):
            grid.candidates(np.zeros(3))

    def test_cell_edge_must_be_positive(self):
        with pytest.raises(CuppUsageError, match="positive"):
            HashGrid(cell_edge=0.0)

    def test_keys_fit_63_bits(self):
        top = pack_cell_key(
            (1 << CELL_KEY_BITS) - 1,
            (1 << CELL_KEY_BITS) - 1,
            (1 << CELL_KEY_BITS) - 1,
        )
        assert top < EMPTY_KEY  # the empty sentinel is unreachable


# ----------------------------------------------------------------------
# the CuPP protocol: lazy residency, dirty tracking, ledger causes
# ----------------------------------------------------------------------
def _ledger_rows(cause: str):
    return [e for e in obs.get_ledger().entries if e.cause == cause]


class TestCuppProtocol:
    def _grid(self, n=16, seed=3) -> HashGrid:
        rng = np.random.default_rng(seed)
        grid = HashGrid(cell_edge=2.0)
        grid.build(rng.uniform(-8, 8, (n, 3)).astype(np.float32))
        return grid

    @pytest.mark.parametrize(
        "host", [HashGrid, FlatMap], ids=lambda c: c.__name__
    )
    def test_type_binding_is_1_to_1(self, host):
        from repro.cupp import validate_binding

        validate_binding(host)
        validate_binding(host.device_type)

    def test_first_transform_uploads_with_grid_build_cause(
        self, dev, fresh_obs
    ):
        grid = self._grid()
        assert obs.counter("cupp.containers.builds").value == 1
        twin = grid.transform(dev)
        assert isinstance(twin, DeviceHashGrid)
        assert obs.counter("cupp.containers.uploads").value == 1
        assert obs.counter("cupp.containers.queries").value == 1
        builds = _ledger_rows("grid-build")
        assert builds and all(
            e.direction == "h2d" and e.moved for e in builds
        )
        # members + starts + directory keys/vals = the full footprint.
        assert sum(e.nbytes for e in builds) == grid.device_nbytes

    def test_repeat_transform_is_a_lazy_hit(self, dev, fresh_obs):
        grid = self._grid()
        grid.transform(dev)
        uploaded = sum(e.nbytes for e in _ledger_rows("grid-build"))
        grid.transform(dev)
        assert obs.counter("cupp.containers.lazy_hits").value == 1
        assert obs.counter("cupp.containers.uploads").value == 1
        # No new bus traffic — the device copy was reused.
        assert sum(e.nbytes for e in _ledger_rows("grid-build")) == uploaded

    def test_every_consumption_records_a_grid_query(self, dev, fresh_obs):
        grid = self._grid()
        grid.transform(dev)
        grid.transform(dev)
        queries = _ledger_rows("grid-query")
        assert len(queries) == 2
        for e in queries:
            assert e.direction == "d2d"
            assert not e.moved  # on-device bytes, not bus traffic
            assert e.nbytes == grid.device_nbytes
            assert e.label == "hashgrid"

    def test_rebuild_invalidates_device_copy(self, dev, fresh_obs):
        grid = self._grid()
        grid.transform(dev)
        rng = np.random.default_rng(4)
        grid.build(rng.uniform(-8, 8, (16, 3)).astype(np.float32))
        grid.transform(dev)
        assert obs.counter("cupp.containers.uploads").value == 2
        assert obs.counter("cupp.containers.lazy_hits").value == 0

    def test_population_change_reallocates(self, dev, fresh_obs):
        grid = self._grid(n=16)
        grid.transform(dev)
        rng = np.random.default_rng(5)
        grid.build(rng.uniform(-8, 8, (32, 3)).astype(np.float32))
        grid.transform(dev)
        assert obs.counter("cupp.containers.reallocs").value == 1

    def test_dirty_refuses_const_containers(self, dev, fresh_obs):
        grid = self._grid()
        ref = grid.get_device_reference(dev)
        with pytest.raises(CuppUsageError, match="ConstRef"):
            grid.dirty(ref)
        fmap = FlatMap({1: 2})
        fref = fmap.get_device_reference(dev)
        with pytest.raises(CuppUsageError, match="ConstRef"):
            fmap.dirty(fref)

    def test_flatmap_protocol_counters_and_label(self, dev, fresh_obs):
        fmap = FlatMap({i: i * 10 for i in range(9)})
        fmap.transform(dev)
        fmap.transform(dev)
        assert obs.counter("cupp.containers.uploads").value == 1
        assert obs.counter("cupp.containers.lazy_hits").value == 1
        queries = _ledger_rows("grid-query")
        assert [e.label for e in queries] == ["flatmap", "flatmap"]
        assert all(e.nbytes == fmap.device_nbytes for e in queries)
        # Host mutation dirties the device copy.
        fmap[99] = 1
        fmap.transform(dev)
        assert obs.counter("cupp.containers.uploads").value == 2

    def test_second_device_is_rejected(self, dev, fresh_obs):
        grid = self._grid()
        grid.transform(dev)
        other = Device(
            machine=CudaMachine([scaled_arch("u", 2, memory_bytes=1 << 22)])
        )
        with pytest.raises(CuppUsageError, match="different device"):
            grid.transform(other)


# ----------------------------------------------------------------------
# device twins: uploaded bytes + kernel-argument encoding
# ----------------------------------------------------------------------
class TestDeviceTwins:
    def test_uploaded_arrays_match_host_build(self, dev, fresh_obs):
        rng = np.random.default_rng(6)
        pos = rng.uniform(-8, 8, (24, 3)).astype(np.float32)
        grid = HashGrid(cell_edge=2.0)
        grid.build(pos)
        twin = grid.transform(dev)
        assert np.array_equal(twin.members._raw(), grid._members)
        assert np.array_equal(twin.starts._raw(), grid._starts)
        assert np.array_equal(twin.cells.keys._raw(), grid.cells._keys)
        assert np.array_equal(twin.cells.vals._raw(), grid.cells._vals)
        assert twin.cell_edge == grid.cell_edge
        assert twin.nbytes == grid.device_nbytes

    def test_hashgrid_pack_unpack_round_trip(self, dev, fresh_obs):
        grid = self_grid = HashGrid(cell_edge=3.0)
        self_grid.build(np.eye(3, dtype=np.float32) * 5)
        twin = grid.transform(dev)
        clone = DeviceHashGrid.unpack(twin.pack(), dev)
        assert clone.cell_edge == twin.cell_edge
        assert np.array_equal(clone.members._raw(), twin.members._raw())
        assert np.array_equal(clone.starts._raw(), twin.starts._raw())
        assert np.array_equal(clone.cells.keys._raw(), twin.cells.keys._raw())

    def test_flatmap_pack_unpack_round_trip(self, dev, fresh_obs):
        fmap = FlatMap({5: 50, 6: 60})
        twin = fmap.transform(dev)
        clone = DeviceFlatMap.unpack(twin.pack(), dev)
        assert clone.capacity == twin.capacity == fmap.capacity
        assert np.array_equal(clone.keys._raw(), twin.keys._raw())
        assert np.array_equal(clone.vals._raw(), twin.vals._raw())
