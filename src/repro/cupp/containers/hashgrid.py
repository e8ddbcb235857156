"""``cupp.containers.HashGrid`` — a spatial hash grid for neighbor search.

The two-representation design the paper's chapter 7 sketches, composed
from this package's own parts:

* **Host representation (fast construction):** one O(n) counting-sort
  pass buckets agents by their packed cell key; occupied cells become
  contiguous CSR segments.  No dense cell array exists anywhere — the
  grid hashes an *unbounded* world, paying memory only for occupied
  cells (the property that lets it scale to million-agent flocks).
* **Device representation (fast transfer + fast lookup):** three flat
  arrays — ``members`` (agent ids, segment-contiguous), ``starts`` (CSR
  offsets per segment), and a :class:`~repro.cupp.containers.flatmap.
  FlatMap` cell directory mapping packed cell key -> segment index.  A
  query probes the directory for each of the 27 cells around an agent
  and scans only those segments: O(k) instead of O(n).

Cell keys pack the three signed cell coordinates into 21 bits each
(63 bits total), leaving the flat map's all-ones empty sentinel
unreachable.  Cell coordinates are ``floor(p / cell_edge)`` computed in
float64 — bit-identical between the numpy build, the emulated kernel,
and the native twin.

Residency is the shared §4.6 protocol of
:class:`~repro.cupp.lazy.HostBuiltContainer`: ``build()`` marks the
device copy stale, ``transform()`` uploads only when stale (ledger cause
``grid-build``) and attributes every kernel consumption as
``grid-query`` on-device traffic.  The ``cupp.containers.*`` counter
family (builds / uploads / queries / lazy_hits / reallocs) makes the
rebuild-vs-reuse economics observable.
"""

from __future__ import annotations

import math
import pickle

import numpy as np

from repro import obs
from repro.cupp.containers.flatmap import DeviceFlatMap, FlatMap
from repro.cupp.device import Device
from repro.cupp.exceptions import CuppUsageError
from repro.cupp.lazy import HostBuiltContainer
from repro.simgpu.memory import DeviceArrayView, DevicePtr

#: Bits per axis in a packed cell key (3 x 21 = 63 < 64).
CELL_KEY_BITS = 21

_AXIS_BIAS = 1 << (CELL_KEY_BITS - 1)
_AXIS_MAX = (1 << CELL_KEY_BITS) - 1


def axis_cell(x: float, cell_edge: float) -> int:
    """One axis's biased cell coordinate — scalar twin of the build.

    ``floor`` (not int-truncation) so negative coordinates land in the
    right cell; float64 division so host and device agree bitwise.
    """
    return min(max(int(math.floor(float(x) / cell_edge)) + _AXIS_BIAS, 0),
               _AXIS_MAX)


def pack_cell_key(cx: int, cy: int, cz: int) -> int:
    """Pack three biased axis cells (ints or int64 arrays) into one
    63-bit key."""
    return (cx << (2 * CELL_KEY_BITS)) | (cy << CELL_KEY_BITS) | cz


def cell_coords(positions: np.ndarray, cell_edge: float) -> np.ndarray:
    """Biased axis cells of an (n, 3) position array, as (n, 3) int64 —
    the array twin of :func:`axis_cell`.

    The bias and clamp happen in float64, before the integer cast, so a
    coordinate too large for int64 clamps the way ``axis_cell`` clamps
    it instead of wrapping.
    """
    cells = np.floor(positions.astype(np.float64) / cell_edge) + _AXIS_BIAS
    return np.clip(cells, 0, _AXIS_MAX).astype(np.int64)


def _cell_keys(positions: np.ndarray, cell_edge: float) -> np.ndarray:
    """Vectorized packed keys for an (n, 3) position array."""
    return pack_cell_key(*cell_coords(positions, cell_edge).T).astype(np.uint64)


class DeviceHashGrid:
    """The device type of :class:`HashGrid`: CSR arrays + cell directory.

    Kernels locate an agent's cell with :func:`axis_cell` /
    :func:`pack_cell_key`, probe ``cells`` (a
    :class:`DeviceFlatMap`) for the segment index, and scan
    ``members[starts[s] : starts[s+1]]``.
    """

    #: Stack footprint: three device pointers, two sizes, the edge.
    kernel_arg_size = 32

    host_type: "type | None" = None  # bound below (listing 4.6)
    device_type: "type | None" = None

    def __init__(
        self,
        members: DeviceArrayView,
        starts: DeviceArrayView,
        cells: DeviceFlatMap,
        cell_edge: float,
    ) -> None:
        self.members = members
        self.starts = starts
        self.cells = cells
        self.cell_edge = cell_edge

    @property
    def nbytes(self) -> int:
        """The device footprint a querying kernel can touch."""
        return (
            self.members.count * 4
            + self.starts.count * 4
            + self.cells.nbytes
        )

    def pack(self) -> np.ndarray:
        meta = (
            self.members.ptr.addr,
            self.members.count,
            self.starts.ptr.addr,
            self.starts.count,
            self.cells.keys.ptr.addr,
            self.cells.vals.ptr.addr,
            self.cells.capacity,
            self.cell_edge,
        )
        return np.frombuffer(pickle.dumps(meta), dtype=np.uint8).copy()

    @classmethod
    def unpack(cls, blob: np.ndarray, device: Device) -> "DeviceHashGrid":
        (m_addr, m_n, s_addr, s_n, k_addr, v_addr, cap, edge) = pickle.loads(
            blob.tobytes()
        )
        mem = device.sim.memory
        return cls(
            DeviceArrayView(mem, DevicePtr(m_addr), np.dtype(np.int32), m_n),
            DeviceArrayView(mem, DevicePtr(s_addr), np.dtype(np.int32), s_n),
            DeviceFlatMap(
                DeviceArrayView(
                    mem, DevicePtr(k_addr), np.dtype(np.uint64), cap
                ),
                DeviceArrayView(
                    mem, DevicePtr(v_addr), np.dtype(np.int32), cap
                ),
            ),
            edge,
        )


class HashGrid(HostBuiltContainer):
    """Host-built spatial hash with a lazily synchronized device twin.

    Parameters
    ----------
    cell_edge:
        Cell size.  Choosing the query radius guarantees the 3x3x3 cell
        neighborhood covers every agent within that radius.
    """

    host_type: "type | None" = None
    device_type = DeviceHashGrid

    invalidate_instant = "hashgrid.invalidate-device"
    query_label = "hashgrid"
    # The cell directory is a FlatMap with its own residency, uploaded
    # after members/starts and accounted as part of the grid.
    parts = ("cells",)

    def __init__(self, cell_edge: float) -> None:
        HostBuiltContainer.__init__(self)
        if not cell_edge > 0:
            raise CuppUsageError(
                f"cell_edge must be positive, got {cell_edge}"
            )
        self.cell_edge = float(cell_edge)
        self._members: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._keys: np.ndarray | None = None  # per-segment packed cell key
        self.cells = FlatMap()

    # ------------------------------------------------------------------
    # host-side construction ("fast construction", ch. 7)
    # ------------------------------------------------------------------
    def build(self, positions: np.ndarray) -> None:
        """O(n) counting-sort (re)build from an (n, 3) position array.

        Marks any device copy stale — the next kernel consumption pays
        one ``grid-build`` upload, later consumptions are lazy hits.
        """
        positions = np.asarray(positions, dtype=np.float32).reshape(-1, 3)
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise CuppUsageError(
                f"HashGrid.build: agent {bad} has a non-finite position "
                f"{positions[bad].tolist()}; every agent needs a grid cell"
            )
        keys = _cell_keys(positions, self.cell_edge)
        # Stable sort keeps same-cell agents in index order, so segment
        # scans enumerate candidates deterministically.
        order = np.argsort(keys, kind="stable").astype(np.int32)
        sorted_keys = keys[order.astype(np.int64)]
        unique_keys, counts = np.unique(sorted_keys, return_counts=True)
        starts = np.zeros(unique_keys.size + 1, dtype=np.int32)
        np.cumsum(counts, out=starts[1:])
        self._members = order
        self._starts = starts
        self._keys = unique_keys
        self.cells.assign(
            unique_keys, np.arange(unique_keys.size, dtype=np.int32)
        )
        self._before_host_write()
        obs.counter("cupp.containers.builds").inc()
        tracer = obs.get_tracer()
        if tracer.enabled:
            tracer.instant(
                "hashgrid.build",
                agents=int(positions.shape[0]),
                cells=int(unique_keys.size),
            )

    def _require_built(self) -> None:
        if self._members is None:
            raise CuppUsageError(
                "HashGrid.build() must run before this operation"
            )

    # ------------------------------------------------------------------
    # host-side queries (tests, native twins, reference answers)
    # ------------------------------------------------------------------
    @property
    def agent_count(self) -> int:
        self._require_built()
        return int(self._members.size)

    @property
    def cell_count(self) -> int:
        """Occupied cells — the only cells that cost memory."""
        self._require_built()
        return int(self._keys.size)

    def members_of(self, key: int) -> np.ndarray:
        """Agent ids stored in one packed cell (empty array on miss)."""
        self._require_built()
        segment = self.cells.get(int(key))
        if segment < 0:
            return np.empty(0, dtype=np.int32)
        return self._members[
            int(self._starts[segment]) : int(self._starts[segment + 1])
        ]

    def candidates(self, point: np.ndarray) -> np.ndarray:
        """Agent ids in the 27 cells around ``point``, in scan order.

        The host mirror of the device query's candidate enumeration —
        the superset every in-radius neighbor is guaranteed to be in
        when ``cell_edge >= radius``.
        """
        self._require_built()
        cx = axis_cell(point[0], self.cell_edge)
        cy = axis_cell(point[1], self.cell_edge)
        cz = axis_cell(point[2], self.cell_edge)
        found: "list[np.ndarray]" = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    x, y, z = cx + dx, cy + dy, cz + dz
                    if not (
                        0 <= x <= _AXIS_MAX
                        and 0 <= y <= _AXIS_MAX
                        and 0 <= z <= _AXIS_MAX
                    ):
                        continue
                    found.append(self.members_of(pack_cell_key(x, y, z)))
        if not found:
            return np.empty(0, dtype=np.int32)
        return np.concatenate(found)

    # ------------------------------------------------------------------
    # the CuPP protocol (§4.4/§4.6)
    # ------------------------------------------------------------------
    @property
    def device_nbytes(self) -> int:
        """Bytes of the full device representation (CSR + directory)."""
        self._require_built()
        return (
            self._members.size * 4
            + self._starts.size * 4
            + self.cells.device_nbytes
        )

    def _host_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        self._require_built()
        members = self._members if self._members.size else np.zeros(1, np.int32)
        return members, self._starts

    def _device_twin(self) -> DeviceHashGrid:
        members, starts = self._blocks
        return DeviceHashGrid(
            members.view(),
            starts.view(),
            self.cells._device_twin(),
            self.cell_edge,
        )


# Listing 4.6: both types carry both typedefs, matched 1:1.
HashGrid.host_type = HashGrid
DeviceHashGrid.host_type = HashGrid
DeviceHashGrid.device_type = DeviceHashGrid
