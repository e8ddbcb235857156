"""``cupp.containers`` — STL-like device data structures (paper ch. 7).

The paper closes with the observation that "spatial data structures
could improve the neighbor search performance.  Data structures must be
constructed at the host ... and then be transferred to the GPU.  With
CuPP it would be easy to use two different data representations, the
host data structure could be designed for fast construction, whereas
the device data structure could be designed for fast memory transfer to
device memory and fast neighborhood lookup."  stdgpu makes the same
argument for STL-like GPU containers at library scale.

This package builds that layer on the same machinery as
``cupp.Vector``:

* :class:`~repro.cupp.containers.flatmap.FlatMap` — an open-addressing
  device hash map (uint64 keys -> int32 values), ``std::unordered_map``
  on the host, two flat probe arrays on the device;
* :class:`~repro.cupp.containers.hashgrid.HashGrid` — a spatial hash
  grid composing a :class:`FlatMap` cell directory with CSR member
  lists; built on the host in O(n), queried on the device in O(k).

Both are 1:1 host/device type pairs (listing 4.6) and share the §4.6
lazy-copy implementation of every CuPP container
(:class:`~repro.cupp.lazy.HostBuiltContainer`): their traffic lands in
the transfer ledger under ``grid-build`` / ``grid-query`` and in the
``cupp.containers.*`` metric family.
"""

from __future__ import annotations

from repro.cupp.containers.flatmap import (
    EMPTY_KEY,
    DeviceFlatMap,
    FlatMap,
    device_map_get,
)
from repro.cupp.containers.hashgrid import (
    CELL_KEY_BITS,
    DeviceHashGrid,
    HashGrid,
    pack_cell_key,
)

__all__ = [
    "CELL_KEY_BITS",
    "DeviceFlatMap",
    "DeviceHashGrid",
    "EMPTY_KEY",
    "FlatMap",
    "HashGrid",
    "device_map_get",
    "pack_cell_key",
]
