"""``cupp.containers.FlatMap`` — an open-addressing device hash map.

The host side behaves like ``std::unordered_map<uint64_t, int32_t>``
(insert, lookup, erase, iteration); the device side is two flat arrays
— ``keys`` (uint64) and ``vals`` (int32) — probed with linear open
addressing, the layout stdgpu uses for its ``unordered_map`` because a
flat probe sequence is coalescing-friendly and needs no device-side
allocation.

Construction happens on the host (paper ch. 7: "Data structures must be
constructed at the host, due to the low arithmetic intensity of such a
process"); the device only ever reads.  Residency is the shared §4.6
protocol of :class:`~repro.cupp.lazy.HostBuiltContainer`: any host
mutation marks the device copy stale, the next kernel consumption
uploads the probe arrays (ledger cause ``grid-build``), and every
consumption records a ``grid-query`` entry (``moved=False`` — on-device
bytes read, not bus traffic).

The load factor is capped at 1/2 and the capacity is a power of two,
so linear probing terminates quickly and the device kernel's probe loop
(:func:`device_map_get`) has a short expected walk.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.cupp.device import Device
from repro.cupp.exceptions import CuppUsageError
from repro.cupp.lazy import HostBuiltContainer
from repro.simgpu import devicelib as dl
from repro.simgpu.isa import bundle, ld
from repro.simgpu.memory import DeviceArrayView, DevicePtr

_MASK64 = (1 << 64) - 1

# The probe loop's interned multi-issue events (see repro.simgpu.isa).
_IADD2 = dl.iadd(2)
#: A probe's test: empty? match? and the branch.
_PROBE_TEST = bundle(dl.compare(2), dl.BRANCH)

#: The reserved empty-slot marker.  Grid cell keys use at most 63 bits
#: (see :mod:`repro.cupp.containers.hashgrid`), so the all-ones key can
#: never collide with a real key.
EMPTY_KEY = _MASK64

#: Sentinel returned by lookups that miss.
NOT_FOUND = -1


def mix64(key: "int | np.ndarray") -> "int | np.ndarray":
    """The splitmix64 finalizer — the probe-start hash.

    Pure 64-bit integer arithmetic, identical on the host (build), the
    emulated device (probe loop), and the native twin, so every engine
    walks the same probe sequence.  ``key`` is an int or a uint64 array
    (the bulk build hashes every key at once); array products wrap at
    64 bits exactly as the masked int products do.
    """
    key = key & _MASK64
    key = ((key ^ (key >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    key = ((key ^ (key >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    return key ^ (key >> 33)


class DeviceFlatMap:
    """The device type of :class:`FlatMap`: two probe arrays + capacity.

    Like :class:`~repro.cupp.vector.DeviceVector` it is a thin window
    onto global memory; kernels probe it through
    :func:`device_map_get`.  It has no insert — the device cannot
    allocate, and containers are built at the host (ch. 7).
    """

    #: Stack footprint: two device pointers plus a 32-bit capacity.
    kernel_arg_size = 20

    host_type: "type | None" = None  # bound below (listing 4.6)
    device_type: "type | None" = None

    def __init__(self, keys: DeviceArrayView, vals: DeviceArrayView) -> None:
        self.keys = keys
        self.vals = vals

    @property
    def capacity(self) -> int:
        return self.keys.count

    @property
    def nbytes(self) -> int:
        """The device footprint a probing kernel can touch."""
        return self.keys.count * 8 + self.vals.count * 4

    def pack(self) -> np.ndarray:
        meta = (
            self.keys.ptr.addr,
            self.vals.ptr.addr,
            self.keys.count,
        )
        return np.frombuffer(pickle.dumps(meta), dtype=np.uint8).copy()

    @classmethod
    def unpack(cls, blob: np.ndarray, device: Device) -> "DeviceFlatMap":
        k_addr, v_addr, cap = pickle.loads(blob.tobytes())
        mem = device.sim.memory
        return cls(
            DeviceArrayView(mem, DevicePtr(k_addr), np.dtype(np.uint64), cap),
            DeviceArrayView(mem, DevicePtr(v_addr), np.dtype(np.int32), cap),
        )


def device_map_get(fmap: DeviceFlatMap, key: int, default: int = NOT_FOUND):
    """Device-side lookup: the linear probe loop, with instruction events.

    A generator in the emulator's kernel dialect — each probe is one
    global 8-byte key read plus a compare; a hit pays one more 4-byte
    value read.  Capacity is a power of two, so the wrap is a mask.
    """
    mask = fmap.capacity - 1
    slot = mix64(key) & mask
    yield _IADD2  # hash fold + mask
    while True:
        stored = yield ld(fmap.keys, slot)
        yield _PROBE_TEST  # empty? match?
        if stored == EMPTY_KEY:
            return default
        if stored == key:
            value = yield ld(fmap.vals, slot)
            return int(value)
        slot = (slot + 1) & mask
        yield dl.IADD


class FlatMap(HostBuiltContainer):
    """Host-side ``unordered_map`` with a lazily synchronized device twin.

    Keys are uint64, values int32 — the shapes device code can read
    directly.  The probe table is host-resident numpy (``_keys`` /
    ``_vals``); the device copy is uploaded on demand by the CuPP
    protocol methods and invalidated by any host mutation.
    """

    host_type: "type | None" = None
    device_type = DeviceFlatMap

    invalidate_instant = "flatmap.invalidate-device"
    query_label = "flatmap"

    _MIN_CAPACITY = 8

    def __init__(self, items: "dict | None" = None) -> None:
        HostBuiltContainer.__init__(self)
        self._keys = np.full(self._MIN_CAPACITY, EMPTY_KEY, dtype=np.uint64)
        self._vals = np.zeros(self._MIN_CAPACITY, dtype=np.int32)
        self._size = 0
        if items:
            for key, value in items.items():
                self[key] = value

    # ------------------------------------------------------------------
    # host-side probe table
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._keys.size

    def _check_key(self, key: int) -> int:
        key = int(key)
        if not 0 <= key < EMPTY_KEY:
            raise CuppUsageError(
                f"FlatMap keys must be uint64 below the empty sentinel "
                f"(2**64-1); got {key}"
            )
        return key

    def _slot_of(self, key: int) -> "tuple[int, bool]":
        """(slot, occupied) — the probe walk shared by get and insert."""
        mask = self.capacity - 1
        slot = mix64(key) & mask
        while True:
            stored = int(self._keys[slot])
            if stored == EMPTY_KEY:
                return slot, False
            if stored == key:
                return slot, True
            slot = (slot + 1) & mask

    def _grow_to(self, capacity: int) -> None:
        old_keys, old_vals = self._keys, self._vals
        self._keys = np.full(capacity, EMPTY_KEY, dtype=np.uint64)
        self._vals = np.zeros(capacity, dtype=np.int32)
        self._size = 0
        for stored, value in zip(old_keys, old_vals):
            if int(stored) != EMPTY_KEY:
                self._insert(int(stored), int(value))

    def _insert(self, key: int, value: int) -> None:
        slot, occupied = self._slot_of(key)
        self._keys[slot] = key
        self._vals[slot] = value
        if not occupied:
            self._size += 1

    # ------------------------------------------------------------------
    # std::unordered_map-like host interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def size(self) -> int:
        return self._size

    def empty(self) -> bool:
        return self._size == 0

    def __setitem__(self, key: int, value: int) -> None:
        key = self._check_key(key)
        self._before_host_write()
        # Load factor <= 1/2 keeps device probe walks short.
        if 2 * (self._size + 1) > self.capacity:
            self._grow_to(self.capacity * 2)
        self._insert(key, int(value))

    def insert(self, key: int, value: int) -> None:
        """``m.insert({k, v})`` — alias of item assignment."""
        self[key] = value

    def __getitem__(self, key: int) -> int:
        key = self._check_key(key)
        slot, occupied = self._slot_of(key)
        if not occupied:
            raise KeyError(key)
        return int(self._vals[slot])

    def get(self, key: int, default: int = NOT_FOUND) -> int:
        key = self._check_key(key)
        slot, occupied = self._slot_of(key)
        return int(self._vals[slot]) if occupied else default

    def __contains__(self, key: int) -> bool:
        _, occupied = self._slot_of(self._check_key(key))
        return occupied

    def erase(self, key: int) -> bool:
        """``m.erase(k)`` — remove a key; returns whether it existed.

        Open addressing cannot simply null a slot (it would break probe
        chains), so erase rehashes the survivors — fine for host-side
        maintenance of a structure that is rebuilt wholesale anyway.
        """
        key = self._check_key(key)
        _, occupied = self._slot_of(key)
        if not occupied:
            return False
        self._before_host_write()
        items = {
            int(k): int(v)
            for k, v in zip(self._keys, self._vals)
            if int(k) != EMPTY_KEY and int(k) != key
        }
        self._keys = np.full(
            max(self._MIN_CAPACITY, self.capacity), EMPTY_KEY, dtype=np.uint64
        )
        self._vals = np.zeros(self._keys.size, dtype=np.int32)
        self._size = 0
        for k, v in items.items():
            self._insert(k, v)
        return True

    def clear(self) -> None:
        self._before_host_write()
        self._keys = np.full(self._MIN_CAPACITY, EMPTY_KEY, dtype=np.uint64)
        self._vals = np.zeros(self._MIN_CAPACITY, dtype=np.int32)
        self._size = 0

    def items(self):
        for stored, value in zip(self._keys, self._vals):
            if int(stored) != EMPTY_KEY:
                yield int(stored), int(value)

    def keys(self):
        for key, _ in self.items():
            yield key

    def __iter__(self):
        return self.keys()

    # ------------------------------------------------------------------
    # bulk build (the HashGrid fast path)
    # ------------------------------------------------------------------
    def assign(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Replace the contents from parallel key/value arrays in one
        rebuild — the O(n) bulk path :class:`HashGrid` uses per frame.

        The table is the one inserting the pairs in order would build
        (a repeated key keeps its last value).  Every key is checked
        before anything changes, so a rejected call leaves the map, its
        device copy and the ledger as they were.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.int32)
        if keys.shape != values.shape:
            raise CuppUsageError(
                f"assign shape mismatch: {keys.shape} keys vs "
                f"{values.shape} values"
            )
        keys, values = keys.reshape(-1), values.reshape(-1)
        bad = np.flatnonzero(keys == EMPTY_KEY)
        if bad.size:
            self._check_key(int(keys[bad[0]]))
        capacity = self._MIN_CAPACITY
        while capacity < 2 * keys.size:
            capacity *= 2
        mask = capacity - 1
        # The sequential linear probe over a list of slot holders (item
        # numbers, -1 empty); a repeated key's later item takes its slot.
        holder = [-1] * capacity
        key_list = keys.tolist()
        homes = (mix64(keys) & mask).tolist()
        for item, (key, slot) in enumerate(zip(key_list, homes)):
            held = holder[slot]
            while held >= 0 and key_list[held] != key:
                slot = (slot + 1) & mask
                held = holder[slot]
            holder[slot] = item
        holder = np.array(holder, dtype=np.int64)
        filled = holder >= 0
        self._before_host_write()
        self._keys = np.full(capacity, EMPTY_KEY, dtype=np.uint64)
        self._vals = np.zeros(capacity, dtype=np.int32)
        self._keys[filled] = keys[holder[filled]]
        self._vals[filled] = values[holder[filled]]
        self._size = int(filled.sum())

    # ------------------------------------------------------------------
    # the CuPP protocol (§4.4/§4.6)
    # ------------------------------------------------------------------
    @property
    def device_nbytes(self) -> int:
        """Bytes the device copy occupies (keys + vals arrays)."""
        return self.capacity * (8 + 4)

    def _host_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        return self._keys, self._vals

    def _device_twin(self) -> DeviceFlatMap:
        keys, vals = self._blocks
        return DeviceFlatMap(keys.view(), vals.view())


# Listing 4.6: both types carry both typedefs, matched 1:1.
FlatMap.host_type = FlatMap
DeviceFlatMap.host_type = FlatMap
DeviceFlatMap.device_type = DeviceFlatMap
