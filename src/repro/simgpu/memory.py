"""Simulated device memory: linear global memory and per-block shared memory.

Global ("device") memory is a 32-bit linear address space managed by a
first-fit allocator, exactly the ``cudaMalloc``/``cudaFree`` model of
CUDA 1.0 (§3.2.3).  Pointers into it are :class:`DevicePtr` values — opaque
integers with pointer arithmetic but **no dereference operator**: the paper
stresses that dereferencing a device pointer on the host is undefined, and
we turn "undefined" into an immediate :class:`InvalidDeviceAccess`.

Host code moves data in and out through :meth:`DeviceMemory.copy_in` /
:meth:`DeviceMemory.copy_out` (the back end of ``cudaMemcpy``); device code
reads and writes through the warp executor, which accounts the Table 2.2
costs.

Shared memory is a small per-thread-block scratchpad (:class:`SharedMemory`)
sized by :attr:`ArchSpec.shared_mem_per_mp`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ReproError
from repro.common.units import align_up


class DeviceMemoryError(ReproError):
    """Base class for simulated memory faults."""


class OutOfDeviceMemory(DeviceMemoryError):
    """Allocation request cannot be satisfied (fragmentation or exhaustion)."""


class InvalidDeviceAccess(DeviceMemoryError):
    """An address does not fall inside a live allocation, or a host attempt
    was made to dereference a device pointer directly."""


class InvalidFree(DeviceMemoryError):
    """``free`` called with a pointer that is not a live allocation base."""


#: Allocation granularity.  CUDA 1.0 aligns allocations to 256 bytes.
ALLOC_ALIGN = 256

#: First valid device address; address 0 is the null pointer.
BASE_ADDRESS = ALLOC_ALIGN


@dataclass(frozen=True)
class DevicePtr:
    """An address in simulated device memory.

    Supports pointer arithmetic (``ptr + nbytes``) and comparison, but has
    no way to read the bytes it points to: that is exactly the property of
    a real device pointer on the host side.
    """

    addr: int

    def __add__(self, offset: int) -> "DevicePtr":
        return DevicePtr(self.addr + int(offset))

    def __sub__(self, other: "DevicePtr | int") -> "DevicePtr | int":
        if isinstance(other, DevicePtr):
            return self.addr - other.addr
        return DevicePtr(self.addr - int(other))

    def __bool__(self) -> bool:
        return self.addr != 0

    def __int__(self) -> int:
        return self.addr

    def __getitem__(self, _index: object) -> None:
        raise InvalidDeviceAccess(
            "dereferencing a device pointer on the host is undefined "
            "(paper §3.2.3); use cudaMemcpy / cupp.memory1d transfers"
        )


#: The null device pointer.
NULL_PTR = DevicePtr(0)


@dataclass
class _Block:
    """A live allocation: [addr, addr + size) backed by a numpy buffer."""

    addr: int
    size: int
    data: np.ndarray  # uint8, length == size


class DeviceMemory:
    """Linear device memory with a first-fit allocator.

    The allocator keeps an address-ordered free list and merges adjacent
    free ranges on :meth:`free`, so the invariants tested by the property
    suite hold: live blocks never overlap, and alloc-after-free reuses
    space.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= BASE_ADDRESS:
            raise DeviceMemoryError(
                f"capacity must exceed {BASE_ADDRESS} bytes, got {capacity_bytes}"
            )
        self.capacity = int(capacity_bytes)
        self._blocks: dict[int, _Block] = {}
        # Parallel sorted structures: free range start addresses and sizes.
        self._free_starts: list[int] = [BASE_ADDRESS]
        self._free_sizes: list[int] = [self.capacity - BASE_ADDRESS]
        self._block_starts: list[int] = []  # sorted, for address resolution

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int) -> DevicePtr:
        """Allocate ``nbytes`` (rounded up to the 256-byte granule).

        Raises :class:`OutOfDeviceMemory` when no free range fits.
        A zero-byte request returns a distinct valid allocation of one
        granule, mirroring ``cudaMalloc(&p, 0)`` returning success.
        """
        if nbytes < 0:
            raise DeviceMemoryError(f"cannot allocate {nbytes} bytes")
        size = align_up(max(int(nbytes), 1), ALLOC_ALIGN)
        for i, (start, free_size) in enumerate(
            zip(self._free_starts, self._free_sizes)
        ):
            if free_size >= size:
                # Carve from the front of this free range.
                if free_size == size:
                    del self._free_starts[i]
                    del self._free_sizes[i]
                else:
                    self._free_starts[i] = start + size
                    self._free_sizes[i] = free_size - size
                block = _Block(start, size, np.zeros(size, dtype=np.uint8))
                self._blocks[start] = block
                bisect.insort(self._block_starts, start)
                return DevicePtr(start)
        raise OutOfDeviceMemory(
            f"cannot allocate {size} bytes "
            f"({self.free_bytes} free of {self.capacity})"
        )

    def free(self, ptr: DevicePtr) -> None:
        """Release an allocation.  Freeing the null pointer is a no-op
        (matching ``cudaFree(NULL)``); anything else that is not a live
        allocation base raises :class:`InvalidFree`."""
        if not ptr:
            return
        block = self._blocks.pop(ptr.addr, None)
        if block is None:
            raise InvalidFree(f"0x{ptr.addr:x} is not a live allocation")
        self._block_starts.remove(ptr.addr)
        self._insert_free_range(block.addr, block.size)

    def _insert_free_range(self, start: int, size: int) -> None:
        """Insert a free range, merging with adjacent free neighbours."""
        i = bisect.bisect_left(self._free_starts, start)
        # Merge with predecessor?
        if i > 0 and self._free_starts[i - 1] + self._free_sizes[i - 1] == start:
            i -= 1
            self._free_sizes[i] += size
        else:
            self._free_starts.insert(i, start)
            self._free_sizes.insert(i, size)
        # Merge with successor?
        if (
            i + 1 < len(self._free_starts)
            and self._free_starts[i] + self._free_sizes[i]
            == self._free_starts[i + 1]
        ):
            self._free_sizes[i] += self._free_sizes[i + 1]
            del self._free_starts[i + 1]
            del self._free_sizes[i + 1]

    def free_all(self) -> None:
        """Release every allocation (used when a device handle is destroyed:
        §4.1 — 'when the device handle is destroyed, all memory allocated
        on this device is freed as well')."""
        for addr in list(self._blocks):
            self.free(DevicePtr(addr))

    # ------------------------------------------------------------------
    # address resolution & host-side transfer
    # ------------------------------------------------------------------
    def _resolve(self, ptr: DevicePtr, nbytes: int) -> tuple[_Block, int]:
        """Map ``ptr`` to (block, offset); the access must stay inside one
        allocation, otherwise it is an :class:`InvalidDeviceAccess`."""
        if not isinstance(ptr, DevicePtr):
            raise InvalidDeviceAccess(
                f"expected a DevicePtr, got {type(ptr).__name__} "
                "(host pointers are not valid on the device)"
            )
        i = bisect.bisect_right(self._block_starts, ptr.addr) - 1
        if i < 0:
            raise InvalidDeviceAccess(f"0x{ptr.addr:x} is not mapped")
        block = self._blocks[self._block_starts[i]]
        offset = ptr.addr - block.addr
        if offset + nbytes > block.size:
            raise InvalidDeviceAccess(
                f"access of {nbytes} bytes at 0x{ptr.addr:x} overruns the "
                f"{block.size}-byte allocation at 0x{block.addr:x}"
            )
        return block, offset

    def copy_in(self, ptr: DevicePtr, data: np.ndarray | bytes) -> None:
        """Host -> device transfer of raw bytes."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1) if isinstance(
            data, np.ndarray
        ) else np.frombuffer(data, dtype=np.uint8)
        block, offset = self._resolve(ptr, raw.size)
        block.data[offset : offset + raw.size] = raw

    def copy_out(self, ptr: DevicePtr, nbytes: int) -> np.ndarray:
        """Device -> host transfer; returns a *copy* of the bytes."""
        block, offset = self._resolve(ptr, nbytes)
        return block.data[offset : offset + nbytes].copy()

    def copy_device_to_device(
        self, dst: DevicePtr, src: DevicePtr, nbytes: int
    ) -> None:
        """Device -> device copy (``cudaMemcpyDeviceToDevice``)."""
        src_block, src_off = self._resolve(src, nbytes)
        dst_block, dst_off = self._resolve(dst, nbytes)
        chunk = src_block.data[src_off : src_off + nbytes].copy()
        dst_block.data[dst_off : dst_off + nbytes] = chunk

    def view(self, ptr: DevicePtr, dtype: np.dtype, count: int) -> np.ndarray:
        """Typed numpy view of device bytes — **simulator internal**.

        Only the warp executor and the fast functional executor may call
        this; host-facing layers must use copy_in/copy_out.
        """
        itemsize = np.dtype(dtype).itemsize
        block, offset = self._resolve(ptr, count * itemsize)
        return block.data[offset : offset + count * itemsize].view(dtype)

    # ------------------------------------------------------------------
    # snapshot / restore (profiler replay support)
    # ------------------------------------------------------------------
    def snapshot_contents(self) -> "dict[int, np.ndarray]":
        """Copy the bytes of every live allocation, keyed by base address.

        This captures *contents only*, not allocator structure: the
        profiler's replay pass (:mod:`repro.backend.native`) re-runs a
        kernel in the SIMT emulator to collect counters and then calls
        :meth:`restore_contents` so the subsequent timed run starts from
        identical memory.  Allocations are expected to be unchanged
        between snapshot and restore — a kernel cannot alloc or free.
        """
        return {addr: blk.data.copy() for addr, blk in self._blocks.items()}

    def restore_contents(self, snapshot: "dict[int, np.ndarray]") -> None:
        """Write back bytes captured by :meth:`snapshot_contents`."""
        for addr, data in snapshot.items():
            block = self._blocks.get(addr)
            if block is None or block.size != data.size:
                raise InvalidDeviceAccess(
                    f"allocation at 0x{addr:x} changed between snapshot "
                    "and restore"
                )
            block.data[:] = data

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return sum(b.size for b in self._blocks.values())

    @property
    def free_bytes(self) -> int:
        return sum(self._free_sizes)

    @property
    def allocation_count(self) -> int:
        return len(self._blocks)

    @property
    def largest_free_bytes(self) -> int:
        """The biggest contiguous free range (0 when memory is full).

        ``free_bytes - largest_free_bytes`` is the space only reachable
        by smaller allocations — the external-fragmentation number the
        :mod:`repro.mem` pool reports on OOM.
        """
        return max(self._free_sizes, default=0)

    def check_invariants(self) -> None:
        """Assert allocator invariants (used by the property tests)."""
        ranges: list[tuple[int, int, str]] = []
        for b in self._blocks.values():
            ranges.append((b.addr, b.size, "live"))
        for start, size in zip(self._free_starts, self._free_sizes):
            ranges.append((start, size, "free"))
        ranges.sort()
        cursor = BASE_ADDRESS
        for start, size, _kind in ranges:
            if start != cursor:
                raise AssertionError(
                    f"gap or overlap at 0x{cursor:x}..0x{start:x}"
                )
            cursor = start + size
        if cursor != self.capacity:
            raise AssertionError(
                f"address space ends at 0x{cursor:x}, expected 0x{self.capacity:x}"
            )
        # Free list must be fully coalesced: no two adjacent free ranges.
        for i in range(len(self._free_starts) - 1):
            assert (
                self._free_starts[i] + self._free_sizes[i]
                < self._free_starts[i + 1]
            ), "free list not coalesced"


class DeviceArrayView:
    """A typed, bounds-checked handle to an array in *global* memory.

    Kernels never index this directly: they go through the thread context
    (``ctx.ld(view, i)`` / ``ctx.st(view, i, v)``) so the executor can
    account memory transactions.  Host code constructing the view keeps the
    pointer + element type together, which is what ``cupp::memory1d`` needs.
    """

    __slots__ = ("memory", "ptr", "dtype", "count")

    def __init__(
        self,
        memory: DeviceMemory,
        ptr: DevicePtr,
        dtype: np.dtype,
        count: int,
    ) -> None:
        self.memory = memory
        self.ptr = ptr
        self.dtype = np.dtype(dtype)
        self.count = int(count)

    def addr_of(self, index: int) -> int:
        if not 0 <= index < self.count:
            raise InvalidDeviceAccess(
                f"index {index} out of bounds for DeviceArrayView of "
                f"{self.count} elements"
            )
        return self.ptr.addr + index * self.dtype.itemsize

    def _raw(self) -> np.ndarray:
        return self.memory.view(self.ptr, self.dtype, self.count)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, _index: object) -> None:
        raise InvalidDeviceAccess(
            "global memory cannot be indexed from the host; device code "
            "must read it through the thread context (ctx.ld)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceArrayView(addr=0x{self.ptr.addr:x}, dtype={self.dtype}, "
            f"count={self.count})"
        )


class SharedMemory:
    """Per-thread-block shared memory scratchpad (16 KiB on G80).

    A block's kernel declares shared arrays at launch through
    :meth:`array`; the bump allocator enforces the per-multiprocessor
    capacity, and the total footprint feeds the occupancy calculation.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity = int(capacity_bytes)
        self.used = 0
        self._arrays: list[np.ndarray] = []

    def array(self, dtype: np.dtype, count: int) -> "SharedArrayView":
        """Allocate a shared array of ``count`` elements of ``dtype``."""
        dtype = np.dtype(dtype)
        nbytes = align_up(dtype.itemsize * int(count), 4)
        if self.used + nbytes > self.capacity:
            raise OutOfDeviceMemory(
                f"shared memory exhausted: {self.used} + {nbytes} > "
                f"{self.capacity} bytes"
            )
        self.used += nbytes
        data = np.zeros(count, dtype=dtype)
        self._arrays.append(data)
        return SharedArrayView(data)


class SharedArrayView:
    """Typed handle to a shared-memory array.

    Like :class:`DeviceArrayView`, device code accesses it only via the
    thread context so shared-access cycles are accounted.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)
