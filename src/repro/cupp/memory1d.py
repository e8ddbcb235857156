"""``cupp::memory1d`` — an RAII linear block of global memory (paper §4.2).

"Objects of this class represent a linear block of global memory.  The
memory is allocated when the object is created and freed when the object
is destroyed.  When the object is copied, the copy allocates new memory
and copies the data from the original memory to the newly allocated one."

Transfers come in the paper's two flavours: pointer-style (a contiguous
host buffer) and iterator-style (any iterable, linearized in traversal
order).

Every transfer is attributed in the :mod:`repro.obs` ledger.  Direct
``memory1d`` use is an unconditional copy (cause ``"eager"``); wrappers
implementing the §4.6 lazy protocol (``cupp.Vector``) pass their own
``cause`` so the bytes land in the right bucket exactly once.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.cupp.device import TEARDOWN_ERRORS, Device
from repro.cupp.exceptions import CuppUsageError
from repro.simgpu.memory import DeviceArrayView, DevicePtr


class Memory1D:
    """A typed linear block of ``count`` elements of ``dtype`` on a device."""

    def __init__(self, device: Device, dtype, count: int) -> None:
        if count < 0:
            raise CuppUsageError(f"count must be non-negative, got {count}")
        self.device = device
        self.dtype = np.dtype(dtype)
        self.count = int(count)
        self._ptr: DevicePtr | None = device.alloc(self.nbytes)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_host(
        cls, device: Device, data: np.ndarray, *, cause: str = "eager"
    ) -> "Memory1D":
        """Allocate and fill from a contiguous host array (pointer-style)."""
        data = np.ascontiguousarray(data)
        mem = cls(device, data.dtype, data.size)
        mem.copy_from_host(data, cause=cause)
        return mem

    @classmethod
    def from_iterable(
        cls, device: Device, dtype, items: Iterable
    ) -> "Memory1D":
        """Allocate and fill from any iterable (iterator-style, §4.2):
        the traversal order defines the linearized device layout."""
        host = np.fromiter(items, dtype=dtype)
        return cls.from_host(device, host)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self.count * self.dtype.itemsize

    @property
    def ptr(self) -> DevicePtr:
        if self._ptr is None:
            raise CuppUsageError("memory1d block has been freed")
        return self._ptr

    def view(self) -> DeviceArrayView:
        """Typed handle for device kernels (never host-indexable)."""
        return DeviceArrayView(
            self.device.sim.memory, self.ptr, self.dtype, self.count
        )

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def copy_from_host(
        self, data: np.ndarray, *, cause: str = "eager"
    ) -> None:
        """Pointer-style host -> device transfer (§4.2).

        ``cause`` names the ledger bucket this copy is attributed to;
        lazy-protocol callers pass ``"lazy-miss"``.
        """
        data = np.ascontiguousarray(data)
        if data.nbytes != self.nbytes:
            raise CuppUsageError(
                f"host buffer is {data.nbytes} bytes, block is {self.nbytes}"
            )
        self.device.upload(self.ptr, data)
        obs.record_transfer(cause, "h2d", data.nbytes, label="memory1d")

    def copy_to_host(self, *, cause: str = "eager") -> np.ndarray:
        """Pointer-style device -> host transfer; returns a fresh array."""
        out = self.device.download(self.ptr, self.nbytes, self.dtype)
        obs.record_transfer(cause, "d2h", self.nbytes, label="memory1d")
        return out

    def copy_from_iter(self, items: Iterable, *, cause: str = "eager") -> None:
        """Iterator-style transfer: linearize ``items`` in traversal order."""
        host = np.fromiter(items, dtype=self.dtype, count=self.count)
        self.copy_from_host(host, cause=cause)

    def __iter__(self) -> Iterator:
        """Iterator-style device -> host traversal (Python scalars)."""
        return iter(self.copy_to_host().tolist())

    # ------------------------------------------------------------------
    # copy semantics (§4.2: copying copies the device data)
    # ------------------------------------------------------------------
    def copy(self) -> "Memory1D":
        """Deep copy: new allocation + device-to-device transfer."""
        dup = Memory1D(self.device, self.dtype, self.count)
        self.device.sim.memory.copy_device_to_device(
            dup.ptr, self.ptr, self.nbytes
        )
        obs.record_transfer("eager", "d2d", self.nbytes, label="memory1d.copy")
        return dup

    def __copy__(self) -> "Memory1D":
        return self.copy()

    def __deepcopy__(self, memo: dict) -> "Memory1D":
        return self.copy()

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Free the device allocation (idempotent)."""
        ptr, self._ptr = self._ptr, None
        if ptr is not None:
            try:
                self.device.free(ptr)
            except CuppUsageError:
                pass  # device handle already closed; memory already freed

    def __enter__(self) -> "Memory1D":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - gc timing
        try:
            self.close()
        except Exception:
            TEARDOWN_ERRORS.inc()

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self._ptr is None else f"0x{self._ptr.addr:x}"
        return f"Memory1D({self.dtype}, {self.count}, {state})"
