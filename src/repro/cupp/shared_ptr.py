"""A boost-compliant shared pointer for global memory (paper §4.2).

"To ease the development with this basic approach, a boost
library-compliant shared pointer for global memory is supplied.  The
memory is freed automatically after the last smart pointer pointing to a
specific memory address is destroyed, so resource leaks can hardly
occur."

Python already reference-counts, but relying on garbage collection for
*device* memory would make deallocation timing unobservable, so the
refcount is explicit: copies share a control block, :meth:`release`
decrements, and the device allocation is freed exactly when the count
reaches zero.  ``__del__`` is a safety net, not the mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.cupp.device import TEARDOWN_ERRORS, Device
from repro.cupp.exceptions import CuppUsageError
from repro.simgpu.memory import DevicePtr, NULL_PTR

_LIVE = obs.bind_gauge("cupp.shared_ptr.live")
_TRACER = obs.get_tracer()


@dataclass
class _ControlBlock:
    device: Device
    ptr: DevicePtr
    count: int


class DeviceSharedPtr:
    """Shared ownership of one global-memory allocation."""

    def __init__(self, device: Device, nbytes: int) -> None:
        """Allocate ``nbytes`` of global memory with use_count 1."""
        self._block: _ControlBlock | None = _ControlBlock(
            device, device.alloc(nbytes), 1
        )
        _LIVE.inc()
        if _TRACER.enabled:
            _TRACER.instant(
                "shared_ptr.alloc", nbytes=nbytes, addr=self._block.ptr.addr
            )

    # ------------------------------------------------------------------
    @classmethod
    def _from_block(cls, block: _ControlBlock) -> "DeviceSharedPtr":
        obj = cls.__new__(cls)
        obj._block = block
        return obj

    def clone(self) -> "DeviceSharedPtr":
        """Another pointer to the same allocation (boost copy semantics)."""
        block = self._require_block()
        block.count += 1
        if _TRACER.enabled:
            _TRACER.instant(
                "shared_ptr.clone", addr=block.ptr.addr, use_count=block.count
            )
        return DeviceSharedPtr._from_block(block)

    def __copy__(self) -> "DeviceSharedPtr":
        return self.clone()

    def __deepcopy__(self, memo: dict) -> "DeviceSharedPtr":
        # Shared pointers share even under deep copy, like boost.
        return self.clone()

    # ------------------------------------------------------------------
    def _require_block(self) -> _ControlBlock:
        if self._block is None:
            raise CuppUsageError("shared pointer has been released")
        return self._block

    def get(self) -> DevicePtr:
        """The raw device pointer (never dereferenceable on the host)."""
        return self._require_block().ptr

    @property
    def use_count(self) -> int:
        return 0 if self._block is None else self._block.count

    def __bool__(self) -> bool:
        return self._block is not None and bool(self._block.ptr)

    # ------------------------------------------------------------------
    def release(self) -> None:
        """Drop this pointer's ownership; frees at use_count zero.

        Idempotent per instance.
        """
        block, self._block = self._block, None
        if block is None:
            return
        block.count -= 1
        if _TRACER.enabled:
            _TRACER.instant(
                "shared_ptr.release", addr=block.ptr.addr, use_count=block.count
            )
        if block.count == 0 and block.ptr:
            _LIVE.dec()
            try:
                block.device.free(block.ptr)
            except CuppUsageError:
                pass  # the device handle was closed first; memory is gone
            block.ptr = NULL_PTR

    def __del__(self) -> None:  # pragma: no cover - gc timing
        try:
            self.release()
        except Exception:
            TEARDOWN_ERRORS.inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._block is None:
            return "DeviceSharedPtr(released)"
        return (
            f"DeviceSharedPtr(0x{self._block.ptr.addr:x}, "
            f"use_count={self._block.count})"
        )


def make_shared(device: Device, nbytes: int) -> DeviceSharedPtr:
    """Convenience constructor mirroring ``boost::make_shared``."""
    return DeviceSharedPtr(device, nbytes)
