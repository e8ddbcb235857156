"""``cupp::device_reference<T>`` (paper §4.4).

"A reference to an object of type T located on the device.  When created,
it automatically copies the object passed to its constructor to global
memory.  The member function ``get()`` can be used to transfer the object
from global memory back to the host memory."

The packed bytes in simulated global memory are authoritative: ``get()``
always round-trips through them, and the kernel launcher calls
:meth:`put` after a mutable-reference kernel finishes so device-side
mutations land in global memory before the host reads them back.
"""

from __future__ import annotations

import numpy as np

from repro.cupp.device import TEARDOWN_ERRORS, Device
from repro.cupp.exceptions import CuppUsageError
from repro.cupp.serialize import (
    pack_checked,
    pack_object,
    replicate,
    unpack_object,
)
from repro.simgpu.memory import DevicePtr


class DeviceReference:
    """Owns one object's global-memory image."""

    #: On the kernel parameter stack a reference is one device pointer.
    kernel_arg_size = 4

    def __init__(self, device: Device, obj: object) -> None:
        self.device = device
        self.cls = type(obj)
        blob, self._picklable = pack_checked(obj)
        self._nbytes = int(blob.size)
        self._ptr: DevicePtr | None = device.alloc(max(self._nbytes, 1))
        device.upload(self._ptr, blob)
        #: The live device-side object handed to kernel threads.  All
        #: threads share it — it *is* the object in global memory.
        if self._picklable:
            self._resident: object = unpack_object(blob, self.cls, device)
        else:
            self._resident = replicate(obj)

    # ------------------------------------------------------------------
    @property
    def ptr(self) -> DevicePtr:
        if self._ptr is None:
            raise CuppUsageError("device reference has been freed")
        return self._ptr

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def deref(self) -> object:
        """The device-side object (what a kernel parameter ``T&`` binds to)."""
        self._ptr  # liveness check via property
        return self._resident

    def put(self, obj: object | None = None) -> None:
        """Write the (possibly mutated) device object back into its
        global-memory image.  Reallocates if the packed size changed."""
        if obj is not None:
            self._resident = obj
        blob = pack_object(self._resident)
        if blob.size != self._nbytes:
            old = self.ptr
            self._ptr = self.device.alloc(max(int(blob.size), 1))
            self.device.free(old)
            self._nbytes = int(blob.size)
        self.device.upload(self.ptr, blob)

    def get(self) -> object:
        """Transfer the object from global memory back to the host (§4.4)."""
        blob = self.device.download(self.ptr, max(self._nbytes, 1))[
            : self._nbytes
        ]
        return unpack_object(
            np.asarray(blob, dtype=np.uint8),
            self.cls,
            self.device,
            fallback=None if self._picklable else replicate(self._resident),
        )

    # ------------------------------------------------------------------
    def free(self) -> None:
        ptr, self._ptr = self._ptr, None
        if ptr is not None:
            try:
                self.device.free(ptr)
            except CuppUsageError:
                pass

    def __del__(self) -> None:  # pragma: no cover - gc timing
        try:
            self.free()
        except Exception:
            TEARDOWN_ERRORS.inc()
