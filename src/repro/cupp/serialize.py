"""Object <-> device-byte serialization for call semantics.

Passing an object to a kernel ultimately means producing bytes that live
in device memory (on the kernel stack for call-by-value, in global memory
for call-by-reference).  Types choose their representation:

* types defining ``pack(self) -> np.ndarray[uint8]`` and
  ``unpack(cls, blob, device) -> obj`` control their device layout —
  this is how a ``DeviceVector`` stores just ``{pointer, size}`` while its
  payload stays in global memory, exactly the C++ picture;
* everything else is serialized with :mod:`pickle`, the closest Python
  analog of a byte-wise copy: the device works on a faithful replica and
  host-side mutations are invisible to it.

:class:`Boxed` is the host-side mutable cell that stands in for a C++
lvalue: Python cannot rebind a caller's ``int`` the way ``int& j`` can, so
``f(device, 10, j)`` from listing 4.3 becomes
``f(device, 10, box := Boxed(0))`` and the result lands in ``box.value``.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro import obs
from repro.cupp.exceptions import CuppUsageError

#: Objects packed as an opaque fingerprint because pickle refused them.
_FALLBACKS = obs.bind_counter("cupp.serialize.fallbacks")


class Boxed:
    """A mutable value cell for passing scalars by reference."""

    __slots__ = ("value",)

    def __init__(self, value: object = None) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Boxed):
            return self.value == other.value
        return NotImplemented

    def __repr__(self) -> str:
        return f"Boxed({self.value!r})"


def pack_object(obj: object) -> np.ndarray:
    """Serialize ``obj`` into device bytes (uint8 array); see
    :func:`pack_checked`."""
    return pack_checked(obj)[0]


def pack_checked(obj: object) -> "tuple[np.ndarray, bool]":
    """Serialize ``obj`` into device bytes, and say whether they are
    faithful (``False`` for the fingerprint of an unpicklable object).

    Objects that cannot be pickled (e.g. instances of classes defined in a
    local scope) are replicated with :func:`copy.deepcopy` instead; the
    device-memory image is then an opaque fingerprint of the right rough
    size, and :func:`unpack_object` must be given the replica through the
    ``fallback`` parameter.  Accounting (bytes moved) stays realistic; only
    the literal byte layout is given up, and every such pack counts in
    ``cupp.serialize.fallbacks``.
    """
    pack = getattr(obj, "pack", None)
    if callable(pack):
        blob = pack()
        if not isinstance(blob, np.ndarray) or blob.dtype != np.uint8:
            raise CuppUsageError(
                f"{type(obj).__name__}.pack() must return a uint8 ndarray"
            )
        return blob, True
    try:
        return np.frombuffer(pickle.dumps(obj), dtype=np.uint8).copy(), True
    except Exception:
        _FALLBACKS.inc()
        fingerprint = repr(obj).encode() + b"\x00" * 32
        return np.frombuffer(fingerprint, dtype=np.uint8).copy(), False


def replicate(obj: object) -> object:
    """Deep-copy fallback replica for unpicklable objects."""
    import copy

    return copy.deepcopy(obj)


def unpack_object(
    blob: np.ndarray,
    cls: type,
    device: object,
    fallback: object | None = None,
) -> object:
    """Deserialize device bytes back into an object of ``cls``.

    ``fallback`` carries the deep-copy replica for unpicklable objects.
    """
    unpack = getattr(cls, "unpack", None)
    if callable(unpack):
        return unpack(blob, device)
    if fallback is not None:
        return fallback
    return pickle.loads(blob.tobytes())
