"""``cupp::vector`` — an STL-style vector with lazy memory copying (§4.6).

The host side behaves like ``std::vector`` (grow/shrink, random access);
the device side is a fixed-size window onto global memory ("it is not
possible to allocate memory on the device.  Therefore the size of the
vector cannot be changed on the device").  The lazy-copy protocol itself
— upload iff the device copy is stale, download iff the host copy is —
lives in :mod:`repro.cupp.lazy`, shared with every other container; this
module decides what counts as a host read and what as a host write, so
"the developer may pass a vector directly to one or multiple kernels,
without the need to think about how memory transfers may be minimized".

A note on the paper's proxy classes: C++ cannot tell ``v[i]`` reads from
``v[i] = x`` writes without a proxy object (§4.6 footnote).  Python's
``__getitem__``/``__setitem__`` split gives us that distinction natively,
so the read/write detection here is exact rather than proxy-approximate.
"""

from __future__ import annotations

import operator
import pickle
from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.cupp.device import Device
from repro.cupp.device_reference import DeviceReference
from repro.cupp.exceptions import CuppUsageError
from repro.cupp.lazy import LazyContainer
from repro.simgpu.memory import DeviceArrayView, DevicePtr

_TRACER = obs.get_tracer()


def _size_arg(method: str, value: object) -> int:
    """``value`` as an element count for ``method``: a non-negative
    integer (numpy integers included), else :class:`CuppUsageError` —
    raised before the method changes any state."""
    try:
        count = operator.index(value)
    except TypeError:
        raise CuppUsageError(
            f"{method} needs an integer element count, got {value!r}"
        ) from None
    if count < 0:
        raise CuppUsageError(f"{method} needs a count >= 0, got {count}")
    return count


class DeviceVector:
    """The device type of :class:`Vector`: ``{pointer, size}`` plus a typed
    view.  Kernels index it through the thread context; it has no resize
    operations because the device cannot allocate (§4.6).

    ``space`` implements the chapter-7 extension: a const-reference vector
    may live behind the texture cache (``"texture"``) or in constant
    memory (``"constant"``) instead of plain global memory.  Kernels that
    want to profit read through :func:`repro.simgpu.devicelib.ld_auto`.
    """

    #: Stack footprint: a device pointer plus a 32-bit size.
    kernel_arg_size = 8

    host_type: "type | None" = None  # filled in below (listing 4.6)
    device_type: "type | None" = None

    def __init__(
        self,
        view: "DeviceArrayView | None",
        space: str = "global",
        texref: object | None = None,
        const_view: object | None = None,
    ) -> None:
        self.view = view
        self.space = space
        self.texref = texref
        self.const_view = const_view

    def __len__(self) -> int:
        if self.space == "constant":
            return self.const_view.count
        return self.view.count

    @property
    def size(self) -> int:
        return len(self)

    # -- device-byte layout: exactly a pointer + size + element type ----
    def pack(self) -> np.ndarray:
        if self.space == "constant":
            meta = (
                "constant",
                self.const_view.offset,
                self.const_view.count,
                self.const_view.dtype.str,
            )
        else:
            meta = (
                self.space,
                self.view.ptr.addr,
                self.view.count,
                self.view.dtype.str,
            )
        return np.frombuffer(pickle.dumps(meta), dtype=np.uint8).copy()

    @classmethod
    def unpack(cls, blob: np.ndarray, device: Device) -> "DeviceVector":
        space, addr_or_offset, count, dtype_str = pickle.loads(blob.tobytes())
        if space == "constant":
            from repro.simgpu.caches import ConstantArrayView

            const_view = ConstantArrayView(
                device.sim.constant, addr_or_offset, np.dtype(dtype_str), count
            )
            return cls(None, "constant", const_view=const_view)
        view = DeviceArrayView(
            device.sim.memory, DevicePtr(addr_or_offset), np.dtype(dtype_str), count
        )
        if space == "texture":
            from repro.simgpu.caches import TextureReference

            return cls(view, "texture", texref=TextureReference(view))
        return cls(view)


class Vector(LazyContainer):
    """Host-side growable vector with a lazily synchronized device twin.

    Parameters
    ----------
    data:
        Optional initial contents (iterable or ndarray).
    dtype:
        Element type; defaults to float32 (the GPU-native scalar).
    """

    host_type: "type | None" = None
    device_type = DeviceVector

    metric_prefix = "cupp.vector"
    counts_reallocs = True
    # Growth churn is attributed under its own cause so the allocator
    # benchmarks can count it.
    realloc_cause = "vector-realloc"
    lazy_hit_instant = "vector.lazy-hit"
    realloc_instant = "vector.realloc"
    invalidate_instant = "vector.invalidate-device"
    dirty_instant = "vector.dirty"

    _GROWTH = 2  # capacity doubling, the std::vector idiom

    #: Constant memory is precious (64 KiB, bump-allocated): "auto" only
    #: places vectors at most this large there.
    CONSTANT_AUTO_LIMIT = 4096

    def __init__(
        self,
        data: "Iterable | None" = None,
        dtype=np.float32,
        readonly_space: str = "global",
    ) -> None:
        LazyContainer.__init__(self)
        if readonly_space not in ("global", "texture", "constant", "auto"):
            raise CuppUsageError(
                f"unknown readonly_space {readonly_space!r}; use global, "
                "texture, constant or auto"
            )
        #: Chapter-7 extension: where to place the data when a kernel
        #: declares this vector as a *const* reference.
        self.readonly_space = readonly_space
        self._texref = None
        self._const_view = None
        self._const_valid = False
        self.dtype = np.dtype(dtype)
        if data is None:
            self._store = np.empty(4, dtype=self.dtype)
            self._size = 0
        else:
            if not isinstance(data, np.ndarray):
                try:
                    items = iter(data)
                except TypeError:
                    raise CuppUsageError(
                        f"cupp.Vector needs an iterable of elements, got {data!r}"
                    ) from None
                data = list(items)
            arr = np.asarray(data)
            self._store = arr.astype(self.dtype).reshape(-1).copy()
            self._size = self._store.size

    # ------------------------------------------------------------------
    # what the lazy protocol mirrors (§4.6)
    # ------------------------------------------------------------------
    @property
    def device_nbytes(self) -> int:
        """Bytes the device copy occupies.  The device can never resize
        the vector, so this is host-known even while the host is stale."""
        return self._size * self.dtype.itemsize

    def _host_arrays(self) -> "tuple[np.ndarray]":
        return (self._store[: self._size],)

    def _load_host(self, arrays: "list[np.ndarray]") -> None:
        (fresh,) = arrays
        self._store = fresh.copy()
        self._size = fresh.size

    def _before_host_write(self, source: object = None) -> None:
        LazyContainer._before_host_write(self, source)
        self._const_valid = False  # a constant mirror would now be stale

    def transform(self, device: Device) -> DeviceVector:
        """Called for pass-by-value: upload if needed, return the device
        type.  (The expensive part of by-value passing is the host-side
        copy constructor, which already ran by the time this is called.)"""
        (mem,) = self._ensure_device(device)
        return DeviceVector(mem.view())

    def dirty(self, device_ref: DeviceReference) -> None:
        """The kernel mutated the device data: host copy is now stale."""
        LazyContainer.dirty(self, device_ref)
        self._const_valid = False  # a constant mirror would now be stale

    # ------------------------------------------------------------------
    # chapter-7 extension: read-only placement for const references
    # ------------------------------------------------------------------
    def _resolved_readonly_space(self) -> str:
        if self.readonly_space != "auto":
            return self.readonly_space
        self._ensure_host()
        nbytes = self._size * self.dtype.itemsize
        return "constant" if nbytes <= self.CONSTANT_AUTO_LIMIT else "texture"

    def transform_readonly(self, device: Device) -> DeviceVector:
        """Like :meth:`transform`, but for parameters the kernel declared
        ``const``: the data may be served from the texture or constant
        cache ("if it is known that the vector is passed as a const
        reference to a kernel, texture or constant memory could
        automatically be used", ch. 7)."""
        space = self._resolved_readonly_space()
        if space == "global":
            return self.transform(device)
        if space == "texture":
            (mem,) = self._ensure_device(device)
            from repro.cupp.exceptions import check

            from repro.simgpu.caches import TextureReference

            if self._texref is None:
                self._texref = TextureReference()
            check(
                device.runtime.cudaBindTexture(
                    self._texref, mem.ptr, self.dtype, self._size
                ),
                "binding the vector's texture reference",
            )
            return DeviceVector(mem.view(), "texture", texref=self._texref)
        # constant space
        self._ensure_host()
        from repro.cupp.exceptions import check

        if (
            self._const_view is None
            or self._const_view.count != self._size
        ):
            err, sym = device.runtime.constant_symbol(self.dtype, self._size)
            check(err, "allocating a __constant__ mirror for the vector")
            self._const_view = sym
            self._const_valid = False
        if not self._const_valid:
            check(
                device.runtime.cudaMemcpyToSymbol(
                    self._const_view, self._store[: self._size]
                )
            )
            self._const_valid = True
            self._uploads.inc()
            self._metrics.uploads.inc()
            obs.record_transfer(
                "eager",
                "h2d",
                self._size * self.dtype.itemsize,
                label="vector.constant-mirror",
            )
        return DeviceVector(None, "constant", const_view=self._const_view)

    def get_device_reference_readonly(self, device: Device) -> DeviceReference:
        return DeviceReference(device, self.transform_readonly(device))

    # ------------------------------------------------------------------
    # batching helpers (the repro.serve data path)
    # ------------------------------------------------------------------
    @classmethod
    def concat(cls, parts: "Iterable[Vector]") -> "Vector":
        """Fuse several vectors into one new vector (batch assembly).

        The dynamic batcher concatenates per-session state so one kernel
        launch (and one transfer) covers every request in a batch.  Parts
        whose host copy is stale are downloaded first, attributed to the
        ``batch-concat`` ledger cause; the fused vector is a fresh
        host-valid vector with no device binding (its upload, if any, is
        a separate attributed transfer).  All parts must share a dtype.
        """
        parts = list(parts)
        if not parts:
            raise CuppUsageError("concat needs at least one vector")
        dtype = parts[0].dtype
        arrays = []
        for part in parts:
            if not isinstance(part, Vector):
                raise CuppUsageError("concat requires cupp.Vector parts")
            if part.dtype != dtype:
                raise CuppUsageError(
                    f"concat dtype mismatch: {part.dtype} vs {dtype}"
                )
            part._ensure_host(cause="batch-concat")
            arrays.append(part._store[: part._size])
        fused = cls(np.concatenate(arrays), dtype=dtype)
        if _TRACER.enabled:
            _TRACER.instant(
                "vector.concat",
                parts=len(parts),
                nbytes=fused._size * dtype.itemsize,
            )
        return fused

    def split_at(self, *offsets: int) -> "list[Vector]":
        """Slice this vector into ``len(offsets) + 1`` independent vectors.

        The inverse of :meth:`concat`: the batcher demultiplexes a fused
        result back into per-request pieces.  ``offsets`` must be
        non-decreasing element indices within the vector; each returned
        vector owns a copy of its slice (so writes to a piece never leak
        into the source, and the source's device copy stays valid).  A
        stale host copy is downloaded first, attributed to the
        ``batch-split`` ledger cause.
        """
        self._ensure_host(cause="batch-split")
        previous = 0
        for offset in offsets:
            if not previous <= offset <= self._size:
                raise CuppUsageError(
                    f"split offsets must be non-decreasing and within "
                    f"[0, {self._size}]; got {offsets}"
                )
            previous = offset
        bounds = [0, *offsets, self._size]
        pieces = [
            Vector(self._store[start:stop].copy(), dtype=self.dtype)
            for start, stop in zip(bounds, bounds[1:])
        ]
        if _TRACER.enabled:
            _TRACER.instant(
                "vector.split",
                pieces=len(pieces),
                nbytes=self._size * self.dtype.itemsize,
            )
        return pieces

    # ------------------------------------------------------------------
    # std::vector-like host interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        # Host-known even while the host copy is stale: the device cannot
        # resize the vector (§4.6), so no download is needed.
        return self._size

    @property
    def size(self) -> int:
        return len(self)

    def _grow_to(self, capacity: int) -> None:
        if capacity <= self._store.size:
            return
        new_cap = max(capacity, self._store.size * self._GROWTH, 4)
        grown = np.empty(new_cap, dtype=self.dtype)
        grown[: self._size] = self._store[: self._size]
        self._store = grown

    def push_back(self, value: object) -> None:
        self._before_host_write()
        self._grow_to(self._size + 1)
        self._store[self._size] = value
        self._size += 1

    def pop_back(self) -> object:
        self._before_host_write()
        if self._size == 0:
            raise CuppUsageError("pop_back on an empty vector")
        self._size -= 1
        return self._store[self._size].item()

    def resize(self, count: int, fill: object = 0) -> None:
        count = _size_arg("resize", count)
        self._before_host_write()
        if count > self._size:
            self._grow_to(count)
            self._store[self._size : count] = fill
        self._size = count

    def reserve(self, capacity: int) -> None:
        capacity = _size_arg("reserve", capacity)
        self._ensure_host()
        self._grow_to(capacity)

    def clear(self) -> None:
        self._before_host_write()
        self._size = 0

    def insert(self, index: int, value: object) -> None:
        """Insert ``value`` before ``index`` (``v.insert(begin()+i, x)``)."""
        self._before_host_write()
        if not 0 <= index <= self._size:
            raise IndexError(
                f"insert position {index} out of range for size {self._size}"
            )
        self._grow_to(self._size + 1)
        self._store[index + 1 : self._size + 1] = self._store[index : self._size]
        self._store[index] = value
        self._size += 1

    def erase(self, index: int) -> object:
        """Remove and return the element at ``index`` (``v.erase(...)``)."""
        index = self._check_index(index)  # a rejected erase changes nothing
        self._before_host_write()
        value = self._store[index].item()
        self._store[index : self._size - 1] = self._store[index + 1 : self._size]
        self._size -= 1
        return value

    def extend(self, items: Iterable) -> None:
        for item in items:
            self.push_back(item)

    def empty(self) -> bool:
        """``v.empty()`` — true when the vector holds no elements."""
        return self._size == 0

    def front(self) -> object:
        """``v.front()`` — the first element."""
        self._ensure_host()
        if self._size == 0:
            raise CuppUsageError("front() on an empty vector")
        return self._store[0].item()

    def back(self) -> object:
        """``v.back()`` — the last element."""
        self._ensure_host()
        if self._size == 0:
            raise CuppUsageError("back() on an empty vector")
        return self._store[self._size - 1].item()

    def swap(self, other: "Vector") -> None:
        """``a.swap(b)`` — exchange contents (host *and* device state, so
        neither side loses its lazy-copy bookkeeping)."""
        if not isinstance(other, Vector):
            raise CuppUsageError("swap requires another cupp.Vector")
        self.__dict__, other.__dict__ = other.__dict__, self.__dict__
        # Holders hold the object, not its contents: they stay put, and
        # their device copies no longer match.
        self._holders, other._holders = other._holders, self._holders
        for vec in (self, other):
            if vec._holders:
                vec._invalidate_holders()

    def _check_index(self, index: int) -> int:
        """``index`` resolved against the size (negative counts from the
        end): an integer in range, else ``IndexError``, or
        :class:`CuppUsageError` for a non-integer — before any state
        change."""
        if type(index) is not int:
            try:
                index = operator.index(index)
            except TypeError:
                raise CuppUsageError(
                    f"cupp.Vector indexes are integers or slices, got {index!r}"
                ) from None
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range for size {self._size}")
        return index

    def __getitem__(self, index: "int | slice") -> object:
        if type(index) is slice:
            return self._read_range(index)
        index = self._check_index(index)  # a rejected read downloads nothing
        self._ensure_host()  # read detection (§4.6)
        return self._store[index].item()

    def _read_range(self, index: slice) -> np.ndarray:
        """``v[a:b]`` — a read-only copy of an existing range.

        The read twin of :meth:`_write_range`: bounds resolve like a
        Python slice over the current size and the step must be 1.  A
        rejected read downloads nothing.  An accepted one passes read
        detection (§4.6) once for the whole range, with an element
        read's effects, and returns a read-only copy (a view would let
        writes bypass detection, as :meth:`to_numpy` explains).
        """
        start, stop, step = index.indices(self._size)
        if step != 1:
            raise CuppUsageError(
                f"range reads need a unit step; got step {index.step}"
            )
        self._ensure_host()  # read detection (§4.6), once
        out = self._store[start:stop].copy()
        out.flags.writeable = False
        return out

    def __setitem__(self, index: "int | slice", value: object) -> None:
        if type(index) is slice:
            self._write_range(index, value)
            return
        index = self._check_index(index)  # a rejected write changes nothing
        self._before_host_write()  # write detection (§4.6)
        self._store[index] = value

    def _write_range(self, index: slice, values: object) -> None:
        """``v[a:b] = values`` — ``std::copy`` into an existing range.

        Bounds resolve like a Python slice over the current size; the
        vector never resizes, so ``values`` must be one-dimensional with
        exactly one element per slot, and the step must be 1.  A
        rejected write changes nothing.  An accepted one passes write
        detection (§4.6) once for the whole range, with an element
        write's effects, and stores with an element store's rounding.
        """
        start, stop, step = index.indices(self._size)
        if step != 1:
            raise CuppUsageError(
                f"range writes need a unit step; got step {index.step}"
            )
        values = np.asarray(values)
        count = max(0, stop - start)
        if values.shape != (count,):
            raise CuppUsageError(
                f"range write of shape {values.shape} into {count} elements "
                f"[{start}:{stop}]; a cupp.Vector range write never resizes"
            )
        self._before_host_write()  # write detection (§4.6), once
        self._store[start:stop] = values

    def __iter__(self) -> Iterator:
        self._ensure_host()
        return iter(self._store[: self._size].tolist())

    def to_numpy(self) -> np.ndarray:
        """A read-only snapshot of the host data (a mutable view would
        bypass the write detection the laziness depends on)."""
        self._ensure_host()
        out = self._store[: self._size].copy()
        out.flags.writeable = False
        return out

    # ------------------------------------------------------------------
    # copy semantics: "when a vector is copied, the copy is expected to
    # have its own dataset" (§4.2) — the by-value performance trap.
    # ------------------------------------------------------------------
    def __copy__(self) -> "Vector":
        self._ensure_host()
        return Vector(self._store[: self._size].copy(), dtype=self.dtype)

    def __deepcopy__(self, memo: dict) -> "Vector":
        return self.__copy__()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return bool(np.array_equal(other.to_numpy(), self.to_numpy()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = []
        if not self._host_valid:
            state.append("host-stale")
        if self._device_valid:
            state.append("on-device")
        return (
            f"cupp.Vector(size={self._size}, dtype={self.dtype}"
            + (", " + ",".join(state) if state else "")
            + ")"
        )


# Listing 4.6: both types carry both typedefs, matched 1:1.
Vector.host_type = Vector
DeviceVector.host_type = Vector
DeviceVector.device_type = DeviceVector
