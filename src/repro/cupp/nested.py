"""Nested vectors: ``vector< vector<T> >`` across the kernel boundary.

§4.6: "The type transformation is not only done to the vector itself,
but also to the type of the values stored by the vector.  Therefore
``vector<T>::device_type`` is identical to
``deviceT::vector<T::device_type>`` ...  This kind of transformation
makes it possible to pass e.g. a two dimensional vector
(``vector< vector<T> >``) to a kernel."

The host side is a list of :class:`~repro.cupp.vector.Vector` rows that
can grow and shrink independently; the device type flattens them into
the classic ragged-array (CSR) pair — ``offsets`` + ``values`` — because
the device cannot allocate and wants linear scans.  The element
transformation is applied recursively, exactly as the paper specifies:
each row's *own* ``transform`` result is what gets linearized.
"""

from __future__ import annotations

import pickle
import weakref
from typing import Iterable

import numpy as np

from repro.cupp.device import Device
from repro.cupp.exceptions import CuppUsageError
from repro.cupp.lazy import LazyContainer
from repro.cupp.vector import Vector
from repro.simgpu.memory import DeviceArrayView, DevicePtr


class DeviceNestedVector:
    """Device type of :class:`NestedVector`: CSR offsets + flat values.

    Row ``r`` occupies ``values[offsets[r] .. offsets[r+1]]``.  Like every
    device container, its shape is frozen (§4.6: the size cannot be
    changed on the device); the *values* are writable.
    """

    kernel_arg_size = 12  # two pointers + a row count

    host_type: type = None  # bound below (listing 4.6)
    device_type: type = None

    def __init__(
        self, offsets: DeviceArrayView, values: DeviceArrayView, rows: int
    ) -> None:
        self.offsets = offsets
        self.values = values
        self.rows = rows

    def __len__(self) -> int:
        return self.rows

    def pack(self) -> np.ndarray:
        meta = (
            self.offsets.ptr.addr,
            self.offsets.count,
            self.values.ptr.addr,
            self.values.count,
            self.values.dtype.str,
            self.rows,
        )
        return np.frombuffer(pickle.dumps(meta), dtype=np.uint8).copy()

    @classmethod
    def unpack(cls, blob: np.ndarray, device: Device) -> "DeviceNestedVector":
        o_addr, o_n, v_addr, v_n, v_dtype, rows = pickle.loads(blob.tobytes())
        mem = device.sim.memory
        return cls(
            DeviceArrayView(mem, DevicePtr(o_addr), np.dtype(np.int32), o_n),
            DeviceArrayView(mem, DevicePtr(v_addr), np.dtype(v_dtype), v_n),
            rows,
        )


class NestedVector(LazyContainer):
    """A growable vector of :class:`Vector` rows (``vector<vector<T>>``).

    A row knows the nested vectors holding it: a host write to the row,
    or a kernel writing it through ``Ref``, marks their device copies
    stale, however the row was reached.
    """

    host_type: type = None
    device_type = DeviceNestedVector

    metric_prefix = "cupp.nested_vector"

    def __init__(
        self, rows: "Iterable[Iterable] | None" = None, dtype=np.float32
    ) -> None:
        LazyContainer.__init__(self)
        self.dtype = np.dtype(dtype)
        self._rows: list[Vector] = []
        if rows is not None:
            for row in rows:
                self.push_back(row)

    # ------------------------------------------------------------------
    # host interface
    # ------------------------------------------------------------------
    def push_back(self, row: "Iterable | Vector") -> None:
        self._before_host_write()
        if isinstance(row, Vector):
            if row.dtype != self.dtype:
                raise CuppUsageError(
                    f"row dtype {row.dtype} != nested dtype {self.dtype}"
                )
        else:
            row = Vector(row, dtype=self.dtype)
        if not row._holders:
            row._holders = weakref.WeakSet()
        row._holders.add(self)
        self._rows.append(row)

    def pop_back(self) -> Vector:
        self._before_host_write()
        if not self._rows:
            raise CuppUsageError("pop_back on an empty nested vector")
        row = self._rows.pop()
        if all(kept is not row for kept in self._rows):
            row._holders.discard(self)
        return row

    def __len__(self) -> int:
        return len(self._rows)  # the device cannot add or drop rows

    def __getitem__(self, index: int) -> Vector:
        self._ensure_host()
        return self._rows[index]

    def row_lengths(self) -> list[int]:
        return [len(r) for r in self._rows]

    def total_elements(self) -> int:
        return sum(self.row_lengths())

    def to_lists(self) -> "list[list]":
        self._ensure_host()
        return [list(r) for r in self._rows]

    # ------------------------------------------------------------------
    # the CuPP protocol: recursive transformation + lazy copying
    # ------------------------------------------------------------------
    def _host_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        # Element-wise transformation first (§4.6: the value type is
        # transformed too), then linearization in traversal order.
        chunks = [row.to_numpy() for row in self._rows]
        offsets = np.zeros(len(chunks) + 1, dtype=np.int32)
        offsets[1:] = np.cumsum([chunk.size for chunk in chunks])
        flat = np.concatenate(chunks) if chunks else np.zeros(0, self.dtype)
        return offsets, flat if flat.size else np.zeros(1, dtype=self.dtype)

    def _load_host(self, arrays: "list[np.ndarray]") -> None:
        offsets, flat = arrays
        for row, start, stop in zip(self._rows, offsets, offsets[1:]):
            # A write to the row, but not a change this vector must
            # re-upload: its device copy is where the data came from.
            row._before_host_write(source=self)
            row._store[: stop - start] = flat[start:stop]

    def transform(self, device: Device) -> DeviceNestedVector:
        offsets, values = self._ensure_device(device)
        return DeviceNestedVector(
            offsets.view(), values.view(), len(self._rows)
        )


NestedVector.host_type = NestedVector
DeviceNestedVector.device_type = DeviceNestedVector
DeviceNestedVector.host_type = NestedVector
