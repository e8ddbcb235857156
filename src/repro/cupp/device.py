"""The CuPP device handle (paper §4.1).

CUDA binds a host thread to a device implicitly; CuPP makes the handle
explicit: "the developer is forced to create a device handle
(``cupp::device``), which is passed to all CuPP functions using the
device".  The handle can be created from requested properties or default
to device 0, can be queried for information, and — the RAII part — frees
every allocation made on it when it is destroyed.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.backend.base import ExecutionBackend
from repro.cuda.errors import cudaError
from repro.cuda.runtime import CudaMachine, CudaRuntime
from repro.cuda.types import cudaDeviceProp, cudaMemcpyKind
from repro.cupp.exceptions import CuppUsageError, check, invalid_free
from repro.simgpu.memory import DevicePtr

_TRACER = obs.get_tracer()
#: Finalizers (``__del__``) of CuPP handles that raised: a finalizer must
#: not raise, so the error is swallowed, but counted, not silent.
TEARDOWN_ERRORS = obs.bind_counter("cupp.teardown_errors")


class Device:
    """A handle to one CUDA device (simulated or native).

    Parameters
    ----------
    properties:
        Optional :class:`cudaDeviceProp` request — the handle binds to the
        best matching device (mirrors ``cudaChooseDevice``).
    index:
        Explicit device index; mutually exclusive with ``properties``.
    machine:
        The :class:`CudaMachine` to pick a device from.  Defaults to a
        fresh single-8800GTS machine, so ``Device()`` "creates a default
        device" exactly as in listing 4.1.
    backend:
        Execution backend kind for a fresh single-device machine
        (``"sim"`` or ``"native"``); mutually exclusive with ``machine``
        (a machine already fixes its devices' backends).
    """

    def __init__(
        self,
        properties: cudaDeviceProp | None = None,
        index: int | None = None,
        machine: CudaMachine | None = None,
        backend: str | None = None,
    ) -> None:
        if properties is not None and index is not None:
            raise CuppUsageError(
                "pass either a property request or an explicit index, not both"
            )
        if backend is not None:
            if machine is not None:
                raise CuppUsageError(
                    "pass either a machine or a backend kind, not both "
                    "(a machine already fixes its devices' backends)"
                )
            machine = CudaMachine(backend=backend)
        self.runtime = CudaRuntime(machine)
        if properties is not None:
            err, index = self.runtime.cudaChooseDevice(properties)
            if not err.ok:
                from repro.cupp.exceptions import CuppInvalidDevice

                raise CuppInvalidDevice(
                    "no device matches the requested properties"
                )
        check(self.runtime.cudaSetDevice(0 if index is None else index))
        self._pool = None
        self._open = True

    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if not self._open:
            raise CuppUsageError("device handle has been destroyed")

    @property
    def backend(self) -> ExecutionBackend:
        """The underlying execution backend (sim or native device)."""
        self._ensure_open()
        return self.runtime.device

    @property
    def backend_kind(self) -> str:
        """``"sim"`` or ``"native"``."""
        self._ensure_open()
        return self.runtime.device.backend_kind

    @property
    def sim(self) -> ExecutionBackend:
        """Historical alias for :attr:`backend` (the first backend was
        the simulator; serve/bench code reaches the timeline through
        ``device.sim.timeline`` regardless of kind)."""
        self._ensure_open()
        return self.runtime.device

    @property
    def index(self) -> int:
        """The bound device number (binding lazily, like §3.2.1)."""
        return self.runtime._bind_default()

    # -- queries (§4.1: "the device handle can be queried") -------------
    def properties(self) -> cudaDeviceProp:
        self._ensure_open()
        err, _ = self.runtime.cudaGetDevice()
        check(err)
        err, prop = self.runtime.cudaGetDeviceProperties(
            self.runtime.cudaGetDevice()[1]
        )
        check(err)
        return prop

    @property
    def name(self) -> str:
        return self.sim.arch.name

    @property
    def total_memory(self) -> int:
        return self.sim.arch.device_memory_bytes

    @property
    def free_memory(self) -> int:
        return self.sim.memory.free_bytes

    @property
    def multiprocessors(self) -> int:
        return self.sim.arch.multiprocessors

    @property
    def supports_atomics(self) -> bool:
        return self.sim.arch.supports_atomics

    # -- memory pooling (repro.mem) --------------------------------------
    @property
    def pool(self):
        """The active :class:`repro.mem.MemoryPool`, or ``None``."""
        return self._pool

    def enable_pool(self, config=None) -> "object":
        """Route :meth:`alloc`/:meth:`free` through a caching
        :class:`repro.mem.MemoryPool` (idempotent when no ``config`` is
        given).  The serving layer and the benchmarks enable this; raw
        driver tests leave it off."""
        self._ensure_open()
        if self._pool is not None:
            if config is not None:
                raise CuppUsageError(
                    "pool already enabled; disable_pool() before "
                    "reconfiguring"
                )
            return self._pool
        from repro.mem import MemoryPool

        self._pool = MemoryPool(self, config)
        return self._pool

    def disable_pool(self) -> None:
        """Release the pool's cache back to the driver and detach it.

        Raises :class:`CuppUsageError` while pool allocations are live
        (arena pointers cannot outlive their segments).  A no-op when no
        pool is enabled."""
        self._ensure_open()
        if self._pool is None:
            return
        stats = self._pool.stats()
        if stats.bytes_in_use > 0:
            # Checked here, before touching the pool, so a refused
            # disable leaves the pool attached and every live pointer
            # (bin blocks *and* interior arena pointers) valid.
            raise CuppUsageError(
                f"cannot disable pool on device {self.index} with "
                f"{stats.bytes_in_use} bytes live; free them first"
            )
        self._pool.release()
        self._pool = None

    # -- memory (exception-throwing variants of §3.2.3) -----------------
    def _raw_alloc(self, nbytes: int) -> DevicePtr:
        """Driver-level allocation, bypassing any pool."""
        self._ensure_open()
        err, ptr = self.runtime.cudaMalloc(nbytes)
        if not err.ok:
            check(err, f"allocating {nbytes} bytes")
        if _TRACER.enabled:
            _TRACER.instant("device.alloc", nbytes=nbytes, addr=ptr.addr)
        return ptr

    def _raw_free(self, ptr: DevicePtr) -> None:
        """Driver-level free, bypassing any pool.

        Maps the driver's invalid-pointer code to the richer
        :class:`~repro.cupp.exceptions.CuppInvalidFree` so a double free
        names the pointer and device instead of failing generically."""
        self._ensure_open()
        err = self.runtime.cudaFree(ptr)
        if err is cudaError.cudaErrorInvalidDevicePointer:
            raise invalid_free(
                ptr.addr,
                self.index,
                "not a live allocation (double free or foreign pointer)",
            )
        check(err)
        if _TRACER.enabled:
            _TRACER.instant("device.free", addr=ptr.addr)

    def alloc(self, nbytes: int) -> DevicePtr:
        """Allocate global memory; raises :class:`CuppMemoryError` on
        failure instead of returning an error code.  Served from the
        cache when a :meth:`enable_pool` pool is active."""
        if self._pool is not None:
            self._ensure_open()
            return self._pool.alloc(nbytes)
        return self._raw_alloc(nbytes)

    def free(self, ptr: DevicePtr) -> None:
        """Release an allocation.  Freeing the null pointer is a no-op;
        a double free or foreign pointer raises
        :class:`~repro.cupp.exceptions.CuppInvalidFree`."""
        if self._pool is not None:
            self._ensure_open()
            kind = self._pool.classify(ptr)
            if kind == "live":
                self._pool.free(ptr)
                return
            if kind == "cached":
                raise invalid_free(
                    ptr.addr,
                    self.index,
                    "pointer is pool-owned but not live (double free)",
                )
            # Unknown to the pool: predates enable_pool — raw path.
        self._raw_free(ptr)

    def upload(self, ptr: DevicePtr, data: np.ndarray) -> None:
        """Host -> device transfer (blocking, implicit synchronization)."""
        self._ensure_open()
        raw = np.ascontiguousarray(data)
        with (
            _TRACER.span("device.upload", nbytes=raw.nbytes)
            if _TRACER.enabled
            else obs.NULL_SPAN
        ):
            check(
                self.runtime.cudaMemcpy(
                    ptr, raw, raw.nbytes, cudaMemcpyKind.cudaMemcpyHostToDevice
                )
            )

    def download(self, ptr: DevicePtr, nbytes: int, dtype=np.uint8) -> np.ndarray:
        """Device -> host transfer; returns a fresh host array."""
        self._ensure_open()
        out = np.empty(nbytes, dtype=np.uint8)
        with (
            _TRACER.span("device.download", nbytes=nbytes)
            if _TRACER.enabled
            else obs.NULL_SPAN
        ):
            check(
                self.runtime.cudaMemcpy(
                    out, ptr, nbytes, cudaMemcpyKind.cudaMemcpyDeviceToHost
                )
            )
        return out.view(dtype)

    def synchronize(self) -> None:
        """Explicit host/device synchronization (rarely needed, §2.2)."""
        self._ensure_open()
        check(self.runtime.cudaThreadSynchronize())

    # -- lifetime (§4.1) -------------------------------------------------
    def close(self) -> None:
        """Destroy the handle: "all memory allocated on this device is
        freed as well"."""
        if self._open:
            if self._pool is not None:
                # free_all() below releases at the driver level; drop the
                # pool's books first so nothing dangles.
                self._pool.invalidate()
                self._pool = None
            self.runtime.device.memory.free_all()
            self._open = False

    def __enter__(self) -> "Device":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            TEARDOWN_ERRORS.inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self._open else "closed"
        return f"cupp.Device({self.runtime._device_index}, {state})"
