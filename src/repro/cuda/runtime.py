"""The CUDA 1.0 host runtime library (§3.2), C-style.

Everything the paper says makes raw CUDA awkward in C++ is reproduced
as-is:

* functions return :class:`~repro.cuda.errors.cudaError` codes instead of
  raising — callers must check every call (CuPP's exception layer, §4.2,
  wraps exactly this surface);
* a kernel launch is the three-step ``cudaConfigureCall`` /
  ``cudaSetupArgument`` / ``cudaLaunch`` dance with explicit byte offsets
  on a 256-byte kernel parameter stack (§3.2.2);
* one host thread binds at most one device, and device 0 is selected
  implicitly at first use (§3.2.1);
* ``cudaMemcpy`` blocks the host while a kernel is active (§2.2) —
  modelled through the device timeline.

:class:`CudaMachine` represents the machine (its set of simulated
devices); :class:`CudaRuntime` is the per-host-thread API state.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.common.errors import ConfigurationError
from repro.prof import hook as prof_hook
from repro.cuda.errors import CudaQualifierError, cudaError
from repro.cuda.qualifiers import is_global, kernel_guard
from repro.cuda.types import (
    cudaDeviceProp,
    cudaEvent_t,
    cudaMemcpyKind,
    cudaStream_t,
    dim3,
)
from repro.backend.base import ExecutionBackend, normalize_backends
from repro.simgpu.arch import ArchSpec, G80_8800GTS
from repro.simgpu.device import LaunchResult, SimDevice
from repro.simgpu.dims import as_dim3
from repro.simgpu.memory import (
    DeviceMemoryError,
    DevicePtr,
    InvalidDeviceAccess,
    InvalidFree,
    OutOfDeviceMemory,
)
from repro.simgpu.warp import KernelFault

_TRACER = obs.get_tracer()

# Every series this module publishes, bound once: a name and its labels
# are fixed at each call site.
_MALLOC_COUNT = obs.bind_counter("cuda.malloc.count")
_MALLOC_BYTES = obs.bind_counter("cuda.malloc.bytes")
_FREE_COUNT = obs.bind_counter("cuda.free.count")
_LAUNCHES = obs.bind_counter("cuda.launches")
_STREAM_LAUNCHES = obs.bind_counter("cuda.stream.launches")
_STREAMS_CREATED = obs.bind_counter("cuda.stream.created")
_STREAMS_DESTROYED = obs.bind_counter("cuda.stream.destroyed")
_STREAM_WAITS = obs.bind_counter("cuda.stream.waits")
_EVENTS_CREATED = obs.bind_counter("cuda.event.created")
_EVENT_RECORDS = obs.bind_counter("cuda.event.records")


def _copy_series(family: str, kind: str) -> "tuple[obs.Counter, obs.Counter]":
    """The bound ``<family>.count`` / ``<family>.bytes`` pair of one kind."""
    return (
        obs.bind_counter(f"{family}.count", kind=kind),
        obs.bind_counter(f"{family}.bytes", kind=kind),
    )


_MEMCPY_SERIES = {
    kind: _copy_series("cuda.memcpy", kind.name) for kind in cudaMemcpyKind
}
_TO_SYMBOL_SERIES = _copy_series("cuda.memcpy", "toSymbol")
_STREAM_MEMCPY_SERIES = {
    kind: _copy_series("cuda.stream.memcpy", kind.name)
    for kind in cudaMemcpyKind
}


def _make_backend_device(kind: str, arch: ArchSpec) -> ExecutionBackend:
    if kind == "native":
        from repro.backend.native import NativeDevice

        return NativeDevice(arch)
    return SimDevice(arch)


class CudaMachine:
    """A host machine with one or more CUDA devices.

    ``backend`` selects the execution substrate per device: ``"sim"``
    (the default cycle simulator), ``"native"`` (vectorized numpy at
    wall-clock speed), ``"mixed"`` (alternating), or an explicit
    per-device list of kinds.
    """

    def __init__(
        self,
        archs: "list[ArchSpec] | None" = None,
        backend: "str | list[str]" = "sim",
    ) -> None:
        archs = archs or [G80_8800GTS]
        kinds = normalize_backends(backend, len(archs))
        self.devices = [
            _make_backend_device(kind, arch)
            for kind, arch in zip(kinds, archs)
        ]

    def device(self, index: int) -> ExecutionBackend:
        return self.devices[index]


@dataclass
class _PendingLaunch:
    grid_dim: dim3
    block_dim: dim3
    args: "list[tuple[int, int, object]]"  # (offset, size, value)


def sizeof_argument(value: object) -> int:
    """Byte size of a kernel argument on the parameter stack."""
    if isinstance(value, DevicePtr):
        return 4  # 32-bit device address space (§3.2.3)
    if isinstance(value, bool):
        return 4
    if isinstance(value, int):
        return 4
    if isinstance(value, float):
        return 4  # CUDA 1.0 kernels take 32-bit floats
    if isinstance(value, np.generic):
        return value.dtype.itemsize
    # Aggregates (simulated structs / views) declare their own size.
    declared = getattr(value, "kernel_arg_size", None)
    if declared is not None:
        return int(declared)
    return struct.calcsize("P")


#: Per copy direction, which of ``(dst, src)`` must be device memory.
_MEMCPY_DIRECTIONS = {
    cudaMemcpyKind.cudaMemcpyHostToHost: (False, False),
    cudaMemcpyKind.cudaMemcpyHostToDevice: (True, False),
    cudaMemcpyKind.cudaMemcpyDeviceToHost: (False, True),
    cudaMemcpyKind.cudaMemcpyDeviceToDevice: (True, True),
}


def _memcpy_args_error(
    dst: object, src: object, count: int, kind: cudaMemcpyKind
) -> "cudaError | None":
    """Validate a copy's direction and host-buffer lengths up front, so a
    rejected copy charges no time and touches no counter or ledger."""
    on_device = (isinstance(dst, DevicePtr), isinstance(src, DevicePtr))
    if _MEMCPY_DIRECTIONS.get(kind) != on_device:
        return cudaError.cudaErrorInvalidMemcpyDirection
    for buf in (dst, src):
        if not isinstance(buf, DevicePtr) and np.asarray(buf).nbytes < count:
            return cudaError.cudaErrorInvalidValue
    return None


from repro.cuda.interop import GlInteropMixin


class CudaRuntime(GlInteropMixin):
    """Per-host-thread CUDA runtime state and API entry points."""

    def __init__(self, machine: CudaMachine | None = None) -> None:
        self.machine = machine or CudaMachine()
        self._device_index: int | None = None
        self._pending: _PendingLaunch | None = None
        self.last_launch: LaunchResult | None = None
        self.memcpy_count = 0
        self.launch_count = 0

    # ------------------------------------------------------------------
    # Device management (§3.2.1)
    # ------------------------------------------------------------------
    def cudaGetDeviceCount(self) -> tuple[cudaError, int]:  # noqa: N802
        n = len(self.machine.devices)
        if n == 0:
            return cudaError.cudaErrorNoDevice, 0
        return cudaError.cudaSuccess, n

    def cudaSetDevice(self, dev: int) -> cudaError:  # noqa: N802
        if self._device_index is not None:
            # CUDA 1.0: one host thread is bound to at most one device,
            # and the binding cannot change once made.
            return cudaError.cudaErrorSetOnActiveProcess
        if not 0 <= dev < len(self.machine.devices):
            return cudaError.cudaErrorInvalidDevice
        self._device_index = dev
        return cudaError.cudaSuccess

    def cudaGetDevice(self) -> tuple[cudaError, int]:  # noqa: N802
        return cudaError.cudaSuccess, self._bind_default()

    def cudaChooseDevice(  # noqa: N802
        self, prop: cudaDeviceProp
    ) -> tuple[cudaError, int]:
        """Device number best matching the requested properties (§3.2.1)."""
        candidates = [
            i
            for i, d in enumerate(self.machine.devices)
            if prop.satisfied_by(d.arch)
        ]
        if not candidates:
            return cudaError.cudaErrorInvalidValue, -1
        # "Best matching": most multiprocessors among the satisfying ones.
        best = max(
            candidates,
            key=lambda i: self.machine.devices[i].arch.multiprocessors,
        )
        return cudaError.cudaSuccess, best

    def cudaGetDeviceProperties(  # noqa: N802
        self, dev: int
    ) -> tuple[cudaError, cudaDeviceProp | None]:
        if not 0 <= dev < len(self.machine.devices):
            return cudaError.cudaErrorInvalidDevice, None
        return cudaError.cudaSuccess, cudaDeviceProp.of(
            self.machine.devices[dev].arch
        )

    def _bind_default(self) -> int:
        """§3.2.1: device 0 is selected automatically at first use."""
        if self._device_index is None:
            self._device_index = 0
        return self._device_index

    @property
    def device(self) -> ExecutionBackend:
        """The bound device backend (binding lazily if needed)."""
        return self.machine.devices[self._bind_default()]

    # ------------------------------------------------------------------
    # Memory management (§3.2.3)
    # ------------------------------------------------------------------
    def cudaMalloc(self, count: int) -> tuple[cudaError, DevicePtr | None]:  # noqa: N802
        if type(count) is not int:
            # Integer-like sizes (numpy scalars) pass; anything else is an
            # invalid value, reported before any fault draw or allocation.
            try:
                count = operator.index(count)
            except TypeError:
                return cudaError.cudaErrorInvalidValue, None
        device = self.device
        injector = device.fault_injector
        if injector is not None and (
            injector.draw(
                "alloc", device_index=self._bind_default(), nbytes=count
            )
            is not None
        ):
            # Spurious OOM: the driver claims exhaustion although memory
            # is available; the caller's retry path decides what happens.
            return cudaError.cudaErrorMemoryAllocation, None
        try:
            ptr = device.memory.alloc(count)
        except OutOfDeviceMemory:
            return cudaError.cudaErrorMemoryAllocation, None
        except DeviceMemoryError:
            return cudaError.cudaErrorInvalidValue, None
        _MALLOC_COUNT.inc()
        _MALLOC_BYTES.inc(int(count))
        if _TRACER.enabled:
            _TRACER.instant("cuda.malloc", nbytes=count, addr=ptr.addr)
        return cudaError.cudaSuccess, ptr

    def cudaFree(self, ptr: DevicePtr) -> cudaError:  # noqa: N802
        try:
            self.device.memory.free(ptr)
        except InvalidFree:
            return cudaError.cudaErrorInvalidDevicePointer
        except AttributeError:
            if hasattr(ptr, "addr"):
                raise
            # Not a pointer at all (say, a bare integer address).
            return cudaError.cudaErrorInvalidDevicePointer
        _FREE_COUNT.inc()
        if _TRACER.enabled:
            _TRACER.instant("cuda.free", addr=ptr.addr)
        return cudaError.cudaSuccess

    def cudaMemcpy(  # noqa: N802
        self,
        dst: "DevicePtr | np.ndarray",
        src: "DevicePtr | np.ndarray",
        count: int,
        kind: cudaMemcpyKind,
    ) -> cudaError:
        """Blocking copy; implicit host/device synchronization (§2.2)."""
        error = _memcpy_args_error(dst, src, count, kind)
        if error is not None:
            return error
        device = self.device
        mem = device.memory
        injector = device.fault_injector
        if (
            injector is not None
            and kind is not cudaMemcpyKind.cudaMemcpyHostToHost
            and injector.draw(
                "transfer", device_index=self._bind_default(), nbytes=count
            )
            is not None
        ):
            # Uncorrectable ECC error: the bytes cross the bus (the time
            # is charged) but arrive poisoned, so nothing is copied.
            device.timeline.memcpy(count)
            return cudaError.cudaErrorECCUncorrectable
        self.memcpy_count += 1
        copies, copied_bytes = _MEMCPY_SERIES[kind]
        copies.inc()
        copied_bytes.inc(count)
        if _TRACER.enabled:
            _TRACER.instant("cuda.memcpy", kind=kind.name, nbytes=count)
        try:
            if kind is cudaMemcpyKind.cudaMemcpyHostToHost:
                raw = np.ascontiguousarray(src).view(np.uint8).reshape(-1)
                dst.view(np.uint8).reshape(-1)[:count] = raw[:count]
                return cudaError.cudaSuccess
            if kind is cudaMemcpyKind.cudaMemcpyDeviceToDevice:
                # Device-to-device copies never touch the PCIe bus: they
                # run at device-memory bandwidth (read + write the bytes)
                # after the implicit synchronization.
                tl = device.timeline
                tl.synchronize()
                tl.host_work(
                    2 * count / device.arch.memory_bandwidth_bytes_per_s
                )
                tl.device_busy_until = tl.host_time
                mem.copy_device_to_device(dst, src, count)
                return cudaError.cudaSuccess
            device.timeline.memcpy(count)
            if kind is cudaMemcpyKind.cudaMemcpyHostToDevice:
                raw = np.ascontiguousarray(src).view(np.uint8).reshape(-1)
                mem.copy_in(dst, raw[:count])
            else:
                out = mem.copy_out(src, count)
                dst.view(np.uint8).reshape(-1)[:count] = out
        except InvalidDeviceAccess:
            return cudaError.cudaErrorInvalidDevicePointer
        return cudaError.cudaSuccess

    # ------------------------------------------------------------------
    # Streams & events (asyncAPI-style overlap on the device timeline)
    # ------------------------------------------------------------------
    def _stream_ok(self, stream: cudaStream_t) -> bool:
        return (
            isinstance(stream, cudaStream_t)
            and not stream.destroyed
            and stream.device_index == self._bind_default()
        )

    def _event_ok(self, event: cudaEvent_t) -> bool:
        return (
            isinstance(event, cudaEvent_t)
            and not event.destroyed
            and event.device_index == self._bind_default()
        )

    def cudaStreamCreate(self) -> tuple[cudaError, cudaStream_t | None]:  # noqa: N802
        """Create an in-order work queue on the bound device."""
        dev = self._bind_default()
        stream = cudaStream_t(dev, self.device.timeline.create_stream())
        _STREAMS_CREATED.inc()
        return cudaError.cudaSuccess, stream

    def cudaStreamDestroy(self, stream: cudaStream_t) -> cudaError:  # noqa: N802
        """Destroy a stream (CUDA 1.x semantics: drains it first)."""
        if not self._stream_ok(stream):
            return cudaError.cudaErrorInvalidResourceHandle
        tl = self.device.timeline
        tl.stream_synchronize(stream.sim)
        tl.destroy_stream(stream.sim)
        _STREAMS_DESTROYED.inc()
        return cudaError.cudaSuccess

    def cudaEventCreate(self) -> tuple[cudaError, cudaEvent_t | None]:  # noqa: N802
        dev = self._bind_default()
        event = cudaEvent_t(dev, self.device.timeline.create_event())
        _EVENTS_CREATED.inc()
        return cudaError.cudaSuccess, event

    def cudaEventDestroy(self, event: cudaEvent_t) -> cudaError:  # noqa: N802
        if not self._event_ok(event):
            return cudaError.cudaErrorInvalidResourceHandle
        self.device.timeline.destroy_event(event.sim)
        return cudaError.cudaSuccess

    def cudaEventRecord(  # noqa: N802
        self, event: cudaEvent_t, stream: cudaStream_t | None = None
    ) -> cudaError:
        """Record ``event`` after the work currently in ``stream`` (the
        null stream when ``stream`` is ``None``)."""
        if not self._event_ok(event):
            return cudaError.cudaErrorInvalidResourceHandle
        if stream is not None and not self._stream_ok(stream):
            return cudaError.cudaErrorInvalidResourceHandle
        self.device.timeline.record_event(
            event.sim, None if stream is None else stream.sim
        )
        _EVENT_RECORDS.inc()
        return cudaError.cudaSuccess

    def cudaStreamWaitEvent(  # noqa: N802
        self, stream: cudaStream_t, event: cudaEvent_t
    ) -> cudaError:
        """Future work on ``stream`` waits for ``event``; dependencies
        resolve as max-of-predecessor-completions on the timeline."""
        if not self._stream_ok(stream) or not self._event_ok(event):
            return cudaError.cudaErrorInvalidResourceHandle
        self.device.timeline.stream_wait_event(stream.sim, event.sim)
        _STREAM_WAITS.inc()
        obs.record_transfer(
            "stream-wait",
            "none",
            0,
            moved=False,
            label=f"stream{stream.stream_id}<-event{event.sim.event_id}",
        )
        return cudaError.cudaSuccess

    def cudaStreamSynchronize(self, stream: cudaStream_t) -> cudaError:  # noqa: N802
        if not self._stream_ok(stream):
            return cudaError.cudaErrorInvalidResourceHandle
        self.device.timeline.stream_synchronize(stream.sim)
        return cudaError.cudaSuccess

    def cudaEventSynchronize(self, event: cudaEvent_t) -> cudaError:  # noqa: N802
        if not self._event_ok(event):
            return cudaError.cudaErrorInvalidResourceHandle
        self.device.timeline.event_synchronize(event.sim)
        return cudaError.cudaSuccess

    def cudaEventElapsedTime(  # noqa: N802
        self, start: cudaEvent_t, end: cudaEvent_t
    ) -> tuple[cudaError, float]:
        """Milliseconds between two recorded events (asyncAPI's timing)."""
        if not self._event_ok(start) or not self._event_ok(end):
            return cudaError.cudaErrorInvalidResourceHandle, 0.0
        if start.sim.timestamp_s is None or end.sim.timestamp_s is None:
            return cudaError.cudaErrorInvalidValue, 0.0
        return (
            cudaError.cudaSuccess,
            (end.sim.timestamp_s - start.sim.timestamp_s) * 1e3,
        )

    def cudaMemcpyAsync(  # noqa: N802
        self,
        dst: "DevicePtr | np.ndarray",
        src: "DevicePtr | np.ndarray",
        count: int,
        kind: cudaMemcpyKind,
        stream: cudaStream_t,
    ) -> cudaError:
        """Stream-ordered copy: the host pays only the submit cost; the
        DMA runs on the copy-engine track and may overlap compute on
        other streams.  Only the PCIe directions are asynchronous —
        device-to-device copies fall back to the blocking path (the sim
        models them as device-internal, not DMA-engine, work)."""
        if not self._stream_ok(stream):
            return cudaError.cudaErrorInvalidResourceHandle
        error = _memcpy_args_error(dst, src, count, kind)
        if error is not None:
            return error
        if kind in (
            cudaMemcpyKind.cudaMemcpyHostToHost,
            cudaMemcpyKind.cudaMemcpyDeviceToDevice,
        ):
            return self.cudaMemcpy(dst, src, count, kind)
        tl = self.device.timeline
        direction = (
            "h2d" if kind is cudaMemcpyKind.cudaMemcpyHostToDevice else "d2h"
        )
        injector = self.device.fault_injector
        if injector is not None and (
            injector.draw(
                "transfer", device_index=self._bind_default(), nbytes=count
            )
            is not None
        ):
            # Uncorrectable ECC error: the DMA engine still burns the bus
            # time, but the payload arrives poisoned.
            tl.stream_memcpy(stream.sim, count)
            return cudaError.cudaErrorECCUncorrectable
        op = tl.stream_memcpy(stream.sim, count)
        self.memcpy_count += 1
        copies, copied_bytes = _STREAM_MEMCPY_SERIES[kind]
        copies.inc()
        copied_bytes.inc(count)
        obs.record_transfer(
            f"async-{direction}",
            direction,
            count,
            label=f"stream{stream.stream_id}",
        )
        if _TRACER.enabled:
            _TRACER.instant(
                "cuda.memcpyAsync",
                kind=kind.name,
                nbytes=count,
                stream=stream.stream_id,
            )
        mem = self.device.memory
        try:
            # The sim applies the payload eagerly; only the *time* is
            # deferred onto the copy-engine track.
            if kind is cudaMemcpyKind.cudaMemcpyHostToDevice:
                raw = np.ascontiguousarray(src).view(np.uint8).reshape(-1)
                mem.copy_in(dst, raw[:count])
            else:
                out = mem.copy_out(src, count)
                dst.view(np.uint8).reshape(-1)[:count] = out
        except InvalidDeviceAccess:
            return cudaError.cudaErrorInvalidDevicePointer
        return cudaError.cudaSuccess

    # ------------------------------------------------------------------
    # Constant memory & texture references (ch. 7 extension surface)
    # ------------------------------------------------------------------
    def constant_symbol(
        self, dtype, count: int
    ) -> "tuple[cudaError, object | None]":
        """Declare a ``__constant__`` symbol on the bound device."""
        from repro.simgpu.caches import ConstantMemoryError

        try:
            return cudaError.cudaSuccess, self.device.constant.alloc_symbol(
                dtype, count
            )
        except ConstantMemoryError:
            return cudaError.cudaErrorMemoryAllocation, None

    def cudaMemcpyToSymbol(  # noqa: N802
        self, symbol: object, src: np.ndarray
    ) -> cudaError:
        """Host -> constant-memory transfer (blocking, like cudaMemcpy)."""
        raw = np.ascontiguousarray(src)
        if raw.nbytes > symbol.count * symbol.dtype.itemsize:
            return cudaError.cudaErrorInvalidValue
        self.memcpy_count += 1
        copies, copied_bytes = _TO_SYMBOL_SERIES
        copies.inc()
        copied_bytes.inc(raw.nbytes)
        if _TRACER.enabled:
            _TRACER.instant("cuda.memcpyToSymbol", nbytes=raw.nbytes)
        self.device.timeline.memcpy(raw.nbytes)
        symbol.memory.write(symbol.offset, raw)
        return cudaError.cudaSuccess

    def cudaBindTexture(  # noqa: N802
        self, texref: object, ptr: DevicePtr, dtype, count: int
    ) -> cudaError:
        """Bind a texture reference to linear device memory (§3.2 lists
        texture reference management; modelled for the ch. 7 feature)."""
        from repro.simgpu.memory import DeviceArrayView, InvalidDeviceAccess

        try:
            view = DeviceArrayView(
                self.device.memory, ptr, np.dtype(dtype), count
            )
            view._raw()  # validate the range now, like the driver does
        except InvalidDeviceAccess:
            return cudaError.cudaErrorInvalidDevicePointer
        texref.bind(view)
        return cudaError.cudaSuccess

    def cudaUnbindTexture(self, texref: object) -> cudaError:  # noqa: N802
        texref.unbind()
        return cudaError.cudaSuccess

    # ------------------------------------------------------------------
    # Execution control (§3.2.2)
    # ------------------------------------------------------------------
    def cudaConfigureCall(  # noqa: N802
        self, grid_dim: "dim3 | int | tuple", block_dim: "dim3 | int | tuple"
    ) -> cudaError:
        """Step 1: configure the next kernel launch."""
        try:
            grid = as_dim3(grid_dim)
            block = as_dim3(block_dim)
            self.device.validate_launch(grid, block)
        except ConfigurationError:
            return cudaError.cudaErrorInvalidConfiguration
        self._pending = _PendingLaunch(grid, block, [])
        return cudaError.cudaSuccess

    def cudaSetupArgument(  # noqa: N802
        self, arg: object, offset: int, size: int | None = None
    ) -> cudaError:
        """Step 2: push one parameter onto the kernel stack at ``offset``."""
        if self._pending is None:
            return cudaError.cudaErrorInvalidValue
        size = sizeof_argument(arg) if size is None else int(size)
        stack_limit = self.device.arch.kernel_stack_bytes
        if offset < 0 or offset + size > stack_limit:
            return cudaError.cudaErrorInvalidValue
        for off, sz, _val in self._pending.args:
            if not (offset + size <= off or off + sz <= offset):
                return cudaError.cudaErrorInvalidValue  # overlap
        self._pending.args.append((offset, size, arg))
        return cudaError.cudaSuccess

    def cudaLaunch(  # noqa: N802
        self,
        kernel: Callable,
        *,
        registers_per_thread: int = 10,
        strict_sync: bool = True,
        stream: cudaStream_t | None = None,
    ) -> cudaError:
        """Step 3: start the configured kernel.

        ``kernel`` must be a ``__global__``-qualified function pointer
        (§3.2.2).  The launch consumes the pending configuration.  With
        ``stream`` the kernel is enqueued on that stream's compute track
        and may overlap copies and other streams' kernels; without, it
        runs on the null stream and serializes against everything.
        """
        if self._pending is None:
            return cudaError.cudaErrorInvalidConfiguration
        if stream is not None and not self._stream_ok(stream):
            self._pending = None
            return cudaError.cudaErrorInvalidResourceHandle
        if not is_global(kernel):
            self._pending = None
            return cudaError.cudaErrorInvalidValue
        pending, self._pending = self._pending, None
        args = tuple(
            val for _off, _sz, val in sorted(pending.args, key=lambda a: a[0])
        )
        name = getattr(kernel, "__name__", "kernel")
        tracing = _TRACER.enabled
        with (
            _TRACER.span(
                f"cuda.launch:{name}",
                grid=str(pending.grid_dim),
                block=str(pending.block_dim),
            )
            if tracing
            else obs.NULL_SPAN
        ) as span:
            injector = self.device.fault_injector
            if injector is not None:
                fault = injector.draw(
                    "launch", device_index=self._bind_default()
                )
                if fault == "launch-fail":
                    span.set(error="injected-launch-failure")
                    return cudaError.cudaErrorLaunchFailure
                if fault == "hang":
                    # The device wedges for the configured latency; the
                    # failure is only visible once a watchdog gives up.
                    # A stream launch wedges that stream's compute track
                    # (other streams may still make progress).
                    if stream is not None:
                        self.device.timeline.stream_launch(
                            stream.sim, injector.config.hang_latency_s
                        )
                    else:
                        self.device.timeline.launch_kernel(
                            injector.config.hang_latency_s
                        )
                    span.set(error="injected-hang")
                    return cudaError.cudaErrorLaunchFailure
            try:
                with kernel_guard():
                    result = self.device.launch(
                        kernel.impl,
                        pending.grid_dim,
                        pending.block_dim,
                        args,
                        registers_per_thread=registers_per_thread,
                        strict_sync=strict_sync,
                    )
            except (KernelFault, InvalidDeviceAccess):
                span.set(error="launch-failure")
                return cudaError.cudaErrorLaunchFailure
            except CudaQualifierError:
                span.set(error="launch-failure")
                return cudaError.cudaErrorLaunchFailure
            self.last_launch = result
            self.launch_count += 1
            _LAUNCHES.inc()
            # Asynchronous semantics: the host is only charged the launch
            # overhead; the device timeline advances by the backend's
            # duration — the analytic model on the simulator, measured
            # wall-clock time on the native backend.
            duration = self.device.duration_s(
                result, registers_per_thread=registers_per_thread
            )
            if stream is not None:
                op = self.device.timeline.stream_launch(stream.sim, duration)
                _STREAM_LAUNCHES.inc()
                if tracing:
                    span.set(
                        stream=stream.stream_id,
                        track=op.track,
                        sched_start_s=op.start_s,
                        sched_end_s=op.end_s,
                    )
            else:
                self.device.timeline.launch_kernel(duration)
            # The emulator's instruction profile rides on the launch span
            # so a trace alone can answer "what did this launch do?"
            # (vectorized native launches have no instruction stream).
            if tracing:
                profile = getattr(result, "profile", None)
                span.set(
                    profile=profile.summary() if profile is not None else None,
                    backend=self.device.backend_kind,
                    modelled_duration_s=duration,
                    occupancy=getattr(result.occupancy, "occupancy", None),
                )
            # Kernel profiler capture: one module-global read when no
            # session is attached, so profiling-off stays inert.
            prof = prof_hook.active()
            if prof is not None:
                prof.record_launch(
                    name=name,
                    backend=self.device.backend_kind,
                    result=result,
                    duration_s=duration,
                    arch=self.device.arch,
                    registers_per_thread=registers_per_thread,
                )
        return cudaError.cudaSuccess

    def cudaThreadSynchronize(self) -> cudaError:  # noqa: N802
        """Block the host until the device is idle."""
        self.device.timeline.synchronize()
        return cudaError.cudaSuccess
