"""The native execution backend: vectorized numpy at wall-clock speed.

:class:`NativeDevice` implements the same
:class:`~repro.backend.base.ExecutionBackend` surface as the cycle
simulator, but *executes* instead of *emulating*: kernels with a
registered vectorized implementation (see
:mod:`repro.backend.kernels_native`) run as numpy array programs over
the device's backing store, and the launch "duration" is the measured
wall-clock time — there is no instruction profile and no analytic cost
model on this substrate.

Kernels without a vectorized twin still work: the device falls back to
the SIMT thread-block executor for correctness (the instruction events
are drained into a throwaway profile — on this backend they carry no
cost meaning), so *any* ``cupp.kernel`` launches on either backend.

Numerical contract (load-bearing for the differential conformance
suite): the warp emulator returns every load as a Python ``float`` —
i.e. the float64 value of the float32-rounded stored element — does all
arithmetic between stores in float64, and rounds back to float32 only
at stores.  Vectorized twins therefore upcast loads to float64, mirror
the emulator's exact operation order, and round only at stores, which
makes the two backends bit-identical (not merely close) on the
steer/gpusteer pipelines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.backend.base import ExecutionBackend
from repro.prof import hook as prof_hook
from repro.simgpu.arch import ArchSpec, G80_8800GTS
from repro.simgpu.block import ThreadBlock
from repro.simgpu.dims import Dim3, as_dim3
from repro.simgpu.profile import InstructionProfile
from repro.simgpu.transfer import PcieModel


@dataclass
class NativeLaunchResult:
    """What the native backend learned from executing one grid."""

    grid_dim: Dim3
    block_dim: Dim3
    elapsed_s: float
    vectorized: bool
    kernel_name: str
    #: ``None`` for plain vectorized runs — there is no instruction
    #: stream to profile; populated when the SIMT fallback executed the
    #: kernel, or when a :class:`repro.prof.session.ProfSession` was
    #: active and the device derived counters by SIMT replay.
    profile: "InstructionProfile | None" = None
    occupancy: object = None
    shared_bytes_per_block: int = 0

    @property
    def blocks(self) -> int:
        return self.grid_dim.volume

    @property
    def threads(self) -> int:
        return self.grid_dim.volume * self.block_dim.volume


#: Vectorized kernel implementations, keyed by the *emulator* kernel
#: function (the ``.impl`` the runtime passes to ``launch``).  Populated
#: by :func:`native_kernel` and, lazily, :func:`_ensure_builtin_kernels`.
_NATIVE_IMPLS: "dict[Callable, Callable]" = {}
_builtins_loaded = False


def native_kernel(emulator_fn: Callable):
    """Decorator: register a vectorized twin for an emulator kernel.

    The wrapped function is called as ``impl(device, grid, block, args)``
    with ``args`` in declared parameter order, exactly as the emulator
    kernel would receive them (device-vector views for Ref/ConstRef
    parameters, plain Python scalars for value parameters).
    """

    def register(impl: Callable) -> Callable:
        _NATIVE_IMPLS[emulator_fn] = impl
        return impl

    return register


def _ensure_builtin_kernels() -> None:
    """Load the gpusteer pipeline twins on first launch.

    Deferred because :mod:`repro.backend.kernels_native` imports the
    emulator kernels, which pull in ``cupp`` — importing them at module
    scope would cycle back into this module through the CUDA runtime.
    """
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        import repro.backend.kernels_native  # noqa: F401  (registers on import)


class EwmaCost:
    """Online EWMA of the ratio measured/modelled kernel seconds.

    The serve scheduler predicts a native device's kernel time as
    ``perf_model_prediction * ratio``: the perf model supplies the shape
    (how cost scales with agents and versions), the EWMA learns the
    actual speed factor of the machine the native backend runs on.
    Seeded at 1.0 so a cold scheduler falls back to the perf model.
    """

    def __init__(self, alpha: float = 0.25, initial: float = 1.0) -> None:
        self.alpha = float(alpha)
        self.ratio = float(initial)
        self.observations = 0

    def observe(self, modelled_s: float, measured_s: float) -> float:
        if modelled_s <= 0.0:
            return self.ratio
        sample = measured_s / modelled_s
        if self.observations == 0:
            self.ratio = sample
        else:
            self.ratio = self.alpha * sample + (1.0 - self.alpha) * self.ratio
        self.observations += 1
        return self.ratio

    def predict(self, modelled_s: float) -> float:
        return modelled_s * self.ratio


class NativeDevice(ExecutionBackend):
    """A device that executes kernels as vectorized numpy programs.

    Shares the whole device model with :class:`SimDevice` — memory,
    constant cache, timeline, launch limits — so transfers, the memory
    pool, ledger causes, obs spans, and fault hooks work unchanged; only
    the execution substrate and the clock differ.
    """

    backend_kind = "native"

    def __init__(
        self,
        arch: ArchSpec = G80_8800GTS,
        pcie: PcieModel | None = None,
    ) -> None:
        self._init_backend(arch, pcie)

    # ------------------------------------------------------------------
    def launch(
        self,
        kernel_fn: Callable,
        grid_dim: "Dim3 | int | tuple",
        block_dim: "Dim3 | int | tuple",
        args: tuple = (),
        *,
        registers_per_thread: int = 10,
        strict_sync: bool = True,
    ) -> NativeLaunchResult:
        """Execute one grid natively (vectorized if registered)."""
        grid_dim = as_dim3(grid_dim)
        block_dim = as_dim3(block_dim)
        self.validate_launch(grid_dim, block_dim)
        _ensure_builtin_kernels()

        name = getattr(kernel_fn, "__name__", "kernel")
        impl = _NATIVE_IMPLS.get(kernel_fn)
        if impl is not None:
            profile = shared_bytes = None
            if prof_hook.active() is not None:
                # Counter replay (Nsight style): run the launch once
                # through the SIMT emulator to collect the instruction
                # profile, restore memory to its pre-launch contents,
                # then do the real timed vectorized pass.  Both backends
                # are bit-identical, so the replay sees exactly the
                # memory the sim backend would — derived native counters
                # equal sim counters by construction.
                snapshot = self.memory.snapshot_contents()
                profile, shared_bytes = self._run_simt(
                    kernel_fn, grid_dim, block_dim, args, strict_sync
                )
                self.memory.restore_contents(snapshot)
            start = time.perf_counter()
            impl(self, grid_dim, block_dim, args)
            result = NativeLaunchResult(
                grid_dim=grid_dim,
                block_dim=block_dim,
                elapsed_s=time.perf_counter() - start,
                vectorized=True,
                kernel_name=name,
                profile=profile,
                shared_bytes_per_block=shared_bytes or 0,
            )
        else:
            # SIMT fallback: thread-by-thread execution for correctness.
            # The profile is kept for introspection but carries no cost
            # meaning here — duration_s reports wall-clock either way.
            # Counted per kernel, so a missing twin is not silent; one
            # bind per launch is noise next to emulating every thread.
            obs.bind_counter("backend.simt_fallbacks", kernel=name).inc()
            start = time.perf_counter()
            profile, shared_bytes = self._run_simt(
                kernel_fn, grid_dim, block_dim, args, strict_sync
            )
            result = NativeLaunchResult(
                grid_dim=grid_dim,
                block_dim=block_dim,
                elapsed_s=time.perf_counter() - start,
                vectorized=False,
                kernel_name=name,
                profile=profile,
                shared_bytes_per_block=shared_bytes,
            )
        self.launches.append(result)
        return result

    def _run_simt(
        self,
        kernel_fn: Callable,
        grid_dim: Dim3,
        block_dim: Dim3,
        args: tuple,
        strict_sync: bool,
    ) -> "tuple[InstructionProfile, int]":
        """One SIMT pass over the grid: the merged profile and the peak
        per-block shared footprint (the fallback execution path, also
        used as the profiler's counter-replay pass)."""
        profile = InstructionProfile()
        shared_bytes = 0
        for by in range(grid_dim.y):
            for bx in range(grid_dim.x):
                block = ThreadBlock(
                    kernel_fn,
                    args,
                    Dim3(bx, by, 1),
                    block_dim,
                    grid_dim,
                    self.arch,
                    strict_sync=strict_sync,
                    device_memory=self.memory,
                )
                try:
                    block.run(profile)
                finally:
                    block.release_local_memory()
                shared_bytes = max(shared_bytes, block.shared_bytes_used)
        return profile, shared_bytes

    # ------------------------------------------------------------------
    def duration_s(
        self, result: NativeLaunchResult, registers_per_thread: int = 10
    ) -> float:
        """Measured wall-clock seconds — the native backend's real time."""
        return result.elapsed_s
