"""Thread blocks: barrier semantics, shared memory, thread contexts.

A block owns its threads (grouped into warps), its shared-memory
scratchpad, and the ``__syncthreads`` barrier.  The barrier releases when
every *live* thread of the block has arrived; if the block wedges — some
threads parked at the barrier while no other thread can make progress,
which is what happens when ``__syncthreads`` sits in divergent conditional
code (§3.1.4 says that is only well defined when the condition evaluates
identically across the block) — the executor raises
:class:`BarrierDeadlock` instead of hanging.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.common.errors import ReproError
from repro.simgpu.arch import ArchSpec
from repro.simgpu.dims import Dim3
from repro.simgpu.memory import SharedArrayView, SharedMemory
from repro.simgpu.profile import InstructionProfile
from repro.simgpu.warp import (
    _AT_SYNC,
    _DONE,
    _RUNNABLE,
    KernelFault,
    Thread,
    Warp,
)


class BarrierDeadlock(ReproError):
    """``__syncthreads`` was reached by only part of the block while the
    rest already exited or cannot advance — undefined in CUDA, fatal here."""


def unflatten(flat: int, dim: Dim3) -> Dim3:
    """Convert a flat thread index to its (x, y, z) coordinates.

    CUDA flattens thread indexes x-fastest: ``flat = x + y*Dx + z*Dx*Dy``.
    """
    x = flat % dim.x
    y = (flat // dim.x) % dim.y
    z = flat // (dim.x * dim.y)
    return Dim3(x, y, z)


class ThreadCtx:
    """Per-thread view of the built-in variables (§3.1.3) plus the handle
    through which a kernel declares shared memory.

    ``thread_idx``/``block_idx``/``block_dim``/``grid_dim`` mirror
    ``threadIdx``/``blockIdx``/``blockDim``/``gridDim``.
    """

    __slots__ = (
        "thread_idx",
        "block_idx",
        "block_dim",
        "grid_dim",
        "warp_size",
        "_block",
    )

    def __init__(
        self,
        thread_idx: Dim3,
        block_idx: Dim3,
        block_dim: Dim3,
        grid_dim: Dim3,
        warp_size: int,
        block: "ThreadBlock",
    ) -> None:
        self.thread_idx = thread_idx
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.warp_size = warp_size
        self._block = block

    @property
    def global_thread_id(self) -> int:
        """Flat 1D global thread id (the common Boids indexing scheme)."""
        return self.block_idx.x * self.block_dim.x + self.thread_idx.x

    def shared_array(
        self, name: str, dtype: np.dtype, count: int
    ) -> SharedArrayView:
        """Declare (or fetch) a block-level ``__shared__`` array.

        All threads of a block calling with the same ``name`` receive the
        *same* storage — shared declarations are per block, not per thread.
        """
        return self._block.shared_array(name, dtype, count)

    def local_array(self, name: str, dtype: np.dtype, count: int):
        """Declare (or fetch) a *thread-local* array.

        Local arrays with dynamic indexing cannot live in registers, so
        the compiler places them in device memory (Table 2.1: local memory
        = registers + device memory).  Accesses therefore go through
        ``ld``/``st`` at full global-memory cost — the effect behind the
        paper's version-3-vs-4 finding (§6.2.2) and the manual
        shared-memory workaround of §6.2.3.
        """
        flat = (
            self.thread_idx.x
            + self.thread_idx.y * self.block_dim.x
            + self.thread_idx.z * self.block_dim.x * self.block_dim.y
        )
        return self._block.local_array(name, flat, dtype, count)


class ThreadBlock:
    """One thread block being executed: warps + barrier + shared memory."""

    def __init__(
        self,
        kernel_fn: Callable,
        args: tuple,
        block_idx: Dim3,
        block_dim: Dim3,
        grid_dim: Dim3,
        arch: ArchSpec,
        *,
        strict_sync: bool = True,
        device_memory=None,
    ) -> None:
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.arch = arch
        self.strict_sync = strict_sync
        self.device_memory = device_memory
        self._shared = SharedMemory(arch.shared_mem_per_mp)
        self._shared_arrays: dict[str, SharedArrayView] = {}
        self._local_arrays: dict[tuple[str, int], object] = {}
        self._local_ptrs: list = []

        threads: list[Thread] = []
        for flat in range(block_dim.volume):
            ctx = ThreadCtx(
                unflatten(flat, block_dim),
                block_idx,
                block_dim,
                grid_dim,
                arch.warp_size,
                self,
            )
            gen = kernel_fn(ctx, *args)
            if not hasattr(gen, "send"):
                raise KernelFault(
                    f"kernel {kernel_fn.__name__!r} is not a generator "
                    "function — simulated kernels must yield instruction "
                    "events (see repro.simgpu.isa)"
                )
            threads.append(Thread(lane=flat, gen=gen))
        from repro.simgpu.caches import (
            CONSTANT_LINE_BYTES,
            CacheSim,
            TEXTURE_LINE_BYTES,
        )

        caches = {
            "constant": CacheSim(arch.constant_cache_per_mp, CONSTANT_LINE_BYTES),
            "texture": CacheSim(arch.texture_cache_per_mp, TEXTURE_LINE_BYTES),
        }
        ws = arch.warp_size
        self.warps = [
            Warp(threads[i : i + ws], ws, caches)
            for i in range(0, len(threads), ws)
        ]
        self._threads = threads

    # ------------------------------------------------------------------
    def shared_array(
        self, name: str, dtype: np.dtype, count: int
    ) -> SharedArrayView:
        view = self._shared_arrays.get(name)
        if view is None:
            view = self._shared.array(dtype, count)
            self._shared_arrays[name] = view
        elif len(view) != count or view.data.dtype != np.dtype(dtype):
            raise KernelFault(
                f"shared array {name!r} redeclared with a different shape"
            )
        return view

    def local_array(self, name: str, thread_flat: int, dtype: np.dtype, count: int):
        """Per-thread spilled local-memory array (see ThreadCtx.local_array)."""
        from repro.simgpu.memory import DeviceArrayView

        key = (name, thread_flat)
        view = self._local_arrays.get(key)
        if view is None:
            if self.device_memory is None:
                raise KernelFault(
                    "local arrays need a device-memory-backed launch "
                    "(SimDevice.launch provides one)"
                )
            nbytes = np.dtype(dtype).itemsize * count
            ptr = self.device_memory.alloc(nbytes)
            self._local_ptrs.append(ptr)
            view = DeviceArrayView(self.device_memory, ptr, np.dtype(dtype), count)
            self._local_arrays[key] = view
        return view

    def release_local_memory(self) -> None:
        """Free the compiler-allocated local-memory spill space."""
        for ptr in self._local_ptrs:
            self.device_memory.free(ptr)
        self._local_ptrs.clear()
        self._local_arrays.clear()

    @property
    def shared_bytes_used(self) -> int:
        return self._shared.used

    # ------------------------------------------------------------------
    def run(self, profile: InstructionProfile) -> None:
        """Execute the block to completion, enforcing barrier semantics.

        Each pass steps every warp one round.  The block can only stall —
        every live thread parked at the barrier, or none left — after a
        round in which some thread arrived at the barrier or exited, so
        the barrier, deadlock and exit checks run only after such a round
        (a warp flags it in ``Warp.stopped``).  A pass happens exactly
        when some thread can still advance, as if the checks ran before
        every pass: the warps see the same rounds either way.
        """
        threads, warps = self._threads, self.warps
        for w in warps:
            if w.threads:
                profile.warps_launched += 1
        if not threads:
            return
        while True:
            stopped = False
            for w in warps:
                w.step_round(profile)
                if w.stopped:
                    w.stopped = False
                    stopped = True
            if not stopped:
                continue  # every thread that could advance still can
            live = [t for t in threads if t.state is not _DONE]
            if not live:
                return
            # Barrier release: every live thread is parked at the sync.
            if all(t.state is _AT_SYNC for t in live):
                exited = len(threads) - len(live)
                if exited and self.strict_sync:
                    raise BarrierDeadlock(
                        f"block {tuple(self.block_idx)}: {len(live)} threads "
                        f"wait at __syncthreads() but {exited} already "
                        "exited and will never arrive — __syncthreads in "
                        "divergent control flow is undefined (paper §3.1.4)"
                    )
                for t in live:
                    t.state = _RUNNABLE
