"""Pseudo-PTX kernel inspection.

§6.2.3: local variables that land in device memory "can only be
identified by reading the compiler generated assembler code (known as
PTX code)", per the *Parallel Thread Execution ISA* [Cor07d].  The
paper's authors did that by hand to build version 5; this module gives
the simulator the equivalent instrument:

* :func:`trace_kernel` — record one thread's instruction stream as a
  PTX-flavoured listing;
* :func:`find_local_spills` — report every local array a kernel
  declares, with its size: the exact information the paper dug out of
  the assembler (and the reason v3 lost to v4).

The trace runs the kernel on a scratch device for a single block, so it
is an inspection tool, not a profiler — profiles come from real launches.

A multi-part event (an op bundle or a float3 access, see
:mod:`repro.simgpu.isa`) is listed — and handed to the warp — part by
part, so a listing reads exactly as if the kernel had yielded every
instruction on its own, truncation at ``max_instructions`` included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simgpu.costs import OpClass
from repro.simgpu.isa import (
    ConstantReadEvent,
    GlobalReadEvent,
    GlobalWriteEvent,
    LOAD3_TYPES,
    OpEvent,
    ReconvergeEvent,
    SharedReadEvent,
    SharedWriteEvent,
    SyncEvent,
    TextureReadEvent,
    parts,
)

#: PTX mnemonics per instruction class (flavour, not a real assembler).
_PTX_NAMES = {
    OpClass.FADD: "add.f32",
    OpClass.FMUL: "mul.f32",
    OpClass.FMAD: "mad.f32",
    OpClass.IADD: "add.s32",
    OpClass.BITWISE: "and.b32",
    OpClass.COMPARE: "setp.lt.f32",
    OpClass.MINMAX: "min.f32",
    OpClass.RCP: "rcp.f32",
    OpClass.RSQRT: "rsqrt.f32",
    OpClass.TRANSCENDENTAL: "sin.approx.f32",
    OpClass.CONVERT: "cvt.rzi.s32.f32",
    OpClass.REGISTER: "mov.f32",
    OpClass.BRANCH: "bra",
}


@dataclass
class KernelTrace:
    """One thread's recorded instruction stream."""

    kernel_name: str
    lines: list[str] = field(default_factory=list)
    local_arrays: dict[str, int] = field(default_factory=dict)  # name -> bytes
    shared_arrays: dict[str, int] = field(default_factory=dict)

    def listing(self) -> str:
        """The pseudo-PTX text."""
        header = [f".entry {self.kernel_name}", "{"]
        decls = [
            f"    .local .align 4 .b8 __local_{name}[{nbytes}];"
            for name, nbytes in sorted(self.local_arrays.items())
        ] + [
            f"    .shared .align 4 .b8 __shared_{name}[{nbytes}];"
            for name, nbytes in sorted(self.shared_arrays.items())
        ]
        body = [f"    {line};" for line in self.lines]
        return "\n".join(header + decls + body + ["}"])

    @property
    def spills_to_device_memory(self) -> bool:
        """Does this kernel keep local arrays in device memory (§6.2.3)?"""
        return bool(self.local_arrays)


class _TracingCtx:
    """A ThreadCtx stand-in that records declarations for one thread."""

    def __init__(self, real_ctx, trace: KernelTrace) -> None:
        self._real = real_ctx
        self._trace = trace

    def __getattr__(self, name):
        return getattr(self._real, name)

    def shared_array(self, name, dtype, count):
        self._trace.shared_arrays[name] = int(np.dtype(dtype).itemsize * count)
        return self._real.shared_array(name, dtype, count)

    def local_array(self, name, dtype, count):
        self._trace.local_arrays[name] = int(np.dtype(dtype).itemsize * count)
        return self._real.local_array(name, dtype, count)


def _render(event, counter: int) -> "list[str]":
    if isinstance(event, OpEvent):
        name = _PTX_NAMES.get(event.op, event.op.value)
        return [name] * event.count
    if isinstance(event, GlobalReadEvent):
        return [f"ld.global.f32 %f{counter}, [%rd{counter}]"]
    if isinstance(event, GlobalWriteEvent):
        return [f"st.global.f32 [%rd{counter}], %f{counter}"]
    if isinstance(event, SharedReadEvent):
        return [f"ld.shared.f32 %f{counter}, [%sh{counter}]"]
    if isinstance(event, SharedWriteEvent):
        return [f"st.shared.f32 [%sh{counter}], %f{counter}"]
    if isinstance(event, ConstantReadEvent):
        return [f"ld.const.f32 %f{counter}, [%rc{counter}]"]
    if isinstance(event, TextureReadEvent):
        return [f"tex.1d.v4.f32.s32 %f{counter}, [tex0, %r{counter}]"]
    if isinstance(event, SyncEvent):
        return ["bar.sync 0"]
    if isinstance(event, ReconvergeEvent):
        return []  # the reconvergence stack pop has no instruction
    return [f"// unknown event {event!r}"]


def trace_kernel(
    kernel_fn,
    args: tuple,
    *,
    threads: int = 1,
    max_instructions: int = 20_000,
    device=None,
) -> KernelTrace:
    """Execute one block of ``kernel_fn`` and record thread 0's stream.

    ``kernel_fn`` may be a ``@global_`` wrapper or a raw generator
    function.  The kernel runs for real (memory is touched), so pass
    scratch arguments.
    """
    from repro.simgpu.device import SimDevice

    impl = getattr(kernel_fn, "impl", kernel_fn)
    device = device or SimDevice()
    trace = KernelTrace(kernel_name=impl.__name__)

    def wrapper(ctx, *kargs):
        if ctx.thread_idx.x == 0 and ctx.thread_idx.y == 0 and ctx.thread_idx.z == 0:
            tctx = _TracingCtx(ctx, trace)
            counter = 0
            gen = impl(tctx, *kargs)
            send = None
            started = False
            while len(trace.lines) < max_instructions:
                try:
                    event = gen.send(send) if started else next(gen)
                    started = True
                except StopIteration:
                    return
                values = []
                for k, part in enumerate(parts(event)):
                    if k and len(trace.lines) >= max_instructions:
                        return
                    trace.lines.extend(_render(part, counter))
                    counter += 1
                    values.append((yield part))
                send = (
                    tuple(values) if type(event) in LOAD3_TYPES else values[-1]
                )
        else:
            yield from impl(ctx, *kargs)

    device.launch(wrapper, 1, threads, args, strict_sync=False)
    return trace


def find_local_spills(kernel_fn, args: tuple, *, threads: int = 1) -> dict:
    """The §6.2.3 question, answered directly: which local arrays does
    this kernel spill to device memory, and how many bytes each?"""
    return trace_kernel(kernel_fn, args, threads=threads).local_arrays
