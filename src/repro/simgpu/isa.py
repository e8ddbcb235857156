"""Instruction events — the contract between kernels and the warp executor.

Simulated kernels are Python *generator functions*.  Each thread of a launch
runs one generator; every ``yield`` hands the executor one instruction event
(an arithmetic op, a memory access, or a barrier).  The executor runs all
threads of a warp in lockstep, detects control-flow divergence by comparing
the events the threads yielded, performs the memory accesses, accounts the
Table 2.2 cycle costs, and ``send``\\ s load results back into the
generators.

A kernel therefore looks like ordinary code with ``yield`` at the points
where the hardware would execute an instruction::

    def saxpy(ctx, a, x, y, out):
        i = ctx.global_thread_id
        if i < len(x):
            xi = yield ld(x, i)
            yi = yield ld(y, i)
            yield op(OpClass.FMAD)
            yield st(out, i, a * xi + yi)

Composite helpers for 3-vector math used heavily by the Boids kernels live
in :mod:`repro.simgpu.devicelib`.

Two kinds of event, two lifetimes:

* **Instruction events** — :class:`OpEvent`, :class:`SyncEvent` and
  :class:`ReconvergeEvent` — carry no per-thread payload.  They are
  frozen and interned: :func:`op` returns one shared ``OpEvent`` per
  ``(class, count)``, and :func:`sync`/:func:`reconv` return singletons.
  The executor compares them by identity as its fast "same instruction"
  test.  Because an interned event never changes, a kernel or helper
  library may build the ones it issues once, as module constants
  (``devicelib.FADD3``, ``devicelib.COMPARE``, ...), and yield those
  instead of calling :func:`op` per instruction.
* **Memory events** — the ``*ReadEvent``/``*WriteEvent`` classes — carry
  an array, an element index and, for stores, a value.  They are
  per-yield ``__slots__`` records: :func:`ld`, :func:`st`, :func:`lds`,
  :func:`sts`, :func:`ldc` and :func:`ldt` build a fresh one for every
  ``yield`` (coercing the index with ``int()``), and the executor reads
  it in the round it was yielded and never again.  They are never shared,
  compared or mutated after the ``yield``; the divergence test looks only
  at their type (:func:`signature`).  A helper that builds one directly
  must pass an index it has already coerced to ``int``.

Kernels must never rely on event identity or equality themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simgpu.costs import OpClass
from repro.simgpu.memory import DeviceArrayView, SharedArrayView


@dataclass(frozen=True)
class OpEvent:
    """``count`` back-to-back arithmetic instructions of one class."""

    op: OpClass
    count: int = 1


class _MemoryEvent:
    """A per-yield memory-access record: ``(array, index)`` plus, for a
    store, the ``value``.

    Memory events are never shared or compared: :func:`ld` and friends
    build a fresh one per ``yield`` and the executor consumes it in the
    same round.  That makes a plain ``__slots__`` record enough — it costs
    one ordinary ``__init__``, where a frozen dataclass pays an
    ``object.__setattr__`` per field.
    """

    __slots__ = ("array", "index")

    def __init__(self, array, index: int) -> None:
        self.array = array
        self.index = index

    def __repr__(self) -> str:
        return f"{type(self).__name__}(array={self.array!r}, index={self.index!r})"


class _StoreEvent(_MemoryEvent):
    """A memory event that carries the stored ``value``."""

    __slots__ = ("value",)

    def __init__(self, array, index: int, value: object) -> None:
        self.array = array
        self.index = index
        self.value = value

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(array={self.array!r}, "
            f"index={self.index!r}, value={self.value!r})"
        )


class GlobalReadEvent(_MemoryEvent):
    """Read element ``index`` of a global-memory array
    (:class:`~repro.simgpu.memory.DeviceArrayView`); the executor sends
    the value back into the generator."""

    __slots__ = ()


class GlobalWriteEvent(_StoreEvent):
    """Write ``value`` to element ``index`` of a global-memory array.

    Fire-and-forget (§2.3): costs only the issue slot.
    """

    __slots__ = ()


class SharedReadEvent(_MemoryEvent):
    """Read element ``index`` of a shared-memory array
    (:class:`~repro.simgpu.memory.SharedArrayView`)."""

    __slots__ = ()


class SharedWriteEvent(_StoreEvent):
    """Write ``value`` to element ``index`` of a shared-memory array."""

    __slots__ = ()


class ConstantReadEvent(_MemoryEvent):
    """Read element ``index`` of a ``__constant__`` symbol
    (a ``ConstantArrayView``).

    Broadcast semantics: one issue serves a warp reading a single
    address; distinct addresses serialize (see
    :mod:`repro.simgpu.caches`).
    """

    __slots__ = ()


class TextureReadEvent(_MemoryEvent):
    """1D texture fetch (``tex1Dfetch``) of element ``index`` through a
    bound texture reference.

    The reference travels in the ``array`` slot; ``texref`` names it.
    """

    __slots__ = ()

    @property
    def texref(self) -> object:
        """The bound ``TextureReference`` being fetched through."""
        return self.array


@dataclass(frozen=True)
class SyncEvent:
    """``__syncthreads()`` — block-wide barrier (§3.1.4)."""


@dataclass(frozen=True)
class ReconvergeEvent:
    """A warp reconvergence point (branch post-dominator).

    Real SIMT hardware re-joins diverged threads at the immediate
    post-dominator of the branch; generator kernels mark those points
    explicitly (typically the bottom of a loop body).  Costs nothing —
    it models where the hardware's reconvergence stack pops.
    """


Event = (
    OpEvent
    | GlobalReadEvent
    | GlobalWriteEvent
    | SharedReadEvent
    | SharedWriteEvent
    | ConstantReadEvent
    | TextureReadEvent
    | SyncEvent
    | ReconvergeEvent
)


# ----------------------------------------------------------------------
# Convenience constructors (keep kernel bodies readable)
#
# The payload-free events are shared: ``op`` interns one OpEvent per
# (class, count) and ``sync``/``reconv`` return module singletons.  Memory
# events are built fresh per call (see the module docstring).
# ----------------------------------------------------------------------
_OPS: "dict[tuple[int, int], OpEvent]" = {}
_SYNC = SyncEvent()
_RECONV = ReconvergeEvent()


def op(op_class: OpClass, count: int = 1) -> OpEvent:
    """An arithmetic instruction event of the given class (interned)."""
    # Keyed on the member's id so a hit never runs Enum.__hash__.
    key = (id(op_class), count)
    event = _OPS.get(key)
    if event is None:
        event = _OPS[key] = OpEvent(op_class, count)
    return event


def ld(array: DeviceArrayView, index: int) -> GlobalReadEvent:
    """A global-memory load event; ``yield`` returns the element."""
    return GlobalReadEvent(array, int(index))


def st(array: DeviceArrayView, index: int, value: object) -> GlobalWriteEvent:
    """A global-memory store event."""
    return GlobalWriteEvent(array, int(index), value)


def lds(array: SharedArrayView, index: int) -> SharedReadEvent:
    """A shared-memory load event; ``yield`` returns the element."""
    return SharedReadEvent(array, int(index))


def sts(array: SharedArrayView, index: int, value: object) -> SharedWriteEvent:
    """A shared-memory store event."""
    return SharedWriteEvent(array, int(index), value)


def ldc(array: object, index: int) -> ConstantReadEvent:
    """A constant-memory load event; ``yield`` returns the element."""
    return ConstantReadEvent(array, int(index))


def ldt(texref: object, index: int) -> TextureReadEvent:
    """A texture fetch event; ``yield`` returns the element."""
    return TextureReadEvent(texref, int(index))


def sync() -> SyncEvent:
    """A ``__syncthreads()`` barrier event (a shared instance)."""
    return _SYNC


def reconv() -> ReconvergeEvent:
    """A warp reconvergence point (free; see :class:`ReconvergeEvent`)."""
    return _RECONV


#: Signature of every event type whose signature ignores its fields,
#: in the order :func:`signature` tries them for subclasses.
TYPE_SIGNATURES: "dict[type, tuple]" = {
    GlobalReadEvent: ("gld",),
    GlobalWriteEvent: ("gst",),
    SharedReadEvent: ("slds",),
    SharedWriteEvent: ("ssts",),
    ConstantReadEvent: ("ldc",),
    TextureReadEvent: ("ldt",),
    SyncEvent: ("sync",),
    ReconvergeEvent: ("reconv",),
}


def signature(event: Event) -> tuple:
    """Divergence signature of an event.

    Two threads of a warp execute "the same instruction" iff their events
    have equal signatures; differing signatures in one lockstep round mean
    the warp diverged and the executor serializes the groups (§2.3).
    Operand *values* never contribute — only what instruction is executed.
    """
    sig = TYPE_SIGNATURES.get(type(event))
    if sig is not None:
        return sig
    if isinstance(event, OpEvent):
        return ("op", event.op, event.count)
    for cls, sig in TYPE_SIGNATURES.items():
        if isinstance(event, cls):
            return sig
    raise TypeError(f"kernel yielded a non-event object: {event!r}")
