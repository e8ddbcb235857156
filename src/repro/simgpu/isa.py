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

Three kinds of event:

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
* **Multi-part events** — :class:`OpBundle` and the float3 accesses
  (:class:`GlobalRead3Event`, :class:`GlobalWrite3Event`,
  :class:`SharedRead3Event`, :class:`SharedWrite3Event`) — stand for a
  straight-line run of the events above, handed over in one ``yield``.
  A bundle is an interned tuple of interned ``OpEvent`` parts, built once
  by :func:`bundle` (usually at import, like the op constants).  A
  float3 access is a per-yield record like the scalar memory events,
  built with an ``int`` index (the ``devicelib`` float3 helpers coerce
  it); its three parts are the scalar accesses of elements ``index``,
  ``index + 1`` and ``index + 2``, and a load's ``yield`` returns the
  3-tuple of their values.  :func:`parts` lists the scalar events a
  multi-part event stands for.

Exactness rule: a thread that yields a multi-part event is accounted
exactly as if it had yielded the parts one per ``yield`` — same rounds,
same divergence and serialization, same ``InstructionProfile`` fields
(``op_counts`` key order included), same values and memory.  The warp
presents the parts one per round through a per-thread cursor, resuming
the generator only after the last part; when every lane of a round holds
the same bundle (or a float3 access of the same kind) at its start, it
executes all the parts in that round and then sits out the rounds the
parts would have taken (see :mod:`repro.simgpu.warp`).

The one contract change: in that convergent case the second and third
components of a float3 access land up to two block passes earlier than
a scalar-by-scalar kernel would place them.  Only another warp reading
or writing the same words between two barriers could tell — a
cross-warp race, which CUDA leaves undefined.  Within a warp, and across
warps separated by ``__syncthreads()``, nothing moves.

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


class OpBundle(tuple):
    """A straight-line run of interned :class:`OpEvent` parts, yielded as
    one event (build with :func:`bundle`; see the module docstring).

    Besides the parts themselves it carries what the executor's
    convergent path needs, precomputed once: ``classes``, the set of
    instruction classes in the run, and ``totals``, each class's summed
    count in first-use order.
    """

    classes: frozenset
    totals: "tuple[tuple[OpClass, int], ...]"


class _Access3:
    """A float3 access: three scalar accesses of consecutive elements
    starting at the coerced element ``index`` (a per-yield record, like
    the scalar memory events).  ``scalar`` is the event type of a part."""

    __slots__ = ("array", "index")
    scalar: type

    def __init__(self, array, index: int) -> None:
        self.array = array
        self.index = index

    def parts(self) -> tuple:
        """The three scalar accesses this event stands for, in order."""
        scalar, array, index = self.scalar, self.array, self.index
        return (
            scalar(array, index),
            scalar(array, index + 1),
            scalar(array, index + 2),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(array={self.array!r}, index={self.index!r})"


class _Store3(_Access3):
    """A float3 store: ``value`` is the 3-tuple written."""

    __slots__ = ("value",)

    def __init__(self, array, index: int, value) -> None:
        self.array = array
        self.index = index
        self.value = value

    def parts(self) -> tuple:
        scalar, array, index, value = self.scalar, self.array, self.index, self.value
        return (
            scalar(array, index, value[0]),
            scalar(array, index + 1, value[1]),
            scalar(array, index + 2, value[2]),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(array={self.array!r}, "
            f"index={self.index!r}, value={self.value!r})"
        )


class GlobalRead3Event(_Access3):
    """Three global loads of consecutive elements; ``yield`` returns the
    3-tuple (the G80's float3 load, which issues three 32-bit loads)."""

    __slots__ = ()
    scalar = GlobalReadEvent


class GlobalWrite3Event(_Store3):
    """Three global stores of consecutive elements."""

    __slots__ = ()
    scalar = GlobalWriteEvent


class SharedRead3Event(_Access3):
    """Three shared-memory loads of consecutive elements; ``yield``
    returns the 3-tuple."""

    __slots__ = ()
    scalar = SharedReadEvent


class SharedWrite3Event(_Store3):
    """Three shared-memory stores of consecutive elements."""

    __slots__ = ()
    scalar = SharedWriteEvent


#: The float3 access types (the executor's width-3 forms).
ACCESS3_TYPES = (
    GlobalRead3Event,
    GlobalWrite3Event,
    SharedRead3Event,
    SharedWrite3Event,
)

#: Multi-part event types whose load parts return values, gathered into
#: the tuple the generator receives.
LOAD3_TYPES = (GlobalRead3Event, SharedRead3Event)


Event = (
    OpEvent
    | OpBundle
    | GlobalRead3Event
    | GlobalWrite3Event
    | SharedRead3Event
    | SharedWrite3Event
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


_BUNDLES: "dict[tuple[int, ...], OpBundle]" = {}


def bundle(*ops: "OpEvent | OpBundle") -> OpBundle:
    """The interned bundle of the given ops, in order (nested bundles are
    flattened; each part is replaced by its interned :func:`op` twin).

    Equal runs return the same object, so lanes that reach one run
    through different helpers still issue "the same instruction".
    """
    parts: list[OpEvent] = []
    for item in ops:
        if isinstance(item, OpBundle):
            parts.extend(item)
        elif isinstance(item, OpEvent):
            parts.append(op(item.op, item.count))
        else:
            raise TypeError(f"bundle parts must be OpEvents, got {item!r}")
    if not parts:
        raise ValueError("a bundle needs at least one op")
    key = tuple(id(part) for part in parts)
    run = _BUNDLES.get(key)
    if run is None:
        run = _BUNDLES[key] = OpBundle(parts)
        run.classes = frozenset(part.op for part in parts)
        totals: "dict[OpClass, int]" = {}
        for part in parts:
            totals[part.op] = totals.get(part.op, 0) + part.count
        run.totals = tuple(totals.items())
    return run


def parts(event: Event) -> tuple:
    """The single-part events a multi-part event stands for, in issue
    order; ``(event,)`` for any other event."""
    if type(event) is OpBundle:
        return event
    if isinstance(event, _Access3):
        return event.parts()
    return (event,)


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
