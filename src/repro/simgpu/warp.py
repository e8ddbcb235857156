"""Warp-lockstep execution with SIMD divergence serialization.

A warp advances all of its runnable threads one instruction event per
*round*.  Events are grouped by :func:`repro.simgpu.isa.signature`; one
group means the warp executed the instruction in lockstep, more than one
means the control flow diverged and the hardware serializes the groups
(§2.3: "the different execution paths are then executed one after
another").  Every serialized group pays the full warp issue cost, which is
exactly how divergence loses performance on the real part.

Most rounds do not diverge, so the fetch loop notes whether every lane
issued the same instruction — the same interned ``OpEvent``, or the same
type of an event whose signature ignores its fields — and such a round is
executed as one group without computing a single signature.  The
accounting is identical either way; only divergent rounds pay for the
grouping.

A lane may hand over a whole straight-line run in one ``yield`` — an
:class:`~repro.simgpu.isa.OpBundle` or a float3 access (see
:mod:`repro.simgpu.isa`) — and is accounted exactly as if it had yielded
the run's parts one per round:

* *Convergent round.*  When every fetched lane holds the same bundle, or
  a float3 access of the same kind, at its start, the warp executes all
  the parts in that round — each float3 component with its own
  coalescing, bank-conflict, bounds and broadcast analysis — and is then
  *busy* for the next ``k - 1`` calls of :meth:`Warp.step_round`, which
  return at their first branch.  The block's interleaving and its number
  of ``step_round`` calls are those of the part-by-part run.  A bundle
  part whose instruction class the profile has not counted yet stops the
  run there (its lanes continue part by part), so ``op_counts`` keeps its
  first-use key order.
* *Any other round.*  A lane holding a multi-part event presents part 0
  as an ordinary event and keeps a cursor; it presents the rest one per
  round, a load gathers its values, and the generator resumes only after
  the last part.

Global-memory accesses inside a round go through a CUDA-1.0-style
coalescing analysis per half-warp: thread ``k`` must read the ``k``-th
consecutive aligned word for the half-warp to merge into one transaction;
anything else — including all threads reading the *same* address, which is
what the naive Boids neighbor search does — issues one transaction per
thread.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.common.errors import ReproError
from repro.simgpu.costs import OpClass
from repro.simgpu.isa import (
    ACCESS3_TYPES,
    LOAD3_TYPES,
    TYPE_SIGNATURES,
    ConstantReadEvent,
    Event,
    GlobalRead3Event,
    GlobalReadEvent,
    GlobalWrite3Event,
    GlobalWriteEvent,
    OpBundle,
    OpEvent,
    ReconvergeEvent,
    SharedRead3Event,
    SharedReadEvent,
    SharedWrite3Event,
    SharedWriteEvent,
    SyncEvent,
    TextureReadEvent,
    signature,
)
from repro.simgpu.memory import InvalidDeviceAccess, SharedArrayView
from repro.simgpu.profile import InstructionProfile

#: Half-warp size used by the CC 1.0 coalescing rules.
HALF_WARP = 16

#: Minimum device-memory transaction size in bytes (uncoalesced accesses
#: still move a full 32-byte segment on G80).
MIN_TRANSACTION_BYTES = 32

#: Word sizes the coalescer can merge (32-, 64-, 128-bit accesses).
COALESCABLE_ITEMSIZES = (4, 8, 16)

#: Shared-memory banks on the G80 (32-bit words, round-robin).
SHARED_BANKS = 16


class KernelFault(ReproError):
    """A kernel thread raised or yielded something invalid."""


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    AT_SYNC = "at_sync"
    AT_RECONV = "at_reconv"  # parked at a warp reconvergence point
    DONE = "done"


_RUNNABLE = ThreadState.RUNNABLE
_AT_SYNC = ThreadState.AT_SYNC
_AT_RECONV = ThreadState.AT_RECONV
_DONE = ThreadState.DONE

#: Event types a round converges on by type alone (their signature
#: ignores their fields): the scalar kinds and the float3 accesses.
_SAME_BY_TYPE = frozenset(TYPE_SIGNATURES) | frozenset(ACCESS3_TYPES)
#: Multi-part event types, split into parts when lanes disagree.
_MULTI_PART = frozenset(ACCESS3_TYPES) | {OpBundle}
_LOAD3 = frozenset(LOAD3_TYPES)
#: "No event fetched yet" in the fetch loop (no event is this object).
_NOTHING = object()


@dataclass(slots=True)
class Thread:
    """One device thread: a generator plus its lockstep bookkeeping."""

    lane: int  # flat index within the block
    gen: Generator[Event, object, None]
    state: ThreadState = ThreadState.RUNNABLE
    send_value: object = None  # value to send into the generator next step
    pending: Event | None = None  # event presented in the current round
    #: What the fetch loop calls every round: ``gen.send``, bound once —
    #: or, while the lane presents a multi-part event part by part, its
    #: :class:`_Cursor`'s ``send``.
    send: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.send = self.gen.send


class _Cursor:
    """Presents the rest of a lane's multi-part event one part per round.

    Installed as the lane's ``send`` while the run lasts, so the fetch
    loop treats the lane like any other.  A load's part values (sent to
    the cursor as to a generator) are gathered; once the parts are spent
    the lane's ``send`` is the generator's again, and the generator
    resumes with the gathered tuple (None for any other run).
    """

    __slots__ = ("thread", "run", "index", "gathered")

    def __init__(self, thread: Thread, run: tuple, index: int, gathered) -> None:
        self.thread = thread
        self.run = run
        self.index = index
        self.gathered = gathered
        thread.send = self.send

    def send(self, value: object) -> Event:
        gathered = self.gathered
        if gathered is not None:
            gathered.append(value)
        run, index = self.run, self.index
        if index < len(run):
            self.index = index + 1
            return run[index]
        t = self.thread
        t.send = send = t.gen.send
        return send(None if gathered is None else tuple(gathered))


def _start_run(t: Thread) -> Event:
    """Split a lane's fresh multi-part event: present part 0 this round
    and leave the rest to a :class:`_Cursor`."""
    event = t.pending
    if type(event) is OpBundle:
        _Cursor(t, event, 1, None)
        part = event[0]
    else:
        run = event.parts()
        _Cursor(t, run, 1, [] if type(event) in _LOAD3 else None)
        part = run[0]
    t.pending = part
    return part


def _shared_index(array: SharedArrayView, index: int) -> int:
    """Bounds-check a shared-memory element index, like ``addr_of`` does
    for global memory (no negative wrap-around, no raw IndexError)."""
    if not 0 <= index < len(array.data):
        raise InvalidDeviceAccess(
            f"index {index} out of bounds for SharedArrayView of "
            f"{len(array.data)} elements"
        )
    return index


def _broadcast(members: list[Thread]) -> bool:
    """True when every member accesses one identical (array, index)."""
    first = members[0].pending
    array, index = first.array, first.index
    for t in members:
        ev = t.pending
        if ev.index != index or ev.array is not array:
            return False
    return True


class Warp:
    """A SIMD group of up to ``warp_size`` threads executed in lockstep.

    ``threads`` must be in ascending lane order (a block's warps are
    consecutive slices of its threads): the coalescer and the divergent
    grouping rely on it instead of sorting.
    """

    def __init__(
        self,
        threads: list[Thread],
        warp_size: int,
        caches: "dict[str, object] | None" = None,
    ) -> None:
        if len(threads) > warp_size:
            raise KernelFault(
                f"warp constructed with {len(threads)} > {warp_size} threads"
            )
        self.threads = threads
        self.warp_size = warp_size
        #: Read-only cache simulators shared across the block's warps
        #: ("constant"/"texture" -> CacheSim), or None when absent.
        self.caches = caches or {}
        #: Set when a thread of this warp arrived at a barrier or exited
        #: — the only rounds after which its block can stall.  The block
        #: clears it when it checks (see ThreadBlock.run).
        self.stopped = False
        #: Rounds still taken by the later parts of a multi-part event
        #: that a convergent round executed whole (see the module
        #: docstring); ``step_round`` counts them down.
        self.busy = 0

    # ------------------------------------------------------------------
    @property
    def live_threads(self) -> list[Thread]:
        return [t for t in self.threads if t.state is not _DONE]

    @property
    def done(self) -> bool:
        return not self.live_threads

    # ------------------------------------------------------------------
    def step_round(self, profile: InstructionProfile) -> bool:
        """Advance every runnable thread one event and execute the events.

        Returns True if any thread made progress.  Threads that yield a
        :class:`SyncEvent` transition to AT_SYNC and stay parked until the
        block releases the barrier.
        """
        if self.busy:
            # A later part of a multi-part event this warp executed whole.
            self.busy -= 1
            return True
        # 1. Fetch: advance each runnable generator to its next event (or
        #    a lane inside a run to its next part), noting on the way
        #    whether every lane issued the same one — the same interned
        #    OpEvent or OpBundle, or the same type of an event whose
        #    signature ignores its fields.
        fetched: list[Thread] = []
        append = fetched.append
        runnable = _RUNNABLE
        finished = False
        convergent = True
        first = _NOTHING
        by_type = None
        for t in self.threads:
            if t.state is not runnable:
                continue
            try:
                # A fresh thread's send_value is None, so send() starts
                # its generator exactly as next() would.
                ev = t.send(t.send_value)
            except StopIteration:
                t.state = _DONE
                self.stopped = finished = True
                continue
            except Exception as exc:  # surface kernel bugs loudly
                raise KernelFault(
                    f"thread {t.lane} raised {type(exc).__name__}: {exc}"
                ) from exc
            t.send_value = None
            t.pending = ev
            if ev is not first:
                if first is _NOTHING:
                    first = ev
                    by_type = type(ev) if type(ev) in _SAME_BY_TYPE else None
                elif type(ev) is not by_type:
                    convergent = False
            append(t)
        if not fetched:
            if finished:
                return True  # every runnable thread just finished
            # Reconvergence: the warp re-joins once no thread can advance
            # past the marker — diverged paths have all caught up.
            return self._rejoin()

        # 2. Convergent round: one group, no signatures needed.  An
        #    arithmetic op only needs counting, so it is counted here.  A
        #    lane inside a run presents a single part, so a multi-part
        #    event here is one every lane holds at its start.
        if convergent:
            kind = type(first)
            if kind is OpEvent:
                profile.op_counts[first.op] += first.count
            elif kind is OpBundle:
                self._execute_bundle(fetched, first, profile)
            elif kind in _MULTI_PART:
                _ACCESS3_EXECUTORS[kind](self, fetched, profile)
                self.busy = 2
            elif kind is ReconvergeEvent:
                # Every runnable lane reached the marker, so the next
                # round can advance no lane and re-joins the warp: re-join
                # now (lanes parked earlier too) and sit that round out.
                if len(fetched) != len(self.threads):
                    self._rejoin()
                self.busy = 1
            else:
                self._execute_group(fetched, profile)
            return True

        # 3. Divergent round: split fresh multi-part events into parts,
        #    group by signature in first-lane order (dict insertion order,
        #    as ``fetched`` is in lane order) and execute the groups
        #    serialized; each pays a full warp issue.
        groups: dict[tuple, list[Thread]] = {}
        for t in fetched:
            ev = t.pending
            if type(ev) in _MULTI_PART:
                ev = _start_run(t)
            try:
                sig = signature(ev)
            except TypeError:
                raise KernelFault(
                    f"thread {t.lane} yielded a non-event: {t.pending!r}"
                ) from None
            groups.setdefault(sig, []).append(t)
        if len(groups) > 1:
            profile.divergent_rounds += 1
            profile.serialized_groups += len(groups) - 1
        for members in groups.values():
            self._execute_group(members, profile)
        return True

    def _rejoin(self) -> bool:
        """Make every lane parked at a reconvergence point runnable;
        True if there was one."""
        parked = False
        for t in self.threads:
            if t.state is _AT_RECONV:
                t.state = _RUNNABLE
                parked = True
        return parked

    # ------------------------------------------------------------------
    def _execute_bundle(
        self, members: list[Thread], run: OpBundle, profile: InstructionProfile
    ) -> None:
        """Count a bundle every lane holds at its start, then sit out the
        rounds of its later parts.

        When every class in the run has been counted before, the counts
        land in one pass over ``run.totals``.  Otherwise the parts are
        counted in order up to the first later part of a class not yet
        counted; that part and the rest are left to the lanes' cursors,
        so a first use is counted in its own round and ``op_counts``
        keeps its key order.
        """
        counts = profile.op_counts
        if run.classes <= counts.keys():
            for op, n in run.totals:
                counts[op] += n
            self.busy = len(run) - 1
            return
        counts[run[0].op] += run[0].count
        for k in range(1, len(run)):
            part = run[k]
            if part.op not in counts:
                for t in members:
                    _Cursor(t, run, k, None)
                self.busy = k - 1
                return
            counts[part.op] += part.count
        self.busy = len(run) - 1

    def _global_reads3(
        self, members: list[Thread], profile: InstructionProfile
    ) -> None:
        """A convergent float3 global load: three reads, each coalesced
        on its own; each lane receives its 3-tuple."""
        for c in range(3):
            profile.count(OpClass.GLOBAL_READ)
            self._coalesce(members, profile, is_read=True, offset=c)
        raws: dict = {}
        for t in members:
            ev: GlobalRead3Event = t.pending  # type: ignore[assignment]
            raw = raws.get(ev.array)
            if raw is None:
                raw = raws[ev.array] = ev.array._raw()
            i = ev.index
            t.send_value = (raw.item(i), raw.item(i + 1), raw.item(i + 2))

    def _global_writes3(
        self, members: list[Thread], profile: InstructionProfile
    ) -> None:
        """A convergent float3 global store: three writes, each coalesced
        on its own and landing in lane order before the next."""
        raws: dict = {}
        for c in range(3):
            profile.count(OpClass.GLOBAL_WRITE)
            self._coalesce(members, profile, is_read=False, offset=c)
            for t in members:
                ev: GlobalWrite3Event = t.pending  # type: ignore[assignment]
                raw = raws.get(ev.array)
                if raw is None:
                    raw = raws[ev.array] = ev.array._raw()
                raw[ev.index + c] = ev.value[c]

    def _shared_reads3(
        self, members: list[Thread], profile: InstructionProfile
    ) -> None:
        """A convergent float3 shared load: three reads, each with its own
        broadcast and bank-conflict analysis."""
        first: SharedRead3Event = members[0].pending  # type: ignore[assignment]
        if _broadcast(members):
            # One float3 for the whole warp: three conflict-free reads.
            array, i = first.array, first.index
            data = array.data
            value = (
                data.item(_shared_index(array, i)),
                data.item(_shared_index(array, i + 1)),
                data.item(_shared_index(array, i + 2)),
            )
            profile.count(OpClass.SHARED_READ, 3)
            for t in members:
                t.send_value = value
            return
        for c in range(3):
            self._count_shared(members, profile, OpClass.SHARED_READ, c)
        for t in members:
            ev: SharedRead3Event = t.pending  # type: ignore[assignment]
            array, i = ev.array, ev.index
            data = array.data
            t.send_value = (
                data.item(_shared_index(array, i)),
                data.item(_shared_index(array, i + 1)),
                data.item(_shared_index(array, i + 2)),
            )

    def _shared_writes3(
        self, members: list[Thread], profile: InstructionProfile
    ) -> None:
        """A convergent float3 shared store: three writes, each with its
        own bank-conflict analysis and landing before the next."""
        for c in range(3):
            self._count_shared(members, profile, OpClass.SHARED_WRITE, c)
            for t in members:
                ev: SharedWrite3Event = t.pending  # type: ignore[assignment]
                ev.array.data[_shared_index(ev.array, ev.index + c)] = ev.value[c]

    # ------------------------------------------------------------------
    def _execute_group(
        self, members: list[Thread], profile: InstructionProfile
    ) -> None:
        event = members[0].pending
        if isinstance(event, OpEvent):
            profile.count(event.op, event.count)
        elif isinstance(event, GlobalReadEvent):
            profile.count(OpClass.GLOBAL_READ)
            self._coalesce(members, profile, is_read=True)
            raws: dict = {}
            for t in members:
                ev: GlobalReadEvent = t.pending  # type: ignore[assignment]
                raw = raws.get(ev.array)
                if raw is None:
                    raw = raws[ev.array] = ev.array._raw()
                t.send_value = raw.item(ev.index)
        elif isinstance(event, GlobalWriteEvent):
            profile.count(OpClass.GLOBAL_WRITE)
            self._coalesce(members, profile, is_read=False)
            raws = {}
            for t in members:
                ev: GlobalWriteEvent = t.pending  # type: ignore[assignment]
                raw = raws.get(ev.array)
                if raw is None:
                    raw = raws[ev.array] = ev.array._raw()
                raw[ev.index] = ev.value
        elif isinstance(event, SharedReadEvent):
            if _broadcast(members):
                # One word for the whole warp: no bank conflict (degree 1).
                profile.count(OpClass.SHARED_READ)
                array = event.array
                value = array.data.item(_shared_index(array, event.index))
                for t in members:
                    t.send_value = value
            else:
                self._count_shared(members, profile, OpClass.SHARED_READ)
                for t in members:
                    ev: SharedReadEvent = t.pending  # type: ignore[assignment]
                    index = _shared_index(ev.array, ev.index)
                    t.send_value = ev.array.data.item(index)
        elif isinstance(event, SharedWriteEvent):
            self._count_shared(members, profile, OpClass.SHARED_WRITE)
            for t in members:
                ev: SharedWriteEvent = t.pending  # type: ignore[assignment]
                ev.array.data[_shared_index(ev.array, ev.index)] = ev.value
        elif isinstance(event, ConstantReadEvent):
            self._execute_constant_reads(members, profile)
        elif isinstance(event, TextureReadEvent):
            self._execute_texture_reads(members, profile)
        elif isinstance(event, SyncEvent):
            profile.count(OpClass.SYNC)
            profile.sync_count += 1
            for t in members:
                t.state = _AT_SYNC
            self.stopped = True
        elif isinstance(event, ReconvergeEvent):
            # Free: reconvergence is the branch stack popping, not an
            # issued instruction.
            for t in members:
                t.state = _AT_RECONV
        else:
            raise KernelFault(
                f"thread {members[0].lane} yielded a non-event: {event!r}"
            )

    def _count_shared(
        self,
        members: list[Thread],
        profile: InstructionProfile,
        op: OpClass,
        offset: int = 0,
    ) -> None:
        """Count a shared access at its bank-conflict degree (of element
        ``index + offset`` of each lane's event)."""
        degree = self._shared_conflict_degree(members, offset)
        profile.count(op, degree)
        profile.shared_bank_conflicts += degree - 1

    # ------------------------------------------------------------------
    def _shared_conflict_degree(
        self, members: list[Thread], offset: int = 0
    ) -> int:
        """Shared-memory bank conflicts (the "≥" in Table 2.2's ">= 4").

        The G80's shared memory has 16 banks of 32-bit words; a half-warp
        whose threads hit the same bank with *different* addresses
        serializes, multiplying the access cost by the conflict degree.
        All threads reading one identical address broadcast for free.
        Returns the worst half-warp's degree (>= 1).
        """
        worst = 1
        by_half: dict[int, list[Thread]] = {}
        for t in members:
            by_half.setdefault(
                (t.lane % self.warp_size) // HALF_WARP, []
            ).append(t)
        for group in by_half.values():
            banks: dict[int, set[int]] = {}
            for t in group:
                ev = t.pending
                word = (
                    (ev.index + offset) * ev.array.data.dtype.itemsize
                ) // 4  # 32-bit word address
                banks.setdefault(word % SHARED_BANKS, set()).add(word)
            degree = max(
                (len(words) for words in banks.values()), default=1
            )
            worst = max(worst, degree)
        return worst

    # ------------------------------------------------------------------
    def _execute_constant_reads(
        self, members: list[Thread], profile: InstructionProfile
    ) -> None:
        """Constant reads broadcast: one issue per *distinct address* in
        the group; first touch of a cache line is a device-memory miss."""
        cache = self.caches.get("constant")
        addresses: dict[int, None] = {}
        for t in members:
            ev: ConstantReadEvent = t.pending  # type: ignore[assignment]
            addresses[ev.array.addr_of(ev.index)] = None
            t.send_value = ev.array._raw()[ev.index].item()
        profile.count(OpClass.CONSTANT_READ, len(addresses))
        for addr in addresses:
            if cache is not None and not cache.access(addr):
                profile.constant_misses += 1
                profile.global_read_transactions += 1
                profile.bytes_read += MIN_TRANSACTION_BYTES
            else:
                profile.constant_hits += 1

    def _execute_texture_reads(
        self, members: list[Thread], profile: InstructionProfile
    ) -> None:
        """Texture fetches: per-thread addressing, cached in lines; each
        missed line is one device-memory transaction."""
        cache = self.caches.get("texture")
        profile.count(OpClass.TEXTURE_READ)
        for t in members:
            ev: TextureReadEvent = t.pending  # type: ignore[assignment]
            addr = ev.texref.addr_of(ev.index)
            t.send_value = ev.texref._raw()[ev.index].item()
            if cache is not None and not cache.access(addr):
                profile.texture_misses += 1
                profile.global_read_transactions += 1
                profile.bytes_read += MIN_TRANSACTION_BYTES
            else:
                profile.texture_hits += 1

    # ------------------------------------------------------------------
    def _coalesce(
        self,
        members: list[Thread],
        profile: InstructionProfile,
        *,
        is_read: bool,
        offset: int = 0,
    ) -> None:
        """CC 1.0 coalescing per half-warp (of element ``index + offset``
        of each lane's event).

        Coalesced: every active thread ``k`` (in lane order) accesses
        ``base + k * itemsize`` with ``itemsize`` in {4, 8, 16} and
        ``base`` aligned to ``HALF_WARP * itemsize``.  Then the half-warp
        issues one transaction.  Otherwise each active thread issues its
        own >= 32-byte transaction — the G80 has no cache to merge them.
        """
        # Members arrive in lane order, so each half-warp's accesses do
        # too, and a warp's lanes reach each half in one stretch.  An
        # access is (lane within the half-warp, address, size); the
        # address is ``addr_of``'s, computed inline per array.
        warp_size = self.warp_size
        halves: "dict[int, list[tuple[int, int, int]]]" = {}
        half = group = array = None
        uniform = True  # every access is to one array, so of one size
        for t in members:
            ev = t.pending
            if ev.array is not array:
                if array is not None:
                    uniform = False
                array = ev.array
                start, count = array.ptr.addr, array.count
                size = array.dtype.itemsize
            index = ev.index + offset
            if not 0 <= index < count:
                array.addr_of(index)  # raises InvalidDeviceAccess
            lane = t.lane % warp_size
            if lane // HALF_WARP != half:
                half = lane // HALF_WARP
                group = halves.setdefault(half, [])
            group.append((lane % HALF_WARP, start + index * size, size))
        for group in halves.values():
            lane0, addr0, size0 = group[0]
            base = addr0 - lane0 * size0
            coalesced = (
                size0 in COALESCABLE_ITEMSIZES
                and base % (HALF_WARP * size0) == 0
            )
            if uniform:
                # One size: the sums are products, and the check can stop
                # at the first misplaced access.
                payload = len(group) * size0
                moved = len(group) * max(size0, MIN_TRANSACTION_BYTES)
                if coalesced:
                    for lane, addr, _size in group:
                        if addr != base + lane * size0:
                            coalesced = False
                            break
            else:
                payload = moved = 0
                for lane, addr, size in group:
                    payload += size
                    moved += max(size, MIN_TRANSACTION_BYTES)
                    if coalesced and (
                        size != size0 or addr != base + lane * size
                    ):
                        coalesced = False
            if coalesced:
                transactions = 1
                moved = max(payload, MIN_TRANSACTION_BYTES)
                profile.coalesced_transactions += 1
            else:
                transactions = len(group)
                profile.uncoalesced_transactions += transactions
                profile.uncoalesced_groups += 1
                profile.uncoalesced_bytes += moved
                if is_read:
                    profile.uncoalesced_read_transactions += transactions
                    profile.uncoalesced_read_groups += 1
                    profile.uncoalesced_read_bytes += moved
            if is_read:
                profile.global_read_transactions += transactions
                profile.bytes_read += moved
            else:
                profile.global_write_transactions += transactions
                profile.bytes_written += moved


#: The convergent executor of each float3 access type.
_ACCESS3_EXECUTORS = {
    GlobalRead3Event: Warp._global_reads3,
    GlobalWrite3Event: Warp._global_writes3,
    SharedRead3Event: Warp._shared_reads3,
    SharedWrite3Event: Warp._shared_writes3,
}
