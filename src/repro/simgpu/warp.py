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
    TYPE_SIGNATURES,
    ConstantReadEvent,
    Event,
    GlobalReadEvent,
    GlobalWriteEvent,
    OpEvent,
    ReconvergeEvent,
    SharedReadEvent,
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


@dataclass(slots=True)
class Thread:
    """One device thread: a generator plus its lockstep bookkeeping."""

    lane: int  # flat index within the block
    gen: Generator[Event, object, None]
    state: ThreadState = ThreadState.RUNNABLE
    send_value: object = None  # value to send into the generator next step
    pending: Event | None = None  # event yielded in the current round
    #: ``gen.send``, bound once: the fetch loop calls it every round.
    send: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.send = self.gen.send


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
        # 1. Fetch: advance each runnable generator to its next event,
        #    noting on the way whether every lane issued the same one —
        #    the same interned OpEvent, or the same type of an event whose
        #    signature ignores its fields.
        fetched: list[Thread] = []
        ran = False
        convergent = True
        first = by_type = None
        for t in self.threads:
            if t.state is not _RUNNABLE:
                continue
            ran = True
            try:
                # A fresh thread's send_value is None, so send() starts
                # its generator exactly as next() would.
                ev = t.send(t.send_value)
            except StopIteration:
                t.state = _DONE
                self.stopped = True
                continue
            except Exception as exc:  # surface kernel bugs loudly
                raise KernelFault(
                    f"thread {t.lane} raised {type(exc).__name__}: {exc}"
                ) from exc
            t.send_value = None
            t.pending = ev
            if not fetched:
                first = ev
                by_type = type(ev) if type(ev) in TYPE_SIGNATURES else None
            elif ev is not first and type(ev) is not by_type:
                convergent = False
            fetched.append(t)
        if not ran:
            # Reconvergence: the warp re-joins once no thread can advance
            # past the marker — diverged paths have all caught up.
            parked = [t for t in self.threads if t.state is _AT_RECONV]
            for t in parked:
                t.state = _RUNNABLE
            return bool(parked)
        if not fetched:
            return True  # every runnable thread just finished

        # 2. Convergent round: one group, no signatures needed.  An
        #    arithmetic op only needs counting, so it is counted here.
        if convergent:
            if type(first) is OpEvent:
                profile.op_counts[first.op] += first.count
            else:
                self._execute_group(fetched, profile)
            return True

        # 3. Divergent round: group by signature in first-lane order (dict
        #    insertion order, as ``fetched`` is in lane order) and execute
        #    the groups serialized; each pays a full warp issue.
        groups: dict[tuple, list[Thread]] = {}
        for t in fetched:
            try:
                sig = signature(t.pending)
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
        self, members: list[Thread], profile: InstructionProfile, op: OpClass
    ) -> None:
        """Count a shared access at its bank-conflict degree."""
        degree = self._shared_conflict_degree(members)
        profile.count(op, degree)
        profile.shared_bank_conflicts += degree - 1

    # ------------------------------------------------------------------
    def _shared_conflict_degree(self, members: list[Thread]) -> int:
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
                    ev.index * ev.array.data.dtype.itemsize
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
    ) -> None:
        """CC 1.0 coalescing per half-warp.

        Coalesced: every active thread ``k`` (in lane order) accesses
        ``base + k * itemsize`` with ``itemsize`` in {4, 8, 16} and
        ``base`` aligned to ``HALF_WARP * itemsize``.  Then the half-warp
        issues one transaction.  Otherwise each active thread issues its
        own >= 32-byte transaction — the G80 has no cache to merge them.
        """
        # Members arrive in lane order, so each half-warp's accesses do
        # too.  An access is (lane within the half-warp, address, size);
        # the address is ``addr_of``'s, computed inline per array.
        warp_size = self.warp_size
        halves: "dict[int, list[tuple[int, int, int]]]" = {}
        array = None
        for t in members:
            ev = t.pending
            if ev.array is not array:
                array = ev.array
                start, count = array.ptr.addr, array.count
                size = array.dtype.itemsize
            index = ev.index
            if not 0 <= index < count:
                array.addr_of(index)  # raises InvalidDeviceAccess
            lane = t.lane % warp_size
            access = (lane % HALF_WARP, start + index * size, size)
            group = halves.get(lane // HALF_WARP)
            if group is None:
                halves[lane // HALF_WARP] = [access]
            else:
                group.append(access)
        for group in halves.values():
            lane0, addr0, size0 = group[0]
            base = addr0 - lane0 * size0
            coalesced = (
                size0 in COALESCABLE_ITEMSIZES
                and base % (HALF_WARP * size0) == 0
            )
            payload = moved = 0
            for lane, addr, size in group:
                payload += size
                moved += (
                    size if size > MIN_TRANSACTION_BYTES else MIN_TRANSACTION_BYTES
                )
                if coalesced and (size != size0 or addr != base + lane * size):
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
