"""The warp executor against a frozen reference model of itself.

``RefWarp`` below is a verbatim copy of the grouping executor as it was
before the convergent fast path: every round groups the lanes by
:func:`ref_signature` and executes the groups in first-lane order.  The
hypothesis test runs random per-lane event programs through both it and
:class:`repro.simgpu.warp.Warp` and requires every profile field, every
value sent back into a generator, the final memory contents and the final
thread states to be equal.

The sim-vs-native counter conformance cannot catch an executor bug — both
of its sides run the same executor — so this is the oracle that does.
Only the names of the copied classes and functions are changed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Generator

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simgpu.costs import OpClass
from repro.simgpu.isa import (
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
    ld,
    lds,
    op,
    reconv,
    st as store,
    sts,
    sync,
)
from repro.simgpu.memory import DeviceArrayView, DeviceMemory, SharedArrayView
from repro.simgpu.profile import InstructionProfile
from repro.simgpu.warp import (
    COALESCABLE_ITEMSIZES,
    HALF_WARP,
    MIN_TRANSACTION_BYTES,
    SHARED_BANKS,
    KernelFault,
    Thread,
    ThreadState,
    Warp,
)

# ----------------------------------------------------------------------
# Reference model (frozen copy of the pre-fast-path executor)
# ----------------------------------------------------------------------
def ref_signature(event: Event) -> tuple:
    """Divergence signature of an event.

    Two threads of a warp execute "the same instruction" iff their events
    have equal signatures; differing signatures in one lockstep round mean
    the warp diverged and the executor serializes the groups (§2.3).
    Operand *values* never contribute — only what instruction is executed.
    """
    if isinstance(event, OpEvent):
        return ("op", event.op, event.count)
    if isinstance(event, GlobalReadEvent):
        return ("gld",)
    if isinstance(event, GlobalWriteEvent):
        return ("gst",)
    if isinstance(event, SharedReadEvent):
        return ("slds",)
    if isinstance(event, SharedWriteEvent):
        return ("ssts",)
    if isinstance(event, ConstantReadEvent):
        return ("ldc",)
    if isinstance(event, TextureReadEvent):
        return ("ldt",)
    if isinstance(event, SyncEvent):
        return ("sync",)
    if isinstance(event, ReconvergeEvent):
        return ("reconv",)
    raise TypeError(f"kernel yielded a non-event object: {event!r}")


@dataclass
class RefThread:
    """One device thread: a generator plus its lockstep bookkeeping."""

    lane: int  # flat index within the block
    gen: Generator[Event, object, None]
    state: ThreadState = ThreadState.RUNNABLE
    send_value: object = None  # value to send into the generator next step
    started: bool = False
    pending: Event | None = None  # event yielded, not yet executed


class RefWarp:
    """A SIMD group of up to ``warp_size`` threads executed in lockstep."""

    def __init__(
        self,
        threads: list[RefThread],
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

    # ------------------------------------------------------------------
    @property
    def live_threads(self) -> list[RefThread]:
        return [t for t in self.threads if t.state is not ThreadState.DONE]

    @property
    def runnable_threads(self) -> list[RefThread]:
        return [t for t in self.threads if t.state is ThreadState.RUNNABLE]

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
        runnable = self.runnable_threads
        if not runnable:
            # Reconvergence: the warp re-joins once no thread can advance
            # past the marker — diverged paths have all caught up.
            parked = [
                t for t in self.threads if t.state is ThreadState.AT_RECONV
            ]
            if parked:
                for t in parked:
                    t.state = ThreadState.RUNNABLE
                return True
            return False

        # 1. Fetch: advance each runnable generator to its next event.
        fetched: list[RefThread] = []
        for t in runnable:
            if t.pending is None:
                try:
                    if t.started:
                        t.pending = t.gen.send(t.send_value)
                    else:
                        t.started = True
                        t.pending = next(t.gen)
                    t.send_value = None
                except StopIteration:
                    t.state = ThreadState.DONE
                    continue
                except Exception as exc:  # surface kernel bugs loudly
                    raise KernelFault(
                        f"thread {t.lane} raised {type(exc).__name__}: {exc}"
                    ) from exc
            fetched.append(t)
        if not fetched:
            return True  # every runnable thread just finished

        # 2. Group by divergence signature, in first-lane order.
        groups: dict[tuple, list[RefThread]] = {}
        for t in fetched:
            groups.setdefault(ref_signature(t.pending), []).append(t)
        if len(groups) > 1:
            profile.divergent_rounds += 1
            profile.serialized_groups += len(groups) - 1

        # 3. Execute each group serialized; each pays a full warp issue.
        for _sig, members in sorted(
            groups.items(), key=lambda kv: kv[1][0].lane
        ):
            self._execute_group(members, profile)
        return True

    # ------------------------------------------------------------------
    def _execute_group(
        self, members: list[RefThread], profile: InstructionProfile
    ) -> None:
        event = members[0].pending
        if isinstance(event, OpEvent):
            profile.count(event.op, event.count)
            for t in members:
                t.pending = None
        elif isinstance(event, GlobalReadEvent):
            profile.count(OpClass.GLOBAL_READ)
            self._coalesce(members, profile, is_read=True)
            for t in members:
                ev: GlobalReadEvent = t.pending  # type: ignore[assignment]
                t.send_value = ev.array._raw()[ev.index].item()
                t.pending = None
        elif isinstance(event, GlobalWriteEvent):
            profile.count(OpClass.GLOBAL_WRITE)
            self._coalesce(members, profile, is_read=False)
            for t in members:
                ev: GlobalWriteEvent = t.pending  # type: ignore[assignment]
                ev.array._raw()[ev.index] = ev.value
                t.pending = None
        elif isinstance(event, SharedReadEvent):
            degree = self._shared_conflict_degree(members)
            profile.count(OpClass.SHARED_READ, degree)
            profile.shared_bank_conflicts += degree - 1
            for t in members:
                ev: SharedReadEvent = t.pending  # type: ignore[assignment]
                t.send_value = ev.array.data[ev.index].item()
                t.pending = None
        elif isinstance(event, SharedWriteEvent):
            degree = self._shared_conflict_degree(members)
            profile.count(OpClass.SHARED_WRITE, degree)
            profile.shared_bank_conflicts += degree - 1
            for t in members:
                ev: SharedWriteEvent = t.pending  # type: ignore[assignment]
                ev.array.data[ev.index] = ev.value
                t.pending = None
        elif isinstance(event, ConstantReadEvent):
            self._execute_constant_reads(members, profile)
        elif isinstance(event, TextureReadEvent):
            self._execute_texture_reads(members, profile)
        elif isinstance(event, SyncEvent):
            profile.count(OpClass.SYNC)
            profile.sync_count += 1
            for t in members:
                t.state = ThreadState.AT_SYNC
                t.pending = None
        elif isinstance(event, ReconvergeEvent):
            # Free: reconvergence is the branch stack popping, not an
            # issued instruction.
            for t in members:
                t.state = ThreadState.AT_RECONV
                t.pending = None
        else:
            raise KernelFault(f"kernel yielded a non-event: {event!r}")

    # ------------------------------------------------------------------
    def _shared_conflict_degree(self, members: list[RefThread]) -> int:
        """Shared-memory bank conflicts (the "≥" in Table 2.2's ">= 4").

        The G80's shared memory has 16 banks of 32-bit words; a half-warp
        whose threads hit the same bank with *different* addresses
        serializes, multiplying the access cost by the conflict degree.
        All threads reading one identical address broadcast for free.
        Returns the worst half-warp's degree (>= 1).
        """
        worst = 1
        by_half: dict[int, list[RefThread]] = {}
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
        self, members: list[RefThread], profile: InstructionProfile
    ) -> None:
        """Constant reads broadcast: one issue per *distinct address* in
        the group; first touch of a cache line is a device-memory miss."""
        cache = self.caches.get("constant")
        addresses: dict[int, None] = {}
        for t in members:
            ev: ConstantReadEvent = t.pending  # type: ignore[assignment]
            addresses[ev.array.addr_of(ev.index)] = None
            t.send_value = ev.array._raw()[ev.index].item()
            t.pending = None
        profile.count(OpClass.CONSTANT_READ, len(addresses))
        for addr in addresses:
            if cache is not None and not cache.access(addr):
                profile.constant_misses += 1
                profile.global_read_transactions += 1
                profile.bytes_read += MIN_TRANSACTION_BYTES
            else:
                profile.constant_hits += 1

    def _execute_texture_reads(
        self, members: list[RefThread], profile: InstructionProfile
    ) -> None:
        """Texture fetches: per-thread addressing, cached in lines; each
        missed line is one device-memory transaction."""
        cache = self.caches.get("texture")
        profile.count(OpClass.TEXTURE_READ)
        for t in members:
            ev: TextureReadEvent = t.pending  # type: ignore[assignment]
            addr = ev.texref.addr_of(ev.index)
            t.send_value = ev.texref._raw()[ev.index].item()
            t.pending = None
            if cache is not None and not cache.access(addr):
                profile.texture_misses += 1
                profile.global_read_transactions += 1
                profile.bytes_read += MIN_TRANSACTION_BYTES
            else:
                profile.texture_hits += 1

    # ------------------------------------------------------------------
    def _coalesce(
        self,
        members: list[RefThread],
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
        by_half: dict[int, list[RefThread]] = {}
        for t in members:
            by_half.setdefault((t.lane % self.warp_size) // HALF_WARP, []).append(t)
        for _hw, group in by_half.items():
            group.sort(key=lambda t: t.lane)
            accesses = []
            for t in group:
                ev = t.pending
                itemsize = ev.array.dtype.itemsize
                addr = (
                    ev.array.addr_of(ev.index)
                    if hasattr(ev.array, "addr_of")
                    else None
                )
                accesses.append((addr, itemsize))
            itemsizes = {sz for _a, sz in accesses}
            coalesced = False
            if len(itemsizes) == 1:
                itemsize = next(iter(itemsizes))
                if itemsize in COALESCABLE_ITEMSIZES:
                    lane0 = group[0].lane % HALF_WARP
                    base = accesses[0][0] - lane0 * itemsize
                    coalesced = base % (HALF_WARP * itemsize) == 0 and all(
                        addr == base + (t.lane % HALF_WARP) * itemsize
                        for (addr, _sz), t in zip(accesses, group)
                    )
            payload = sum(sz for _a, sz in accesses)
            if coalesced:
                transactions = 1
                moved = max(payload, MIN_TRANSACTION_BYTES)
                profile.coalesced_transactions += 1
            else:
                transactions = len(group)
                moved = sum(
                    max(sz, MIN_TRANSACTION_BYTES) for _a, sz in accesses
                )
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


# ----------------------------------------------------------------------
# Random per-lane event programs
# ----------------------------------------------------------------------
WARP_SIZE = 32
GLOBAL_DTYPES = (np.float32, np.float64)  # two itemsizes for the coalescer
GLOBAL_COUNT = 96
SHARED_COUNT = 48
OP_CLASSES = (OpClass.FADD, OpClass.FMUL, OpClass.IADD)

# A step is a tuple; memory steps carry an index *mode* resolved per lane:
# "bcast" (every lane the same index), "lane" (stride * lane + offset)
# or "scatter" (a hash of the lane).
_index_modes = st.sampled_from(("bcast", "lane", "scatter"))
_steps = st.one_of(
    st.tuples(
        st.just("op"),
        st.sampled_from(OP_CLASSES),
        st.integers(1, 3),
        st.booleans(),  # True: a fresh OpEvent, equal to but not op()'s
    ),
    st.tuples(st.just("ld"), st.integers(0, 1), _index_modes, st.integers(0, 7)),
    st.tuples(st.just("st"), st.integers(0, 1), _index_modes, st.integers(0, 7)),
    st.tuples(st.just("lds"), st.integers(0, 1), _index_modes, st.integers(0, 7)),
    st.tuples(st.just("sts"), st.integers(0, 1), _index_modes, st.integers(0, 7)),
    st.tuples(st.just("sync")),
    st.tuples(st.just("reconv")),
)


@st.composite
def warp_programs(draw):
    """(first lane, per-lane step lists): a common skeleton each lane
    follows, replaces with a step of its own, or skips, step by step."""
    lanes = draw(st.integers(1, WARP_SIZE))
    first_lane = draw(st.sampled_from((0, WARP_SIZE)))
    skeleton = draw(st.lists(_steps, min_size=1, max_size=10))
    programs = []
    for _ in range(lanes):
        program = []
        for step in skeleton:
            choice = draw(st.integers(0, 9))
            if choice < 7:
                program.append(step)
            elif choice == 7:
                program.append(draw(_steps))
        programs.append(program)
    return first_lane, programs


def _index(mode: str, param: int, lane: int, count: int) -> int:
    if mode == "bcast":
        return param % count
    if mode == "lane":
        return ((param % 3 + 1) * lane + param) % count
    return (lane * 7919 + param * 104729) % count


class _Memory:
    """Two global arrays (different itemsizes) and two shared arrays."""

    def __init__(self) -> None:
        rng = np.random.default_rng(5)
        self.device = DeviceMemory(1 << 16)
        self.globals = []
        for dtype in GLOBAL_DTYPES:
            nbytes = np.dtype(dtype).itemsize * GLOBAL_COUNT
            ptr = self.device.alloc(nbytes)
            self.device.copy_in(
                ptr, rng.standard_normal(GLOBAL_COUNT).astype(dtype)
            )
            self.globals.append(
                DeviceArrayView(self.device, ptr, np.dtype(dtype), GLOBAL_COUNT)
            )
        self.shared = [
            SharedArrayView(
                rng.standard_normal(SHARED_COUNT).astype(np.float32)
            ),
            SharedArrayView(np.arange(SHARED_COUNT, dtype=np.int32)),
        ]

    def contents(self) -> list:
        out = [
            self.device.copy_out(a.ptr, a.count * a.dtype.itemsize).tobytes()
            for a in self.globals
        ]
        return out + [s.data.tobytes() for s in self.shared]


def _kernel(program, lane: int, mem: _Memory, log: list):
    """One lane's generator: yields the program's events and logs every
    value the executor sends back."""
    for n, step in enumerate(program):
        kind = step[0]
        if kind == "op":
            _, cls, count, fresh = step
            event = OpEvent(cls, count) if fresh else op(cls, count)
        elif kind == "sync":
            event = sync()
        elif kind == "reconv":
            event = reconv()
        else:
            _, which, mode, param = step
            if kind in ("ld", "st"):
                array = mem.globals[which]
            else:
                array = mem.shared[which]
            index = _index(mode, param, lane, len(array))
            value = float(lane * 100 + n)
            if kind == "ld":
                event = ld(array, index)
            elif kind == "st":
                event = store(array, index, value)
            elif kind == "lds":
                event = lds(array, index)
            else:
                event = sts(array, index, value)
        log.append((n, (yield event)))


def _run(warp_cls, thread_cls, first_lane: int, programs):
    """Drive one warp to completion with permissive barrier semantics
    (a barrier releases once every live thread has arrived)."""
    mem = _Memory()
    logs = [[] for _ in programs]
    threads = [
        thread_cls(lane=first_lane + k, gen=_kernel(p, first_lane + k, mem, log))
        for k, (p, log) in enumerate(zip(programs, logs))
    ]
    warp = warp_cls(threads, WARP_SIZE)
    profile = InstructionProfile()
    for _ in range(10_000):
        live = [t for t in threads if t.state is not ThreadState.DONE]
        if not live:
            break
        if all(t.state is ThreadState.AT_SYNC for t in live):
            for t in live:
                t.state = ThreadState.RUNNABLE
            continue
        warp.step_round(profile)
    else:  # pragma: no cover - a wedged executor
        raise AssertionError("warp did not finish")
    states = [t.state for t in threads]
    return profile, logs, mem.contents(), states


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(warp_programs())
def test_warp_matches_reference_model(case):
    first_lane, programs = case
    ref = _run(RefWarp, RefThread, first_lane, programs)
    new = _run(Warp, Thread, first_lane, programs)
    ref_profile, new_profile = ref[0], new[0]
    assert new_profile.summary() == ref_profile.summary()
    for f in fields(InstructionProfile):
        name = f.name
        assert getattr(new_profile, name) == getattr(ref_profile, name), name
    assert new[1] == ref[1], "values sent back into the generators differ"
    assert new[2] == ref[2], "final memory contents differ"
    assert new[3] == ref[3], "final thread states differ"


def test_same_class_different_counts_diverge():
    """op(FADD, 1) and op(FADD, 2) are different instructions."""
    programs = [[("op", OpClass.FADD, 1 + lane % 2, False)] for lane in range(32)]
    profile = _run(Warp, Thread, 0, programs)[0]
    assert profile.divergent_rounds == 1
    assert profile.op_counts[OpClass.FADD] == 3


def test_equal_but_not_interned_ops_converge():
    """A hand-built OpEvent equal to op()'s is the same instruction."""
    programs = [[("op", OpClass.FMUL, 2, lane % 2 == 0)] for lane in range(32)]
    profile = _run(Warp, Thread, 0, programs)[0]
    assert profile.divergent_rounds == 0
    assert profile.op_counts[OpClass.FMUL] == 2


def test_broadcast_shared_read_is_one_conflict_free_access():
    programs = [[("lds", 0, "bcast", 5)] for _ in range(32)]
    profile, logs, _mem, _states = _run(Warp, Thread, 0, programs)
    assert profile.op_counts[OpClass.SHARED_READ] == 1
    assert profile.shared_bank_conflicts == 0
    assert len({log[0][1] for log in logs}) == 1
