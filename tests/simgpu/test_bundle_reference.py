"""Multi-part events against the part-by-part reference executors.

A kernel may hand the warp a straight-line run in one ``yield``: an
interned :class:`~repro.simgpu.isa.OpBundle`, or a float3 access
(:class:`~repro.simgpu.isa.GlobalRead3Event` and friends).  The contract
(see :mod:`repro.simgpu.isa`) is that the run is accounted exactly as if
its parts had been yielded one by one.  The hypothesis tests below run
random programs — bundles and float3 accesses mixed with scalar events,
convergent and divergent, with barriers, early exits and reconvergence
points — twice:

* as written, through :class:`~repro.simgpu.warp.Warp` and
  :class:`~repro.simgpu.block.ThreadBlock`;
* with every multi-part event expanded into plain ``yield``\\ s of its
  parts (by this module's own expansion, not the executor's), through the
  verbatim reference copies ``RefWarp``/``RefThread`` of
  ``test_warp_reference.py`` and the pre-change block loop
  ``RefThreadBlock`` of ``test_block_reference.py``.

Every profile field (``op_counts`` key order included), every value sent
back into a generator, every memory byte, the final thread states, the
``BarrierDeadlock`` outcome and the number of ``step_round`` calls must be
equal.  Between two barriers, the multi-warp programs touch each word from
one warp only: a convergent float3 access lands its later components up
to two passes early, which only a cross-warp race could see.
"""

from __future__ import annotations

import dataclasses
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simgpu.arch import G80_8800GTS
from repro.simgpu.block import BarrierDeadlock, ThreadBlock
from repro.simgpu.costs import OpClass
from repro.simgpu.dims import Dim3
from repro.simgpu.isa import (
    GlobalRead3Event,
    GlobalReadEvent,
    GlobalWrite3Event,
    GlobalWriteEvent,
    OpBundle,
    SharedRead3Event,
    SharedReadEvent,
    SharedWrite3Event,
    SharedWriteEvent,
    bundle,
    ld,
    lds,
    op,
    reconv,
    st as store,
    sts,
    sync,
)
from repro.simgpu.memory import DeviceArrayView, DeviceMemory
from repro.simgpu.profile import InstructionProfile
from repro.simgpu.warp import Thread, ThreadState, Warp

from tests.simgpu.test_block_reference import RefThreadBlock, _index
from tests.simgpu.test_warp_reference import RefThread, RefWarp, _Memory

# ----------------------------------------------------------------------
# Events and their expansion
# ----------------------------------------------------------------------
OP_CLASSES = (OpClass.FADD, OpClass.FMUL, OpClass.IADD)

#: Bundles that share prefixes with each other and with the plain ops,
#: and carry classes no plain op uses (so a first use can fall inside a
#: convergent bundle).
BUNDLES = (
    bundle(op(OpClass.FADD), op(OpClass.FMUL)),
    bundle(op(OpClass.FADD), op(OpClass.FMUL), op(OpClass.FMUL, 2)),
    bundle(op(OpClass.IADD), op(OpClass.RSQRT), op(OpClass.FADD)),
    bundle(op(OpClass.COMPARE), op(OpClass.BRANCH)),
    bundle(op(OpClass.FMUL, 2), op(OpClass.COMPARE), op(OpClass.FADD, 3)),
    bundle(op(OpClass.FADD)),
)

_SCALAR = {
    GlobalRead3Event: GlobalReadEvent,
    GlobalWrite3Event: GlobalWriteEvent,
    SharedRead3Event: SharedReadEvent,
    SharedWrite3Event: SharedWriteEvent,
}


def expanded(event):
    """Yield ``event`` as plain single-part events; return what a
    generator yielding ``event`` itself would receive."""
    kind = type(event)
    if kind is OpBundle:
        for part in event:
            yield part
        return None
    if kind in (GlobalRead3Event, SharedRead3Event):
        scalar = _SCALAR[kind]
        values = []
        for c in range(3):
            values.append((yield scalar(event.array, event.index + c)))
        return tuple(values)
    if kind in (GlobalWrite3Event, SharedWrite3Event):
        scalar = _SCALAR[kind]
        for c in range(3):
            yield scalar(event.array, event.index + c, event.value[c])
        return None
    return (yield event)


def expand_kernel(kernel):
    """The kernel with every multi-part event it yields expanded into
    plain yields (same name, so listings compare equal)."""
    impl = getattr(kernel, "impl", kernel)

    def expanded_kernel(ctx, *args):
        gen = impl(ctx, *args)
        value = None
        while True:
            try:
                event = gen.send(value)
            except StopIteration:
                return
            value = yield from expanded(event)

    expanded_kernel.__name__ = impl.__name__
    return expanded_kernel


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
_index_modes = st.sampled_from(("bcast", "lane", "scatter"))
_memory_kinds = st.sampled_from(
    ("ld", "st", "lds", "sts", "ld3", "st3", "lds3", "sts3")
)
_steps = st.one_of(
    st.tuples(st.just("op"), st.sampled_from(OP_CLASSES), st.integers(1, 3)),
    st.tuples(st.just("bundle"), st.integers(0, len(BUNDLES) - 1)),
    st.tuples(st.just("bundle"), st.integers(0, len(BUNDLES) - 1)),
    st.tuples(_memory_kinds, st.integers(0, 1), _index_modes, st.integers(0, 7)),
    st.tuples(_memory_kinds, st.integers(0, 1), _index_modes, st.integers(0, 7)),
    st.tuples(st.just("sync")),
    st.tuples(st.just("reconv")),
    st.tuples(st.just("exit")),
)


def _programs(draw, lanes: int, follow: int) -> list:
    """Per-lane step lists: a common skeleton each lane follows (with
    probability ``follow``/20), replaces with a step of its own, or skips."""
    skeleton = draw(st.lists(_steps, min_size=1, max_size=12))
    programs = []
    for _ in range(lanes):
        program = []
        for step in skeleton:
            choice = draw(st.integers(0, 19))
            if choice < follow:
                program.append(step)
            elif choice < 19:
                program.append(draw(_steps))
        programs.append(program)
    return programs


def _event(step, n: int, lane: int, globals_, shareds, region):
    """The event a lane yields for one step (None for ``exit``).

    ``region(array)`` gives the (first index, length) of the part of
    ``array`` this lane may touch.
    """
    kind = step[0]
    if kind == "exit":
        return None
    if kind == "op":
        return op(step[1], step[2])
    if kind == "bundle":
        return BUNDLES[step[1]]
    if kind == "sync":
        return sync()
    if kind == "reconv":
        return reconv()
    _, which, mode, param = step
    wide = kind.endswith("3")
    array = (globals_ if kind in ("ld", "st", "ld3", "st3") else shareds)[which]
    first, length = region(array)
    index = first + _index(mode, param, lane, length - 2 if wide else length)
    value = float(lane * 100 + n)
    if kind in ("ld", "lds", "ld3", "lds3"):
        load = {
            "ld": ld,
            "lds": lds,
            "ld3": GlobalRead3Event,
            "lds3": SharedRead3Event,
        }[kind]
        return load(array, index)
    if wide:
        value = (value, value + 0.25, value + 0.5)
    save = {
        "st": store,
        "sts": sts,
        "st3": GlobalWrite3Event,
        "sts3": SharedWrite3Event,
    }[kind]
    return save(array, index, value)


def _kernel_body(program, lane, globals_, shareds, region, log, expand):
    for n, step in enumerate(program):
        event = _event(step, n, lane, globals_, shareds, region)
        if event is None:
            return
        if expand:
            value = yield from expanded(event)
        else:
            value = yield event
        log.append((n, value))


def _profile_state(profile: InstructionProfile) -> dict:
    state = {f.name: getattr(profile, f.name) for f in fields(profile)}
    state["op_counts"] = list(profile.op_counts.items())
    return state


# ----------------------------------------------------------------------
# One warp: Warp vs RefWarp
# ----------------------------------------------------------------------
WARP_SIZE = 32


@st.composite
def warp_cases(draw):
    lanes = draw(st.integers(1, WARP_SIZE))
    first_lane = draw(st.sampled_from((0, WARP_SIZE)))
    return first_lane, _programs(draw, lanes, follow=17)


def _run_warp(expand: bool, first_lane: int, programs):
    """Drive one warp to completion (a barrier releases once every live
    thread has arrived); return everything the two sides must agree on."""
    mem = _Memory()
    logs = [[] for _ in programs]

    def whole(array):
        return 0, len(array)

    thread_cls, warp_cls = (RefThread, RefWarp) if expand else (Thread, Warp)
    threads = [
        thread_cls(
            lane=first_lane + k,
            gen=_kernel_body(
                p, first_lane + k, mem.globals, mem.shared, whole, log, expand
            ),
        )
        for k, (p, log) in enumerate(zip(programs, logs))
    ]
    warp = warp_cls(threads, WARP_SIZE)
    profile = InstructionProfile()
    rounds = 0
    while True:
        live = [t for t in threads if t.state is not ThreadState.DONE]
        if not live:
            break
        if all(t.state is ThreadState.AT_SYNC for t in live):
            for t in live:
                t.state = ThreadState.RUNNABLE
            continue
        warp.step_round(profile)
        rounds += 1
        assert rounds < 20_000, "warp did not finish"
    states = [t.state for t in threads]
    return _profile_state(profile), logs, mem.contents(), states, rounds


def _assert_same(new, ref):
    for name, value in ref[0].items():
        assert new[0][name] == value, name
    assert new[1] == ref[1], "values sent back into the generators differ"
    assert new[2] == ref[2], "final memory contents differ"
    assert new[3] == ref[3], "final thread states differ"


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(warp_cases())
def test_warp_runs_multi_part_events_as_their_parts(case):
    first_lane, programs = case
    ref = _run_warp(True, first_lane, programs)
    new = _run_warp(False, first_lane, programs)
    _assert_same(new, ref)
    assert new[4] == ref[4], "step_round call counts differ"


# ----------------------------------------------------------------------
# A block of 1-3 warps: ThreadBlock vs RefThreadBlock over RefWarp
# ----------------------------------------------------------------------
BLOCK_GLOBAL_COUNT = 96
BLOCK_SHARED_COUNT = 48
MAX_WARPS = 3


class RefBlock(RefThreadBlock):
    """The pre-change block loop over the reference warp and threads."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        ws = self.arch.warp_size
        caches = self.warps[0].caches
        self._threads = [RefThread(lane=t.lane, gen=t.gen) for t in self._threads]
        self.warps = [
            RefWarp(self._threads[i : i + ws], ws, caches)
            for i in range(0, len(self._threads), ws)
        ]


def _block_kernel(ctx, programs, garrays, logs, expand):
    """One lane of a block program.  Each warp touches only its own
    slice of every array (see the module docstring)."""
    lane = ctx.thread_idx.x
    shareds = [
        ctx.shared_array("s0", np.float32, BLOCK_SHARED_COUNT),
        ctx.shared_array("s1", np.float32, BLOCK_SHARED_COUNT),
    ]
    warp = lane // ctx.warp_size

    def region(array):
        length = len(array) // MAX_WARPS
        return warp * length, length

    return _kernel_body(
        programs[lane], lane, garrays, shareds, region, logs[lane], expand
    )


@st.composite
def block_cases(draw):
    # Whole half-warps: RefWarp numbers a lane within its half-warp by
    # its block lane, Warp by its warp lane, which differ for 8-wide
    # warps (an executor difference that predates multi-part events).
    warp_size = draw(st.sampled_from((16, 32)))
    lanes = draw(st.integers(1, MAX_WARPS * warp_size))
    strict = draw(st.booleans())
    return warp_size, strict, _programs(draw, lanes, follow=17)


def _run_block(expand: bool, warp_size: int, strict: bool, programs):
    arch = dataclasses.replace(G80_8800GTS, warp_size=warp_size)
    device = DeviceMemory(1 << 16)
    rng = np.random.default_rng(5)
    garrays = []
    for dtype in (np.float32, np.float64):
        ptr = device.alloc(np.dtype(dtype).itemsize * BLOCK_GLOBAL_COUNT)
        device.copy_in(ptr, rng.standard_normal(BLOCK_GLOBAL_COUNT).astype(dtype))
        garrays.append(DeviceArrayView(device, ptr, np.dtype(dtype), BLOCK_GLOBAL_COUNT))
    logs = [[] for _ in programs]
    block = (RefBlock if expand else ThreadBlock)(
        _block_kernel,
        (programs, garrays, logs, expand),
        Dim3(0, 0, 0),
        Dim3(len(programs), 1, 1),
        Dim3(1, 1, 1),
        arch,
        strict_sync=strict,
        device_memory=device,
    )
    warp_cls = RefWarp if expand else Warp
    rounds = [0]
    step_round = warp_cls.step_round

    def counted(self, profile):
        rounds[0] += 1
        assert rounds[0] < 50_000, "block did not finish"
        return step_round(self, profile)

    profile = InstructionProfile()
    warp_cls.step_round = counted
    try:
        block.run(profile)
        outcome = None
    except BarrierDeadlock as exc:
        outcome = str(exc)
    finally:
        warp_cls.step_round = step_round
    memory = [
        device.copy_out(a.ptr, a.count * a.dtype.itemsize).tobytes()
        for a in garrays
    ] + [view.data.tobytes() for view in block._shared_arrays.values()]
    states = [t.state for t in block._threads]
    return _profile_state(profile), logs, memory, states, outcome, rounds[0]


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(block_cases())
def test_block_runs_multi_part_events_as_their_parts(case):
    warp_size, strict, programs = case
    ref = _run_block(True, warp_size, strict, programs)
    new = _run_block(False, warp_size, strict, programs)
    _assert_same(new, ref)
    assert new[4] == ref[4], "BarrierDeadlock outcome differs"
    assert new[5] == ref[5], "step_round call counts differ"


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------
def test_convergent_bundle_counts_every_part_in_one_round():
    """All lanes hold one bundle: one fetch, then busy rounds."""
    run = BUNDLES[1]  # FADD, FMUL, FMUL2
    programs = [[("bundle", 1)] for _ in range(WARP_SIZE)]
    ref = _run_warp(True, 0, programs)
    new = _run_warp(False, 0, programs)
    _assert_same(new, ref)
    assert new[4] == ref[4] == len(run) + 1  # the parts, then the exit
    counts = dict(new[0]["op_counts"])
    assert counts == {OpClass.FADD: 1, OpClass.FMUL: 3}


def test_first_use_inside_a_bundle_keeps_key_order():
    """Warp 0's bundle (IADD, RSQRT, FADD) issues RSQRT one pass after
    warp 1's FMUL first appears, so RSQRT is keyed after FMUL — as part
    by part — although warp 0 fetched the bundle first."""
    programs = [
        [("op", OpClass.FADD, 1), ("bundle", 2)]
        if lane < 16
        else [("op", OpClass.FADD, 1), ("op", OpClass.FMUL, 1)]
        for lane in range(32)
    ]
    ref = _run_block(True, 16, True, programs)
    new = _run_block(False, 16, True, programs)
    _assert_same(new, ref)
    assert new[5] == ref[5]
    order = [cls for cls, _n in new[0]["op_counts"]]
    assert order == [OpClass.FADD, OpClass.IADD, OpClass.FMUL, OpClass.RSQRT]


def test_float3_load_returns_the_tuple_and_counts_three_reads():
    programs = [[("lds3", 0, "bcast", 4), ("ld3", 0, "lane", 1)]] * WARP_SIZE
    ref = _run_warp(True, 0, programs)
    new = _run_warp(False, 0, programs)
    _assert_same(new, ref)
    assert new[4] == ref[4]
    counts = dict(new[0]["op_counts"])
    assert counts[OpClass.SHARED_READ] == 3  # a broadcast float3
    assert counts[OpClass.GLOBAL_READ] == 3
    assert all(isinstance(v, tuple) and len(v) == 3 for _n, v in new[1][0])


@pytest.mark.parametrize("kind", ["ld3", "st3", "lds3", "sts3"])
def test_divergent_float3_access_is_split_into_parts(kind):
    """Odd lanes issue a plain op first, so the float3 access arrives in
    two groups: each lane presents its parts one per round."""
    programs = [
        ([("op", OpClass.FADD, 1)] if lane % 2 else [])
        + [(kind, 1, "lane", 3), ("bundle", 0)]
        for lane in range(WARP_SIZE)
    ]
    ref = _run_warp(True, 0, programs)
    new = _run_warp(False, 0, programs)
    _assert_same(new, ref)
    assert new[4] == ref[4]
    assert new[0]["divergent_rounds"] > 0
