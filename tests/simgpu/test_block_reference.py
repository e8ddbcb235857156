"""The block loop against a frozen reference copy of itself.

``RefThreadBlock.run`` below is a verbatim copy of ``ThreadBlock.run``
as it was before the loop learned to check the barrier only after a
round in which a thread arrived at it or exited: it rebuilt the live
list and checked barrier release, ``BarrierDeadlock`` and block exit
before every pass over the warps.  The hypothesis test runs random
per-lane programs — with barriers, early exits and reconvergence points
— through both loops, over one to three warps, and requires every
profile field, every value sent back into a generator, the final global
and shared memory, the final thread states, the ``BarrierDeadlock``
outcome and the number of ``Warp.step_round`` calls to be equal.

Both sides run the current :class:`~repro.simgpu.warp.Warp`; the warp
itself has its own oracle in ``test_warp_reference.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simgpu.arch import G80_8800GTS
from repro.simgpu.block import (
    _AT_SYNC,
    _DONE,
    _RUNNABLE,
    BarrierDeadlock,
    ThreadBlock,
)
from repro.simgpu.costs import OpClass
from repro.simgpu.dims import Dim3
from repro.simgpu.isa import ld, lds, op, reconv, st as store, sts, sync
from repro.simgpu.memory import DeviceArrayView, DeviceMemory
from repro.simgpu.profile import InstructionProfile
from repro.simgpu.warp import Warp


# ----------------------------------------------------------------------
# Reference model (frozen copy of the check-before-every-pass loop)
# ----------------------------------------------------------------------
class RefThreadBlock(ThreadBlock):
    """A block whose ``run`` is the pre-change loop, verbatim."""

    def run(self, profile: InstructionProfile) -> None:
        """Execute the block to completion, enforcing barrier semantics."""
        threads, warps = self._threads, self.warps
        for w in warps:
            if w.threads:
                profile.warps_launched += 1
        while True:
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
                continue
            for w in warps:
                w.step_round(profile)


# ----------------------------------------------------------------------
# Random per-lane block programs
# ----------------------------------------------------------------------
GLOBAL_COUNT = 96
SHARED_COUNT = 48
OP_CLASSES = (OpClass.FADD, OpClass.FMUL, OpClass.IADD)

_index_modes = st.sampled_from(("bcast", "lane", "scatter"))
_steps = st.one_of(
    st.tuples(st.just("op"), st.sampled_from(OP_CLASSES), st.integers(1, 3)),
    st.tuples(st.just("ld"), _index_modes, st.integers(0, 7)),
    st.tuples(st.just("st"), _index_modes, st.integers(0, 7)),
    st.tuples(st.just("lds"), _index_modes, st.integers(0, 7)),
    st.tuples(st.just("sts"), _index_modes, st.integers(0, 7)),
    st.tuples(st.just("sync")),
    st.tuples(st.just("reconv")),
    st.tuples(st.just("exit")),
)


@st.composite
def block_programs(draw):
    """(warp size, strict barriers, per-lane step lists): a common
    skeleton each lane follows, replaces with a step of its own, or
    skips, step by step — so barriers are sometimes uniform and
    sometimes divergent, and some lanes exit early."""
    warp_size = draw(st.sampled_from((8, 32)))
    lanes = draw(st.integers(1, 3 * warp_size))
    strict = draw(st.booleans())
    skeleton = draw(st.lists(_steps, min_size=1, max_size=10))
    programs = []
    for _ in range(lanes):
        program = []
        for step in skeleton:
            choice = draw(st.integers(0, 19))
            if choice < 17:
                program.append(step)
            elif choice < 19:
                program.append(draw(_steps))
        programs.append(program)
    return warp_size, strict, programs


def _index(mode: str, param: int, lane: int, count: int) -> int:
    if mode == "bcast":
        return param % count
    if mode == "lane":
        return ((param % 3 + 1) * lane + param) % count
    return (lane * 7919 + param * 104729) % count


def _kernel(ctx, programs, garray, logs):
    """One lane's generator: runs its program, logging every value the
    executor sends back; ``exit`` returns early."""
    lane = ctx.thread_idx.x
    shared = ctx.shared_array("s", np.float32, SHARED_COUNT)
    log = logs[lane]
    for n, step in enumerate(programs[lane]):
        kind = step[0]
        if kind == "exit":
            return
        if kind == "op":
            event = op(step[1], step[2])
        elif kind == "sync":
            event = sync()
        elif kind == "reconv":
            event = reconv()
        else:
            _, mode, param = step
            array = garray if kind in ("ld", "st") else shared
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


def _run(block_cls, warp_size: int, strict: bool, programs):
    """Run one block; return everything the two loops must agree on."""
    arch = dataclasses.replace(G80_8800GTS, warp_size=warp_size)
    device = DeviceMemory(1 << 16)
    ptr = device.alloc(4 * GLOBAL_COUNT)
    rng = np.random.default_rng(5)
    device.copy_in(ptr, rng.standard_normal(GLOBAL_COUNT).astype(np.float32))
    garray = DeviceArrayView(device, ptr, np.float32, GLOBAL_COUNT)
    logs = [[] for _ in programs]
    block = block_cls(
        _kernel,
        (programs, garray, logs),
        Dim3(0, 0, 0),
        Dim3(len(programs), 1, 1),
        Dim3(1, 1, 1),
        arch,
        strict_sync=strict,
        device_memory=device,
    )
    rounds = [0]
    step_round = Warp.step_round

    def counted(self, profile):
        rounds[0] += 1
        return step_round(self, profile)

    profile = InstructionProfile()
    Warp.step_round = counted
    try:
        block.run(profile)
        outcome = None
    except BarrierDeadlock as exc:
        outcome = str(exc)
    finally:
        Warp.step_round = step_round
    memory = [device.copy_out(ptr, 4 * GLOBAL_COUNT).tobytes()] + [
        view.data.tobytes() for view in block._shared_arrays.values()
    ]
    states = [t.state for t in block._threads]
    return profile, logs, memory, states, outcome, rounds[0]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(block_programs())
def test_block_loop_matches_reference(case):
    warp_size, strict, programs = case
    ref = _run(RefThreadBlock, warp_size, strict, programs)
    new = _run(ThreadBlock, warp_size, strict, programs)
    ref_profile, new_profile = ref[0], new[0]
    for f in fields(InstructionProfile):
        name = f.name
        assert getattr(new_profile, name) == getattr(ref_profile, name), name
    assert new[1] == ref[1], "values sent back into the generators differ"
    assert new[2] == ref[2], "final memory contents differ"
    assert new[3] == ref[3], "final thread states differ"
    assert new[4] == ref[4], "BarrierDeadlock outcome differs"
    assert new[5] == ref[5], "Warp.step_round call counts differ"


@pytest.mark.parametrize("block_cls", [RefThreadBlock, ThreadBlock])
def test_divergent_barrier_deadlocks(block_cls):
    """Half the lanes exit before a barrier the other half reach."""
    programs = [
        [("op", OpClass.FADD, 1)] + ([("exit",)] if lane % 2 else [])
        + [("sync",), ("op", OpClass.FMUL, 1)]
        for lane in range(40)
    ]
    outcome = _run(block_cls, 32, True, programs)[4]
    assert outcome is not None and "20 already exited" in outcome


@pytest.mark.parametrize("block_cls", [RefThreadBlock, ThreadBlock])
def test_permissive_barrier_releases_the_survivors(block_cls):
    programs = [
        [("op", OpClass.FADD, 1)] + ([("exit",)] if lane % 2 else [])
        + [("sync",), ("op", OpClass.FMUL, 1)]
        for lane in range(40)
    ]
    profile, _logs, _mem, states, outcome, _rounds = _run(
        block_cls, 32, False, programs
    )
    assert outcome is None
    assert all(state is _DONE for state in states)
    assert profile.op_counts[OpClass.FMUL] == 2  # one issue per warp
