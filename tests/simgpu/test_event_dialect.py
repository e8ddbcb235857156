"""The emulated Boids kernels issue interned ops and slotted memory events.

A v5 step on the SIMT emulator issues tens of thousands of instructions.
The kernels and ``devicelib`` yield arithmetic events as interned module
constants and straight-line runs as interned bundles, so a step makes no
:func:`repro.simgpu.isa.op` call; their memory events — float3 accesses
included — are plain ``__slots__`` records, not frozen dataclasses; and a
thread's generator resumes once per run, not once per instruction.
These guards count calls; they do not time anything, so a regression
fails deterministically.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from repro.cupp.device import Device
from repro.gpusteer.emulated import EmulatedBoids
from repro.simgpu import devicelib as dl
from repro.simgpu import isa
from repro.simgpu.costs import OpClass
from repro.simgpu.warp import Thread

MEMORY_EVENTS = (
    isa.GlobalReadEvent,
    isa.GlobalWriteEvent,
    isa.SharedReadEvent,
    isa.SharedWriteEvent,
    isa.ConstantReadEvent,
    isa.TextureReadEvent,
    *isa.ACCESS3_TYPES,
)

#: Generator resumes (``gen.send`` calls by the warp) in one sim v5 step
#: at n=64 are 20,910; one event per instruction took 55,110.
MAX_RESUMES_PER_V5_STEP = 22_000


def _v5_step_counts(monkeypatch) -> "tuple[int, dict, int]":
    """``op`` calls, memory events built and generator resumes of one
    sim v5 step at n=64 (after the warm-up step that uploads every
    vector)."""
    boids = EmulatedBoids(
        64, 5, seed=11, device=Device(backend="sim"), threads_per_block=32
    )
    boids.step()
    op_calls = [0]
    real_op = isa.op

    def counted_op(*args, **kwargs):
        op_calls[0] += 1
        return real_op(*args, **kwargs)

    # Every module that imported ``op`` by name calls its own binding.
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "") or "").startswith("repro") and (
            getattr(module, "op", None) is real_op
        ):
            monkeypatch.setattr(module, "op", counted_op)
    built = dict.fromkeys(MEMORY_EVENTS, 0)
    for cls in MEMORY_EVENTS:
        init = cls.__init__

        def counted_init(self, *args, _init=init, _cls=cls):
            built[_cls] += type(self) is _cls
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
    resumes = [0]

    class CountingGen:
        """The thread's generator, counting every resume."""

        def __init__(self, gen) -> None:
            self._gen = gen

        def send(self, value):
            resumes[0] += 1
            return self._gen.send(value)

    post_init = Thread.__post_init__

    def counted_post_init(self):
        self.gen = CountingGen(self.gen)
        post_init(self)

    monkeypatch.setattr(Thread, "__post_init__", counted_post_init)
    boids.step()
    monkeypatch.undo()
    return op_calls[0], built, resumes[0]


def test_v5_step_makes_no_op_call(monkeypatch):
    op_calls, built, resumes = _v5_step_counts(monkeypatch)
    assert op_calls == 0
    # The step really ran the emulator: it built thousands of events,
    # its shared positions as float3 reads and none as scalar reads.
    assert built[isa.SharedRead3Event] > 4_000
    assert built[isa.SharedReadEvent] == 0
    assert built[isa.GlobalRead3Event] > 0
    assert built[isa.GlobalWrite3Event] > 0
    assert built[isa.GlobalReadEvent] > 0
    assert built[isa.GlobalWriteEvent] > 0
    # Bundles and float3 accesses resume a thread once per run.
    assert 10_000 < resumes <= MAX_RESUMES_PER_V5_STEP


@pytest.mark.parametrize("cls", MEMORY_EVENTS, ids=lambda c: c.__name__)
def test_memory_events_are_slotted_records(cls):
    assert not dataclasses.is_dataclass(cls)
    event = cls(object(), 3, 1.0) if "Write" in cls.__name__ else cls(object(), 3)
    assert not hasattr(event, "__dict__")
    assert event.index == 3
    assert cls.__name__ in repr(event)


def test_instruction_events_stay_frozen_and_interned():
    for cls in (isa.OpEvent, isa.SyncEvent, isa.ReconvergeEvent):
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen
    assert isa.op(OpClass.FADD, 3) is dl.FADD3
    assert isa.op(OpClass.FMUL) is dl.FMUL
    assert isa.op(OpClass.FMUL, 3) is dl.FMUL3
    assert isa.op(OpClass.FMAD, 2) is dl.FMAD2
    assert isa.op(OpClass.RSQRT) is dl.RSQRT
    assert dl.compare() is dl.COMPARE
    assert dl.iadd() is dl.IADD
    assert dl.branch() is dl.BRANCH
    assert isa.sync() is isa.sync() and isa.reconv() is isa.reconv()


def test_bundles_are_interned_tuples_of_interned_ops():
    run = isa.bundle(isa.OpEvent(OpClass.FMUL), dl.FMAD2)
    assert run is dl.LENGTH_SQUARED3
    assert type(run) is isa.OpBundle and run == (dl.FMUL, dl.FMAD2)
    assert all(part is isa.op(part.op, part.count) for part in run)
    # Nested bundles flatten; the precomputed totals sum per class.
    assert tuple(dl.NORMALIZE3) == (dl.FMUL, dl.FMAD2, dl.RSQRT, dl.FMUL3)
    assert dict(isa.bundle(dl.FMUL, dl.FMUL3).totals) == {OpClass.FMUL: 4}
    assert isa.parts(dl.NORMALIZE3) == tuple(dl.NORMALIZE3)
    assert isa.parts(dl.FMUL) == (dl.FMUL,)
    with pytest.raises(TypeError):
        isa.bundle(isa.sync())
    with pytest.raises(ValueError):
        isa.bundle()


def test_memory_helpers_coerce_the_index_once():
    """``ld_vec3`` builds one float3 access from an ``int``-coerced base,
    like :func:`repro.simgpu.isa.ld` does for a single element, and
    returns the 3-tuple sent back for it."""
    array = object()
    gen = dl.ld_vec3(array, np.int64(2))
    event = next(gen)
    assert type(event) is isa.GlobalRead3Event
    assert type(event.index) is int and event.index == 6
    assert [(p.array, p.index) for p in isa.parts(event)] == [
        (array, 6),
        (array, 7),
        (array, 8),
    ]
    with pytest.raises(StopIteration) as stop:
        gen.send((1.0, 2.0, 3.0))
    assert stop.value.value == (1.0, 2.0, 3.0)
    store = next(dl.sts_vec3(array, np.int64(1), (4.0, 5.0, 6.0)))
    assert type(store) is isa.SharedWrite3Event and store.index == 3
    assert [p.value for p in isa.parts(store)] == [4.0, 5.0, 6.0]
