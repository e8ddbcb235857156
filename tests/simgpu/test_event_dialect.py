"""The emulated Boids kernels issue interned ops and slotted memory events.

A v5 step on the SIMT emulator yields tens of thousands of events.  The
kernels and ``devicelib`` yield arithmetic events as interned module
constants, so a step makes no :func:`repro.simgpu.isa.op` call, and its
memory events are plain ``__slots__`` records, not frozen dataclasses.
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

MEMORY_EVENTS = (
    isa.GlobalReadEvent,
    isa.GlobalWriteEvent,
    isa.SharedReadEvent,
    isa.SharedWriteEvent,
    isa.ConstantReadEvent,
    isa.TextureReadEvent,
)


def _v5_step_counts(monkeypatch) -> "tuple[int, dict]":
    """``op`` calls and memory events built by one sim v5 step at n=64
    (after the warm-up step that uploads every vector)."""
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
    boids.step()
    monkeypatch.undo()
    return op_calls[0], built


def test_v5_step_makes_no_op_call(monkeypatch):
    op_calls, built = _v5_step_counts(monkeypatch)
    assert op_calls == 0
    # The step really ran the emulator: it built thousands of events.
    assert built[isa.SharedReadEvent] > 10_000
    assert built[isa.GlobalReadEvent] > 0
    assert built[isa.GlobalWriteEvent] > 0


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


def test_memory_helpers_coerce_the_index_once():
    """``ld_vec3`` builds its events from an ``int``-coerced base, like
    :func:`repro.simgpu.isa.ld` does for a single element."""
    events = []
    gen = dl.ld_vec3(object(), np.int64(2))
    events.append(next(gen))
    events.append(gen.send(0.0))
    events.append(gen.send(0.0))
    assert [type(e.index) for e in events] == [int, int, int]
    assert [e.index for e in events] == [6, 7, 8]
