"""The §4.6 lazy-copy protocol, checked once over every CuPP container.

Each case builds a container, consumes it the way a by-value kernel
argument does (``transform``), and knows one host write that keeps the
device shape.  All four containers share one implementation
(:mod:`repro.cupp.lazy`), so every check runs over every container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro import obs
from repro.cuda import CudaMachine, global_
from repro.cupp import (
    CuppUsageError,
    Device,
    DeviceVector,
    Kernel,
    NestedVector,
    Ref,
    Vector,
)
from repro.cupp.containers import FlatMap, HashGrid
from repro.simgpu import OpClass, scaled_arch
from repro.simgpu.isa import ld, op, st


def _device(name: str = "t") -> Device:
    machine = CudaMachine([scaled_arch(name, 2, memory_bytes=1 << 22)])
    return Device(machine=machine)


@pytest.fixture
def dev() -> Device:
    return _device()


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset()
    yield
    obs.reset()


@global_
def double_all(ctx, v: Ref[DeviceVector]):
    i = ctx.global_thread_id
    if i < len(v):
        x = yield ld(v.view, i)
        yield op(OpClass.FMUL)
        yield st(v.view, i, x * 2.0)


_POSITIONS = np.random.default_rng(3).uniform(-8, 8, (16, 3))


def _grid() -> HashGrid:
    grid = HashGrid(cell_edge=2.0)
    grid.build(_POSITIONS)
    return grid


@dataclass(frozen=True)
class Case:
    make: Callable[[], object]
    #: One host write that leaves the device shape unchanged.
    write: Callable[[object], None]


CASES = {
    "Vector": Case(
        lambda: Vector(np.arange(8, dtype=np.float32)),
        lambda v: v.__setitem__(0, 5.0),
    ),
    "NestedVector": Case(
        lambda: NestedVector([[1.0, 2.0], [3.0]]),
        lambda nv: nv[0].__setitem__(0, 5.0),
    ),
    "FlatMap": Case(
        lambda: FlatMap({1: 10, 2: 20}),
        lambda fmap: fmap.__setitem__(1, 11),
    ),
    "HashGrid": Case(_grid, lambda grid: grid.build(_POSITIONS)),
}

each_container = pytest.mark.parametrize(
    "case", CASES.values(), ids=CASES.keys()
)


def _moved_h2d() -> int:
    moved = obs.get_ledger().snapshot()["moved_bytes_by_direction"]
    return moved.get("h2d", 0)


def _mallocs() -> int:
    return obs.counter("cuda.malloc.count").value


@each_container
def test_second_consumption_is_a_lazy_hit(case, dev):
    container = case.make()
    container.transform(dev)
    moved = _moved_h2d()
    assert moved > 0
    container.transform(dev)
    assert _moved_h2d() == moved


@each_container
def test_host_write_reuploads_once_in_place(case, dev):
    container = case.make()
    container.transform(dev)
    upload = _moved_h2d()
    mallocs = _mallocs()
    case.write(container)
    container.transform(dev)
    container.transform(dev)
    assert _moved_h2d() == 2 * upload  # exactly one full re-upload
    assert _mallocs() == mallocs


@each_container
def test_second_device_is_refused(case, dev):
    container = case.make()
    container.transform(dev)
    with pytest.raises(CuppUsageError, match="different device"):
        container.transform(_device("u"))


@pytest.mark.parametrize(
    "case", [CASES["FlatMap"], CASES["HashGrid"]], ids=["FlatMap", "HashGrid"]
)
def test_containers_are_const_on_the_device(case, dev):
    container = case.make()
    ref = container.get_device_reference(dev)
    with pytest.raises(CuppUsageError, match="ConstRef"):
        container.dirty(ref)


def _lazy_miss_bytes() -> int:
    return obs.get_ledger().snapshot()["bytes_by_cause"].get("lazy-miss", 0)


def test_len_of_a_host_stale_vector_downloads_nothing(dev):
    v = Vector(np.ones(64, dtype=np.float32))
    Kernel(double_all, 2, 32)(dev, v)  # the host copy is now stale
    before = _lazy_miss_bytes()
    assert len(v) == 64 and v.size == 64 and not v.empty()
    assert _lazy_miss_bytes() == before
    assert v.downloads == 0
    assert v[0] == 2.0  # a real read still downloads
    assert _lazy_miss_bytes() == before + 64 * 4


def test_swap_host_stale_with_host_only(dev):
    a = Vector(np.ones(8, dtype=np.float32))
    Kernel(double_all, 1, 8)(dev, a)  # device-resident, host stale
    b = Vector([7.0, 8.0, 9.0])
    a.swap(b)
    assert list(a) == [7.0, 8.0, 9.0]
    assert a.downloads == 0 and a.uploads == 0
    assert list(b) == [2.0] * 8  # b took over a's device copy
    assert b.downloads == 1
    mallocs = _mallocs()
    b.transform(dev)  # still resident: a lazy hit
    a.transform(dev)  # never uploaded: a fresh block
    assert (b.uploads, a.uploads) == (1, 1)
    assert _mallocs() == mallocs + 1
