"""cupp.Kernel: the C++-style kernel call (§4.3) including the paper's
listing 4.2/4.3 example, call semantics, and const-ref elision."""

import numpy as np
import pytest

from repro import obs
from repro.cuda import CudaMachine, global_
from repro.cupp import (
    Boxed,
    ConstRef,
    CuppLaunchError,
    CuppTraitError,
    Device,
    Kernel,
    Ref,
)
from repro.simgpu import OpClass, scaled_arch
from repro.simgpu.dims import Dim3
from repro.simgpu.isa import op


@pytest.fixture
def dev() -> Device:
    return Device(machine=CudaMachine([scaled_arch("t", 2, memory_bytes=1 << 22)]))


# --- The paper's running example (listings 4.2 / 4.3) -------------------
@global_
def half_kernel(ctx, i: int, j: Ref[int]):
    """__global__ void kernel(int i, int& j) { j = i/2; }"""
    yield op(OpClass.IADD)
    j.value = i // 2


class TestListing43:
    def test_j_equals_5(self, dev):
        # f(device_hdl, 10, j); // j == 5
        f = Kernel(half_kernel, grid_dim=Dim3(1, 1), block_dim=Dim3(1, 1))
        j = Boxed(0)
        f(dev, 10, j)
        assert j.value == 5

    def test_paper_dimensions_accepted(self, dev):
        # 10*10 blocks of 8*8 threads, as in listing 4.3.
        f = Kernel(half_kernel, grid_dim=Dim3(10, 10), block_dim=Dim3(8, 8))
        j = Boxed(0)
        f(dev, 10, j)
        assert j.value == 5


class TestConstruction:
    def test_requires_global_qualifier(self):
        def not_global(ctx, x):
            yield op(OpClass.IADD)

        with pytest.raises(CuppTraitError, match="__global__"):
            Kernel(not_global)

    def test_dimensions_settable_later(self, dev):
        f = Kernel(half_kernel)
        with pytest.raises(CuppLaunchError, match="dimensions"):
            f(dev, 10, Boxed(0))
        f.set_grid_dim(1)
        f.set_block_dim(1)
        j = Boxed(0)
        f(dev, 10, j)
        assert j.value == 5

    def test_analysis_is_paid_once_at_construction(self, dev):
        # §4.3.2 "compile time": one analysis per Kernel, none per call.
        analyses = obs.counter("cupp.traits.analyses")
        before = analyses.value
        f = Kernel(half_kernel, 1, 1)
        assert analyses.value - before == 1
        f(dev, 10, Boxed(0))
        f(dev, 12, Boxed(0))
        assert analyses.value - before == 1

    def test_arity_checked(self, dev):
        f = Kernel(half_kernel, 1, 1)
        with pytest.raises(CuppLaunchError, match="argument"):
            f(dev, 10)


class TestCallByValue:
    def test_value_argument_is_copied(self, dev):
        # §4.3.1 step 1: a copy of the object is generated; mutations by
        # the kernel never reach the caller's object.
        received = {}

        @global_
        def probe(ctx, payload: list):
            received["value"] = list(payload)
            payload.append("device-mutation")
            yield op(OpClass.IADD)

        original = ["a", "b"]
        Kernel(probe, 1, 1)(dev, original)
        assert received["value"] == ["a", "b"]
        assert original == ["a", "b"]  # by-value: caller unaffected

    def test_copy_counted_in_stats(self, dev):
        @global_
        def sink(ctx, a: float, b: float):
            yield op(OpClass.FADD)

        stats = Kernel(sink, 1, 1)(dev, 1.0, 2.0)
        assert stats.value_copies == 2
        assert stats.ref_uploads == 0


class TestCallByReference:
    def test_mutable_ref_copies_back(self, dev):
        @global_
        def incr(ctx, box: Ref[int]):
            yield op(OpClass.IADD)
            box.value += 1

        box = Boxed(41)
        stats = Kernel(incr, 1, 1)(dev, box)
        assert box.value == 42
        assert stats.writebacks == 1
        assert stats.elided_writebacks == 0

    def test_const_ref_skips_copy_back(self, dev):
        # §4.3.2: "if a reference is defined as constant ... the last step
        # is skipped" — the marquee traits optimization.
        @global_
        def reader(ctx, box: ConstRef[int]):
            yield op(OpClass.IADD)
            box.value += 100  # device-side change must be discarded

        box = Boxed(1)
        stats = Kernel(reader, 1, 1)(dev, box)
        assert box.value == 1
        assert stats.writebacks == 0
        assert stats.elided_writebacks == 1

    def test_ref_object_with_dict_updates_in_place(self, dev):
        class State:
            def __init__(self):
                self.hits = 0

        @global_
        def bump(ctx, s: Ref[State]):
            yield op(OpClass.IADD)
            s.hits += 1

        state = State()
        Kernel(bump, 1, 1)(dev, state)
        assert state.hits == 1

    def test_all_threads_share_the_referenced_object(self, dev):
        # Global memory is grid-visible: every thread sees the same object.
        @global_
        def accumulate(ctx, s: Ref[list]):
            yield op(OpClass.IADD)
            s.append(ctx.global_thread_id)

        out: list = []
        Kernel(accumulate, 2, 8)(dev, out)
        assert sorted(out) == list(range(16))

    def test_immutable_by_mutable_ref_is_a_trait_error(self, dev):
        @global_
        def bad(ctx, x: Ref[int]):
            yield op(OpClass.IADD)

        with pytest.raises(CuppTraitError, match="Boxed|dirty|ConstRef"):
            Kernel(bad, 1, 1)(dev, 7)

    def test_ref_upload_bytes_accounted(self, dev):
        @global_
        def reader(ctx, box: ConstRef[int]):
            yield op(OpClass.IADD)

        stats = Kernel(reader, 1, 1)(dev, Boxed(5))
        assert stats.ref_uploads == 1
        assert stats.ref_upload_bytes > 0


class TestCustomProtocol:
    def test_transform_called_for_by_value(self, dev):
        calls = []

        class Fancy:
            def transform(self, device):
                calls.append("transform")
                return 123  # device representation

        received = {}

        @global_
        def probe(ctx, x: Fancy):
            received["x"] = x
            yield op(OpClass.IADD)

        Kernel(probe, 1, 1)(dev, Fancy())
        assert calls == ["transform"]
        assert received["x"] == 123

    def test_custom_dirty_called_for_mutable_ref(self, dev):
        events = []

        class Tracked:
            def __init__(self):
                self.data = 0

            def dirty(self, device_ref):
                events.append("dirty")
                self.data = device_ref.get().data

        @global_
        def mutate(ctx, t: Ref[Tracked]):
            yield op(OpClass.IADD)
            t.data = 99

        tracked = Tracked()
        Kernel(mutate, 1, 1)(dev, tracked)
        assert events == ["dirty"]
        assert tracked.data == 99

    def test_custom_get_device_reference(self, dev):
        from repro.cupp import DeviceReference

        calls = []

        class Custom:
            def __init__(self):
                self.v = 5

            def get_device_reference(self, device):
                calls.append("gdr")
                return DeviceReference(device, self)

        @global_
        def read(ctx, c: ConstRef[Custom]):
            yield op(OpClass.IADD)

        Kernel(read, 1, 1)(dev, Custom())
        assert calls == ["gdr"]

    def test_bad_get_device_reference_rejected(self, dev):
        class Broken:
            def get_device_reference(self, device):
                return "not a DeviceReference"

        @global_
        def read(ctx, c: ConstRef[Broken]):
            yield op(OpClass.IADD)

        with pytest.raises(CuppTraitError, match="DeviceReference"):
            Kernel(read, 1, 1)(dev, Broken())


# --- The compiled call: plans and bound handles -------------------------
class TestCallPlan:
    """After the first call, a call runs its plan: no registry lookup, no
    plan build, and exactly the CUDA traffic the paper's semantics need."""

    @pytest.fixture
    def boids(self):
        from repro.gpusteer.emulated import EmulatedBoids

        obs.reset()
        boids = EmulatedBoids(64, 5, seed=11, device=Device(backend="native"))
        boids.step()  # warm-up: first uploads, first plans
        yield boids
        obs.reset()

    def test_v5_step_makes_no_lookup_and_builds_no_plan(self, boids, monkeypatch):
        from repro.cupp.kernel import Kernel as K
        from repro.obs.metrics import MetricsRegistry

        mallocs = obs.counter("cuda.malloc.count")
        memcpys = [
            obs.counter("cuda.memcpy.count", kind=kind)
            for kind in ("cudaMemcpyHostToDevice", "cudaMemcpyDeviceToHost")
        ]
        before = (mallocs.value, sum(c.value for c in memcpys))
        lookups, plans = [], []
        bind, build = MetricsRegistry._bind, K._build_plan
        monkeypatch.setattr(
            MetricsRegistry,
            "_bind",
            lambda self, *a: lookups.append(a[2]) or bind(self, *a),
        )
        monkeypatch.setattr(
            K, "_build_plan", lambda self, t: plans.append(t) or build(self, t)
        )
        assert not obs.enabled()
        boids.step()
        assert lookups == []
        assert plans == []
        after = (mallocs.value, sum(c.value for c in memcpys))
        assert (after[0] - before[0], after[1] - before[1]) == (10, 16)

    def test_readonly_wrapper_on_the_class_is_still_called(
        self, boids, monkeypatch
    ):
        from repro.cupp import Vector

        calls = []
        original = Vector.get_device_reference_readonly

        def wrapped(self, device):
            calls.append(self)
            return original(self, device)

        monkeypatch.setattr(Vector, "get_device_reference_readonly", wrapped)
        boids.step()
        # positions + forwards (simulate), steering + params (modify)
        assert len(calls) == 4

    def test_new_argument_type_builds_one_more_plan(self, dev):
        f = Kernel(half_kernel, 1, 1)
        j = Boxed(0)
        f(dev, 10, j)
        f(dev, 10, j)
        assert len(f._plans) == 1
        f(dev, np.int32(12), j)
        assert len(f._plans) == 2
        assert j.value == 6
        f(dev, 14, j)
        assert len(f._plans) == 2
        assert j.value == 7


    def test_by_ref_argument_is_pickled_once_per_copy(self, dev, monkeypatch):
        import pickle

        dumps, pickled = pickle.dumps, []
        monkeypatch.setattr(
            pickle,
            "dumps",
            lambda *a, **k: pickled.append(a[0]) or dumps(*a, **k),
        )
        j = Boxed(0)
        Kernel(half_kernel, 1, 1)(dev, 10, j)
        assert j.value == 5
        # One for the upload, one for the copy-back image.
        assert len(pickled) == 2


class TestSerializeFallback:
    def test_unpicklable_argument_is_counted(self, dev):
        class Local:  # defined in a function: pickle cannot find it
            def __init__(self):
                self.v = 3

        @global_
        def read(ctx, c: ConstRef[Local], out: Ref[int]):
            yield op(OpClass.IADD)
            out.value = c.v

        fallbacks = obs.counter("cupp.serialize.fallbacks")
        before = fallbacks.value
        out = Boxed(0)
        Kernel(read, 1, 1)(dev, Local(), out)
        assert out.value == 3
        assert fallbacks.value - before == 1


class TestTracingOff:
    def test_launch_builds_no_span_attributes(self, dev, monkeypatch):
        from repro.simgpu.profile import InstructionProfile

        summaries = []
        original = InstructionProfile.summary
        monkeypatch.setattr(
            InstructionProfile,
            "summary",
            lambda self: summaries.append(self) or original(self),
        )
        f = Kernel(half_kernel, 1, 1)
        assert not obs.enabled()
        f(dev, 10, Boxed(0))
        assert summaries == []
        with obs.capture() as cap:
            f(dev, 10, Boxed(0))
        assert len(summaries) == 1
        launch = next(
            e for e in cap.events if e.name == "cuda.launch:half_kernel"
        )
        assert launch.args["profile"] == original(summaries[0])
