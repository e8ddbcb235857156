"""With tracing off, the remaining library trace sites cost one branch.

The double-buffering frame model, the modelled GPU Boids run and its
version ladder, the shared pointer's lifecycle instants and the
multiprocessor scheduling simulation all guard their spans and instants
on ``Tracer.enabled``: a disabled tracer is never called, so no kwargs
are built.  The calls are counted at the tracer's class.  With tracing
on, every site still records the same names with the same attributes.
"""

from __future__ import annotations

from repro import obs
from repro.cupp.device import Device
from repro.cupp.shared_ptr import DeviceSharedPtr
from repro.gpusteer.double_buffer import compare
from repro.gpusteer.pipeline import GpuBoidsRun, version_ladder
from repro.simgpu.mpsim import simulate_mp
from repro.steer.params import DEFAULT_PARAMS

#: name -> (calls in :func:`_exercise`, attribute names of each event).
EXPECTED = {
    "db.update": (25, {"host_compute_s", "transfer_s", "gpu_kernel_s"}),
    "db.fetch_draw": (25, {"nbytes", "gl_interop"}),
    "db.draw": (24, {"host_s", "render_s"}),
    "db.frame": (24, {"frame", "double_buffered"}),
    "gpusteer.run": (
        1,
        {
            "version",
            "n",
            "steps",
            "updates_per_second",
            "host_compute_s",
            "gpu_kernel_s",
            "transfer_s",
        },
    ),
    "gpusteer.step": (2, {"step"}),
    "gpusteer.version_ladder": (1, {"n", "steps"}),
    **{
        f"gpusteer.version:{v}": (
            1,
            {
                "n",
                "updates_per_second",
                "host_compute_s",
                "gpu_kernel_s",
                "transfer_s",
                "launch_overhead_s",
            },
        )
        for v in range(6)
    },
    "shared_ptr.alloc": (1, {"nbytes", "addr"}),
    "shared_ptr.clone": (1, {"addr", "use_count"}),
    "shared_ptr.release": (2, {"addr", "use_count"}),
    "mpsim.simulate": (
        1,
        {
            "warps",
            "reads_per_warp",
            "gap_cycles",
            "latency",
            "issue",
            "total_cycles",
            "idle_cycles",
            "utilization",
        },
    ),
}


def _exercise() -> None:
    """One pass over every guarded site."""
    compare(64, DEFAULT_PARAMS)  # 12 frames without, 12 with double buffering
    GpuBoidsRun(64, seed=3).run(steps=2)
    version_ladder(64, steps=1, seed=3)
    ptr = DeviceSharedPtr(Device(backend="sim"), 64)
    other = ptr.clone()
    other.release()
    ptr.release()
    simulate_mp(4, 3, 20)


def test_tracing_off_makes_no_tracer_call(tracer_calls):
    assert not obs.enabled()
    _exercise()
    assert tracer_calls == {}


def test_tracing_on_records_every_site_with_its_attributes(tracer_calls):
    recorder = obs.enable_tracing()
    try:
        _exercise()
    finally:
        obs.disable_tracing()
    # The device, CUDA and transfer instants on the way have tests of
    # their own.
    sites = {
        name: count
        for name, count in tracer_calls.items()
        if name.startswith(("db.", "gpusteer.", "shared_ptr.", "mpsim."))
    }
    assert sites == {name: count for name, (count, _) in EXPECTED.items()}
    for event in recorder.events():
        if event.name in EXPECTED:
            assert set(event.args) == EXPECTED[event.name][1], event.name
    use_counts = [
        e.args["use_count"]
        for e in recorder.events()
        if e.name in ("shared_ptr.clone", "shared_ptr.release")
    ]
    assert use_counts == [2, 1, 0]
