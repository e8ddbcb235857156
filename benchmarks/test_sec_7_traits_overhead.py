"""§7 — the pay-once cost of CuPP's kernel-signature analysis.

The paper measures CuPP's template metaprogramming at compile time
(3.1 s -> 7.3 s for the Boids scenario).  The Python analog runs once per
``cupp.Kernel`` construction.  The ``sec-7`` experiment counts that it
runs once per construction and never per call, and what it buys; this
benchmark times it on the wall clock and checks the shape: construction
is much dearer than a bare launch configuration, but stays a
microsecond-range, pay-once cost.
"""

import time

from conftest import emit

from repro.bench.harness import run_sec_7_traits
from repro.cupp import Kernel, analyze_kernel
from repro.gpusteer.kernels_emu import modify_kernel
from repro.simgpu.dims import as_dim3

REPEATS = 2000


def per_call_s(fn) -> float:
    start = time.perf_counter()
    for _ in range(REPEATS):
        fn()
    return (time.perf_counter() - start) / REPEATS


def test_sec_7_traits_overhead(benchmark):
    exp = benchmark.pedantic(run_sec_7_traits, rounds=1, iterations=1)
    emit(exp.report)
    assert exp.data["analyses_per_construction"] == 1
    assert exp.data["analyses_per_call"] == 0

    analysis = per_call_s(lambda: analyze_kernel(modify_kernel))
    # The raw-CUDA "configuration" work.
    bare = per_call_s(lambda: (as_dim3(128), as_dim3(32)))
    kernel = per_call_s(lambda: Kernel(modify_kernel, 128, 32))
    emit(f"bare launch configuration {bare * 1e6:.2f} us, analyze_kernel "
         f"{analysis * 1e6:.2f} us, Kernel construction {kernel * 1e6:.2f} us")
    # The analysis dominates Kernel construction and dwarfs a bare config.
    assert kernel >= analysis * 0.5
    assert kernel > 5 * bare
    # But it stays a pay-once cost in the microsecond range — nothing
    # that appears per launch.
    assert analysis < 5e-3
