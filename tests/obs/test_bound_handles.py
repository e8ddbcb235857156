"""Bound metric handles: bind once, and ``obs.reset()`` keeps them valid.

Hot code resolves each series once (at import, or per owner) and keeps
the instrument.  These tests pin the two halves of that contract: a
reset zeroes instruments in place, so a handle cached before it still
counts into the registry, and a snapshot lists exactly the series that
were looked up or updated since the last reset.  An AST guard keeps the
CUDA runtime, the kernel call and the lazy-copy protocol free of
per-call registry lookups.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry

SRC = pathlib.Path(obs.__file__).resolve().parents[1]


class TestResetKeepsHandles:
    def test_cached_handle_counts_after_reset(self):
        handle = obs.counter("test.cached")
        handle.inc(5)
        obs.reset()
        handle.inc()
        assert obs.get_metrics().snapshot()["counters"]["test.cached"] == 1
        assert obs.counter("test.cached") is handle

    def test_reset_zeroes_every_kind_in_place(self):
        reg = MetricsRegistry()
        c, g, h = reg.counter("c"), reg.gauge("g"), reg.histogram("h")
        c.inc(3)
        g.set(7)
        h.observe(4.0, trace_id="t")
        reg.reset()
        assert (c.value, g.value, h.count, h.exemplars) == (0, 0.0, 0, None)
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        h.observe(2.0)
        assert reg.snapshot()["histograms"]["h"]["count"] == 1


class TestLiveSeries:
    def test_bound_handle_is_listed_once_used(self):
        reg = MetricsRegistry()
        handle = reg.bind_counter("bound", kind="x")
        assert reg.snapshot()["counters"] == {}
        handle.inc()
        assert reg.snapshot()["counters"] == {"bound{kind=x}": 1}

    def test_lookup_lists_the_series_at_zero(self):
        reg = MetricsRegistry()
        reg.bind_gauge("depth")
        reg.gauge("depth")
        assert reg.snapshot()["gauges"] == {"depth": 0.0}

    def test_gauge_back_at_zero_is_still_listed(self):
        reg = MetricsRegistry()
        depth = reg.bind_gauge("depth")
        depth.inc()
        depth.dec()
        assert reg.snapshot()["gauges"] == {"depth": 0}

    def test_bind_and_lookup_share_one_instrument(self):
        reg = MetricsRegistry()
        assert reg.bind_histogram("h", a=1) is reg.histogram("h", a=1)


# ----------------------------------------------------------------------
# no registry lookup on the call path
# ----------------------------------------------------------------------
CALL_PATH = ("cuda/runtime.py", "cupp/kernel.py", "cupp/lazy.py")
LOOKUPS = {"counter", "gauge", "histogram"}


def _lookups_in_function_bodies(tree: ast.AST) -> "list[tuple[str, int]]":
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in LOOKUPS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs"
            ):
                found.append((fn.name, node.lineno))
    return found


@pytest.mark.parametrize("path", CALL_PATH)
def test_call_path_functions_make_no_registry_lookup(path):
    tree = ast.parse((SRC / path).read_text())
    assert _lookups_in_function_bodies(tree) == []


def test_the_guard_sees_a_lookup():
    tree = ast.parse("def f():\n    obs.counter('x').inc()\n")
    assert _lookups_in_function_bodies(tree) == [("f", 2)]
