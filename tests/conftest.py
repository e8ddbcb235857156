"""Shared fixtures for the test suite."""

from __future__ import annotations

import collections

import pytest

from repro.obs.tracer import Tracer
from repro.simgpu import ArchSpec, SimDevice


@pytest.fixture
def tiny_arch() -> ArchSpec:
    """A 2-multiprocessor device with 1 MiB of memory — fast to emulate."""
    return ArchSpec(
        name="tiny-g80",
        multiprocessors=2,
        device_memory_bytes=1 << 20,
    )


@pytest.fixture
def device(tiny_arch: ArchSpec) -> SimDevice:
    return SimDevice(tiny_arch)


@pytest.fixture
def big_device() -> SimDevice:
    """The full 8800 GTS configuration (12 MPs, 640 MiB)."""
    return SimDevice()


@pytest.fixture
def tracer_calls(monkeypatch) -> "collections.Counter[str]":
    """Counts ``Tracer.instant``/``Tracer.span`` calls by event name,
    made at the tracer's class whether tracing is on or off."""
    calls: "collections.Counter[str]" = collections.Counter()
    instant, span = Tracer.instant, Tracer.span

    def counted_instant(self, name, **args):
        calls[name] += 1
        return instant(self, name, **args)

    def counted_span(self, name, **args):
        calls[name] += 1
        return span(self, name, **args)

    monkeypatch.setattr(Tracer, "instant", counted_instant)
    monkeypatch.setattr(Tracer, "span", counted_span)
    return calls
