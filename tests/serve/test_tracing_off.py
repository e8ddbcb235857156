"""With tracing off, serving's trace sites cost one branch each.

Every ``serve.*`` instant, the fault injector's ``fault.inject`` and the
per-batch ``serve.batch`` span sit behind ``Tracer.enabled``, so a
disabled tracer is never called: no kwargs are built and no span object
is entered.  The slices below are
the serve-load workload's arrival stream (and a chaotic, overloaded
variant that reaches the fault, shed and deadline sites), counted at
the tracer's class.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.fault import FaultConfig
from repro.serve.service import ServeConfig, SimulationService

CONFIGS = {
    "serve-load": ServeConfig(physics=False),
    "chaos-overload": ServeConfig(
        physics=False,
        faults=FaultConfig.chaos(seed=7, device_fault_rate=0.3),
        policy="shed-oldest",
        queue_capacity=64,
        default_deadline_s=0.02,
    ),
}


def _slice(config: ServeConfig, seconds: float = 0.1) -> SimulationService:
    """Open-loop Poisson arrivals at 16,000 req/s from 32 clients."""
    service = SimulationService(config)
    for i in range(32):
        service.create_session(f"client-{i}", seed=i)
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(1 / 16_000, int(32_000 * seconds)))
    arrivals = arrivals[arrivals < seconds]
    owners = rng.integers(0, 32, arrivals.size)
    for at, owner in zip(arrivals.tolist(), owners.tolist()):
        service.advance(at)
        service.submit(f"client-{owner}")
    service.drain()
    return service


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_tracing_off_makes_no_tracer_call(config, tracer_calls):
    assert not obs.enabled()
    service = _slice(CONFIGS[config])
    assert service.stats.batches > 0
    assert tracer_calls == {}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_tracing_on_still_records_every_site(config, tracer_calls):
    obs.enable_tracing()
    try:
        service = _slice(CONFIGS[config])
    finally:
        obs.disable_tracing()
    assert tracer_calls["serve.batch"] == service.stats.batches
    if config == "chaos-overload":
        # The slice reaches the admission, fault and health sites.
        assert {
            "serve.shed",
            "serve.launch-fault",
            "serve.result-corrupt",
            "serve.batch-timeout",
            "serve.sibling-abandon",
            "serve.zombie-complete",
            "serve.failover",
            "serve.request-failed",
            "serve.device-evict",
            "serve.device-readmit",
        } <= set(tracer_calls)
