"""repro.serve — multi-tenant simulation serving on the CuPP stack.

The serving subsystem turns the repo's boids pipeline into a service:
many client *sessions*, each owning a flock held in a ``cupp.Vector``
with §4.6 lazy-copy reuse across requests, step on a shared pool of
simulated GPUs.  Requests pass through admission control (bounded
queue, reject/shed-oldest/block backpressure, deadlines), a dynamic
batcher that coalesces them into fused kernel launches, and a
multi-device scheduler that places batches on a
:class:`~repro.cupp.multidevice.DeviceGroup` while overlapping transfer
with compute on the :class:`~repro.simgpu.transfer.DeviceTimeline`
model.  Everything runs in deterministic virtual time; the load
generator (``python -m repro.serve.loadgen``) reports p50/p95/p99
latency, throughput, and batch/launch statistics.
"""

from repro.serve.admission import POLICIES, AdmissionController
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.engine import StepEngine
from repro.serve.request import (
    FAILED_STATUSES,
    TERMINAL_STATUSES,
    RequestStatus,
    StepRequest,
)
from repro.serve.scheduler import DeviceScheduler, SubBatch, make_group
from repro.serve.service import (
    RetryPolicy,
    ServeConfig,
    ServiceStats,
    SimulationService,
)
from repro.serve.sessions import (
    STATE_FLOATS_PER_AGENT,
    Session,
    SessionStore,
)

__all__ = [
    "AdmissionController",
    "Batch",
    "DeviceScheduler",
    "DynamicBatcher",
    "FAILED_STATUSES",
    "POLICIES",
    "RequestStatus",
    "RetryPolicy",
    "STATE_FLOATS_PER_AGENT",
    "ServeConfig",
    "TERMINAL_STATUSES",
    "ServiceStats",
    "Session",
    "SessionStore",
    "SimulationService",
    "StepEngine",
    "StepRequest",
    "SubBatch",
    "make_group",
]
