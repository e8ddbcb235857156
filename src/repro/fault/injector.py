"""Deterministic fault injection for the simulated CUDA stack.

The serving stack (PRs 2-4) assumes every launch, transfer, and
allocation succeeds; CuPP's device-management layer exists precisely
because real CUDA does not behave that way.  This module supplies the
chaos half of the resilience story: a seedable :class:`FaultInjector`
that the runtime (:meth:`~repro.cuda.runtime.CudaRuntime.cudaMalloc` /
``cudaLaunch`` / ``cudaMemcpy``) and the serving scheduler consult at
well-defined points, injecting the four classic GPU failure modes:

``launch-fail``
    A transient kernel-launch failure, detected synchronously (the
    driver returns ``cudaErrorLaunchFailure``; nothing ran).
``hang``
    The launch is accepted but the device wedges for
    :attr:`FaultConfig.hang_latency_s` — only a watchdog timeout can
    surface it.  In the serving layer this is what batch timeouts,
    device eviction, and session failover exist for.
``transfer-corrupt``
    An uncorrectable ECC error on a host<->device copy: the bytes cross
    the bus but arrive poisoned (``cudaErrorECCUncorrectable``).
``spurious-oom``
    ``cudaMalloc`` fails although memory is available — the transient
    OOM the :mod:`repro.mem` flush-and-retry path absorbs.

Determinism is a hard requirement (the whole repo is virtual-time and
bit-identical per seed), so the injector consumes **exactly one**
uniform draw per consult point, whatever the configured rates, and
events are attributed through the usual observability spine: a
``fault-inject`` ledger cause, ``fault.injected`` counters, and a
``fault.inject`` trace instant per fired fault.

Tests that need a specific fault at a specific consult use
:attr:`FaultConfig.script` instead of rates: a mapping from consult
point to the exact sequence of kinds to inject (``None`` entries mean
"no fault here"); scripted points consume no randomness at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs

#: The injectable fault kinds, by the consult point that can draw them.
FAULT_POINTS = {
    "launch": ("launch-fail", "hang"),
    "transfer": ("transfer-corrupt",),
    "alloc": ("spurious-oom",),
}

#: Every fault kind the injector can produce.
FAULT_KINDS = tuple(k for kinds in FAULT_POINTS.values() for k in kinds)

_TRACER = obs.get_tracer()
_INJECTED = {
    kind: obs.bind_counter("fault.injected", kind=kind) for kind in FAULT_KINDS
}


class InjectedFault(Exception):
    """Raised by a consult site that surfaces a fault as control flow
    (the serving scheduler's launch path).  Carries the fault kind and
    the device it fired on so recovery can attribute it."""

    def __init__(self, kind: str, device_index: "int | None" = None) -> None:
        super().__init__(f"injected fault: {kind} (device {device_index})")
        self.kind = kind
        self.device_index = device_index


@dataclass
class FaultConfig:
    """Rates and shape of the injected chaos (all rates per consult).

    A consult is one fault-prone operation: one sub-batch (or runtime)
    kernel launch, one fused transfer, one driver allocation.  Rates
    are independent probabilities; at most one fault fires per consult.
    """

    seed: int = 0
    #: Transient launch failure (synchronously detected, retryable).
    launch_fail_rate: float = 0.0
    #: Device hang on launch; surfaced only by a watchdog timeout.
    hang_rate: float = 0.0
    #: How long a hung device stays wedged before going idle again.
    hang_latency_s: float = 50e-3
    #: Uncorrectable ECC corruption on a host<->device copy.
    transfer_corrupt_rate: float = 0.0
    #: cudaMalloc fails although memory is available (transient OOM).
    spurious_oom_rate: float = 0.0
    #: Scripted injection: consult point -> exact sequence of kinds
    #: (``None`` = no fault).  Scripted points bypass the RNG entirely.
    script: "dict[str, list] | None" = None

    def __post_init__(self) -> None:
        for point, kinds in FAULT_POINTS.items():
            total = sum(self._rate(k) for k in kinds)
            if total > 1.0:
                raise ValueError(
                    f"fault rates at consult point {point!r} sum to "
                    f"{total}, which exceeds 1"
                )
        if self.script:
            unknown = set(self.script) - set(FAULT_POINTS)
            if unknown:
                raise ValueError(
                    f"scripted consult point(s) {sorted(unknown)} unknown; "
                    f"one of {sorted(FAULT_POINTS)}"
                )

    def _rate(self, kind: str) -> float:
        return {
            "launch-fail": self.launch_fail_rate,
            "hang": self.hang_rate,
            "transfer-corrupt": self.transfer_corrupt_rate,
            "spurious-oom": self.spurious_oom_rate,
        }[kind]

    @classmethod
    def chaos(
        cls, seed: int = 0, device_fault_rate: float = 0.01
    ) -> "FaultConfig":
        """The standard chaos mix: ``device_fault_rate`` total fault
        probability per device operation, split across the four kinds
        (launch failures dominate; hangs are rare but expensive)."""
        return cls(
            seed=seed,
            launch_fail_rate=0.4 * device_fault_rate,
            hang_rate=0.2 * device_fault_rate,
            transfer_corrupt_rate=0.2 * device_fault_rate,
            spurious_oom_rate=0.2 * device_fault_rate,
        )

    @property
    def any_enabled(self) -> bool:
        """Is there any way this config can produce a fault?"""
        return bool(self.script) or any(
            self._rate(k) > 0.0 for k in FAULT_KINDS
        )


@dataclass
class FaultStats:
    """Counters one injector accumulated (JSON-friendly)."""

    consults: int = 0
    injected: int = 0
    by_kind: "dict[str, int]" = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "consults": self.consults,
            "injected": self.injected,
            "by_kind": dict(self.by_kind),
        }


class FaultInjector:
    """Seeded fault source consulted by the runtime and the scheduler.

    One uniform draw is consumed per (unscripted) consult regardless of
    outcome, so two runs with the same seed and the same event order
    see the same faults — the property the chaos acceptance test holds
    the serving layer to.
    """

    def __init__(self, config: "FaultConfig | None" = None) -> None:
        self.config = config or FaultConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._script = {
            point: list(kinds)
            for point, kinds in (self.config.script or {}).items()
        }
        self.stats = FaultStats(by_kind={k: 0 for k in FAULT_KINDS})
        #: Optional ``listener(kind, point, device_index)`` — the serving
        #: layer installs one to feed its SLO monitor a fault series.
        self.listener = None

    # ------------------------------------------------------------------
    def draw(
        self,
        point: str,
        device_index: "int | None" = None,
        nbytes: int = 0,
    ) -> "str | None":
        """Consult the injector at ``point``; returns a fault kind or
        ``None``.  ``nbytes`` sizes the ledger attribution for faults
        that poison data in flight (ECC corruption)."""
        kinds = FAULT_POINTS.get(point)
        if kinds is None:
            raise ValueError(
                f"unknown consult point {point!r}; one of "
                f"{sorted(FAULT_POINTS)}"
            )
        self.stats.consults += 1
        scripted = self._script.get(point)
        if scripted is not None:
            kind = scripted.pop(0) if scripted else None
            if kind is not None and kind not in kinds:
                raise ValueError(
                    f"scripted kind {kind!r} cannot fire at point {point!r}"
                )
        else:
            u = float(self._rng.random())
            kind = None
            edge = 0.0
            for candidate in kinds:
                edge += self.config._rate(candidate)
                if u < edge:
                    kind = candidate
                    break
        if kind is None:
            return None
        self.stats.injected += 1
        self.stats.by_kind[kind] += 1
        _INJECTED[kind].inc()
        if _TRACER.enabled:
            _TRACER.instant(
                "fault.inject", kind=kind, point=point, device=device_index
            )
        obs.record_transfer(
            "fault-inject", "none", nbytes, moved=False, label=kind
        )
        if self.listener is not None:
            self.listener(kind, point, device_index)
        return kind

    @property
    def injected(self) -> int:
        """Total faults fired so far."""
        return self.stats.injected
