"""Per-stage cycle accounting — the instrument behind Fig. 5.5.

The paper profiles the CPU demo and finds the neighbor search eats ~82%
of the cycles.  :class:`StageProfile` accumulates modelled cycles per
stage across steps and reports shares; the Fig. 5.5 benchmark prints its
:meth:`breakdown`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs

#: Canonical stage names, in pipeline order (Fig. 5.4).
STAGES = ("neighbor_search", "steering", "modification", "draw", "other")

_STAGE_CYCLES = {
    stage: obs.bind_counter("steer.stage_cycles", stage=stage)
    for stage in STAGES
}


@dataclass
class StageProfile:
    """Accumulated cycles per pipeline stage."""

    cycles: "OrderedDict[str, float]" = field(
        default_factory=lambda: OrderedDict((s, 0.0) for s in STAGES)
    )

    def add(self, stage: str, cycles: float) -> None:
        if stage not in self.cycles:
            raise KeyError(f"unknown stage {stage!r}; expected one of {STAGES}")
        self.cycles[stage] += cycles
        _STAGE_CYCLES[stage].inc(cycles)
        tracer = obs.get_tracer()
        if tracer.enabled:
            tracer.instant(f"stage:{stage}", cycles=cycles)

    @property
    def total(self) -> float:
        return sum(self.cycles.values())

    def share(self, stage: str) -> float:
        """Fraction of all cycles spent in ``stage`` (0.0 when idle)."""
        total = self.total
        return self.cycles[stage] / total if total else 0.0

    def update_share(self, stage: str) -> float:
        """Share within the update stage only (draw excluded), which is
        what Fig. 5.5 reports."""
        update_total = sum(
            c for s, c in self.cycles.items() if s != "draw"
        )
        return self.cycles[stage] / update_total if update_total else 0.0

    def breakdown(self) -> "OrderedDict[str, float]":
        """Stage -> share of total cycles."""
        total = self.total
        return OrderedDict(
            (s, (c / total if total else 0.0)) for s, c in self.cycles.items()
        )

    def merge(self, other: "StageProfile") -> None:
        """Accumulate another profile into this one, in place — the same
        API shape as :meth:`repro.simgpu.profile.InstructionProfile.merge`,
        so the two profile types compose uniformly."""
        for s in STAGES:
            self.cycles[s] += other.cycles[s]

    def merged(self, other: "StageProfile") -> "StageProfile":
        """Out-of-place variant of :meth:`merge` (kept for callers that
        want a fresh profile): returns ``self + other``."""
        out = StageProfile()
        out.merge(self)
        out.merge(other)
        return out
