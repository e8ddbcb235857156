"""Discrete-event validation of the latency-hiding model.

The analytic model (:mod:`repro.simgpu.perfmodel`) claims that with ``W``
resident warps each issuing ``g`` cycles of work between device-memory
reads of latency ``L``, a multiprocessor exposes
``max(0, L - (W-1)*g)`` stall cycles per read round.  That formula is a
steady-state argument; this module *simulates* the schedule — a
round-robin warp scheduler with blocking reads — cycle by cycle, so the
test suite can hold the closed form to an executable ground truth.

(This is a model-validation instrument, not part of the execution path:
kernels run on the lockstep emulator, timing comes from the analytic
model; this simulator referees between them.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.obs import NULL_SPAN

_TRACER = obs.get_tracer()


@dataclass(frozen=True)
class SyntheticWarp:
    """A warp that alternates compute and memory: ``reads`` rounds of
    (``gap_cycles`` of issue work, then one read of ``issue`` cycles that
    blocks the warp for ``latency`` cycles)."""

    reads: int
    gap_cycles: int


@dataclass
class MpSimResult:
    """Outcome of one scheduled run."""

    total_cycles: int
    issue_cycles: int  # cycles the pipeline actually issued
    idle_cycles: int  # cycles nothing was ready (exposed latency)

    @property
    def utilization(self) -> float:
        return self.issue_cycles / self.total_cycles if self.total_cycles else 0.0


def simulate_mp(
    warps: int,
    reads_per_warp: int,
    gap_cycles: int,
    *,
    latency: int = 500,
    issue: int = 4,
) -> MpSimResult:
    """Schedule ``warps`` identical synthetic warps on one multiprocessor.

    The scheduling policy is greedy-till-stall (issue from one warp until
    it blocks on its read, then switch — "oldest ready first"), which is
    both how scoreboarded hardware behaves for this analysis and the
    assumption behind the analytic formula.  A perfectly *fair*
    round-robin over synchronized identical warps would convoy — every
    warp reaches its read in the same window and the whole MP stalls
    together — an artifact of the synthetic symmetry, not of real mixes.

    Reads pipeline (any number in flight); a warp that issued one is
    unavailable until its latency expires.  Returns the makespan and the
    idle (exposed) cycles.
    """
    reads_left = [reads_per_warp] * warps
    ready_at = [0] * warps  # when each warp can issue again

    with (
        _TRACER.span(
            "mpsim.simulate",
            warps=warps,
            reads_per_warp=reads_per_warp,
            gap_cycles=gap_cycles,
            latency=latency,
            issue=issue,
        )
        if _TRACER.enabled
        else NULL_SPAN
    ) as span:
        clock = 0
        issued = 0
        idle = 0
        while any(r > 0 for r in reads_left):
            # Oldest-ready-first among warps with work.
            candidates = [w for w in range(warps) if reads_left[w] > 0]
            w = min(candidates, key=lambda k: (ready_at[k], k))
            if ready_at[w] > clock:
                idle += ready_at[w] - clock
                clock = ready_at[w]
            # Greedy: the whole compute gap, then the read, back to back.
            burst = gap_cycles + issue
            clock += burst
            issued += burst
            ready_at[w] = clock + latency
            reads_left[w] -= 1
        result = MpSimResult(
            total_cycles=clock, issue_cycles=issued, idle_cycles=idle
        )
        span.set(
            total_cycles=result.total_cycles,
            idle_cycles=result.idle_cycles,
            utilization=result.utilization,
        )
    return result


def analytic_prediction(
    warps: int,
    reads_per_warp: int,
    gap_cycles: int,
    *,
    latency: int = 500,
    issue: int = 4,
) -> float:
    """The perfmodel formula evaluated on the same synthetic workload."""
    issue_total = warps * reads_per_warp * (gap_cycles + issue)
    gap_with_issue = gap_cycles + issue
    exposed_per_round = max(0.0, latency - (warps - 1) * gap_with_issue)
    read_rounds = reads_per_warp  # per MP, with W warps interleaved
    return issue_total + read_rounds * exposed_per_round
