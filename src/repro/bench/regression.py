"""The perf-regression gate: snapshot experiment scalars, diff, enforce.

Every experiment runner already computes the numbers that matter — the
Fig 6.2 speedups, the v5 scaling curve, the serving throughput and p99,
the transfer bytes by cause.  This module makes that trajectory
*self-enforcing*: :func:`snapshot` flattens each experiment's
``Experiment.data`` into named scalars, :func:`compare` diffs a fresh
snapshot against a committed baseline with per-metric tolerances, and
``python -m repro.bench --check benchmarks/baseline.json`` exits
non-zero when a metric moved the wrong way — CI turns a silent
performance regression into a red build.

Direction matters: a 30% *higher* throughput is progress, a 30% higher
p99 is a page.  :func:`direction_of` classifies each metric name as
``lower`` (latencies, launches, failure counts), ``higher`` (speedups,
throughput, update rates), or ``band`` (shape constants such as the
Fig 5.5 neighbor share, where drift in *either* direction means the
model changed).  Good-direction moves beyond tolerance are reported as
improvements but never fail the gate; band metrics fail on any
out-of-tolerance drift.

Every registered experiment is gated: each reports only modelled
(virtual-time) or counted numbers, exactly reproducible for a given
seed.  Wall-clock measurement lives in ``perf/``, with noise bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Snapshot schema version (bump when the flattening rules change).
FORMAT = 1

#: Metric-name fragments that mean "smaller is better".
_LOWER_TOKENS = (
    "p50",
    "p95",
    "p99",
    "latency",
    "_ms",
    "launch",
    "rejected",
    "expired",
    "shed",
    "bytes",
    "queue_depth",
)

#: Metric-name fragments that mean "bigger is better".
_HIGHER_TOKENS = (
    "speedup",
    "throughput",
    "updates",
    "gain",
    "rps",
    "completed",
    "gflops",
    "per_second",
    "without",
    "with_tf",
    "gpu",
    "cpu",
)


def direction_of(metric: str) -> str:
    """``lower``, ``higher``, or ``band`` for a flattened metric name.

    Lower-is-better tokens win ties (a ``throughput_p99`` series is a
    latency), and only the metric's own segments are consulted.
    """
    name = metric.lower()
    if any(token in name for token in _LOWER_TOKENS):
        return "lower"
    if any(token in name for token in _HIGHER_TOKENS):
        return "higher"
    return "band"


def flatten_scalars(data: object, prefix: str = "") -> "dict[str, float]":
    """Numeric leaves of a nested dict, as dotted-key scalars.

    Booleans, strings, lists, and arbitrary objects are skipped — the
    gate compares numbers only, and list-shaped data (rows, samples) is
    presentation, not a tracked scalar.
    """
    out: "dict[str, float]" = {}
    if isinstance(data, dict):
        for key, value in data.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_scalars(value, dotted))
    elif isinstance(data, bool):
        pass
    elif isinstance(data, (int, float)):
        out[prefix] = float(data)
    return out


def snapshot(experiments: "dict | None" = None) -> dict:
    """Run the experiments and collect their scalars.

    ``experiments`` maps id -> runner (defaults to the full registry in
    :mod:`repro.bench.__main__`).  The result is the JSON document
    ``--baseline`` writes and ``--check`` compares against.
    """
    if experiments is None:
        from repro.bench.__main__ import EXPERIMENTS

        experiments = EXPERIMENTS
    results = {
        name: flatten_scalars(runner().data)
        for name, runner in experiments.items()
    }
    return {"format": FORMAT, "experiments": results}


def write_snapshot(path: str, snap: dict) -> None:
    """Serialize a snapshot as stable, diffable JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_snapshot(path: str) -> dict:
    """Read a snapshot written by :func:`write_snapshot`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Delta:
    """One metric's baseline-vs-current comparison."""

    experiment: str
    metric: str
    baseline: float
    current: float
    change_pct: float
    direction: str
    #: ``ok`` | ``regression`` | ``improvement`` | ``missing``
    verdict: str

    @property
    def failed(self) -> bool:
        """Does this delta fail the gate?"""
        return self.verdict in ("regression", "missing")


def _change_pct(baseline: float, current: float) -> float:
    if baseline == 0.0:
        return 0.0 if current == 0.0 else float("inf")
    return (current - baseline) / abs(baseline) * 100.0


def compare(
    baseline: dict,
    current: dict,
    tolerance_pct: float = 25.0,
    tolerances: "dict[str, float] | None" = None,
) -> "list[Delta]":
    """Diff two snapshots; returns every out-of-tolerance delta.

    ``tolerances`` overrides the default tolerance per metric, keyed by
    ``"experiment.metric"`` (exact match).  A baseline metric missing
    from the current snapshot always fails — silently dropping an
    experiment must not green the gate.
    """
    tolerances = tolerances or {}
    deltas: "list[Delta]" = []
    for experiment, metrics in sorted(baseline.get("experiments", {}).items()):
        got = current.get("experiments", {}).get(experiment, {})
        for metric, base_value in sorted(metrics.items()):
            tol = tolerances.get(f"{experiment}.{metric}", tolerance_pct)
            direction = direction_of(metric)
            if metric not in got:
                deltas.append(
                    Delta(
                        experiment,
                        metric,
                        base_value,
                        float("nan"),
                        float("nan"),
                        direction,
                        "missing",
                    )
                )
                continue
            value = got[metric]
            change = _change_pct(base_value, value)
            if abs(change) <= tol:
                continue
            worse = (
                change > 0
                if direction == "lower"
                else change < 0
                if direction == "higher"
                else True
            )
            deltas.append(
                Delta(
                    experiment,
                    metric,
                    base_value,
                    value,
                    change,
                    direction,
                    "regression" if worse else "improvement",
                )
            )
    return deltas


def render(deltas: "list[Delta]", tolerance_pct: float) -> str:
    """The human-readable gate report."""
    from repro.bench.report import format_table

    failures = [d for d in deltas if d.failed]
    if not deltas:
        return (
            f"perf gate OK: every metric within {tolerance_pct:g}% of baseline"
        )
    rows = [
        (
            d.experiment,
            d.metric,
            f"{d.baseline:g}",
            "-" if d.verdict == "missing" else f"{d.current:g}",
            "-" if d.verdict == "missing" else f"{d.change_pct:+.1f}%",
            d.direction,
            d.verdict,
        )
        for d in sorted(deltas, key=lambda d: (not d.failed, d.experiment))
    ]
    return format_table(
        "perf gate — out-of-tolerance metrics",
        ["experiment", "metric", "baseline", "current", "change", "direction",
         "verdict"],
        rows,
        note=f"{len(failures)} failing, "
        f"{len(deltas) - len(failures)} improvement(s), "
        f"tolerance {tolerance_pct:g}%",
    )
