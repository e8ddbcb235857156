"""Comparing two result sets with the bounds in ``BENCHMARK.json``.

A set file (written by ``python -m perf``) stores every run.  For each
workload and end-to-end metric this reports each side's median and
quartiles and a verdict:

* ``worse``: the new median is worse than the base median by more than
  the metric's bound;
* ``better``: the new median is better by more than the base's own
  quartile spread, and of at least ten pairs (base run *i* against new
  run *i*) the new run wins nine in ten;
* ``unresolved``: the run-to-run spread of either side exceeds the
  bound, unless every new run beats (or loses to) every base run;
* ``same`` otherwise.

This module uses only the standard library.
"""

from __future__ import annotations

import statistics

#: Pairs of runs needed before a gain is claimed.
MIN_PAIRS = 10


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(doc: dict, workload: str, metric: str) -> "list[float]":
    """The metric's value in every untraced run of ``workload``."""
    return [
        run["result"]["metrics"][metric]["value"]
        for run in doc["runs"]
        if run["workload"] == workload
        and not run["trace"]
        and run["result"]
        and metric in run["result"]["metrics"]
    ]


def verdict(base: "list[float]", new: "list[float]", better: str, bound: float) -> str:
    """Classify ``new`` against ``base`` for one metric (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    q1b, mb, q3b = quartiles(base)
    q1n, mn, q3n = quartiles(new)
    gain = sign * (mn - mb) / abs(mb) if mb else 0.0
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    all_worse = max(sign * v for v in new) < min(sign * v for v in base)
    spread = max(
        (q3b - q1b) / abs(mb) if mb else 0.0,
        (q3n - q1n) / abs(mn) if mn else 0.0,
    )
    if spread > bound and not all_better:
        return "worse" if all_worse else "unresolved"
    if spread <= bound and gain < -bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and gain > (q3b - q1b) / abs(mb)
    ):
        return "better"
    return "same"


def compare(base: dict, new: dict, bench: dict) -> "list[dict]":
    """One row per (workload, end-to-end metric) present in both sets."""
    workloads = [w["name"] for w in bench["workloads"]]
    rows = []
    for workload in workloads:
        for metric in bench["end_to_end"]:
            b = values(base, workload, metric["name"])
            n = values(new, workload, metric["name"])
            if not b or not n:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "base": quartiles(b),
                    "new": quartiles(n),
                    "runs": (len(b), len(n)),
                    "verdict": verdict(b, n, metric["better"], metric["bound"]),
                }
            )
    return rows


def render(rows: "list[dict]") -> "list[str]":
    """The comparison as a fixed-width table."""
    lines = [
        f"{'workload':<12} {'metric':<12} {'base median [q1, q3]':<34} "
        f"{'new median [q1, q3]':<34} {'change':>8} {'bound':>6}  verdict"
    ]
    for r in rows:
        q1b, mb, q3b = r["base"]
        q1n, mn, q3n = r["new"]
        change = (mn - mb) / abs(mb) * 100 if mb else 0.0
        lines.append(
            f"{r['workload']:<12} {r['metric']:<12} "
            f"{f'{mb:.5g} [{q1b:.5g}, {q3b:.5g}]':<34} "
            f"{f'{mn:.5g} [{q1n:.5g}, {q3n:.5g}]':<34} "
            f"{change:>+7.1f}% {r['bound'] * 100:>5.0f}%  {r['verdict']}"
        )
    return lines
