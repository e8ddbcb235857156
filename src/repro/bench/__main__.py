"""Run every experiment and print the regenerated tables/figures.

Usage::

    python -m repro.bench                    # everything
    python -m repro.bench fig-6.2            # one experiment by id
    python -m repro.bench --list             # available experiment ids
    python -m repro.bench --trace DIR        # also dump traces + metrics

The perf-regression gate rides the same entry point::

    python -m repro.bench --baseline benchmarks/baseline.json
    python -m repro.bench --check benchmarks/baseline.json --tolerance 25

``--baseline`` snapshots every experiment's key scalars to JSON;
``--check`` re-runs them, compares against the committed baseline (per
:mod:`repro.bench.regression`), and exits non-zero on regression — the
CI hook that makes the BENCH_* trajectory self-enforcing.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.bench.harness import (
    run_alloc_churn,
    run_fault_recovery,
    run_fig_1_1,
    run_fig_5_5,
    run_fig_5_6,
    run_fig_6_2,
    run_fig_6_3,
    run_fig_6_4,
    run_backend_compare,
    run_kernel_prof,
    run_million_boids,
    run_sec_7_traits,
    run_serve_slo,
)

EXPERIMENTS = {
    "fig-1.1": run_fig_1_1,
    "fig-5.5": run_fig_5_5,
    "fig-5.6": run_fig_5_6,
    "fig-6.2": run_fig_6_2,
    "fig-6.3": run_fig_6_3,
    "fig-6.4": run_fig_6_4,
    "sec-7": run_sec_7_traits,
    "serve-slo": run_serve_slo,
    "alloc-churn": run_alloc_churn,
    "fault-recovery": run_fault_recovery,
    "backend-compare": run_backend_compare,
    "kernel-prof": run_kernel_prof,
    "million-boids": run_million_boids,
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables/figures; optionally "
        "trace them or run the perf-regression gate.",
    )
    p.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to run (default: all)",
    )
    p.add_argument(
        "--list", action="store_true", help="print available experiment ids"
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="dump each experiment's Chrome trace + metrics JSON here",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the selected experiments' data dicts as JSON",
    )
    gate = p.add_argument_group("perf-regression gate")
    gate.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="snapshot every experiment's scalars to FILE and exit",
    )
    gate.add_argument(
        "--check",
        default=None,
        metavar="FILE",
        help="compare a fresh snapshot against FILE; exit 1 on regression",
    )
    gate.add_argument(
        "--tolerance",
        type=float,
        default=25.0,
        metavar="PCT",
        help="per-metric tolerance for --check (default 25)",
    )
    return p


def main(argv: "list[str]") -> int:
    """Entry point: run the selected (or all) experiments."""
    args = _build_parser().parse_args(argv)
    if args.list:
        print("\n".join(EXPERIMENTS))
        return 0

    if args.baseline or args.check:
        from repro.bench import regression

        snap = regression.snapshot(EXPERIMENTS)
        if args.baseline:
            regression.write_snapshot(args.baseline, snap)
            print(f"baseline written: {args.baseline}")
            return 0
        baseline = regression.load_snapshot(args.check)
        deltas = regression.compare(baseline, snap, args.tolerance)
        print(regression.render(deltas, args.tolerance))
        return 1 if any(d.failed for d in deltas) else 0

    unknown = [w for w in args.experiments if w not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.trace is not None:
        obs.enable_tracing()
    collected: "dict[str, dict]" = {}
    for name, runner in EXPERIMENTS.items():
        if args.experiments and name not in args.experiments:
            continue
        exp = runner()
        collected[name] = exp.data
        print(exp.report)
        if args.trace is not None:
            for path in exp.dump_observability(args.trace):
                print(f"wrote {path}")
        print()
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"experiments": collected}, fh, indent=1, sort_keys=True
            )
            fh.write("\n")
        print(f"data written: {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
