"""``python -m repro.prof`` — profile a pipeline version or a serve run.

Targets are ``v1`` .. ``v5`` (the Table 6.1 development versions, run
through the emulated pipeline) or ``serve`` (a short loadgen run whose
modelled kernel costs the scheduler records).  Prefix a target with a
backend kind to choose the substrate: ``native:v1`` profiles the
vectorized backend (counters derived by SIMT replay), plain ``v1`` the
cycle simulator.

Examples::

    python -m repro.prof v1                  # counters+roofline+advisor
    python -m repro.prof --diff v1 v5        # what explains the speedup?
    python -m repro.prof --diff v1 native:v1 # sim vs native, same kernels
    python -m repro.prof serve --json out.json

The pipeline targets default to a deliberately small machine (2
multiprocessors) and population (128 agents): block-size advice is only
honest when a config change cannot silently change how many MPs the
grid covers, and the SIMT emulation of v1's O(n^2) neighbor search is
Python-speed.  Both are tunable.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.gpusteer.versions import DEVICE_VERSIONS
from repro.prof.report import (
    diff_reports,
    render_diff,
    render_report,
    session_report,
)
from repro.prof.session import ProfSession


def parse_target(raw: str) -> "tuple[str, object]":
    """``[backend:]vN`` or ``[backend:]serve`` -> (backend, version|"serve")."""
    backend, _, rest = raw.rpartition(":")
    backend = backend or "sim"
    if backend not in ("sim", "native"):
        raise ValueError(f"unknown backend {backend!r} in target {raw!r}")
    if rest == "serve":
        return backend, "serve"
    if rest.startswith("v") and rest[1:].isdigit():
        version = int(rest[1:])
        if version in DEVICE_VERSIONS:
            return backend, version
    raise ValueError(
        f"unknown target {raw!r}; expected v1..v6 or serve, "
        "optionally prefixed sim:/native:"
    )


def profile_pipeline(
    version: int,
    backend: str = "sim",
    agents: int = 128,
    steps: int = 1,
    threads_per_block: int = 32,
    multiprocessors: int = 2,
    seed: int = 7,
) -> ProfSession:
    """Profile ``steps`` frames of one pipeline version's kernels."""
    from repro.cuda.runtime import CudaMachine
    from repro.cupp.device import Device
    from repro.gpusteer.emulated import EmulatedBoids
    from repro.simgpu.arch import scaled_arch

    arch = scaled_arch(f"prof-G80/{multiprocessors}mp", multiprocessors)
    device = Device(machine=CudaMachine([arch], backend=backend))
    boids = EmulatedBoids(
        agents,
        version,
        seed=seed,
        device=device,
        threads_per_block=threads_per_block,
    )
    session = ProfSession()
    with session:
        for _ in range(steps):
            boids.step()
    return session


def profile_serve(
    backend: str = "sim",
    clients: int = 8,
    duration_s: float = 0.05,
    rate_rps: float = 2000.0,
    agents: int = 128,
    seed: int = 0,
) -> ProfSession:
    """Profile a short serve/loadgen run (modelled kernel cost rows)."""
    from repro.serve.loadgen import run_load
    from repro.serve.service import ServeConfig

    session = ProfSession()
    run_load(
        clients=clients,
        duration_s=duration_s,
        rate_rps=rate_rps,
        seed=seed,
        config=ServeConfig(
            physics=False, backend=backend, agents_per_session=agents
        ),
        prof=session,
    )
    return session


def profile_target(raw: str, args: argparse.Namespace) -> dict:
    """Profile one CLI target and build its report dict."""
    backend, what = parse_target(raw)
    if what == "serve":
        session = profile_serve(
            backend=backend, agents=args.agents, seed=args.seed
        )
    else:
        session = profile_pipeline(
            what,
            backend=backend,
            agents=args.agents,
            steps=args.steps,
            threads_per_block=args.tpb,
            multiprocessors=args.mps,
            seed=args.seed,
        )
    return session_report(session, label=raw)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.prof",
        description="Kernel profiler: hardware counters, roofline, advisor.",
    )
    p.add_argument(
        "targets",
        nargs="+",
        help="what to profile: v1..v5 or serve, optionally "
        "sim:/native:-prefixed (default backend: sim)",
    )
    p.add_argument(
        "--diff",
        action="store_true",
        help="compare exactly two targets (first = baseline)",
    )
    p.add_argument(
        "--json", default=None, metavar="PATH", help="write report JSON here"
    )
    p.add_argument(
        "--agents", type=int, default=128, help="agents per flock/session"
    )
    p.add_argument(
        "--steps", type=int, default=1, help="pipeline frames to profile"
    )
    p.add_argument(
        "--tpb", type=int, default=32, help="threads per block (pipeline)"
    )
    p.add_argument(
        "--mps",
        type=int,
        default=2,
        help="multiprocessors of the profiled device (small keeps MP "
        "coverage fixed across block-size what-ifs)",
    )
    p.add_argument("--seed", type=int, default=7, help="flock spawn seed")
    return p


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: profile targets, optionally diff a pair.

    Returns the process exit code; raises ``SystemExit`` on usage
    errors (unknown target, ``--diff`` without exactly two targets).
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for raw in args.targets:
            parse_target(raw)  # validate before any slow profiling
    except ValueError as exc:
        parser.error(str(exc))
    if args.diff and len(args.targets) != 2:
        parser.error("--diff needs exactly two targets (baseline, candidate)")

    reports = [profile_target(raw, args) for raw in args.targets]

    if args.diff:
        diff = diff_reports(reports[0], reports[1])
        print(render_diff(diff))
        payload: object = {"a": reports[0], "b": reports[1], "diff": diff}
    else:
        for report in reports:
            print(render_report(report))
            print()
        payload = reports[0] if len(reports) == 1 else reports

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"profile JSON written: {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
