"""``python -m perf``: run the wall-clock benchmark.

One run (the form ``BENCHMARK.json`` names)::

    python -m perf --workload emu-v5 --seed 11 --seconds 12 --trace 0

prints a summary and, as its last line, one JSON object with
``correct``/``attempted``/``failed``/``metrics``.  ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones.

A set (no ``--workload``) runs every workload :data:`REPEATS` times,
round-robin, each run in a fresh subprocess, then one shorter traced run
each (:data:`TRACED_SHARE`), prints the medians and writes every run to ``--out`` (default
``perf/out/<time>.json``).  ``--compare BASE NEW`` compares two sets.

Runs are pinned to one thread (``OMP``/``OPENBLAS``/``MKL``) and to
``PYTHONHASHSEED=0``: a process started without them re-executes itself
with them set, and with this checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import time

from perf import compare

ROOT = Path(__file__).resolve().parent.parent
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Untraced runs per workload in a set.
REPEATS = 3
#: A set's traced runs measure this share of ``--seconds``: per-layer
#: counts repeat exactly and per-layer times carry no bound, and the
#: shorter runs keep a set under four minutes.
TRACED_SHARE = 0.25
#: A run that exceeds this is killed and counted as failed (a run lasts
#: its --seconds plus one episode and the checks).
RUN_TIMEOUT_S = 170
#: Fresh interpreters whose median import time is the import part of
#: ``setup_s``.  One cold import varies by ±15% from run to run.
IMPORT_SAMPLES = 5
_IMPORT = (
    "import time; t = time.perf_counter(); "
    "from perf import measure, workloads; print(time.perf_counter() - t)"
)


def pinned_env() -> dict:
    """The environment every run executes in."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m perf", description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload once (default: a whole set)")
    p.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, help="measured time per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    p.add_argument("--chrome-trace", metavar="FILE", help="with --trace 1, write the spans as Chrome-trace JSON")
    p.add_argument("--out", metavar="FILE", help="where a set writes its runs")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two set files")
    return p


def _bench() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_seconds() -> float:
    """Median time to import the benchmark's modules (numpy and ``repro``
    included) over :data:`IMPORT_SAMPLES` fresh interpreters."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT], env=pinned_env(), capture_output=True,
            text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def run_one(args, parser) -> int:
    from perf import measure, workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else _bench()["run_seconds"]
    seed = spec.seed if args.seed is None else args.seed
    import_s = 0.0 if args.trace else import_seconds()
    result, lines = measure.run(
        spec, seed, seconds, bool(args.trace), import_s, args.chrome_trace
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _one_run(workload: str, seed: int, seconds: float, trace: int, chrome: "str | None") -> dict:
    cmd = [sys.executable, "-m", "perf", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if chrome:
        cmd += ["--chrome-trace", chrome]
    try:
        proc = subprocess.run(cmd, env=pinned_env(), capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "result": None, "stderr": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "result": result, "stderr": proc.stderr[-2000:]}


def _table(doc: dict, names: "list[str]", metrics: "dict[str, str]", trace: int) -> "list[str]":
    lines = [f"{'metric':<30} {'unit':<8}" + "".join(f"{n:>22}" for n in names)]
    for metric, unit in metrics.items():
        cells = []
        for name in names:
            vals = [
                r["result"]["metrics"][metric]["value"]
                for r in doc["runs"]
                if r["workload"] == name and r["trace"] == trace and r["result"]
            ]
            if not vals:
                cells.append("-")
            elif trace:
                cells.append(f"{vals[0]:.4g}")
            else:
                q1, med, q3 = compare.quartiles(vals)
                cells.append(f"{med:.4g} ±{(q3 - q1) / 2 / med * 100 if med else 0:.1f}%")
        lines.append(f"{metric:<30} {unit:<8}" + "".join(f"{c:>22}" for c in cells))
    return lines


def run_set(args) -> int:
    import numpy

    from perf import measure, workloads

    seconds = args.seconds if args.seconds is not None else _bench()["run_seconds"]
    names = list(workloads.WORKLOADS)
    seeds = {n: workloads.WORKLOADS[n].seed if args.seed is None else args.seed for n in names}
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    out = Path(args.out) if args.out else ROOT / "perf" / "out" / f"{stamp}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "fingerprint": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "git": _git_sha(),
            "time": stamp,
            "seconds": seconds,
            "repeats": REPEATS,
            "pinned": PINNED,
            "workloads": {
                n: {**vars(workloads.WORKLOADS[n]), "seed": seeds[n]} for n in names
            },
        },
        "runs": [],
    }
    plan = [(r, n, 0) for r in range(REPEATS) for n in names]
    plan += [(0, n, 1) for n in names]
    ok = True
    started = time.monotonic()
    for repeat, name, trace in plan:
        chrome = str(out.with_suffix(f".{name}.trace.json")) if trace else None
        run_s = seconds * TRACED_SHARE if trace else seconds
        run = _one_run(name, seeds[name], run_s, trace, chrome)
        res = run["result"]
        good = run["exit"] == 0 and res is not None
        ok &= good
        print(f"[{'ok' if good else 'FAILED'}] {name} repeat={repeat} trace={trace}"
              + ("" if good else f"\n{run['stderr']}"), file=sys.stderr, flush=True)
        doc["runs"].append({"workload": name, "seed": seeds[name], "repeat": repeat,
                            "trace": trace, **run})
    doc["fingerprint"]["set_wall_s"] = round(time.monotonic() - started, 1)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"set took {doc['fingerprint']['set_wall_s']:g} s of wall time")
    print(f"end-to-end: median ±half the quartile spread, {REPEATS} runs of {seconds:g} s each")
    print("\n".join(_table(doc, names, measure.END_TO_END, 0)))
    print(f"\nper-layer (one traced run of {seconds * TRACED_SHARE:g} s, per step or request):")
    print("\n".join(_table(doc, names, measure.PER_LAYER, 1)))
    print(f"\nwrote {out}")
    return 0 if ok else 1


def run_compare(args) -> int:
    docs = []
    for path in args.compare:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    rows = compare.compare(docs[0], docs[1], _bench())
    print("\n".join(compare.render(rows)))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.compare:
        return run_compare(args)
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        os.execve(sys.executable, [sys.executable, "-m", "perf", *sys.argv[1:]], pinned_env())
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload:
        return run_one(args, parser)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
