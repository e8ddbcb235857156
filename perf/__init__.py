"""Wall-clock benchmark of the repro stack: five workloads, end-to-end
and per-layer metrics.  Run ``python -m perf --help``; see README.md."""
