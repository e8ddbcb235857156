"""The five workloads: what each runs, how one episode of it goes, and
how its outputs are checked.

A workload runs in *episodes*.  An episode builds its inputs from the
seed (construction plus a warm-up step: the set-up), runs ``ops`` timed
operations, and is then checked.  Every episode of a run starts from the
same seed, so every episode does the same work and must end in the same
state; a run repeats episodes until its time is up.  That keeps the work
per operation the same on a faster commit, which would otherwise step
further into a denser flock or a longer request stream.

The program receives only what the seed generates: spawned agents for
the boids workloads, Poisson arrivals for the serving one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
import time

import numpy as np

from repro.backend.conformance import run_differential
from repro.cupp.device import Device
from repro.gpusteer.emulated import EmulatedBoids
from repro.serve.request import FAILED_STATUSES, TERMINAL_STATUSES, RequestStatus
from repro.serve.service import ServeConfig, SimulationService
from repro.steer.params import DEFAULT_PARAMS

#: Threads per block of every boids workload; agent counts are
#: multiples of it, as the paper's kernels require (§6.2.1).
THREADS_PER_BLOCK = 32


@dataclass(frozen=True)
class Boids:
    """An ``EmulatedBoids`` pipeline on one backend.

    ``items`` per operation are agents: one ``step()`` advances every
    agent once, so throughput is agent-steps per second.
    """

    name: str
    why: str
    version: int
    backend: str
    agents: int
    #: Timed steps per episode.
    steps: int
    seed: int = 11

    @property
    def items_per_unit(self) -> int:
        return self.agents

    def start(self, seed: int) -> "BoidsEpisode":
        return BoidsEpisode(self, seed)

    def reference_problems(self, seed: int, outcome: dict) -> "list[str]":
        """Compare a first episode's outcome with an independent run."""
        if self.backend == "sim":
            # The emulator's final state must equal the native twins'.
            twin = BoidsEpisode(replace(self, backend="native"), seed)
            try:
                for i in range(twin.ops):
                    twin.op(i)
                expected = twin.outcome()
            finally:
                twin.close()
            return [
                f"{key}: sim final state differs from native"
                for key in ("positions", "forwards", "speeds")
                if not _identical(outcome[key], expected[key])
            ]
        report = run_differential(
            self.version,
            agents=64,
            steps=2,
            seed=seed,
            threads_per_block=THREADS_PER_BLOCK,
        )
        if report.exact:
            return []
        return [
            f"v{self.version} sim/native differential not exact "
            f"(max |diff| {report.max_abs_diff:g})"
        ]


class BoidsEpisode:
    """One population, built and warmed up, stepped ``steps`` times.

    ``tracer`` and ``samples`` are set by the runner like a
    :class:`ServeEpisode`'s, and unused: a step is timed whole.
    """

    tracer = None
    samples = None

    def __init__(self, spec: Boids, seed: int) -> None:
        self.ops = spec.steps
        self.device = Device(backend=spec.backend)
        self.boids = EmulatedBoids(
            spec.agents,
            spec.version,
            seed=seed,
            device=self.device,
            threads_per_block=THREADS_PER_BLOCK,
        )
        # Warm-up: the first step uploads every vector.
        self.boids.step()

    def op(self, index: int) -> int:
        self.boids.step()
        return 1

    def outcome(self) -> dict:
        """The final state, downloaded (outside any timed window)."""
        state = {k: v.copy() for k, v in self.boids.snapshot().items()}
        state["neighbors"] = self.boids.neighbor_sets().copy()
        return state

    def problems(self, outcome: dict) -> "list[str]":
        """Invariants every final state must satisfy."""
        found = [
            f"{key}: non-finite values"
            for key in ("positions", "forwards", "speeds")
            if not np.isfinite(outcome[key]).all()
        ]
        limit = np.float32(DEFAULT_PARAMS.max_speed)
        if (outcome["speeds"] > limit).any():
            found.append(f"speeds: above max_speed {limit}")
        neighbors = outcome["neighbors"]
        n = neighbors.shape[0]
        if ((neighbors < -1) | (neighbors >= n)).any():
            found.append("neighbors: index outside [-1, n)")
        if (neighbors == np.arange(n)[:, None]).any():
            found.append("neighbors: an agent lists itself")
        return found

    def failed_units(self, outcome: dict) -> int:
        return 0

    def close(self) -> None:
        self.device.close()


@dataclass(frozen=True)
class Serve:
    """Open-loop Poisson arrivals replayed into a ``SimulationService``.

    Arrivals are in *virtual* time and are replayed by one caller as fast
    as the service absorbs them, so the generator is never late.  An
    operation replays ``block`` consecutive arrivals; ``items`` are
    requests.
    """

    name: str
    why: str
    clients: int
    rate_rps: float
    #: Virtual seconds of arrivals per episode.
    episode_s: float
    block: int
    seed: int = 0

    @property
    def items_per_unit(self) -> int:
        return 1

    def start(self, seed: int) -> "ServeEpisode":
        return ServeEpisode(self, seed)

    def reference_problems(self, seed: int, outcome: dict) -> "list[str]":
        # The modelled clock has no second implementation to compare
        # against; determinism across episodes is checked by the runner.
        return []


class ServeEpisode:
    """One service with its sessions and arrival stream."""

    def __init__(self, spec: Serve, seed: int) -> None:
        self.spec = spec
        self.service = SimulationService(ServeConfig(physics=False))
        for i in range(spec.clients):
            self.service.create_session(f"client-{i}", seed=seed + i)
        # The same stream repro.serve.loadgen.run_load generates.
        rng = np.random.default_rng(seed)
        size = max(1, int(spec.rate_rps * spec.episode_s * 2))
        arrivals = np.cumsum(rng.exponential(1.0 / spec.rate_rps, size=size))
        arrivals = arrivals[arrivals < spec.episode_s]
        owners = rng.integers(0, spec.clients, size=arrivals.size)
        self.arrivals = arrivals.tolist()
        self.owners = [f"client-{o}" for o in owners.tolist()]
        self.ops = -(-len(self.arrivals) // spec.block)
        self.requests: list = []
        #: Set by a traced run so spans carry the request index.
        self.tracer = None
        #: Set to ``{}`` by a run that wants the wall nanoseconds of each
        #: request's ``advance`` and ``submit``; ``None`` keeps the two
        #: clock reads out of the end-to-end window.
        self.samples: "dict[str, array] | None" = None

    def op(self, index: int) -> int:
        service, tracer = self.service, self.tracer
        lo = index * self.spec.block
        hi = min(lo + self.spec.block, len(self.arrivals))
        if self.samples is None:
            for k in range(lo, hi):
                if tracer is not None:
                    tracer.request = k
                service.advance(self.arrivals[k])
                self.requests.append(service.submit(self.owners[k]))
        else:
            clock = time.perf_counter_ns
            advance_ns = self.samples.setdefault("advance_ns", array("q"))
            submit_ns = self.samples.setdefault("submit_ns", array("q"))
            for k in range(lo, hi):
                t0 = clock()
                service.advance(self.arrivals[k])
                t1 = clock()
                self.requests.append(service.submit(self.owners[k]))
                advance_ns.append(t1 - t0)
                submit_ns.append(clock() - t1)
        if hi == len(self.arrivals):
            service.drain()
        return hi - lo

    def outcome(self) -> dict:
        requests = self.requests
        latencies = [
            r.latency_s * 1e3
            for r in requests
            if r.status is RequestStatus.DONE and r.latency_s is not None
        ]
        stats = self.service.stats
        out = {
            "offered": len(requests),
            "completed": stats.completed,
            "stranded": sum(r.status not in TERMINAL_STATUSES for r in requests),
            "batches": stats.batches,
            "launches": stats.launches,
            "mean_batch_size": stats.mean_batch_size,
            "modelled_p50_ms": float(np.percentile(latencies, 50)) if latencies else 0.0,
            "modelled_p99_ms": float(np.percentile(latencies, 99)) if latencies else 0.0,
        }
        for status in FAILED_STATUSES:
            out[status.name.lower()] = sum(r.status is status for r in requests)
        return out

    def failed_units(self, outcome: dict) -> int:
        """Requests that produced no result: refused, shed, expired,
        failed or stranded."""
        return outcome["stranded"] + _failures(outcome)

    def problems(self, outcome: dict) -> "list[str]":
        found = []
        if outcome["completed"] + _failures(outcome) != outcome["offered"]:
            found.append("serve: completed + failures != offered")
        if outcome["stranded"]:
            found.append(f"serve: {outcome['stranded']} requests stranded")
        return found

    def close(self) -> None:
        self.requests = []


def _failures(outcome: dict) -> int:
    return sum(outcome[s.name.lower()] for s in FAILED_STATUSES)


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and bool(np.array_equal(a, b))


def same_outcome(a: dict, b: dict) -> bool:
    """Bit-identical final states (arrays) or equal summaries (numbers)."""
    if a.keys() != b.keys():
        return False
    return all(
        _identical(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k]
        for k in a
    )


#: The workloads, in the order the set runs them.  Sizes make one
#: episode about a second on a 2-core Xeon, so a run holds several.
WORKLOADS = {
    spec.name: spec
    for spec in (
        Boids(
            "emu-v5",
            "the SIMT emulator (simgpu warp rounds) is ~99% of a v5 step",
            version=5, backend="sim", agents=64, steps=10,
        ),
        Boids(
            "cupp-calls",
            "tiny native v5 steps: CuPP's kernel call path and lazy-hit "
            "Vectors dominate, the numpy twins are small",
            version=5, backend="native", agents=64, steps=700,
        ),
        Boids(
            "host-writes",
            "native v2: the host writes state element by element, dirtying "
            "Vectors and forcing re-uploads and downloads",
            version=2, backend="native", agents=256, steps=300,
        ),
        Boids(
            "grid-v6",
            "native v6: the grid neighbour twin and HashGrid.build dominate",
            version=6, backend="native", agents=2048, steps=12,
        ),
        Serve(
            "serve-load",
            "the serving DES (admission, batcher, scheduler, pool, obs) with "
            "no kernel code",
            clients=32, rate_rps=16000.0, episode_s=1.5, block=64,
        ),
    )
}
