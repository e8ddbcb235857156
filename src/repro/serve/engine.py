"""The step engine: what one fused launch costs and computes.

A fused serving launch is one version's update-stage kernels (v5 by
default, Table 6.1: everything on the device) applied to every session
in the batch.  The sessions are separate worlds — neighbor searches
never cross session boundaries — so the fused kernel's execution time is
the *sum* of the per-session kernel times of
:func:`repro.gpusteer.versions.kernel_costs`, while the fixed costs (one
launch per kernel, one result transfer) are paid once per batch.  That
additivity is precisely the amortization the batcher exploits; it is
also why the modelled numbers stay honest: batching never makes the
compute itself cheaper, only the overhead.

Kernel seconds are cached per population size — a serving process sees
the same session sizes over and over.
"""

from __future__ import annotations

from repro.bench.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cupp.exceptions import CuppUsageError
from repro.gpusteer.cost_model import WorkloadStats
from repro.gpusteer.versions import (
    DEVICE_VERSIONS,
    DRAW_MATRIX_BYTES,
    THREADS_PER_BLOCK,
    kernel_costs,
)
from repro.serve.sessions import Session
from repro.simgpu.perfmodel import kernel_time
from repro.steer.params import BoidsParams, DEFAULT_PARAMS


class StepEngine:
    """Modelled cost oracle + state advancer for serving launches."""

    def __init__(
        self,
        params: BoidsParams = DEFAULT_PARAMS,
        calib: Calibration = DEFAULT_CALIBRATION,
        version: int = 5,
    ) -> None:
        if version not in DEVICE_VERSIONS:
            raise CuppUsageError(
                f"serving needs a device version {DEVICE_VERSIONS}, "
                f"got {version!r}"
            )
        self.params = params
        self.calib = calib
        self.version = version
        self._kernel_cache: "dict[int, float]" = {}
        self._cost_rows_cache: "dict[int, list]" = {}
        #: Kernel launches per fused batch: one per kernel of the
        #: version's update stage (the list is the same at any size).
        self.launches_per_batch = len(self._kernel_costs(THREADS_PER_BLOCK))

    def _kernel_costs(self, n: int) -> list:
        stats = WorkloadStats.estimate(
            n, self.params, self.calib.density_clustering
        )
        return kernel_costs(self.version, n, self.params, stats)

    # ------------------------------------------------------------------
    def kernel_seconds(self, n: int) -> float:
        """Device seconds for one session of ``n`` agents: the sum of
        :meth:`kernel_cost_rows`, in launch order."""
        cached = self._kernel_cache.get(n)
        if cached is None:
            cached = self._kernel_cache[n] = sum(
                secs for _, _, secs in self.kernel_cost_rows(n)
            )
        return cached

    def batch_kernel_seconds(self, sessions: "list[Session]") -> float:
        """Fused execution time: per-session kernel times, summed."""
        return sum(self.kernel_seconds(s.n) for s in sessions)

    def kernel_cost_rows(self, n: int) -> "list[tuple[str, object, float]]":
        """Per-kernel cost rows for one session of ``n`` agents.

        The kernels :func:`repro.gpusteer.versions.kernel_costs` lists
        for the version, as ``(kernel_name, KernelCostInputs, seconds)``
        per row, so an attached :class:`repro.prof.session.ProfSession`
        can attribute serve-plane device time per kernel.  Cached per
        population size.
        """
        rows = self._cost_rows_cache.get(n)
        if rows is None:
            rows = self._cost_rows_cache[n] = [
                (name, inputs, kernel_time(inputs).total_s)
                for name, inputs in self._kernel_costs(n)
            ]
        return rows

    @staticmethod
    def result_bytes(sessions: "list[Session]") -> int:
        """Device->host payload of one fused launch: the draw matrices
        of every agent in the batch (§6.2.3's 64 bytes per agent)."""
        return DRAW_MATRIX_BYTES * sum(s.n for s in sessions)

    # ------------------------------------------------------------------
    @staticmethod
    def advance(session: Session) -> None:
        """Run one frame of a session (functional state, v5 semantics)."""
        session.step()
