"""Multiple devices in one host thread — chapter 7's other future work.

"Currently, only one device handle per thread is supported, but the CuPP
framework itself is designed to offer multiple devices to the same host
thread with only minor interface changes" (§4.1); chapter 7 lists the
missing multi-device support as future work.  This module supplies those
minor interface changes:

* :class:`DeviceGroup` — a set of :class:`~repro.cupp.device.Device`
  handles the host thread drives together (each handle keeps its own
  CUDA-runtime binding, so the one-device-per-runtime rule of §3.2.1 is
  never violated — the group simply owns several runtimes);
* :func:`shard` — marks a kernel argument as *split across the group*:
  each device receives its contiguous chunk of the vector;
* :class:`MultiKernel` — launches one kernel per device; sharded
  arguments are scattered before the launches and gathered back after,
  replicated arguments are re-uploaded per device (they are distinct
  memory spaces).

The modelled wall-clock of a group launch is the **makespan**: the
devices execute concurrently, each on its own timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cuda.runtime import CudaMachine
from repro.cupp.device import Device
from repro.cupp.exceptions import CuppUsageError
from repro.cupp.kernel import CallStats, Kernel
from repro.cupp.vector import Vector
from repro.simgpu.dims import Dim3, as_dim3


@dataclass(frozen=True)
class Sharded:
    """Marker: split this vector across the group's devices."""

    vector: Vector


def shard(vector: Vector) -> Sharded:
    """Mark a kernel argument for scatter/gather across the group."""
    if not isinstance(vector, Vector):
        raise CuppUsageError("only cupp.Vector arguments can be sharded")
    return Sharded(vector)


def split_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) split of ``total`` elements into ``parts``
    near-even chunks; the remainder goes to the leading chunks."""
    base, rem = divmod(total, parts)
    bounds = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < rem else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class DeviceGroup:
    """Several device handles owned by one host thread."""

    def __init__(
        self,
        machine: CudaMachine,
        indices: "list[int] | None" = None,
    ) -> None:
        indices = list(range(len(machine.devices))) if indices is None else indices
        if not indices:
            raise CuppUsageError("a device group needs at least one device")
        self.devices = [Device(index=i, machine=machine) for i in indices]

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self):
        return iter(self.devices)

    def close(self) -> None:
        for d in self.devices:
            d.close()

    def __enter__(self) -> "DeviceGroup":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def chunk_bounds(self, total: int) -> list[tuple[int, int]]:
        """Contiguous [start, stop) split of ``total`` elements."""
        return split_bounds(total, len(self.devices))

    @property
    def makespan_s(self) -> float:
        """Modelled time until every device in the group is idle."""
        return max(d.sim.timeline.device_busy_until for d in self.devices)


class MultiKernel:
    """One kernel launched across a device group.

    The grid dimension is interpreted *per shard*: pass the blocks needed
    for one device's chunk (or use :meth:`for_chunks` to derive it).
    """

    def __init__(
        self,
        fn,
        grid_dim: "Dim3 | int | tuple | None" = None,
        block_dim: "Dim3 | int | tuple | None" = None,
    ) -> None:
        self._fn = fn
        self._grid = None if grid_dim is None else as_dim3(grid_dim)
        self._block = None if block_dim is None else as_dim3(block_dim)
        # One functor per device is created lazily: the underlying Kernel
        # keeps no device state, so a single traits analysis is shared.
        self._kernel = Kernel(fn, grid_dim, block_dim)

    def __call__(self, group: DeviceGroup, *args: object) -> list[CallStats]:
        """Scatter, launch everywhere, gather.  Returns per-device stats."""
        shard_args = [a for a in args if isinstance(a, Sharded)]
        if not shard_args:
            raise CuppUsageError(
                "a MultiKernel call needs at least one sharded argument "
                "(otherwise every device would do identical work)"
            )
        total = len(shard_args[0].vector)
        for s in shard_args:
            if len(s.vector) != total:
                raise CuppUsageError(
                    "all sharded vectors must have the same length"
                )
        bounds = group.chunk_bounds(total)

        # Scatter: per-device argument lists.
        per_device_args: list[list[object]] = [[] for _ in group.devices]
        chunks: list[list[tuple[Vector, Vector]]] = [[] for _ in group.devices]
        for arg in args:
            if isinstance(arg, Sharded):
                data = arg.vector.to_numpy()
                for d, (start, stop) in enumerate(bounds):
                    piece = Vector(
                        data[start:stop].copy(), dtype=arg.vector.dtype
                    )
                    per_device_args[d].append(piece)
                    chunks[d].append((arg.vector, piece))
            else:
                for d in range(len(group.devices)):
                    per_device_args[d].append(arg)

        # Launch on every device (kernel calls are asynchronous, so the
        # host walks the group while the devices crunch concurrently).
        stats = []
        for device, dev_args in zip(group.devices, per_device_args):
            stats.append(self._kernel(device, *dev_args))

        # Gather: copy mutated shards back into the source vectors.
        for (start, stop), pieces in zip(bounds, chunks):
            for source, piece in pieces:
                result = piece.to_numpy()
                for offset, value in enumerate(result):
                    source[start + offset] = value
        return stats

    def for_chunks(self, group: DeviceGroup, total: int, block: int) -> None:
        """Set grid/block so each device covers its chunk of ``total``."""
        per_dev = -(-total // len(group))
        blocks = -(-per_dev // block)
        self._kernel.set_grid_dim(blocks)
        self._kernel.set_block_dim(block)
