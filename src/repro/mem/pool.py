"""The caching device-memory allocator behind :meth:`Device.enable_pool`.

Layout follows the two-tier shape of production caching allocators
(PyTorch's CUDACachingAllocator, RMM's pool resource), scaled down to the
simulated CUDA 1.0 driver:

* Requests up to :attr:`PoolConfig.small_threshold` round up to a
  power-of-two **bin**.  Each bin block is one raw driver allocation of
  exactly the bin size; freeing pushes it onto the bin's free list, and
  the next same-bin request pops it without touching the driver.
* Larger requests go to the **arena**: the pool allocates whole driver
  *segments* (:attr:`PoolConfig.segment_bytes`, or the request size when
  bigger) and sub-divides them into address-ordered blocks.  Allocation
  is best-fit with a split when the remainder is at least one 256-byte
  granule; freeing coalesces with free neighbours, so a drained segment
  collapses back to a single free block and becomes eligible for release.
* When cached (reserved-but-idle) bytes climb past the **high
  watermark**, the pool trims — releasing cached bin blocks and fully
  free segments, largest first — until the **low watermark** is reached.
* A raw driver allocation that fails with :class:`CuppMemoryError`
  triggers the OOM path: flush the entire cache, retry once, and only
  then raise :class:`~repro.cupp.exceptions.OutOfMemory` carrying a
  fragmentation report.

Every decision is attributed: ledger causes ``pool-hit`` / ``pool-miss``
/ ``pool-trim`` / ``oom-flush`` (all ``moved=False`` — nothing crosses
the simulated bus), registry counters ``mem.pool.*`` and gauges
``mem.bytes_in_use`` / ``mem.bytes_reserved`` / ``mem.fragmentation``
labeled by device, and :meth:`MemoryPool.stats` / :meth:`snapshot` for
tests and ``obs.analyze``.

The pool is **not** thread-safe; like the rest of the CuPP layer it
assumes the paper's single host thread per device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.common.units import align_up
from repro.cupp.exceptions import CuppMemoryError, CuppUsageError, OutOfMemory
from repro.simgpu.memory import ALLOC_ALIGN, DevicePtr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cupp.device import Device

#: Smallest bin: one CUDA 1.0 allocation granule.
MIN_BIN = ALLOC_ALIGN


def bin_size_for(nbytes: int) -> int:
    """The power-of-two bin a small request rounds up to (min 256)."""
    size = MIN_BIN
    n = max(int(nbytes), 1)
    while size < n:
        size <<= 1
    return size


@dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs for :class:`MemoryPool`.

    Defaults suit the simulated parts (64 MiB serve devices, 1 MiB test
    devices): requests up to 1 MiB are binned, arena segments are 2 MiB,
    and the watermarks default to half / a quarter of device capacity.
    """

    #: Requests of at most this many bytes use the power-of-two bins.
    small_threshold: int = 1 << 20
    #: Minimum driver allocation backing an arena segment.
    segment_bytes: int = 1 << 21
    #: Cached bytes above this trigger a trim (default: capacity // 2).
    high_watermark_bytes: "int | None" = None
    #: Trim target (default: capacity // 4).
    low_watermark_bytes: "int | None" = None
    #: Disable to let the cache grow without bound (benchmarks do).
    trim_enabled: bool = True


@dataclass
class PoolStats:
    """A point-in-time summary of pool behaviour (cheap, JSON-friendly)."""

    hits: int
    misses: int
    trims: int
    oom_flushes: int
    #: Flush-and-retry outcomes: retries that then succeeded / failed.
    oom_retries_ok: int
    oom_retries_failed: int
    allocs: int
    frees: int
    bytes_in_use: int
    bytes_reserved: int
    bytes_cached: int
    fragmentation: float

    @property
    def hit_rate(self) -> float:
        """Fraction of allocations served from cache (0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Block:
    """One address range inside an arena segment."""

    addr: int
    size: int
    free: bool


@dataclass
class _Segment:
    """A driver allocation the arena sub-divides."""

    ptr: DevicePtr
    size: int
    blocks: list[_Block] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.blocks:
            self.blocks = [_Block(self.ptr.addr, self.size, True)]

    @property
    def fully_free(self) -> bool:
        return len(self.blocks) == 1 and self.blocks[0].free

    @property
    def free_bytes(self) -> int:
        return sum(b.size for b in self.blocks if b.free)

    @property
    def live_blocks(self) -> int:
        return sum(1 for b in self.blocks if not b.free)


@dataclass(frozen=True)
class _Live:
    """Bookkeeping for one live (handed-out) pointer."""

    kind: str  # "small" | "large"
    size: int  # bytes charged to the caller (bin or block size)
    requested: int  # what the caller actually asked for
    segment: "_Segment | None"


class _PoolSeries:
    """The ``mem.*`` series of one device's pool, bound once."""

    __slots__ = (
        "hits", "misses", "trims", "oom_flushes", "oom_retries_ok",
        "oom_retries_failed", "bytes_in_use", "bytes_reserved",
        "fragmentation",
    )

    def __init__(self, device: int) -> None:
        self.hits = obs.bind_counter("mem.pool.hits", device=device)
        self.misses = obs.bind_counter("mem.pool.misses", device=device)
        self.trims = obs.bind_counter("mem.pool.trims", device=device)
        self.oom_flushes = obs.bind_counter(
            "mem.pool.oom_flushes", device=device
        )
        self.oom_retries_ok = obs.bind_counter(
            "mem.pool.oom_retries", device=device, outcome="ok"
        )
        self.oom_retries_failed = obs.bind_counter(
            "mem.pool.oom_retries", device=device, outcome="failed"
        )
        self.bytes_in_use = obs.bind_gauge("mem.bytes_in_use", device=device)
        self.bytes_reserved = obs.bind_gauge(
            "mem.bytes_reserved", device=device
        )
        self.fragmentation = obs.bind_gauge(
            "mem.fragmentation", device=device
        )


class MemoryPool:
    """A per-device caching allocator (see module docstring).

    Construct via :meth:`repro.cupp.Device.enable_pool`, which routes the
    device's ``alloc``/``free`` through :meth:`alloc`/:meth:`free`.  The
    pool reaches the driver only through ``device._raw_alloc`` /
    ``device._raw_free``, so raw driver traffic stays countable.
    """

    def __init__(self, device: "Device", config: "PoolConfig | None" = None) -> None:
        self.device = device
        self.config = config or PoolConfig()
        capacity = device.sim.memory.capacity
        self._high = (
            self.config.high_watermark_bytes
            if self.config.high_watermark_bytes is not None
            else capacity // 2
        )
        self._low = (
            self.config.low_watermark_bytes
            if self.config.low_watermark_bytes is not None
            else capacity // 4
        )
        if self._low > self._high:
            raise CuppUsageError(
                f"low watermark ({self._low}) exceeds high watermark "
                f"({self._high})"
            )
        # Small path: bin size -> LIFO of cached DevicePtr, plus the
        # reverse map so free() can identify a returning bin block.
        self._bins: dict[int, list[DevicePtr]] = {}
        self._cached_small: dict[int, int] = {}  # addr -> bin size
        # Large path: driver segments, each sub-divided into blocks.
        self._segments: list[_Segment] = []
        # Live pointers handed to callers.
        self._live: dict[int, _Live] = {}
        # Accounting.
        self._in_use = 0
        self._reserved = 0
        self._hits = 0
        self._misses = 0
        self._trims = 0
        self._oom_flushes = 0
        self._oom_retries_ok = 0
        self._oom_retries_failed = 0
        self._allocs = 0
        self._frees = 0
        self._series = _PoolSeries(device.index)
        self._publish()

    # ------------------------------------------------------------------
    # accounting & observability
    # ------------------------------------------------------------------
    @property
    def bytes_in_use(self) -> int:
        """Bytes in blocks currently handed out to callers."""
        return self._in_use

    @property
    def bytes_reserved(self) -> int:
        """Bytes the pool holds from the driver (live + cached)."""
        return self._reserved

    @property
    def bytes_cached(self) -> int:
        """Reserved bytes idle in bins or free arena blocks."""
        return self._reserved - self._in_use

    def _fragmentation(self) -> float:
        """External fragmentation of the *driver* heap: the share of free
        device memory unreachable by a single largest allocation."""
        mem = self.device.sim.memory
        free = mem.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - mem.largest_free_bytes / free

    def _publish(self) -> None:
        series = self._series
        series.bytes_in_use.set(self._in_use)
        series.bytes_reserved.set(self._reserved)
        series.fragmentation.set(self._fragmentation())

    def _record(self, cause: str, nbytes: int) -> None:
        obs.record_transfer(
            cause, "none", nbytes, moved=False, label="mem.pool"
        )

    # ------------------------------------------------------------------
    # raw driver traffic (the only way the pool touches the device)
    # ------------------------------------------------------------------
    def _raw_alloc(self, nbytes: int) -> DevicePtr:
        """Driver allocation with the flush-and-retry OOM path."""
        try:
            ptr = self.device._raw_alloc(nbytes)
        except CuppMemoryError:
            released = self.flush(cause="oom-flush")
            self._oom_flushes += 1
            self._series.oom_flushes.inc()
            try:
                ptr = self.device._raw_alloc(nbytes)
            except CuppMemoryError as exc:
                # Record the retry outcome on the failure path too, so
                # the report always carries the post-flush verdict (not
                # just the happy retry).
                self._oom_retries_failed += 1
                self._series.oom_retries_failed.inc()
                report = self._oom_report(nbytes, released)
                report["retry_outcome"] = "failed"
                raise OutOfMemory(
                    f"out of device memory allocating {nbytes} bytes on "
                    f"device {self.device.index} even after flushing the "
                    f"cache ({released} cached bytes released): "
                    f"{report['device_free_bytes']} bytes free, largest "
                    f"contiguous {report['device_largest_free_bytes']}, "
                    f"fragmentation {report['fragmentation']:.2f}",
                    report=report,
                ) from exc
            else:
                self._oom_retries_ok += 1
                self._series.oom_retries_ok.inc()
        self._reserved += self._charged_size(nbytes)
        return ptr

    def _raw_free(self, ptr: DevicePtr, nbytes: int) -> None:
        self.device._raw_free(ptr)
        self._reserved -= self._charged_size(nbytes)

    @staticmethod
    def _charged_size(nbytes: int) -> int:
        """What the driver actually reserves for a request (256-granule)."""
        return align_up(max(int(nbytes), 1), ALLOC_ALIGN)

    def _oom_report(self, requested: int, flushed: int) -> dict:
        mem = self.device.sim.memory
        return {
            "requested": int(requested),
            "device_index": self.device.index,
            "bytes_in_use": self._in_use,
            "bytes_reserved": self._reserved,
            "bytes_cached": self.bytes_cached,
            "flushed_bytes": int(flushed),
            "device_free_bytes": mem.free_bytes,
            "device_largest_free_bytes": mem.largest_free_bytes,
            "fragmentation": self._fragmentation(),
            "bins": {
                size: len(ptrs)
                for size, ptrs in sorted(self._bins.items())
                if ptrs
            },
            "segments": [
                {
                    "size": seg.size,
                    "live_blocks": seg.live_blocks,
                    "free_bytes": seg.free_bytes,
                }
                for seg in self._segments
            ],
        }

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int) -> DevicePtr:
        """Allocate ``nbytes``; cache hit when a fitting block is idle."""
        if nbytes < 0:
            raise CuppUsageError(f"cannot allocate {nbytes} bytes")
        requested = max(int(nbytes), 1)
        self._allocs += 1
        if requested <= self.config.small_threshold:
            ptr = self._alloc_small(requested)
        else:
            ptr = self._alloc_large(requested)
        self._publish()
        return ptr

    def _alloc_small(self, requested: int) -> DevicePtr:
        size = bin_size_for(requested)
        cached = self._bins.get(size)
        if cached:
            ptr = cached.pop()
            del self._cached_small[ptr.addr]
            self._note_hit(size)
        else:
            ptr = self._raw_alloc(size)
            self._note_miss(size)
        self._live[ptr.addr] = _Live("small", size, requested, None)
        self._in_use += size
        return ptr

    def _alloc_large(self, requested: int) -> DevicePtr:
        size = align_up(requested, ALLOC_ALIGN)
        best: "tuple[_Segment, _Block] | None" = None
        for seg in self._segments:
            for block in seg.blocks:
                if block.free and block.size >= size:
                    if best is None or block.size < best[1].size:
                        best = (seg, block)
        if best is not None:
            seg, block = best
            self._split(seg, block, size)
            self._note_hit(size)
        else:
            seg_size = max(self.config.segment_bytes, size)
            seg = _Segment(self._raw_alloc(seg_size), seg_size)
            self._segments.append(seg)
            block = seg.blocks[0]
            self._split(seg, block, size)
            self._note_miss(size)
        block.free = False
        self._live[block.addr] = _Live("large", size, requested, seg)
        self._in_use += size
        return DevicePtr(block.addr)

    @staticmethod
    def _split(seg: _Segment, block: _Block, size: int) -> None:
        """Carve ``size`` bytes off the front of a free block in place."""
        remainder = block.size - size
        if remainder >= ALLOC_ALIGN:
            idx = seg.blocks.index(block)
            seg.blocks.insert(
                idx + 1, _Block(block.addr + size, remainder, True)
            )
            block.size = size

    def _note_hit(self, size: int) -> None:
        self._hits += 1
        self._series.hits.inc()
        self._record("pool-hit", size)

    def _note_miss(self, size: int) -> None:
        self._misses += 1
        self._series.misses.inc()
        self._record("pool-miss", size)

    # ------------------------------------------------------------------
    # free
    # ------------------------------------------------------------------
    def free(self, ptr: DevicePtr) -> None:
        """Return a live allocation to the cache (never to the driver —
        watermark trimming and :meth:`flush` handle that)."""
        if not ptr:  # match cudaFree(NULL): a no-op
            return
        live = self._live.pop(ptr.addr, None)
        if live is None:
            from repro.cupp.exceptions import invalid_free

            raise invalid_free(
                ptr.addr,
                self.device.index,
                "not a live pool allocation (double free or foreign pointer)",
            )
        self._frees += 1
        self._in_use -= live.size
        if live.kind == "small":
            self._bins.setdefault(live.size, []).append(ptr)
            self._cached_small[ptr.addr] = live.size
        else:
            self._free_large(live.segment, ptr.addr)
        self._maybe_trim()
        self._publish()

    def _free_large(self, seg: _Segment, addr: int) -> None:
        idx = next(
            i for i, b in enumerate(seg.blocks) if b.addr == addr
        )
        block = seg.blocks[idx]
        block.free = True
        # Coalesce with the successor first so indices stay valid.
        if idx + 1 < len(seg.blocks) and seg.blocks[idx + 1].free:
            block.size += seg.blocks[idx + 1].size
            del seg.blocks[idx + 1]
        if idx > 0 and seg.blocks[idx - 1].free:
            seg.blocks[idx - 1].size += block.size
            del seg.blocks[idx]

    # ------------------------------------------------------------------
    # trimming & flushing
    # ------------------------------------------------------------------
    def _release_candidates(self) -> "list[tuple[int, object]]":
        """Everything releasable right now: (bytes, handle) pairs where
        the handle is a cached bin DevicePtr or a fully free _Segment."""
        out: "list[tuple[int, object]]" = []
        for size, ptrs in self._bins.items():
            out.extend((size, p) for p in ptrs)
        out.extend(
            (seg.size, seg) for seg in self._segments if seg.fully_free
        )
        return out

    def _release_one(self, size: int, handle: object) -> None:
        if isinstance(handle, _Segment):
            self._segments.remove(handle)
            self._raw_free(handle.ptr, size)
        else:
            assert isinstance(handle, DevicePtr)
            self._bins[size].remove(handle)
            del self._cached_small[handle.addr]
            self._raw_free(handle, size)

    def trim(self, target_bytes: int) -> int:
        """Release cached memory, largest blocks first, until at most
        ``target_bytes`` remain cached.  Returns the bytes released."""
        released = 0
        candidates = sorted(
            self._release_candidates(), key=lambda c: c[0], reverse=True
        )
        for size, handle in candidates:
            if self.bytes_cached <= target_bytes:
                break
            self._release_one(size, handle)
            released += size
        if released:
            self._trims += 1
            self._series.trims.inc()
            self._record("pool-trim", released)
        self._publish()
        return released

    def _maybe_trim(self) -> None:
        if self.config.trim_enabled and self.bytes_cached > self._high:
            self.trim(self._low)

    def flush(self, cause: str = "pool-trim") -> int:
        """Release *everything* releasable (all cached bin blocks and all
        fully free segments).  Returns the bytes released; records one
        ledger entry under ``cause`` (``oom-flush`` on the OOM path)."""
        released = 0
        for size, handle in self._release_candidates():
            self._release_one(size, handle)
            released += size
        if released:
            self._record(cause, released)
        self._publish()
        return released

    # ------------------------------------------------------------------
    # pointer classification (Device.free routing)
    # ------------------------------------------------------------------
    def classify(self, ptr: DevicePtr) -> str:
        """``"live"`` (pool handed it out), ``"cached"`` (pool owns the
        range but it is not live — freeing it is a double free), or
        ``"unknown"`` (not pool memory)."""
        addr = ptr.addr
        if addr in self._live:
            return "live"
        if addr in self._cached_small:
            return "cached"
        for seg in self._segments:
            if seg.ptr.addr <= addr < seg.ptr.addr + seg.size:
                return "cached"
        return "unknown"

    def owns(self, ptr: DevicePtr) -> bool:
        """Does this pointer fall in pool-managed memory?"""
        return self.classify(ptr) != "unknown"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Forget all state without driver calls.

        :meth:`Device.close` is about to ``free_all()`` at the driver
        level, which would leave every cached pointer dangling; dropping
        the pool's books first keeps the teardown single-sourced.
        """
        self._bins.clear()
        self._cached_small.clear()
        self._segments.clear()
        self._live.clear()
        self._in_use = 0
        self._reserved = 0
        self._publish()

    def release(self) -> int:
        """Return all cached memory to the driver and detach.

        Refuses (``CuppUsageError``) while allocations are live — arena
        pointers are interior to segments and cannot outlive the pool.
        Returns the bytes released.
        """
        if self._in_use > 0:
            raise CuppUsageError(
                f"cannot disable pool with {self._in_use} bytes live "
                f"({len(self._live)} allocations)"
            )
        return self.flush(cause="pool-trim")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> PoolStats:
        """Counters + byte totals as one cheap value object."""
        return PoolStats(
            hits=self._hits,
            misses=self._misses,
            trims=self._trims,
            oom_flushes=self._oom_flushes,
            oom_retries_ok=self._oom_retries_ok,
            oom_retries_failed=self._oom_retries_failed,
            allocs=self._allocs,
            frees=self._frees,
            bytes_in_use=self._in_use,
            bytes_reserved=self._reserved,
            bytes_cached=self.bytes_cached,
            fragmentation=self._fragmentation(),
        )

    def snapshot(self) -> dict:
        """JSON-serializable detail: stats plus per-bin and per-segment
        occupancy (what ``obs.analyze`` and the bench reports consume)."""
        s = self.stats()
        return {
            "device_index": self.device.index,
            "hits": s.hits,
            "misses": s.misses,
            "hit_rate": s.hit_rate,
            "trims": s.trims,
            "oom_flushes": s.oom_flushes,
            "oom_retries_ok": s.oom_retries_ok,
            "oom_retries_failed": s.oom_retries_failed,
            "allocs": s.allocs,
            "frees": s.frees,
            "bytes_in_use": s.bytes_in_use,
            "bytes_reserved": s.bytes_reserved,
            "bytes_cached": s.bytes_cached,
            "fragmentation": s.fragmentation,
            "watermarks": {"high": self._high, "low": self._low},
            "bins": {
                size: len(ptrs)
                for size, ptrs in sorted(self._bins.items())
                if ptrs
            },
            "segments": [
                {
                    "size": seg.size,
                    "blocks": len(seg.blocks),
                    "live_blocks": seg.live_blocks,
                    "free_bytes": seg.free_bytes,
                }
                for seg in self._segments
            ],
        }

    def check_invariants(self) -> None:
        """Assert internal consistency (exercised by the property tests)."""
        # Small path: the bins and the reverse map agree exactly.
        flat = {
            p.addr: size for size, ptrs in self._bins.items() for p in ptrs
        }
        assert flat == self._cached_small, "bin free lists desync"
        small_live = sum(
            l.size for l in self._live.values() if l.kind == "small"
        )
        small_cached = sum(self._cached_small.values())
        # Arena: each segment's blocks tile it exactly and stay coalesced.
        large_live = 0
        seg_total = 0
        for seg in self._segments:
            cursor = seg.ptr.addr
            prev_free = False
            for block in seg.blocks:
                assert block.addr == cursor, (
                    f"segment gap/overlap at 0x{cursor:x}"
                )
                assert not (prev_free and block.free), (
                    "adjacent free arena blocks not coalesced"
                )
                if block.free:
                    prev_free = True
                else:
                    prev_free = False
                    live = self._live.get(block.addr)
                    assert live is not None and live.kind == "large", (
                        f"arena block 0x{block.addr:x} live but untracked"
                    )
                    assert live.size == block.size
                    large_live += block.size
                cursor += block.size
            assert cursor == seg.ptr.addr + seg.size, "segment size mismatch"
            seg_total += seg.size
        # Every large live entry must sit in some segment (checked above
        # by the per-block walk); counts must reconcile.
        n_large = sum(1 for l in self._live.values() if l.kind == "large")
        n_large_blocks = sum(seg.live_blocks for seg in self._segments)
        assert n_large == n_large_blocks, "live map / arena desync"
        assert self._in_use == small_live + large_live, "in_use drifted"
        assert self._reserved == small_live + small_cached + seg_total, (
            "reserved drifted"
        )
        assert self._in_use <= self._reserved
