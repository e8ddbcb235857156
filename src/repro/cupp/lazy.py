"""Lazy memory copying (§4.6), written once for every CuPP container.

``Vector``, ``NestedVector``, ``FlatMap`` and ``HashGrid`` share this
protocol:

* ``transform()`` / ``get_device_reference()`` upload iff the device
  copy is absent or stale, reallocating first only if its shape changed;
* ``dirty()`` marks the host copy stale (a kernel wrote the device copy);
* a host read downloads first iff the host copy is stale;
* a host write marks the device copy stale, and with it the device copy
  of every container holding this one (a nested vector's rows);
* a container is bound to the first device that consumes it.

The state — ``_host_valid``, ``_device_valid`` and ``_blocks``, one
:class:`Memory1D` per mirrored host array — lives on the container, so a
lazy hit or a host write costs attribute reads.  A container supplies
its ``_host_arrays()`` (in allocation order), builds its device type
from ``_blocks``, loads downloads back in ``_load_host()``, reports its
``device_nbytes``, and names its metric family, ledger causes and trace
instants in the class constants below.
"""

from __future__ import annotations

from repro import obs
from repro.cupp.device import Device
from repro.cupp.device_reference import DeviceReference
from repro.cupp.exceptions import CuppUsageError
from repro.cupp.memory1d import Memory1D


class _Blocks(tuple):
    """A device copy's :class:`Memory1D` blocks, in allocation order.

    Dropping the last reference frees them in that order (a plain tuple
    frees back to front): the pool recycles device addresses in free
    order, so teardown must not reorder them.
    """

    def __del__(self) -> None:  # pragma: no cover - gc timing
        for block in self:
            block.close()


class LazyContainer:
    """Base of every CuPP container with a lazily synchronized device copy."""

    #: Metric family: ``<prefix>.uploads`` / ``<prefix>.downloads``, plus
    #: ``.reallocs`` and ``.lazy_hits`` where the flags below say so.
    metric_prefix = ""
    counts_reallocs = False
    counts_lazy_hits = False
    #: Ledger cause of an upload, and of the upload after a reallocation.
    upload_cause = "lazy-miss"
    realloc_cause = "lazy-miss"
    #: Trace instants, each with ``nbytes=device_nbytes``; ``None`` means
    #: the class emits none.
    lazy_hit_instant: "str | None" = None
    realloc_instant: "str | None" = None
    invalidate_instant: "str | None" = None
    dirty_instant: "str | None" = None
    #: Attributes holding lazy containers this one is composed of.  Their
    #: device copies are ensured right after this one's, and this
    #: container's counters and instants account for the whole structure.
    parts: "tuple[str, ...]" = ()
    #: Containers whose device copy is built from this one's contents
    #: (the nested vectors holding a row); a ``WeakSet`` once held.
    _holders: "weakref.WeakSet | tuple" = ()

    #: The device copy, set on first upload — so it is the container's
    #: last attribute, and teardown frees its parts' copies before its own.
    _blocks: "_Blocks | None" = None

    def __init__(self) -> None:
        self._host_valid = True
        self._device_valid = False
        # Per-container transfer counts behind read-through properties;
        # the process-wide totals are the <prefix>.* registry series.
        self._uploads = obs.Counter()
        self._downloads = obs.Counter()

    @property
    def uploads(self) -> int:
        """Host -> device transfers this container has performed."""
        return self._uploads.value

    @property
    def downloads(self) -> int:
        """Device -> host transfers this container has performed."""
        return self._downloads.value

    def _instant(self, name: "str | None") -> None:
        if name is not None:
            tracer = obs.get_tracer()
            if tracer.enabled:
                tracer.instant(name, nbytes=self.device_nbytes)

    # ------------------------------------------------------------------
    # host side: read and write detection
    # ------------------------------------------------------------------
    def _ensure_host(self, cause: str = "lazy-miss") -> None:
        """Host read path: download iff the host copy is stale.

        ``cause`` names the ledger bucket a forced download lands in
        (batch assembly passes its own attribution).
        """
        if not self._host_valid:
            assert self._blocks is not None, "host stale with no device data"
            self._load_host(
                [block.copy_to_host(cause=cause) for block in self._blocks]
            )
            self._host_valid = True
            self._downloads.inc()
            obs.counter(f"{self.metric_prefix}.downloads").inc()

    def _before_host_write(self, source: object = None) -> None:
        """Host write path: refresh first, then mark the device copy stale,
        and every holder's except ``source``'s (the holder whose own
        download is doing the writing)."""
        if not self._host_valid:
            self._ensure_host()
        if self._device_valid:
            self._invalidate_device()
        if self._holders:
            self._invalidate_holders(source)

    def _invalidate_device(self) -> None:
        # The dirty-flag flip the lazy protocol pivots on (§4.6).
        self._instant(self.invalidate_instant)
        self._device_valid = False

    def _invalidate_holders(self, source: object = None) -> None:
        for holder in self._holders:
            if holder is not source and holder._device_valid:
                holder._invalidate_device()

    # ------------------------------------------------------------------
    # device side: the CuPP protocol (§4.4/§4.6)
    # ------------------------------------------------------------------
    def _ensure_device(
        self, device: Device, account: bool = True
    ) -> _Blocks:
        """Upload iff the device copy is absent or stale; returns the
        blocks.  ``account=False`` leaves the counters and instants to the
        composite container this one is a part of."""
        blocks = self._blocks
        if blocks is not None and blocks[0].device is not device:
            raise CuppUsageError(
                f"{type(self).__name__} is bound to a different device; "
                "CuPP supports one device per container"
            )
        if self._device_valid:
            # Host writes invalidate, so a valid copy has the host's shape.
            for name in self.parts:
                getattr(self, name)._ensure_device(device, False)
            if account:
                if self.counts_lazy_hits:
                    obs.counter(f"{self.metric_prefix}.lazy_hits").inc()
                # The transfer the lazy protocol avoided (§4.6).
                if obs.get_tracer().enabled:
                    self._instant(self.lazy_hit_instant)
            return blocks
        if not self._host_valid:
            self._ensure_host()
        arrays = self._host_arrays()
        cause = self.upload_cause
        if blocks is None or any(
            block.count != array.size for block, array in zip(blocks, arrays)
        ):
            if blocks is not None:
                # Shape churn: free the old blocks; the full re-upload is
                # attributed under the realloc cause.
                for block in blocks:
                    block.close()
                cause = self.realloc_cause
                if account:
                    if self.counts_reallocs:
                        obs.counter(f"{self.metric_prefix}.reallocs").inc()
                    self._instant(self.realloc_instant)
            blocks = self._blocks = _Blocks(
                Memory1D(device, array.dtype, array.size) for array in arrays
            )
        for block, array in zip(blocks, arrays):
            block.copy_from_host(array, cause=cause)
        for name in self.parts:
            getattr(self, name)._ensure_device(device, False)
        self._device_valid = True
        self._uploads.inc()
        if account:
            obs.counter(f"{self.metric_prefix}.uploads").inc()
        return blocks

    def get_device_reference(self, device: Device) -> DeviceReference:
        """Pass-by-reference: upload iff stale, wrap the device type in a
        global-memory reference."""
        return DeviceReference(device, self.transform(device))

    def dirty(self, device_ref: DeviceReference) -> None:
        """The kernel mutated the device copy: the host copy is now stale,
        and so is every holder's device copy."""
        self._host_valid = False
        self._instant(self.dirty_instant)
        if self._holders:
            self._invalidate_holders()


class HostBuiltContainer(LazyContainer):
    """A ``cupp.containers`` structure: built at the host, const on the
    device (ch. 7), accounted in the ``cupp.containers.*`` family.

    Subclasses name their ``grid-query`` ledger label and build their
    device type in ``_device_twin()``.
    """

    metric_prefix = "cupp.containers"
    counts_reallocs = True
    counts_lazy_hits = True
    upload_cause = realloc_cause = "grid-build"
    lazy_hit_instant = "containers.lazy-hit"
    #: Ledger label of this container's ``grid-query`` records.
    query_label = ""

    def transform(self, device: Device) -> object:
        """Pass-by-value: upload iff stale; every consumption is recorded
        as ``grid-query`` on-device bytes (``moved=False``)."""
        self._ensure_device(device)
        obs.counter("cupp.containers.queries").inc()
        obs.record_transfer(
            "grid-query", "d2d", self.device_nbytes,
            moved=False, label=self.query_label,
        )
        return self._device_twin()

    def dirty(self, device_ref: DeviceReference) -> None:
        """A kernel claiming to have mutated a container is a usage error."""
        raise CuppUsageError(
            "cupp.containers structures are const on the device; pass them "
            "as ConstRef parameters"
        )
