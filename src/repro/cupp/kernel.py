"""The C++-style kernel call: ``cupp::kernel`` (paper §4.3).

A :class:`Kernel` is a functor wrapping a ``__global__`` function.  Its
``__call__`` mimics a function call with real pass-by-value and
pass-by-reference semantics:

**Call-by-value** (§4.3.1)
    1. a copy of the object is created (copy-constructor analog),
    2. the copy is transformed to its device type and pushed byte-wise
       onto the kernel parameter stack,
    3. the kernel executes,
    4. the host copy is destroyed *after the kernel has started* — not
       after it finishes, to avoid a pointless synchronization.

**Call-by-reference** (§4.3.2)
    1. the object's global-memory image is created
       (``get_device_reference``),
    2. the kernel receives the device-side object,
    3. after the kernel, the image is copied back and the host object is
       notified via ``dirty()`` — *unless the parameter was declared
       const*, in which case the copy-back is skipped entirely.  That
       elision is the paper's marquee optimization and is observable in
       this implementation through :attr:`CallStats`.

The signature analysis (which parameter is a const reference) happens
once at construction — the run-once analog of CuPP's compile-time
template metaprogramming.  Its run-time half (which of the §4.4
customization points each argument's type defines) is resolved once per
tuple of argument types into a *call plan*; later calls with the same
types only run the plan.
"""

from __future__ import annotations

import copy as _copy
from typing import Callable

from repro import obs
from repro.cuda.errors import cudaError
from repro.cuda.qualifiers import is_global
from repro.cuda.runtime import sizeof_argument
from repro.cupp.device import Device
from repro.cupp.device_reference import DeviceReference
from repro.cupp.exceptions import CuppLaunchError, CuppTraitError, check
from repro.cupp.serialize import Boxed
from repro.cupp.traits import (
    KernelTraits,
    PassKind,
    analyze_kernel,
    apply_transform,
    default_transform,
)
from repro.simgpu.dims import Dim3, as_dim3


_TRACER = obs.get_tracer()
_SUCCESS = cudaError.cudaSuccess

# The step kinds of a call plan: how one argument reaches the kernel
# stack.  By value, the argument is copied, then transformed by its own
# ``transform()`` or by the listing-4.5 default.  By reference, the
# global-memory image comes from the read-only getter (const parameters,
# ch. 7), the type's own getter, or the default.
_VALUE_TRANSFORM, _VALUE_DEFAULT = 0, 1
_REF_READONLY, _REF_CUSTOM, _REF_DEFAULT = 2, 3, 4


class CallStats:
    """Observable side effects of one kernel call — the paper's
    performance traps (value copies, forgotten const) show up here.

    Plain integer fields, counted during the call and published once at
    its end (:meth:`publish`) into the process-wide aggregate series
    ``cupp.kernel.<field>`` of the global metrics registry.
    """

    FIELDS = (
        "value_copies",
        "ref_uploads",
        "ref_upload_bytes",
        "writebacks",
        "writeback_bytes",
        "elided_writebacks",
    )

    __slots__ = FIELDS

    def __init__(
        self,
        value_copies: int = 0,
        ref_uploads: int = 0,
        ref_upload_bytes: int = 0,
        writebacks: int = 0,
        writeback_bytes: int = 0,
        elided_writebacks: int = 0,
    ) -> None:
        self.value_copies = value_copies
        self.ref_uploads = ref_uploads
        self.ref_upload_bytes = ref_upload_bytes
        self.writebacks = writebacks
        self.writeback_bytes = writeback_bytes
        self.elided_writebacks = elided_writebacks

    def publish(self) -> None:
        """Add these counts to the ``cupp.kernel.*`` series.

        A byte total is published with its count, so a call that made no
        reference upload leaves ``ref_upload_bytes`` out of a snapshot
        exactly as it leaves ``ref_uploads`` out.
        """
        if self.value_copies:
            _STAT_SERIES["value_copies"].inc(self.value_copies)
        if self.ref_uploads:
            _STAT_SERIES["ref_uploads"].inc(self.ref_uploads)
            _STAT_SERIES["ref_upload_bytes"].inc(self.ref_upload_bytes)
        if self.writebacks:
            _STAT_SERIES["writebacks"].inc(self.writebacks)
            _STAT_SERIES["writeback_bytes"].inc(self.writeback_bytes)
        if self.elided_writebacks:
            _STAT_SERIES["elided_writebacks"].inc(self.elided_writebacks)

    def as_dict(self) -> "dict[str, int]":
        """Plain-dict snapshot (span attributes, reports)."""
        return {f: getattr(self, f) for f in self.FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"CallStats({inner})"


_STAT_SERIES = {
    field: obs.bind_counter(f"cupp.kernel.{field}")
    for field in CallStats.FIELDS
}


def _default_get_device_reference(obj: object, device: Device) -> DeviceReference:
    """Listing 4.5 default: copy the *transformed* object to global memory."""
    return DeviceReference(device, apply_transform(obj, device))


def _default_dirty(host_obj: object, device_ref: DeviceReference) -> None:
    """Listing 4.5 default: replace ``*this`` with the updated device data.

    Python cannot rebind the caller's variable, so "replace" means
    updating the object in place.  Immutable arguments passed by mutable
    reference are a usage error — pass :class:`Boxed` or declare the
    parameter ``ConstRef``.
    """
    updated = device_ref.get()
    if isinstance(host_obj, Boxed):
        host_obj.value = (
            updated.value if isinstance(updated, Boxed) else updated
        )
        return
    if hasattr(host_obj, "__dict__") and hasattr(updated, "__dict__"):
        host_obj.__dict__.update(updated.__dict__)
        return
    if isinstance(host_obj, list) and isinstance(updated, list):
        host_obj[:] = updated
        return
    raise CuppTraitError(
        f"cannot write device changes back into a {type(host_obj).__name__}; "
        "pass a Boxed value, implement dirty(), or declare the parameter "
        "ConstRef"
    )


def plan_grid(total_threads: int, threads_per_block: int) -> Dim3:
    """Pick a grid for ``total_threads``, going 2D when it must.

    §2.2: "When requiring more than 2^16 thread blocks, 2-dimensional
    block-indexes have to be used" — each grid axis caps at 65535.  For
    small launches this returns the familiar 1D grid.
    """
    import math

    if total_threads <= 0 or threads_per_block <= 0:
        raise CuppLaunchError("thread counts must be positive")
    blocks = math.ceil(total_threads / threads_per_block)
    if blocks <= 65535:
        return Dim3(blocks, 1, 1)
    width = 65535
    height = math.ceil(blocks / width)
    if height > 65535:
        raise CuppLaunchError(
            f"{blocks} blocks exceed the 65535x65535 grid limit"
        )
    # Prefer a squarer grid: fewer wasted tail blocks.
    width = math.ceil(math.sqrt(blocks))
    height = math.ceil(blocks / width)
    return Dim3(width, height, 1)


class Kernel:
    """The ``cupp::kernel`` functor.

    Parameters
    ----------
    fn:
        A ``@global_``-qualified kernel (the "function pointer" of
        listing 4.2).
    grid_dim, block_dim:
        Optional launch configuration; may also be set later with
        :meth:`set_grid_dim` / :meth:`set_block_dim` (§4.3).
    """

    def __init__(
        self,
        fn: Callable,
        grid_dim: "Dim3 | int | tuple | None" = None,
        block_dim: "Dim3 | int | tuple | None" = None,
    ) -> None:
        if not is_global(fn):
            raise CuppTraitError(
                f"{getattr(fn, '__name__', fn)!r} is not a __global__ "
                "function; qualify it with @global_"
            )
        self.fn = fn
        # "Compile time": the signature is analyzed exactly once.
        self.traits: KernelTraits = analyze_kernel(fn)
        self._grid_dim = None if grid_dim is None else as_dim3(grid_dim)
        self._block_dim = None if block_dim is None else as_dim3(block_dim)
        self.last_stats: CallStats | None = None
        self._launches = obs.bind_counter(
            "cupp.kernel.launches", kernel=self.traits.name
        )
        #: Tuple of argument types -> its call plan (:meth:`_build_plan`).
        self._plans: "dict[tuple[type, ...], tuple]" = {}

    # ------------------------------------------------------------------
    def set_grid_dim(self, grid_dim: "Dim3 | int | tuple") -> None:
        self._grid_dim = as_dim3(grid_dim)

    def set_block_dim(self, block_dim: "Dim3 | int | tuple") -> None:
        self._block_dim = as_dim3(block_dim)

    @property
    def grid_dim(self) -> Dim3 | None:
        return self._grid_dim

    @property
    def block_dim(self) -> Dim3 | None:
        return self._block_dim

    # ------------------------------------------------------------------
    def _build_plan(self, types: "tuple[type, ...]") -> tuple:
        """Resolve how arguments of ``types`` are passed, once.

        One step per parameter: ``(kind, copies_back, custom_dirty,
        name, label)``.  The step names which customization point to
        call, never a captured method, so every call still goes through
        the argument itself and sees methods wrapped on its class.
        """
        plan = []
        for trait, cls in zip(self.traits.params, types):
            if trait.kind is PassKind.VALUE:
                if callable(getattr(cls, "transform", None)):
                    kind = _VALUE_TRANSFORM
                else:
                    kind = _VALUE_DEFAULT
            elif trait.kind is PassKind.CONST_REF and callable(
                getattr(cls, "get_device_reference_readonly", None)
            ):
                # Chapter-7 extension: the traits analysis knows this
                # parameter is const, so the argument may serve it from
                # a read-only cached space.
                kind = _REF_READONLY
            elif callable(getattr(cls, "get_device_reference", None)):
                kind = _REF_CUSTOM
            else:
                kind = _REF_DEFAULT
            plan.append((
                kind,
                trait.kind is PassKind.REF,
                callable(getattr(cls, "dirty", None)),
                trait.name,
                f"{self.traits.name}.{trait.name}",
            ))
        return tuple(plan)

    def __call__(self, device: Device, *args: object) -> CallStats:
        """Launch: ``f(device_hdl, arg0, arg1, ...)`` (listing 4.3)."""
        if self._grid_dim is None or self._block_dim is None:
            raise CuppLaunchError(
                f"kernel {self.traits.name!r}: grid/block dimensions not set"
            )
        if len(args) != len(self.traits.params):
            raise CuppLaunchError(
                f"kernel {self.traits.name!r} takes {self.traits.arity} "
                f"argument(s), got {len(args)}"
            )
        types = tuple(map(type, args))
        plan = self._plans.get(types)
        if plan is None:
            plan = self._plans[types] = self._build_plan(types)

        stats = CallStats()
        self._launches.inc()
        tracing = _TRACER.enabled
        if tracing:
            # Traits decisions become span attributes: which parameter
            # passed how, and therefore which copies can be elided.
            span = _TRACER.span(
                f"kernel:{self.traits.name}",
                grid=str(self._grid_dim),
                block=str(self._block_dim),
                params=[
                    f"{t.name}:{t.kind.name.lower()}"
                    for t in self.traits.params
                ],
            )
        else:
            span = obs.NULL_SPAN
        try:
            with span:
                self._run(plan, device, args, stats)
                if tracing:
                    span.set(stats=stats.as_dict())
        finally:
            stats.publish()
        self.last_stats = stats
        return stats

    def _run(
        self, plan: tuple, device: Device, args: tuple, stats: CallStats
    ) -> None:
        """The launch itself: run ``plan`` over ``args``."""
        rt = device.runtime
        err = rt.cudaConfigureCall(self._grid_dim, self._block_dim)
        if err is not _SUCCESS:
            check(err, f"configuring {self.traits.name!r}")

        # Prepare each argument per its declared pass semantics.
        pending_writeback: list = []
        host_copies: list[object] = []  # destroyed after the launch starts
        offset = 0
        for (kind, copies_back, custom_dirty, name, label), arg in zip(
            plan, args
        ):
            if kind <= _VALUE_DEFAULT:
                host_copy = _copy.copy(arg)  # step 1: copy constructor
                stats.value_copies += 1
                if kind == _VALUE_TRANSFORM:
                    device_obj = host_copy.transform(device)  # type: ignore[attr-defined]
                else:
                    device_obj = default_transform(host_copy, device)
                host_copies.append(host_copy)
            else:
                if kind == _REF_READONLY:
                    dref = arg.get_device_reference_readonly(device)  # type: ignore[attr-defined]
                elif kind == _REF_CUSTOM:
                    dref = arg.get_device_reference(device)  # type: ignore[attr-defined]
                else:
                    dref = _default_get_device_reference(arg, device)
                if not isinstance(dref, DeviceReference):
                    raise CuppTraitError(
                        f"{type(arg).__name__}.get_device_reference() must "
                        "return a DeviceReference"
                    )
                nbytes = dref.nbytes
                stats.ref_uploads += 1
                stats.ref_upload_bytes += nbytes
                device_obj = dref.deref()
                if copies_back:
                    pending_writeback.append((arg, dref, custom_dirty, label))
                else:
                    stats.elided_writebacks += 1
                    # The marquee optimization, as ledger evidence: these
                    # bytes were attributed but never moved.
                    obs.record_transfer(
                        "copy-back-skipped-const",
                        "none",
                        nbytes,
                        moved=False,
                        label=label,
                    )
            size = sizeof_argument(device_obj)
            err = rt.cudaSetupArgument(device_obj, offset, size=size)
            if err is not _SUCCESS:
                check(err, f"pushing argument {name!r}")
            offset += max(size, 4)

        err = rt.cudaLaunch(self.fn)
        if err is not _SUCCESS:
            check(err, f"launching {self.traits.name!r}")
        # Step 4 of call-by-value: the host copies die here, after the
        # kernel has *started* — no synchronization with completion.
        host_copies.clear()

        # Call-by-reference step 4: copy back and notify, unless const.
        for host_obj, dref, custom_dirty, label in pending_writeback:
            dref.put()  # device-side mutations -> global memory image
            nbytes = dref.nbytes
            stats.writebacks += 1
            stats.writeback_bytes += nbytes
            obs.record_transfer("copy-back", "d2h", nbytes, label=label)
            if custom_dirty:
                host_obj.dirty(dref)  # type: ignore[attr-defined]
            else:
                _default_dirty(host_obj, dref)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"cupp.Kernel({self.traits.name}, grid={self._grid_dim}, "
            f"block={self._block_dim})"
        )
