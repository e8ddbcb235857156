"""Kernel signature traits — the "template metaprogramming" of CuPP.

The paper analyzes kernel declarations at compile time with boost function
traits plus self-written template metaprogramming (§4.3.2) to answer two
questions:

1. Is a parameter passed by value, by reference, or by *const* reference?
   (Const references skip the device->host copy-back.)
2. Does the argument's type customize ``transform()`` /
   ``get_device_reference()`` / ``dirty()`` (§4.4), or do the defaults
   apply?

Python gives us the same information through annotations and attribute
introspection.  Reference parameters are declared with the :class:`Ref` /
:class:`ConstRef` markers::

    @global_
    def kernel(ctx, i: int, j: Ref[int]):
        ...

Analysis happens once, when the :class:`~repro.cupp.kernel.Kernel` functor
is constructed — CuPP's analog of paying at compile time.  (The paper
measures that price: compiling the Boids scenario went from 3.1 s to
7.3 s.)  Each analysis bumps the ``cupp.traits.analyses`` counter, so the
§7 experiment can count that it runs once per construction and never per
call.
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.cupp.exceptions import CuppTraitError
from repro.cupp.typetransform import device_type_of, validate_binding

_ANALYSES = obs.bind_counter("cupp.traits.analyses")


@dataclass(frozen=True)
class RefSpec:
    """The annotation payload produced by ``Ref[T]`` / ``ConstRef[T]``."""

    inner: object
    const: bool


class Ref:
    """Marks a kernel parameter as passed by (mutable) reference.

    Changes the device makes are copied back to the host object after the
    kernel completes (§4.3.2 step 4).
    """

    def __class_getitem__(cls, item: object) -> RefSpec:
        return RefSpec(item, const=False)


class ConstRef:
    """Marks a kernel parameter as passed by ``const`` reference.

    The framework skips the device->host copy-back (§4.3.2): "if a
    reference is defined as constant, the last step is skipped".
    """

    def __class_getitem__(cls, item: object) -> RefSpec:
        return RefSpec(item, const=True)


class PassKind(enum.Enum):
    VALUE = "value"
    REF = "ref"
    CONST_REF = "const_ref"


@dataclass(frozen=True)
class ParamTrait:
    """What the framework knows about one kernel parameter."""

    name: str
    kind: PassKind
    declared_type: object  # annotation payload (may be None)

    @property
    def copies_back(self) -> bool:
        return self.kind is PassKind.REF


@dataclass(frozen=True)
class KernelTraits:
    """The full signature analysis of a ``__global__`` function."""

    name: str
    params: tuple[ParamTrait, ...]

    @property
    def arity(self) -> int:
        return len(self.params)


def analyze_kernel(fn: Callable) -> KernelTraits:
    """Analyze a kernel's declaration (run once per ``cupp.Kernel``).

    ``fn`` may be the ``@global_`` wrapper or the raw generator function;
    the first parameter must be the thread context and is not a kernel
    parameter.
    """
    _ANALYSES.inc()
    impl = getattr(fn, "impl", fn)
    sig = inspect.signature(impl)
    names = list(sig.parameters)
    if not names:
        raise CuppTraitError(
            f"kernel {impl.__name__!r} must take the thread context as its "
            "first parameter"
        )
    params: list[ParamTrait] = []
    for name in names[1:]:
        p = sig.parameters[name]
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            raise CuppTraitError(
                f"kernel {impl.__name__!r}: *args/**kwargs parameters are "
                "not kernel-stack compatible"
            )
        ann = p.annotation if p.annotation is not inspect.Parameter.empty else None
        if isinstance(ann, str):
            # PEP 563 (`from __future__ import annotations`) stringizes
            # annotations; resolve them in the kernel's namespace so
            # Ref/ConstRef markers survive.
            try:
                ann = eval(  # noqa: S307 - trusted kernel source
                    ann, getattr(impl, "__globals__", {})
                )
            except Exception as exc:
                raise CuppTraitError(
                    f"kernel {impl.__name__!r}: cannot resolve annotation "
                    f"{ann!r} for parameter {name!r}: {exc}"
                ) from exc
        if isinstance(ann, RefSpec):
            kind = PassKind.CONST_REF if ann.const else PassKind.REF
            declared: object = ann.inner
        else:
            kind = PassKind.VALUE
            declared = ann
        if isinstance(declared, type):
            validate_binding(declared)
        params.append(ParamTrait(name, kind, declared))
    return KernelTraits(name=impl.__name__, params=tuple(params))


# ----------------------------------------------------------------------
# Type traits: which of the three customization points a type defines
# (§4.4), and the default implementations (listing 4.5).
# ----------------------------------------------------------------------
def has_transform(obj: object) -> bool:
    """Does the object declare its own ``transform()``?"""
    return callable(getattr(type(obj), "transform", None))


def default_transform(obj: object, device: object) -> object:
    """Listing 4.5: cast ``*this`` to the device type.

    For PODs (device type == host type) this returns the object itself;
    for a declared pair the device type must be constructible from the
    host object (``DeviceT.from_host(obj)`` or ``DeviceT(obj)``).
    """
    dev_cls = device_type_of(type(obj))
    if dev_cls is type(obj):
        return obj
    from_host = getattr(dev_cls, "from_host", None)
    if callable(from_host):
        return from_host(obj)
    return dev_cls(obj)


def apply_transform(obj: object, device: object) -> object:
    """Dispatch to the object's ``transform()`` or the default."""
    if has_transform(obj):
        return obj.transform(device)  # type: ignore[attr-defined]
    return default_transform(obj, device)
