"""Device-side math helpers for simulated kernels.

Kernels yield one event per instruction; writing 3-vector math that way is
noisy, so this module provides composite helpers used with ``yield from``::

    offset = yield from dl.sub3(pos_a, pos_b)     # 3 FADD
    d2 = yield from dl.length_squared3(offset)    # FMUL + 2 FMAD

Each helper yields the instruction events the G80 would execute for the
operation and *returns* the computed value, so cycle accounting and the
actual arithmetic can never disagree.  Values are plain Python tuples of
floats — registers, in hardware terms (cost 0 to access, Table 2.2).

Every formula has one definition: a plain *value* function (:func:`vadd3`,
:func:`vsub3`, :func:`vscale3`, :func:`vdot3`, :func:`vlength_squared3`,
:func:`vrsqrt`, ...) that computes the registers in the device code's
float operation order.  The generator helpers yield their events and
return the value function's result; a kernel that issues a straight-line
run in one bundle calls the value functions directly.

The arithmetic events the helpers issue are interned ``OpEvent`` module
constants (:data:`FADD3`, :data:`FMUL`, :data:`FMAD2`, :data:`RSQRT`,
:data:`COMPARE`, ...), built once by :func:`repro.simgpu.isa.op` at import.
A helper yields the constant, so an instruction costs one ``yield`` and no
lookup; kernels may yield them too (``yield dl.COMPARE``).  They are the
very objects ``op()`` returns, so a lane yielding ``dl.FADD3`` and a lane
yielding ``op(OpClass.FADD, 3)`` execute the same instruction.  Helpers
whose body is a straight-line run of several ops yield one interned
:class:`~repro.simgpu.isa.OpBundle` (:data:`LENGTH_SQUARED3`,
:data:`NORMALIZE3`, :data:`LENGTH3`, ...), accounted exactly as the ops
one by one but resuming the thread once.

The float3 memory helpers (``ld_vec3``, ``st_vec3``, ``lds_vec3``,
``sts_vec3``) coerce the element index with ``int()`` once and yield one
width-3 access at that base (:class:`~repro.simgpu.isa.GlobalRead3Event`
and friends); a load returns the 3-tuple the executor sends back.
"""

from __future__ import annotations

import math
from typing import Generator

from repro.simgpu.costs import OpClass
from repro.simgpu.isa import (
    GlobalRead3Event,
    GlobalWrite3Event,
    OpEvent,
    SharedRead3Event,
    SharedWrite3Event,
    bundle,
    ld,
    ldc,
    ldt,
    op,
)
from repro.simgpu.memory import DeviceArrayView, SharedArrayView

Vec = tuple[float, float, float]

ZERO3: Vec = (0.0, 0.0, 0.0)

# The interned arithmetic events the helpers (and the Boids kernels) issue.
#: Three FADDs: a 3-vector add or subtract.
FADD3 = op(OpClass.FADD, 3)
#: One FMUL.
FMUL = op(OpClass.FMUL)
#: Three FMULs: a 3-vector scale.
FMUL3 = op(OpClass.FMUL, 3)
#: Two FMADs: the tail of a dot product.
FMAD2 = op(OpClass.FMAD, 2)
#: One reciprocal square root (Table 2.2: 16 cycles).
RSQRT = op(OpClass.RSQRT)
#: One comparison (loop conditions, radius tests).
COMPARE = op(OpClass.COMPARE)
#: One integer add (loop counters, index math).
IADD = op(OpClass.IADD)
#: One control-flow instruction.
BRANCH = op(OpClass.BRANCH)

_TRANSCENDENTAL = op(OpClass.TRANSCENDENTAL)
_RCP = op(OpClass.RCP)
_CONVERT = op(OpClass.CONVERT)
_MINMAX = op(OpClass.MINMAX)

# The interned straight-line runs of the composite helpers.
#: A dot product or squared length: FMUL + 2 FMAD.
LENGTH_SQUARED3 = bundle(FMUL, FMAD2)
#: A normalize: squared length + RSQRT + 3-vector scale.
NORMALIZE3 = bundle(LENGTH_SQUARED3, RSQRT, FMUL3)
#: A length: squared length + RSQRT + FMUL (``x * rsqrt(x) = sqrt(x)``).
LENGTH3 = bundle(LENGTH_SQUARED3, RSQRT, FMUL)
#: ``sqrtf``: RSQRT + FMUL.
SQRT = bundle(RSQRT, FMUL)


# ----------------------------------------------------------------------
# Register math: each formula's one definition (plain functions, no
# events).  The generator helpers below return these.
# ----------------------------------------------------------------------
def vadd3(a: Vec, b: Vec) -> Vec:
    """Component-wise ``a + b``."""
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vsub3(a: Vec, b: Vec) -> Vec:
    """Component-wise ``a - b``."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vscale3(a: Vec, s: float) -> Vec:
    """``a * s``."""
    return (a[0] * s, a[1] * s, a[2] * s)


def vdot3(a: Vec, b: Vec) -> float:
    """``a . b``, associated ``(x + y) + z``."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vlength_squared3(a: Vec) -> float:
    """``a . a``, associated ``(x + y) + z``."""
    return a[0] * a[0] + a[1] * a[1] + a[2] * a[2]


def vrsqrt(x: float) -> float:
    """``1 / sqrt(x)``, guarded to 0 for ``x <= 0``."""
    return 1.0 / math.sqrt(x) if x > 0.0 else 0.0


def vnormalize3(a: Vec) -> Vec:
    """``a`` scaled by the rsqrt of its squared length (zero stays zero)."""
    return vscale3(a, vrsqrt(vlength_squared3(a)))


def vlength3(a: Vec) -> float:
    """``d2 * rsqrt(d2)`` for the squared length ``d2``."""
    d2 = vlength_squared3(a)
    return d2 * vrsqrt(d2)


# ----------------------------------------------------------------------
# Generator helpers: the events, then the value.
# ----------------------------------------------------------------------
def add3(a: Vec, b: Vec) -> Generator:
    """Component-wise addition: 3 FADD."""
    yield FADD3
    return vadd3(a, b)


def sub3(a: Vec, b: Vec) -> Generator:
    """Component-wise subtraction: 3 FADD."""
    yield FADD3
    return vsub3(a, b)


def scale3(a: Vec, s: float) -> Generator:
    """Scalar multiply: 3 FMUL."""
    yield FMUL3
    return vscale3(a, s)


def dot3(a: Vec, b: Vec) -> Generator:
    """Dot product: 1 FMUL + 2 FMAD."""
    yield LENGTH_SQUARED3
    return vdot3(a, b)


def length_squared3(a: Vec) -> Generator:
    """Squared length: 1 FMUL + 2 FMAD (``dot3(a, a)``)."""
    yield LENGTH_SQUARED3
    return vlength_squared3(a)


def rsqrt(x: float) -> Generator:
    """Reciprocal square root: 16-cycle transcendental (Table 2.2)."""
    yield RSQRT
    return vrsqrt(x)


def length3(a: Vec) -> Generator:
    """Length: length_squared + rsqrt + FMUL (x * rsqrt(x) = sqrt(x))."""
    yield LENGTH3
    return vlength3(a)


def normalize3(a: Vec) -> Generator:
    """Unit vector (zero stays zero): length_squared + rsqrt + scale."""
    yield NORMALIZE3
    return vnormalize3(a)


def ld_vec3(array: DeviceArrayView, index: int) -> Generator:
    """Load a float3 stored as 3 consecutive float32 at ``index*3``.

    Three separate 32-bit loads — the G80 pattern for float3, and the
    reason position loads in the Boids kernels do not coalesce — handed
    to the executor as one width-3 access.
    """
    return (yield GlobalRead3Event(array, int(index * 3)))


def st_vec3(array: DeviceArrayView, index: int, value: Vec) -> Generator:
    """Store a float3 as 3 consecutive float32 stores."""
    yield GlobalWrite3Event(array, int(index * 3), value)


def lds_vec3(array: SharedArrayView, index: int) -> Generator:
    """Load a float3 from shared memory (3 shared reads)."""
    return (yield SharedRead3Event(array, int(index * 3)))


def sts_vec3(array: SharedArrayView, index: int, value: Vec) -> Generator:
    """Store a float3 to shared memory (3 shared writes)."""
    yield SharedWrite3Event(array, int(index * 3), value)


def ld_auto(device_vector, index: int) -> Generator:
    """Load one element of a DeviceVector-like from whatever space it
    lives in (global / texture / constant — the ch. 7 extension)."""
    space = getattr(device_vector, "space", "global")
    if space == "texture":
        value = yield ldt(device_vector.texref, index)
    elif space == "constant":
        value = yield ldc(device_vector.const_view, index)
    else:
        value = yield ld(device_vector.view, index)
    return value


# ----------------------------------------------------------------------
# Device runtime library: mathematical / conversion functions (§3.1.4).
# The G80's special function unit serves transcendentals at rcp-like
# throughput; conversions ride the plain ALU pipe.
# ----------------------------------------------------------------------
def sinf(x: float) -> Generator:
    """``__sinf`` — fast sine on the SFU."""
    yield _TRANSCENDENTAL
    return math.sin(x)


def cosf(x: float) -> Generator:
    """``__cosf`` — fast cosine on the SFU."""
    yield _TRANSCENDENTAL
    return math.cos(x)


def expf(x: float) -> Generator:
    """``__expf`` — fast exponential on the SFU."""
    yield _TRANSCENDENTAL
    return math.exp(x)


def logf(x: float) -> Generator:
    """``__logf`` — fast natural log on the SFU (x > 0)."""
    yield _TRANSCENDENTAL
    return math.log(x)


def rcp(x: float) -> Generator:
    """Reciprocal (Table 2.2: 16 cycles)."""
    yield _RCP
    return 0.0 if x == 0.0 else 1.0 / x


def sqrtf(x: float) -> Generator:
    """``sqrtf`` — compiled as rsqrt + multiply on the G80."""
    yield SQRT
    return x * vrsqrt(x)


def float2int(x: float) -> Generator:
    """``__float2int_rz`` — round-toward-zero conversion (§3.1.4)."""
    yield _CONVERT
    return math.trunc(x)


def int2float(x: int) -> Generator:
    """``__int2float_rn`` conversion."""
    yield _CONVERT
    return float(x)


def fminf(a: float, b: float) -> Generator:
    """``fminf`` (Table 2.2: min/max cost 4)."""
    yield _MINMAX
    return a if a < b else b


def fmaxf(a: float, b: float) -> Generator:
    """``fmaxf``."""
    yield _MINMAX
    return a if a > b else b


def clampf(x: float, lo: float, hi: float) -> Generator:
    """Clamp via fmin/fmax (two MINMAX issues)."""
    x = yield from fmaxf(x, lo)
    return (yield from fminf(x, hi))


def iadd(count: int = 1) -> OpEvent:
    """Integer add/increment issue (loop counters, index math)."""
    return op(OpClass.IADD, count)


def compare(count: int = 1) -> OpEvent:
    """Comparison issue (loop conditions, radius tests)."""
    return op(OpClass.COMPARE, count)


def branch(count: int = 1) -> OpEvent:
    """Control-flow instruction issue (§2.3: executed even when the warp
    does not diverge)."""
    return op(OpClass.BRANCH, count)
