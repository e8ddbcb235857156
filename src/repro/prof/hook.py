"""The global profiling hook: where launch paths find the active session.

This module is the *only* coupling between the hot launch paths
(:meth:`repro.cuda.runtime.CudaRuntime.cudaLaunch`, the native backend's
replay, the serve scheduler) and the profiler: they call :func:`active`
— a module-global read — and do nothing when it returns ``None``.  It
must therefore stay dependency-free so importing it from the CUDA
runtime costs nothing and cannot cycle.

The serving loop's instruments hang off its owner object (the
service's ``observers`` tuple); kernel launches have no single owner,
so the profiler's attachment point is this module global instead.
"""

from __future__ import annotations

_active = None


def active():
    """The currently attached :class:`~repro.prof.session.ProfSession`,
    or ``None`` — the common case, and the whole inertness guarantee:
    every instrumentation point is one module-global read away from
    doing nothing at all."""
    return _active


def activate(session) -> None:
    """Attach a session; only one can be active at a time."""
    global _active
    if _active is not None:
        raise RuntimeError(
            "a ProfSession is already active; nest-free by design "
            "(deactivate the outer session first)"
        )
    _active = session


def deactivate(session) -> None:
    """Detach ``session`` if it is the active one (idempotent)."""
    global _active
    if _active is session:
        _active = None
