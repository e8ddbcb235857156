"""Outside-in tracing: spans around the public functions of each layer.

The benchmark does not change the program to trace it.  :class:`Tracer`
replaces the functions named in :data:`TARGETS` with wrappers that
record a span per call, and :meth:`Tracer.restore` puts the originals
back.  Spans are named ``<layer>.<part>`` after the ``src/repro``
module they belong to, so a layer's totals are the sums over its
prefix.

Self time is kept online: when a span closes, its duration is added to
its parent's child time, and its self time is its duration minus that
child time.  Calls in one thread nest, so the children of a span never
overlap and the sum is exactly the part of the span they cover.

A wrapper costs a few hundred nanoseconds, which is as much as some of
the calls it wraps.  :meth:`Tracer.calibrate` measures that cost, as
profilers do, and self times then leave it out: the part inside a span's
own interval is taken from its self time, the part around it from its
parent's.  The sum of all self times is then the traced time less the
tracing cost.

Only the first :data:`KEEP_SPANS` spans are stored for the Chrome trace;
the per-name totals count every span, so memory stays bounded on long
runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

#: Spans stored for the Chrome trace; later spans count in the totals only.
KEEP_SPANS = 20_000
#: Wrapped calls of an empty function per :meth:`Tracer.calibrate`.
CALIBRATION_CALLS = 10_000

#: ``(span name, "module" or "module:Class", attributes)``.  A span name
#: containing ``{attr}`` gets the attribute's name; an attribute ending
#: in ``*`` selects every public callable with that prefix.
TARGETS = (
    ("gpusteer.step", "repro.gpusteer.emulated:EmulatedBoids", ("step",)),
    # The name emulated.py imported, which is the one step() calls.
    ("steer.flocking", "repro.gpusteer.emulated", ("flocking_np",)),
    ("cupp.kernel", "repro.cupp.kernel:Kernel", ("__call__",)),
    (
        "cupp.device_reference.{attr}",
        "repro.cupp.device_reference:DeviceReference",
        ("__init__", "put", "get", "free"),
    ),
    (
        "cupp.device.{attr}",
        "repro.cupp.device:Device",
        ("alloc", "free", "upload", "download"),
    ),
    # Every entry into the lazy-copy protocol shares one name, so a
    # get_device_reference that calls transform counts as one request.
    (
        "cupp.vector.device_request",
        "repro.cupp.vector:Vector",
        (
            "transform",
            "get_device_reference",
            "transform_readonly",
            "get_device_reference_readonly",
        ),
    ),
    ("cupp.vector.host_write", "repro.cupp.vector:Vector", ("__setitem__",)),
    (
        "cupp.vector.host_read",
        "repro.cupp.vector:Vector",
        ("__getitem__", "to_numpy"),
    ),
    ("cupp.vector.dirty", "repro.cupp.vector:Vector", ("dirty",)),
    ("cupp.containers.build", "repro.cupp.containers:HashGrid", ("build",)),
    (
        "cupp.containers.device_request",
        "repro.cupp.containers:HashGrid",
        ("transform", "get_device_reference"),
    ),
    ("cuda.{attr}", "repro.cuda.runtime:CudaRuntime", ("cuda*",)),
    ("simgpu.launch", "repro.simgpu.device:SimDevice", ("launch",)),
    ("simgpu.warp_round", "repro.simgpu.warp:Warp", ("step_round",)),
    ("backend.launch", "repro.backend.native:NativeDevice", ("launch",)),
    ("mem.pool.{attr}", "repro.mem.pool:MemoryPool", ("alloc", "free")),
    (
        "obs.{attr}",
        "repro.obs",
        ("counter", "histogram", "gauge", "record_transfer", "instant", "span"),
    ),
    (
        "serve.service.{attr}",
        "repro.serve.service:SimulationService",
        ("submit", "advance", "drain"),
    ),
    (
        "serve.admission.{attr}",
        "repro.serve.admission:AdmissionController",
        ("submit", "on_slots_freed", "drop_expired", "remove"),
    ),
    (
        "serve.batcher.{attr}",
        "repro.serve.batcher:DynamicBatcher",
        ("ready_time", "take"),
    ),
    (
        "serve.scheduler.{attr}",
        "repro.serve.scheduler:DeviceScheduler",
        ("free_devices", "place", "launch", "finish"),
    ),
    (
        "serve.engine.{attr}",
        "repro.serve.engine:StepEngine",
        ("kernel_seconds", "batch_kernel_seconds", "kernel_cost_rows", "advance"),
    ),
)


def _resolve(spec: str) -> object:
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _expand(owner: object, attrs: "tuple[str, ...]") -> "list[str]":
    names = []
    for attr in attrs:
        if attr.endswith("*"):
            prefix = attr[:-1]
            names += sorted(
                n
                for n in dir(owner)
                if n.startswith(prefix)
                and callable(inspect.getattr_static(owner, n))
            )
        else:
            names.append(attr)
    return names


class Tracer:
    """In-memory spans with online self time.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        #: Cap on stored spans; calibrate() lowers it to 0 while it runs.
        self.keep = KEEP_SPANS
        #: Stored spans: ``[name, start_ns, end_ns, parent index, request]``.
        self.spans: "list[list]" = []
        #: Per name: ``[calls, wall_ns, raw self_ns, spans, child spans]``.
        #: ``calls`` and ``wall_ns`` count only spans whose parent has
        #: another name, so a same-named inner call is neither counted nor
        #: timed twice; ``spans`` counts all, ``child spans`` their
        #: direct children.
        self.stats: "dict[str, list[int]]" = {}
        #: The request id stamped on spans opened from now on (serve).
        self.request: "int | None" = None
        #: Wrappers record only while this is true; the benchmark turns
        #: it on around the timed operations, not around their set-up.
        self.active = False
        #: Nanoseconds a wrapper adds per call inside the span's own
        #: interval, and around it in its parent's (see calibrate()).
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._calibrated = False
        #: Open spans: ``[name, start_ns, child_ns, index, child spans]``.
        self._stack: "list[list]" = []
        self._patches: "list[tuple]" = []

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        """Open a span under the innermost open one."""
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, 0, None, parent, self.request])
        start = self.clock()
        if index >= 0:
            self.spans[index][1] = start
        self._stack.append([name, start, 0, index, 0])

    def exit(self) -> None:
        """Close the innermost open span."""
        end = self.clock()
        name, start, child_ns, index, children = self._stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0, 0, 0]
        stat[2] += duration - child_ns
        stat[3] += 1
        stat[4] += children
        nested = False
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[4] += 1
            nested = parent[0] == name
        if not nested:
            stat[0] += 1
            stat[1] += duration
        if index >= 0:
            self.spans[index][2] = end

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span with the wrappers recording."""
        self.active = True
        self.enter(name)
        try:
            return fn(*args)
        finally:
            self.exit()
            self.active = False

    def calibrate(self) -> None:
        """Measure a wrapper's cost per call on an empty function.

        Keeps the least cost seen over every call so far, so one stall
        cannot inflate it: calling this between timed parts of a run
        samples the machine as the run found it.  Records no spans and
        leaves no totals behind.
        """

        def nop() -> None:
            pass

        calls = CALIBRATION_CALLS
        traced, clock, loop = self._wrap(nop, "calibrate"), self.clock, range(calls)
        keep, self.keep = self.keep, 0
        try:
            t0 = clock()
            for _ in loop:
                nop()
            bare = clock() - t0
            self.active = True
            self.enter("calibrate.root")  # wrapped calls have a parent
            t0 = clock()
            for _ in loop:
                traced()
            wrapped = clock() - t0
            self.exit()
            inside = self.stats["calibrate"][1] - bare
        finally:
            self.active = False
            self.keep = keep
            self.stats.pop("calibrate", None)
            self.stats.pop("calibrate.root", None)
        inner = max(0.0, inside / calls)
        outer = max(0.0, (wrapped - bare - inside) / calls)
        if self._calibrated:
            inner, outer = min(inner, self.inner_ns), min(outer, self.outer_ns)
        self.inner_ns, self.outer_ns, self._calibrated = inner, outer, True

    # -- totals ----------------------------------------------------------
    def _matching(self, prefix: str):
        dotted = prefix + "."
        return [
            s for n, s in self.stats.items() if n == prefix or n.startswith(dotted)
        ]

    def _self(self, stat: "list[int]") -> float:
        return stat[2] - self.inner_ns * stat[3] - self.outer_ns * stat[4]

    def calls(self, prefix: str) -> int:
        """Calls of every span named ``prefix`` or ``prefix.*``."""
        return sum(s[0] for s in self._matching(prefix))

    def self_ns(self, prefix: str) -> float:
        """Self time, less the tracing cost, of every span named
        ``prefix`` or ``prefix.*``."""
        return sum(self._self(s) for s in self._matching(prefix))

    def wall_ns(self, prefix: str) -> int:
        """Outermost duration of every span named ``prefix`` or ``prefix.*``."""
        return sum(s[1] for s in self._matching(prefix))

    def total_self_ns(self) -> float:
        """Self time of every span: the traced time less the tracing cost."""
        return sum(self._self(s) for s in self.stats.values())

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, name: str):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name)
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> "Tracer":
        """Wrap every target; returns ``self`` for chaining."""
        for template, spec, attrs in TARGETS:
            owner = _resolve(spec)
            for attr in _expand(owner, attrs):
                self.patch(owner, attr, template.format(attr=attr))
        return self

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, owned, original = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- export ----------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """Write the stored spans as Chrome-trace JSON."""
        from repro.obs.export import write_chrome_trace
        from repro.obs.tracer import TraceEvent

        events = []
        for name, start, end, parent, request in self.spans:
            if end is None:
                continue
            args = {"parent": parent}
            if request is not None:
                args["request"] = request
            events.append(
                TraceEvent(
                    name=name,
                    kind="span",
                    ts=start / 1e9,
                    dur=(end - start) / 1e9,
                    tid=1,
                    depth=0,
                    parent=None,
                    args=args,
                )
            )
        write_chrome_trace(path, events, process_name="perf")
