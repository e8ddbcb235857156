"""Live SLO monitoring: declarative rules over sliding metric windows.

The serving layer produces canonical series (request latency, request
outcomes, queue depth); this module *enforces* objectives over them
while the workload runs.  A :class:`SloRule` names a series, a windowed
statistic, and a threshold ("p99 of ``repro.request.latency`` over the
last 50 ms must stay under 5000 µs"); an :class:`SloMonitor` holds the
rules, ingests observations (virtual-time stamped — the monitor never
reads a clock), and turns threshold breaches into :class:`Alert`
transitions with an exportable log.

Burn-rate alerting follows the SRE playbook: a rule may carry a
*short* window alongside its long one, and then fires only when **both**
breach — the long window proves the problem is sustained, the short one
proves it is still happening (and lets the alert clear quickly once the
breach ends).

Firing is edge-triggered: :meth:`SloMonitor.evaluate` returns only the
rules that newly fired or cleared at that evaluation, and listeners
(e.g. the serving layer's admission controller switching to a
load-shedding policy) are invoked exactly once per transition.  The
full history stays in :attr:`SloMonitor.log`, which exports alongside
the trace so "did we degrade gracefully?" is machine-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.lifecycle import ServeObserver
from repro.obs.metrics import Window

#: The canonical serving series the monitor feeds itself from the
#: lifecycle: completed-request latency (µs), 0/1 per terminal request
#: (1 = failed or dropped), queue depth, and one sample per fired fault.
LATENCY_SERIES = "repro.request.latency"
OUTCOME_SERIES = "repro.request.outcome"
QUEUE_DEPTH_SERIES = "repro.queue.depth"
FAULT_SERIES = "repro.fault.events"

#: Windowed statistics a rule may evaluate.  ``ratio`` is the mean of
#: 0/1-valued samples (e.g. deadline misses over terminal outcomes).
STATS = ("p50", "p95", "p99", "mean", "max", "count", "ratio")


@dataclass(frozen=True)
class SloRule:
    """One objective: ``stat(series over window_s) <= threshold``.

    Parameters
    ----------
    name:
        Stable identifier for alerts and the log.
    series:
        The observation stream the rule consumes (by convention a
        canonical registry series name, e.g. ``repro.request.latency``).
    stat:
        One of :data:`STATS`, evaluated over the window.
    threshold:
        The objective; the rule breaches when the statistic *exceeds* it.
    window_s:
        The (long) sliding-window horizon.
    short_window_s:
        Optional burn-rate fast window; when set, the rule fires only
        while both windows breach.
    min_count:
        Samples required in the long window before the rule is
        evaluated at all (keeps one slow request from paging at t=0).
    """

    name: str
    series: str
    stat: str
    threshold: float
    window_s: float
    short_window_s: "float | None" = None
    min_count: int = 1

    def __post_init__(self) -> None:
        if self.stat not in STATS:
            raise ValueError(f"unknown stat {self.stat!r}; one of {STATS}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if self.short_window_s is not None and not (
            0 < self.short_window_s <= self.window_s
        ):
            raise ValueError(
                "short_window_s must be positive and no longer than window_s"
            )


@dataclass
class Alert:
    """One firing of one rule, from breach to (eventual) clearance."""

    rule: str
    series: str
    fired_at: float
    value: float
    threshold: float
    cleared_at: "float | None" = None
    #: Worst in-window ``(value, trace_id)`` samples captured when the
    #: alert fired — the traces to pull to explain the breach.
    exemplars: "list[tuple[float, str]]" = field(default_factory=list)

    @property
    def active(self) -> bool:
        """Still firing (not yet cleared)?"""
        return self.cleared_at is None

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "series": self.series,
            "fired_at_s": self.fired_at,
            "value": self.value,
            "threshold": self.threshold,
            "cleared_at_s": self.cleared_at,
            "exemplars": [
                {"value": v, "trace_id": t} for v, t in self.exemplars
            ],
        }


def _stat(window: Window, stat: str, now: float) -> float:
    if stat == "p50":
        return window.percentile(50, now)
    if stat == "p95":
        return window.percentile(95, now)
    if stat == "p99":
        return window.percentile(99, now)
    if stat == "mean" or stat == "ratio":
        return window.mean(now)
    if stat == "max":
        return window.max(now)
    return float(window.count(now))


class SloMonitor(ServeObserver):
    """Evaluates :class:`SloRule` objectives over live observations.

    Drive it with :meth:`observe` (one call per sample, explicitly
    timestamped) and :meth:`evaluate`, or attach it to a service, whose
    lifecycle events it samples and evaluates on.  Subscribe with
    :meth:`on_fire`/:meth:`on_clear` to react; read :attr:`log` or
    :meth:`to_dict` to audit.
    """

    def __init__(self, rules: "list[SloRule]") -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        self.rules = list(rules)
        self._windows: "dict[str, Window]" = {}
        self._short: "dict[str, Window]" = {}
        for rule in self.rules:
            self._windows[rule.name] = Window(rule.window_s)
            if rule.short_window_s is not None:
                self._short[rule.name] = Window(rule.short_window_s)
        self._active: "dict[str, Alert]" = {}
        #: Every alert ever fired, in firing order (active ones included).
        self.log: "list[Alert]" = []
        self._fire_listeners: "list" = []
        self._clear_listeners: "list" = []

    # ------------------------------------------------------------------
    def on_fire(self, listener) -> None:
        """Call ``listener(alert)`` when a rule newly fires."""
        self._fire_listeners.append(listener)

    def on_clear(self, listener) -> None:
        """Call ``listener(alert)`` when a firing rule clears."""
        self._clear_listeners.append(listener)

    # ------------------------------------------------------------------
    def observe(
        self, series: str, ts: float, value: float,
        trace_id: "str | None" = None,
    ) -> None:
        """Feed one sample to every rule watching ``series``.

        An optional ``trace_id`` tags the sample so that, should the
        rule fire, the alert carries the offending traces as exemplars.
        """
        for rule in self.rules:
            if rule.series != series:
                continue
            self._windows[rule.name].observe(ts, value, trace_id)
            short = self._short.get(rule.name)
            if short is not None:
                short.observe(ts, value, trace_id)

    def _breaching(self, rule: SloRule, now: float) -> "float | None":
        """The rule's current long-window value when breaching, else None."""
        window = self._windows[rule.name]
        if window.count(now) < rule.min_count:
            return None
        value = _stat(window, rule.stat, now)
        if value <= rule.threshold:
            return None
        short = self._short.get(rule.name)
        if short is not None and _stat(short, rule.stat, now) <= rule.threshold:
            return None  # sustained breach but the fast burn has ended
        return value

    def evaluate(self, now: float) -> "list[Alert]":
        """Fire/clear transitions at virtual time ``now``.

        Returns the alerts that *changed state* in this evaluation
        (newly fired, or newly cleared); steady states return nothing.
        """
        transitions: "list[Alert]" = []
        for rule in self.rules:
            value = self._breaching(rule, now)
            active = self._active.get(rule.name)
            if value is not None and active is None:
                alert = Alert(
                    rule=rule.name,
                    series=rule.series,
                    fired_at=now,
                    value=value,
                    threshold=rule.threshold,
                    exemplars=self._windows[rule.name].exemplars(now=now),
                )
                self._active[rule.name] = alert
                self.log.append(alert)
                transitions.append(alert)
                for listener in self._fire_listeners:
                    listener(alert)
            elif value is None and active is not None:
                active.cleared_at = now
                del self._active[rule.name]
                transitions.append(active)
                for listener in self._clear_listeners:
                    listener(active)
        return transitions

    # ------------------------------------------------------------------
    # the serving lifecycle
    # ------------------------------------------------------------------
    def admission_outcome(self, request, outcome: str, now: float) -> None:
        if outcome in ("rejected", "shed", "expired"):
            self.observe(OUTCOME_SERIES, now, 1.0)

    def request_offered(self, request, depth: int, now: float) -> None:
        trace_id = getattr(request.ctx, "trace_id", None)
        self.observe(QUEUE_DEPTH_SERIES, now, depth, trace_id)

    def request_requeued(self, request, reason: str, failed: bool, now: float) -> None:
        if failed:
            self.observe(OUTCOME_SERIES, now, 1.0)

    def request_completed(self, request, latency_us: int, now: float) -> None:
        trace_id = getattr(request.ctx, "trace_id", None)
        self.observe(LATENCY_SERIES, now, latency_us, trace_id)
        self.observe(OUTCOME_SERIES, now, 0.0)

    def fault_fired(self, kind: str, point: str, device, now: float) -> None:
        self.observe(FAULT_SERIES, now, 1.0)

    def tick(self, now: float) -> None:
        self.evaluate(now)

    # ------------------------------------------------------------------
    @property
    def active(self) -> "list[Alert]":
        """Currently firing alerts, in rule order."""
        return [
            self._active[r.name] for r in self.rules if r.name in self._active
        ]

    def fired(self, rule_name: str) -> bool:
        """Has ``rule_name`` fired at any point so far?"""
        return any(alert.rule == rule_name for alert in self.log)

    def to_dict(self) -> dict:
        """JSON-exportable alert log (written next to the trace)."""
        return {
            "rules": [
                {
                    "name": r.name,
                    "series": r.series,
                    "stat": r.stat,
                    "threshold": r.threshold,
                    "window_s": r.window_s,
                    "short_window_s": r.short_window_s,
                }
                for r in self.rules
            ],
            "alerts": [alert.to_dict() for alert in self.log],
            "active": [alert.rule for alert in self.active],
        }
