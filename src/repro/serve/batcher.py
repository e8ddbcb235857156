"""Dynamic batching: coalesce queued step requests into fused launches.

Per-request kernel launches waste the two fixed costs the paper spends
chapters minimizing: the driver's launch overhead (§2.2) and the PCIe
per-call transfer overhead (§6.3).  The batcher amortizes both by
grouping requests that arrive close together into one *fused* launch
over the concatenation of their sessions' agent vectors.

The window/size rule is the classic inference-serving one:

* launch immediately once ``max_batch`` eligible requests wait, else
* launch when the oldest eligible request has waited ``window_s``.

Two sequencing constraints shape eligibility: a session cannot appear
twice in one batch (a flock cannot step twice in one frame), and a
session with a step already in flight must wait for it (per-session
order).  Ineligible requests simply stay queued for the next batch.

With batching disabled the same machinery degenerates to
``max_batch=1, window=0`` — one launch per request — which is what the
load generator's ``--no-batching`` baseline measures against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.cupp.exceptions import CuppUsageError
from repro.serve.request import StepRequest

_BATCHES = obs.bind_counter("repro.serve.batches")


@dataclass
class Batch:
    """One formed batch: the requests that will share a fused launch."""

    batch_id: int
    requests: "list[StepRequest]" = field(default_factory=list)
    formed_s: float = 0.0

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Window/size batch former over the admission queue."""

    def __init__(
        self,
        max_batch: int = 32,
        window_s: float = 2e-3,
        enabled: bool = True,
    ) -> None:
        if max_batch <= 0:
            raise CuppUsageError(f"max_batch must be positive, got {max_batch}")
        if window_s < 0:
            raise CuppUsageError(f"window must be non-negative, got {window_s}")
        self.enabled = enabled
        self.max_batch = max_batch if enabled else 1
        self.window_s = window_s if enabled else 0.0
        self._sizes = obs.batch_size_histogram("serve")
        self._next_id = 0

    # ------------------------------------------------------------------
    def eligible(
        self, queue, busy: "set[str]", placeable=None, seen=None
    ) -> "list[StepRequest]":
        """Queued requests launchable now: first per session, none busy.

        ``placeable`` is an optional per-request predicate the scheduler
        supplies for device affinity — e.g. "this session's resident
        device is free".  Requests that fail it stay queued untouched.
        ``seen``, when given, is filled with every queued session that
        is not busy, placeable or not: a later arrival from one of them
        is never a session head.
        """
        seen = set() if seen is None else seen
        out = []
        for request in queue:
            sid = request.session_id
            if sid in busy or sid in seen:
                continue
            seen.add(sid)
            if placeable is None or placeable(request):
                out.append(request)
        return out

    def ready_time(
        self, heads: int, oldest_admit_s: float, retry: bool, now: float
    ) -> float:
        """Earliest virtual time ``heads`` (at least one) eligible
        requests justify a launch.

        ``now`` if the size trigger is met, else the oldest eligible
        admission plus the window.  The caller counts the heads once
        (:meth:`eligible`) and keeps the three facts as long as the
        queue does not change under them.
        """
        if heads >= self.max_batch:
            return now
        # A retried request already paid its window (and a fault) on an
        # earlier attempt — it rides the next launch immediately rather
        # than aging a second time.
        if retry:
            return now
        return max(now, oldest_admit_s + self.window_s)

    def take(self, eligible: "list[StepRequest]", now: float) -> Batch:
        """Form a batch at time ``now`` from the :meth:`eligible`
        requests (up to ``max_batch``, FIFO).

        The caller removes the batch's requests from the queue and
        marks their sessions in flight.
        """
        picked = eligible[: self.max_batch]
        batch = Batch(self._next_id, picked, formed_s=now)
        self._next_id += 1
        self._sizes.observe(len(picked))
        _BATCHES.inc()
        return batch
