"""The serving lifecycle seam that every serving instrument listens on."""

from __future__ import annotations


class ServeObserver:
    """A listener on the serving request lifecycle; every hook is a no-op.

    The serving service and its scheduler announce each lifecycle point
    exactly once to the observers ``attach_flight``/``attach_monitor``
    add.  Hooks get explicit virtual timestamps and write only their own
    slots (``request.ctx``, ``sub.flight_span``): observing never moves
    a modelled number.
    """

    def request_submitted(self, request, now: float) -> None:
        """A new request arrived; admission has not seen it yet."""

    def admission_outcome(self, request, outcome: str, now: float) -> None:
        """Admission admitted, blocked, rejected, shed or expired it."""

    def request_offered(self, request, depth: int, now: float) -> None:
        """Admission took an arrival or a retry, leaving ``depth`` queued."""

    def sub_batch_launched(self, sub, batch_id: int, now: float) -> None:
        """A sub-batch's requests are dispatched to its device."""

    def sub_batch_ended(self, sub, outcome: str, now: float) -> None:
        """``done``, a launch-fault kind, batch-timeout or result-corrupt."""

    def request_requeued(self, request, reason: str, failed: bool, now: float) -> None:
        """A fault sent it back: to a retry, or ``failed`` for good."""

    def request_completed(self, request, latency_us: int, now: float) -> None:
        """It finished with its result."""

    def device_interval(
        self, device: int, kind: str, start_s: float, end_s: float,
        label: str = "", stream: "int | None" = None,
    ) -> None:
        """The scheduler occupied ``device`` over ``[start_s, end_s]``."""

    def fault_fired(self, kind: str, point: str, device, now: float) -> None:
        """The fault injector fired ``kind`` at consult ``point``."""

    def tick(self, now: float) -> None:
        """The service has handled everything due at ``now``."""
