"""Dynamic batcher: the window/size rule and eligibility constraints."""

from collections import deque

import pytest

from repro.cupp import CuppUsageError
from repro.serve.batcher import DynamicBatcher
from repro.serve.request import StepRequest


def queued(sid, admit_s=0.0) -> StepRequest:
    r = StepRequest(session_id=sid, arrival_s=admit_s)
    r.admit_s = admit_s
    return r


def ready(b, queue, busy, now):
    """The rule over one eligibility scan, as the service applies it;
    ``None`` when no request is eligible."""
    eligible = b.eligible(queue, busy)
    if not eligible:
        return None
    retry = any(r.attempts for r in eligible)
    return b.ready_time(len(eligible), eligible[0].admit_s, retry, now)


class TestValidation:
    def test_max_batch_positive(self):
        with pytest.raises(CuppUsageError):
            DynamicBatcher(max_batch=0)

    def test_window_non_negative(self):
        with pytest.raises(CuppUsageError):
            DynamicBatcher(window_s=-1e-3)

    def test_disabled_degenerates_to_per_request(self):
        b = DynamicBatcher(max_batch=32, window_s=5e-3, enabled=False)
        assert b.max_batch == 1 and b.window_s == 0.0


class TestReadyTime:
    def test_empty_queue_never_ready(self):
        b = DynamicBatcher()
        assert ready(b, deque(), set(), 0.0) is None

    def test_size_trigger_fires_immediately(self):
        b = DynamicBatcher(max_batch=2, window_s=1.0)
        q = deque([queued("a"), queued("b")])
        assert ready(b, q, set(), 0.5) == 0.5

    def test_window_trigger_waits_for_oldest(self):
        b = DynamicBatcher(max_batch=8, window_s=2e-3)
        q = deque([queued("a", admit_s=1.0)])
        assert ready(b, q, set(), 1.0) == pytest.approx(1.002)

    def test_busy_sessions_do_not_hold_the_window(self):
        b = DynamicBatcher(max_batch=8, window_s=2e-3)
        q = deque([queued("busy", 0.0), queued("free", 1.0)])
        assert ready(b, q, {"busy"}, 1.0) == pytest.approx(1.002)

    def test_all_busy_is_not_ready(self):
        b = DynamicBatcher()
        q = deque([queued("a"), queued("a")])
        assert ready(b, q, {"a"}, 5.0) is None

    def test_a_retry_rides_the_next_launch(self):
        b = DynamicBatcher(max_batch=8, window_s=2e-3)
        q = deque([queued("a", admit_s=1.0), queued("b", admit_s=1.0)])
        q[1].attempts = 1
        assert ready(b, q, set(), 1.0) == 1.0

    def test_unplaceable_sessions_are_seen_but_not_eligible(self):
        b = DynamicBatcher()
        q = deque([queued("a"), queued("b"), queued("a")])
        seen: "set[str]" = set()
        eligible = b.eligible(
            q, {"b"}, placeable=lambda r: r.session_id != "a", seen=seen
        )
        assert eligible == [] and seen == {"a"}


class TestTake:
    def test_fifo_up_to_max_batch(self):
        b = DynamicBatcher(max_batch=2)
        q = deque([queued("a"), queued("b"), queued("c")])
        batch = b.take(b.eligible(q, set()), 0.0)
        assert [r.session_id for r in batch.requests] == ["a", "b"]

    def test_one_request_per_session_per_batch(self):
        b = DynamicBatcher(max_batch=8)
        q = deque([queued("a", 0.0), queued("a", 0.1), queued("b", 0.2)])
        batch = b.take(b.eligible(q, set()), 1.0)
        assert [r.session_id for r in batch.requests] == ["a", "b"]

    def test_in_flight_sessions_are_skipped(self):
        b = DynamicBatcher(max_batch=8)
        q = deque([queued("a"), queued("b")])
        batch = b.take(b.eligible(q, {"a"}), 1.0)
        assert [r.session_id for r in batch.requests] == ["b"]

    def test_placeable_predicate_filters(self):
        b = DynamicBatcher(max_batch=8)
        q = deque([queued("a"), queued("b")])
        eligible = b.eligible(q, set(), placeable=lambda r: r.session_id != "a")
        batch = b.take(eligible, 1.0)
        assert [r.session_id for r in batch.requests] == ["b"]

    def test_batch_ids_are_monotone(self):
        b = DynamicBatcher(max_batch=1)
        q = deque([queued("a"), queued("b")])
        first = b.take(b.eligible(q, set()), 0.0)
        q.popleft()
        second = b.take(b.eligible(q, set()), 0.0)
        assert second.batch_id == first.batch_id + 1
