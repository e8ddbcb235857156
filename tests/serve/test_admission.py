"""Admission control: bounded queue + backpressure policies."""

from collections import deque

import pytest

from repro import obs
from repro.cupp import CuppUsageError
from repro.serve.admission import AdmissionController
from repro.serve.request import RequestStatus, StepRequest


def req(sid="s", arrival=0.0, deadline=None) -> StepRequest:
    return StepRequest(session_id=sid, arrival_s=arrival, deadline_s=deadline)


class TestValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(CuppUsageError):
            AdmissionController(0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(CuppUsageError):
            AdmissionController(4, policy="drop-newest")


class TestRejectPolicy:
    def test_admits_until_full_then_rejects(self):
        ac = AdmissionController(2, policy="reject")
        assert ac.submit(req(), 0.0) is RequestStatus.QUEUED
        assert ac.submit(req(), 0.0) is RequestStatus.QUEUED
        overflow = req()
        assert ac.submit(overflow, 0.0) is RequestStatus.REJECTED
        assert overflow.status is RequestStatus.REJECTED
        assert ac.depth == 2

    def test_admit_stamps_time(self):
        ac = AdmissionController(2)
        r = req(arrival=1.0)
        ac.submit(r, 1.5)
        assert r.admit_s == 1.5


class TestShedOldestPolicy:
    def test_oldest_is_evicted_for_the_newcomer(self):
        ac = AdmissionController(2, policy="shed-oldest")
        oldest = req("old")
        ac.submit(oldest, 0.0)
        ac.submit(req("mid"), 0.1)
        fresh = req("new")
        assert ac.submit(fresh, 0.2) is RequestStatus.QUEUED
        assert oldest.status is RequestStatus.SHED
        assert [r.session_id for r in ac.queue] == ["mid", "new"]


class TestBlockPolicy:
    def test_overflow_parks_then_admits_fifo(self):
        ac = AdmissionController(1, policy="block")
        ac.submit(req("a"), 0.0)
        b, c = req("b"), req("c")
        assert ac.submit(b, 0.0) is RequestStatus.BLOCKED
        assert ac.submit(c, 0.0) is RequestStatus.BLOCKED
        assert ac.pending == 3
        ac.queue.popleft()  # a batch took "a"
        assert ac.on_slots_freed(1.0) == 1
        assert b.status is RequestStatus.QUEUED and b.admit_s == 1.0
        assert c.status is RequestStatus.BLOCKED

    def test_blocked_arrivals_keep_order_behind_earlier_blocked(self):
        # A new arrival must not jump the blocked line even if a slot is
        # technically open by the time it shows up.
        ac = AdmissionController(1, policy="block")
        ac.submit(req("a"), 0.0)
        b = req("b")
        ac.submit(b, 0.0)
        ac.queue.popleft()
        late = req("late")
        assert ac.submit(late, 0.5) is RequestStatus.BLOCKED
        ac.on_slots_freed(0.6)
        assert b.status is RequestStatus.QUEUED
        assert late.status is RequestStatus.BLOCKED

    def test_expired_blocked_requests_never_admit(self):
        ac = AdmissionController(1, policy="block")
        ac.submit(req("a"), 0.0)
        doomed = req("b", deadline=0.5)
        ac.submit(doomed, 0.0)
        ac.queue.popleft()
        assert ac.on_slots_freed(1.0) == 0
        assert doomed.status is RequestStatus.EXPIRED


class TestDeadlines:
    def test_already_past_deadline_refused_at_submit(self):
        # A request that arrives with its deadline already behind it
        # must never occupy a queue slot.
        ac = AdmissionController(4)
        stale = req("stale", deadline=1.0)
        status = ac.submit(stale, 2.0)
        assert status is RequestStatus.EXPIRED
        assert ac.depth == 0
        # The slot it did not take still serves a live request.
        ac.submit(req("fresh"), 2.0)
        assert ac.depth == 1

    def test_drop_expired_removes_only_late_requests(self):
        ac = AdmissionController(4)
        late = req("late", deadline=1.0)
        fine = req("fine", deadline=5.0)
        ac.submit(late, 0.0)
        ac.submit(fine, 0.0)
        dropped = ac.drop_expired(2.0)
        assert dropped == [late]
        assert late.status is RequestStatus.EXPIRED
        assert list(ac.queue) == [fine]

    def test_drop_expired_checks_each_request_once(self, monkeypatch):
        ac = AdmissionController(4)
        late = req("late", deadline=1.0)
        fine = req("fine", deadline=5.0)
        ac.submit(late, 0.0)
        ac.submit(fine, 0.0)
        checked = []
        expired = StepRequest.expired
        monkeypatch.setattr(
            StepRequest,
            "expired",
            lambda self, now: checked.append(self) or expired(self, now),
        )
        ac.drop_expired(2.0)
        assert checked == [late, fine]

    def test_drop_expired_leaves_the_queue_alone_when_nothing_expired(self):
        class Untouchable(deque):
            def clear(self):
                raise AssertionError("the queue was rewritten")

        ac = AdmissionController(4)
        ac.submit(req("a", deadline=5.0), 0.0)
        ac.submit(req("b"), 0.0)
        ac.queue = Untouchable(ac.queue)
        assert ac.drop_expired(2.0) == []
        assert [r.session_id for r in ac.queue] == ["a", "b"]


class TestMetrics:
    def test_depth_gauge_tracks_queue(self):
        ac = AdmissionController(4)
        ac.submit(req(), 0.0)
        ac.submit(req(), 0.0)
        snap = obs.get_metrics().snapshot()
        assert snap["gauges"]["repro.queue.depth{component=serve}"] == 2

    def test_outcome_counters(self):
        ac = AdmissionController(1, policy="reject")
        ac.submit(req(), 0.0)
        ac.submit(req(), 0.0)
        snap = obs.get_metrics().snapshot()["counters"]
        assert snap["repro.serve.requests{outcome=admitted}"] == 1
        assert snap["repro.serve.requests{outcome=rejected}"] == 1
