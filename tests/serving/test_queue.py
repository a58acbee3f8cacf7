"""Query queue: conservation accounting, backlog, typed rejections."""

import pytest

from repro.exceptions import AdmissionRejectedError, OverloadShedError, QueueFullError
from repro.serving import Priority, QueryQueue
from repro.serving.config import ServingConfig


def make_queue(**overrides):
    defaults = dict(max_queue_depth=3, max_queue_delay=1e-3)
    defaults.update(overrides)
    return QueryQueue(2, ServingConfig(**defaults))


def check_conservation(queue, now):
    snap = queue.conservation(now)
    assert snap["submitted"] == snap["admitted"] + snap["shed"]
    assert snap["admitted"] == snap["completed"] + snap["in_flight"]
    assert sum(snap["shed_by_reason"].values()) == snap["shed"]
    return snap


class TestAdmitAndDrain:
    def test_admit_commit_complete_lifecycle(self):
        queue = make_queue()
        wait = queue.try_admit(0, Priority.NORMAL, now=0)
        assert wait == 0
        finish = queue.commit(0, now=0, wait=wait, cost=100_000)
        assert finish == 100_000
        snap = check_conservation(queue, now=0)
        assert snap["in_flight"] == 1
        snap = check_conservation(queue, now=finish)
        assert snap["in_flight"] == 0
        assert snap["completed"] == 1

    def test_wait_reflects_target_backlog(self):
        queue = make_queue()
        queue.try_admit(0, Priority.NORMAL, now=0)
        queue.commit(0, now=0, wait=0, cost=500_000)
        wait = queue.try_admit(0, Priority.NORMAL, now=100_000)
        assert wait == 400_000
        # The other server is idle: no wait.
        assert queue.try_admit(1, Priority.NORMAL, now=100_000) == 0

    def test_queue_full_sheds_with_reason(self):
        queue = make_queue(max_queue_depth=1, max_queue_delay=1.0)
        queue.try_admit(0, Priority.NORMAL, now=0)
        queue.commit(0, now=0, wait=0, cost=1_000_000_000)
        with pytest.raises(QueueFullError):
            queue.try_admit(1, Priority.NORMAL, now=0)
        snap = check_conservation(queue, now=0)
        assert snap["shed_by_reason"]["queue_full"] == 1

    def test_latency_guard_sheds_overload(self):
        queue = make_queue()
        queue.try_admit(0, Priority.NORMAL, now=0)
        queue.commit(0, now=0, wait=0, cost=5_000_000)  # 5x the delay bound
        with pytest.raises(OverloadShedError):
            queue.try_admit(0, Priority.INTERACTIVE, now=0)
        check_conservation(queue, now=0)


class TestBacklog:
    def test_add_backlog_delays_later_admissions(self):
        queue = make_queue()
        queue.add_backlog(0, now=0, cost=600_000)
        wait = queue.try_admit(0, Priority.NORMAL, now=0)
        assert wait == 600_000
        queue.commit(0, now=0, wait=wait, cost=100_000)
        # Asynchronous work delays admissions but is not itself a queue
        # entry: only the committed operation is in flight.
        snap = check_conservation(queue, now=0)
        assert snap["in_flight"] == 1

    def test_utilization_tracks_hottest_server(self):
        queue = make_queue()
        assert queue.utilization(0) == 0.0
        queue.add_backlog(0, now=0, cost=500_000)
        assert queue.utilization(0) == pytest.approx(0.5)
        queue.add_backlog(1, now=0, cost=4_000_000)
        assert queue.utilization(0) == 2.0  # clamped

    def test_utilization_decays_as_time_passes(self):
        queue = make_queue()
        queue.add_backlog(0, now=0, cost=1_000_000)
        assert queue.utilization(500_000) == pytest.approx(0.5)
        assert queue.utilization(2_000_000) == 0.0


class TestConservationUnderChurn:
    def test_mixed_workload_balances(self):
        queue = make_queue(max_queue_depth=8)
        now = 0
        admitted = shed = 0
        for i in range(50):
            now += 100_000 if i % 3 else 0
            try:
                wait = queue.try_admit(i % 2, Priority(i % 3), now)
            except AdmissionRejectedError:
                shed += 1
            else:
                queue.commit(i % 2, now, wait, cost=200_000)
                admitted += 1
            check_conservation(queue, now)
        snap = queue.conservation(now)
        assert snap["admitted"] == admitted
        assert snap["shed"] == shed
        assert admitted and shed
