"""Bounded query queue with backpressure and conservation accounting.

The queue models client-visible queueing on the simulated clock without
changing the serial execution model underneath: each server carries a
``free_at`` horizon (the simulated time it finishes its current
backlog), an admitted operation waits ``max(0, free_at - now)`` before
its execution cost starts, and its completion is logged on a heap of
finish times.  Between audit points the queue therefore satisfies the
conservation law the simtest auditor checks:

    submitted == admitted + shed
    admitted  == completed + in_flight

where *in_flight* is the number of admitted operations whose simulated
finish time is still in the future.  Shed operations are partitioned by
typed reason (``queue_full``, ``overload_shed``,
``insufficient_credits``), and those per-reason counts must sum to the
shed total.

The counts live only in the telemetry registry's ``serving_*_total``
series.  Every series the queue and its admission controller bind
carries the ``labels`` the front door passes (the cluster), so two
front doors sharing one hub each balance their own books.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.exceptions import AdmissionRejectedError
from repro.serving.admission import AdmissionController, Priority
from repro.serving.config import ServingConfig
from repro.telemetry import Telemetry
from repro.telemetry.registry import DEFAULT_TIME_BUCKETS

#: shed reasons with dedicated conservation slots
SHED_REASONS = ("queue_full", "overload_shed", "insufficient_credits")


class QueryQueue:
    """Admission-controlled queue in front of the cluster's servers."""

    def __init__(
        self,
        num_servers: int,
        config: ServingConfig,
        admission: Optional[AdmissionController] = None,
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self.num_servers = num_servers
        self.config = config
        telemetry = telemetry or Telemetry()
        extra = labels or {}
        self.admission = admission or AdmissionController(
            config, telemetry=telemetry, labels=extra
        )
        #: per-server simulated time at which its backlog drains
        self.free_at: List[float] = [0.0] * num_servers
        #: finish times of admitted-but-not-yet-finished operations
        self._pending: List[float] = []
        self._submitted = telemetry.counter(
            "serving_submitted_total", "operations offered to the front door",
            **extra,
        )
        self._admitted = telemetry.counter(
            "serving_admitted_total", "operations admitted past the queue",
            **extra,
        )
        self._completed = telemetry.counter(
            "serving_completed_total",
            "admitted operations past their finish time",
            **extra,
        )
        self._shed = {
            reason: telemetry.counter(
                "serving_shed_total", "operations load-shed by the front door",
                reason=reason, **extra,
            )
            for reason in SHED_REASONS
        }
        self._depth_gauge = telemetry.gauge(
            "serving_queue_depth", "operations logically in flight", **extra
        )
        self._wait_hist = telemetry.histogram(
            "serving_queue_wait_seconds",
            "simulated queueing delay of admitted operations",
            buckets=DEFAULT_TIME_BUCKETS,
            **extra,
        )

    def add_server(self) -> int:
        """Open an admission lane for a server joining mid-traffic."""
        server = self.num_servers
        self.num_servers += 1
        self.free_at.append(0.0)
        return server

    @property
    def depth(self) -> int:
        """Logical queue depth (operations with future finish times)."""
        return len(self._pending)

    def drain(self, now: float) -> int:
        """Retire operations whose finish time has passed; returns count."""
        drained = 0
        while self._pending and self._pending[0] <= now:
            heapq.heappop(self._pending)
            drained += 1
        if drained:
            self._completed.inc(drained)
        self._depth_gauge.set(len(self._pending))
        return drained

    def utilization(self, now: float) -> float:
        """Hottest server's backlog over the queue-delay budget, in [0, 2]."""
        backlog = max(
            (free - now for free in self.free_at if free > now), default=0.0
        )
        return min(2.0, backlog / self.config.max_queue_delay)

    # ------------------------------------------------------------------
    def try_admit(self, target: int, priority: Priority, now: float) -> float:
        """Admit one operation bound for ``target`` or raise its typed
        rejection.  Returns the queueing delay the operation will incur.

        Callers that pre-shed (the front door's credit gate) must record
        the shed via :meth:`record_shed` instead, so conservation still
        balances.
        """
        self.drain(now)
        self._submitted.inc()
        self.admission.observe(self.utilization(now))
        wait = max(0.0, self.free_at[target] - now)
        try:
            self.admission.admit(priority, wait, self.depth)
        except AdmissionRejectedError as rejection:
            self._shed[rejection.reason].inc()
            raise
        self._admitted.inc()
        self._wait_hist.observe(wait)
        return wait

    def record_shed(self, reason: str, now: float) -> None:
        """Count a shed decided outside the admission check (credits)."""
        self.drain(now)
        self._submitted.inc()
        self._shed[reason].inc()

    def commit(self, target: int, now: float, wait: float, cost: float) -> float:
        """Log an admitted operation's execution; returns its finish time."""
        finish = now + wait + cost
        if finish > self.free_at[target]:
            self.free_at[target] = finish
        heapq.heappush(self._pending, finish)
        self._depth_gauge.set(len(self._pending))
        return finish

    def add_backlog(self, target: int, now: float, cost: float) -> None:
        """Charge asynchronous work (replica updates) to a server's
        backlog without a queue entry — it delays later operations but
        is not itself a client-visible operation."""
        start = max(self.free_at[target], now)
        self.free_at[target] = start + cost

    # ------------------------------------------------------------------
    def conservation(self, now: float) -> Dict[str, int]:
        """Snapshot for the queue-conservation invariant (drains first)."""
        self.drain(now)
        shed = {reason: int(count.value) for reason, count in self._shed.items()}
        return {
            "submitted": int(self._submitted.value),
            "admitted": int(self._admitted.value),
            "completed": int(self._completed.value),
            "shed": sum(shed.values()),
            "shed_by_reason": shed,
            "in_flight": self.depth,
        }
