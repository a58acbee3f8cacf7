"""Concurrent client pool: drives operation traces against the cluster.

The paper's throughput experiments run "32 clients concurrently submitting
1-hop traversal requests" (Section 5.3.1).  The pool runs exactly that:
every client is one task on the event engine
(:class:`~repro.concurrency.engine.ConcurrentExecutor`) working through
its round-robin share of the trace in order, and the engine interleaves
the clients one traversal depth at a time.  Each step queues FIFO on the
servers it occupies, so the reported wall time is the event timeline's
measured makespan: never below the busy time of the *hottest* server (a
partition hosting twice the traffic halves attainable throughput no
matter how many clients submit) and never above the summed cost of
every operation.

Aggregate throughput is reported the way the paper plots it — total
visited (processed) vertices per measurement window — plus a
vertices-per-second rate for the Figure 10 experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import (
    HermesError,
    MigrationAbortedError,
    MigrationInFlightError,
    WorkloadError,
)
from repro.workloads.queries import Operation, ReadVertex, Traversal


@dataclass
class WorkloadReport:
    """Aggregate outcome of running a trace."""

    operations: int = 0
    reads: int = 0
    traversals: int = 0
    writes: int = 0
    #: total vertices processed (the paper's "Agg. Throughput (vertices)")
    processed_vertices: int = 0
    #: distinct vertices returned in responses
    response_vertices: int = 0
    remote_hops: int = 0
    total_cost: float = 0.0
    #: busy seconds of the single most-loaded server during the run
    max_server_busy: float = 0.0
    #: busy seconds per server (index = server id)
    server_busy: Dict[int, float] = field(default_factory=dict)
    #: operations attributed per client id (round-robin submission)
    client_operations: Dict[str, int] = field(default_factory=dict)
    #: operations that ended in a cluster error (e.g. a write against a
    #: crashed server); the run records the failure and moves on
    failed_operations: int = 0
    #: simulated wall-clock seconds: the event timeline's makespan
    wall_time: float = 0.0

    @property
    def throughput_vertices_per_second(self) -> float:
        if self.wall_time == 0:
            return 0.0
        return self.processed_vertices / self.wall_time

    @property
    def response_processed_ratio(self) -> float:
        if self.processed_vertices == 0:
            return 0.0
        return self.response_vertices / self.processed_vertices


class ClientPool:
    """Submits operations to a :class:`~repro.cluster.hermes.HermesCluster`.

    Every pool member has a stable client id (``client-0`` … ``client-N``)
    and operations are attributed to them round-robin
    (``WorkloadReport.client_operations``).
    """

    def __init__(self, cluster, num_clients: int = 32):
        if num_clients < 1:
            raise WorkloadError("need at least one client")
        self.cluster = cluster
        self.num_clients = num_clients
        #: stable per-client ids, round-robin attribution order
        self.client_ids = [f"client-{i}" for i in range(num_clients)]
        #: the ConcurrentExecutor of the most recent run (None before the
        #: first) — exposes the event log, per-task handles and coherence
        #: sweep results to tests and the auditor
        self.last_engine = None

    def client_of(self, operation_index: int) -> str:
        """Which client id submits the ``operation_index``-th operation."""
        return self.client_ids[operation_index % self.num_clients]

    def run(
        self,
        trace: Iterable[Operation],
        duration: Optional[float] = None,
        max_operations: Optional[int] = None,
        rebalance_every: Optional[int] = None,
    ) -> WorkloadReport:
        """Execute operations until the trace, duration, or cap runs out.

        Each client is one engine task running the operations the trace
        deals it (the ``i``-th goes to :meth:`client_of` ``(i)``) in
        order.  The trace is drawn lazily, only as far as the client
        furthest ahead has asked — a trace may be endless — and
        ``max_operations`` caps how many of its operations are dealt.
        ``duration`` is a simulated wall-clock budget: a client starts no
        operation once the event timeline has reached it — mirroring the
        paper's fixed-length experiment windows.  With
        ``rebalance_every=N`` the client completing every N-th operation
        checks the cluster's imbalance trigger and runs the lightweight
        repartitioner online when it fires (as in a deployed Hermes); a
        check while a migration is still in flight, or one aborted by an
        injected fault (rolled back exactly), is skipped and traffic
        keeps flowing.  An operation that fails with a cluster error is
        counted in ``failed_operations`` and its client moves on — one
        crashed write must not drop the rest of the trace.  A malformed
        trace is not a failed operation:
        :class:`~repro.exceptions.WorkloadError` propagates once the
        engine has drained.
        """
        from repro.concurrency.engine import ConcurrentExecutor

        report = WorkloadReport()
        busy_before = {
            server.server_id: server.busy_counter.value
            for server in self.cluster.servers
        }
        engine = ConcurrentExecutor(self.cluster)
        self.last_engine = engine
        scheduler = engine.scheduler
        dealt = enumerate(islice(trace, max_operations))
        waiting: List[Deque[Tuple[int, Operation]]] = [
            deque() for _ in range(self.num_clients)
        ]

        def draw(lane: int) -> Optional[Tuple[int, Operation]]:
            """The lane's next ``(index, operation)``; None once the
            trace is exhausted.  Operations drawn for other lanes wait
            in theirs."""
            while not waiting[lane]:
                drawn = next(dealt, None)
                if drawn is None:
                    return None
                waiting[drawn[0] % self.num_clients].append(drawn)
            return waiting[lane].popleft()

        def client_task(lane: int):
            while duration is None or scheduler.now < duration:
                drawn = draw(lane)
                if drawn is None:
                    return
                index, operation = drawn
                try:
                    outcome, cost = yield from engine.operation_task(operation)
                except WorkloadError:
                    raise
                except HermesError:
                    report.failed_operations += 1
                    continue
                self._account(report, index, operation, outcome, cost)
                if (
                    rebalance_every is not None
                    and report.operations % rebalance_every == 0
                ):
                    try:
                        yield from engine.rebalance_task()
                    except (MigrationAbortedError, MigrationInFlightError):
                        pass

        for lane, client in enumerate(self.client_ids):
            engine.submit(client_task(lane), label=client)
        report.wall_time = engine.run()
        for handle in engine.failures():
            if isinstance(handle.error, WorkloadError):
                raise handle.error

        for server in self.cluster.servers:
            # A server registered after the run started (elastic
            # scenarios) is baselined at its busy time when first
            # observed: only work it did *during* this run counts.
            baseline = busy_before.setdefault(
                server.server_id, server.busy_counter.value
            )
            report.server_busy[server.server_id] = (
                server.busy_counter.value - baseline
            )
        report.max_server_busy = max(report.server_busy.values(), default=0.0)
        return report

    def _account(
        self,
        report: WorkloadReport,
        index: int,
        operation: Operation,
        outcome,
        cost: float,
    ) -> None:
        """Fold one completed operation (the trace's ``index``-th) into
        the report, attributed to its submitting client."""
        client = self.client_of(index)
        report.operations += 1
        if isinstance(operation, Traversal):
            report.traversals += 1
            report.processed_vertices += outcome.processed
            report.response_vertices += len(outcome.response)
            report.remote_hops += outcome.remote_hops
        elif isinstance(operation, ReadVertex):
            report.reads += 1
            report.processed_vertices += 1
            report.response_vertices += 1
        else:
            report.writes += 1
        report.total_cost += cost
        report.client_operations[client] = (
            report.client_operations.get(client, 0) + 1
        )
