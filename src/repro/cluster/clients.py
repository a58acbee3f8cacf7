"""Concurrent client pool: drives operation traces against the cluster.

The paper's throughput experiments run "32 clients concurrently submitting
1-hop traversal requests" (Section 5.3.1).  The simulation models two
throughput limits and takes the binding one:

* **client-side pipelining** — with C clients, elapsed time is at least
  the total operation cost divided by C;
* **server saturation** — each vertex visit occupies its hosting server,
  so elapsed time is at least the busy time of the *hottest* server.
  This is why load balance matters: a partition hosting twice the traffic
  halves attainable throughput no matter how many clients submit.

Aggregate throughput is reported the way the paper plots it — total
visited (processed) vertices per measurement window — plus a
vertices-per-second rate for the Figure 10 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.exceptions import HermesError, MigrationAbortedError, WorkloadError
from repro.workloads.queries import (
    InsertEdge,
    InsertVertex,
    Operation,
    ReadVertex,
    Traversal,
)


@dataclass
class WorkloadReport:
    """Aggregate outcome of running a trace."""

    num_clients: int
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
    #: simulated cost attributed per client id
    client_cost: Dict[str, float] = field(default_factory=dict)
    #: operations that ended in a cluster error (e.g. a write against a
    #: crashed server); the run records the failure and moves on
    failed_operations: int = 0
    #: event-timeline makespan of a concurrent run; None for serial runs
    #: (whose wall time is the analytic two-limit bound below)
    measured_wall_time: Optional[float] = None

    @property
    def wall_time(self) -> float:
        """Simulated wall-clock seconds.

        Concurrent runs report the event scheduler's measured makespan;
        serial runs fall back to the analytic binding constraint between
        client pipelining and hot-server saturation.
        """
        if self.measured_wall_time is not None:
            return self.measured_wall_time
        return max(self.total_cost / self.num_clients, self.max_server_busy)

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
    and operations are attributed to them round-robin — the hook the
    serving layer's per-tenant accounting uses.  Pass ``accounts`` (a
    :class:`~repro.serving.accounting.TenantAccounts`) to meter each
    operation onto its submitting client's ledger as it executes.
    """

    def __init__(
        self,
        cluster,
        num_clients: int = 32,
        client_prefix: str = "client",
        accounts=None,
    ):
        if num_clients < 1:
            raise WorkloadError("need at least one client")
        self.cluster = cluster
        self.num_clients = num_clients
        #: stable per-client ids, round-robin attribution order
        self.client_ids = [
            f"{client_prefix}-{i}" for i in range(num_clients)
        ]
        self.accounts = accounts
        #: the ConcurrentExecutor of the most recent concurrent run
        #: (None after serial runs) — exposes the event log, per-task
        #: handles and coherence sweep results to tests and the auditor
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

        ``duration`` is a simulated wall-clock budget: the run stops once
        the wall time exceeds it — mirroring the paper's fixed-length
        experiment windows.  With ``rebalance_every=N`` the cluster's
        imbalance trigger is checked every N operations and the
        lightweight repartitioner runs when it fires (online operation,
        as in a deployed Hermes).  An operation that fails with a cluster
        error is counted in ``failed_operations`` and the run moves on —
        one crashed write must not drop the rest of the trace — and a
        rebalance aborted by an injected fault has rolled back exactly,
        so traffic keeps flowing.  A malformed trace is not a failed
        operation: :class:`~repro.exceptions.WorkloadError` propagates.
        """
        concurrency = getattr(self.cluster, "concurrency", None)
        if concurrency is not None and concurrency.enabled:
            return self._run_concurrent(
                trace,
                duration=duration,
                max_operations=max_operations,
                rebalance_every=rebalance_every,
            )
        report = WorkloadReport(num_clients=self.num_clients)
        busy_before = {
            server.server_id: server.busy_seconds
            for server in self.cluster.servers
        }

        def busy_delta(server) -> float:
            # A server registered after the run started (elastic
            # scenarios) is baselined at its busy time when first
            # observed: only work it does *during* this run counts,
            # instead of a KeyError — or, with a zero default, its
            # entire pre-join busy time double-counted into
            # max_server_busy.
            baseline = busy_before.setdefault(
                server.server_id, server.busy_seconds
            )
            return server.busy_seconds - baseline

        def update_server_busy() -> None:
            for server in self.cluster.servers:
                report.server_busy[server.server_id] = busy_delta(server)
            report.max_server_busy = max(report.server_busy.values(), default=0.0)

        for index, operation in enumerate(trace):
            if max_operations is not None and report.operations >= max_operations:
                break
            if duration is not None:
                # Only the binding maximum matters for the stop check, so
                # skip rebuilding the per-server map on the hot path; the
                # full map is refreshed at rebalance boundaries and exit.
                report.max_server_busy = max(
                    (busy_delta(server) for server in self.cluster.servers),
                    default=0.0,
                )
                if report.wall_time >= duration:
                    break
            try:
                outcome, cost = self._execute(operation)
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
                update_server_busy()
                try:
                    self.cluster.rebalance()
                except MigrationAbortedError:
                    pass
        update_server_busy()
        return report

    def _execute(self, operation: Operation):
        """Run one operation to completion; returns ``(outcome, cost)``."""
        if isinstance(operation, Traversal):
            result = self.cluster.traverse(operation.start, operation.hops)
            return result, result.cost
        if isinstance(operation, ReadVertex):
            return self.cluster.read_vertex(operation.vertex)
        if isinstance(operation, InsertVertex):
            return None, self.cluster.add_vertex(
                operation.vertex,
                weight=operation.weight,
                properties=operation.properties,
            )
        if isinstance(operation, InsertEdge):
            return None, self.cluster.add_edge(
                operation.u, operation.v, properties=operation.properties
            )
        raise WorkloadError(f"unknown operation type: {operation!r}")

    def _account(
        self,
        report: WorkloadReport,
        index: int,
        operation: Operation,
        outcome,
        cost: float,
    ) -> None:
        """Fold one completed operation (the trace's ``index``-th) into
        the report and its submitting client's ledger."""
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
        report.client_cost[client] = report.client_cost.get(client, 0.0) + cost
        if self.accounts is not None:
            self.accounts.record_admitted(client, cost)

    # ------------------------------------------------------------------
    # Concurrent execution (ConcurrencyConfig.enabled)
    # ------------------------------------------------------------------
    def _run_concurrent(
        self,
        trace: Iterable[Operation],
        duration: Optional[float] = None,
        max_operations: Optional[int] = None,
        rebalance_every: Optional[int] = None,
    ) -> WorkloadReport:
        """Run the trace through the event scheduler.

        Each client becomes one long-lived task executing its round-robin
        share of the trace in order; the scheduler interleaves all
        clients (and any online migration they trigger) at hop
        granularity.  ``wall_time`` becomes the *measured* event-timeline
        makespan instead of the serial two-limit bound.  Failed
        operations and aborted rebalances are handled as in :meth:`run`.
        """
        from repro.concurrency.engine import ConcurrentExecutor

        report = WorkloadReport(num_clients=self.num_clients)
        busy_before = {
            server.server_id: server.busy_seconds
            for server in self.cluster.servers
        }
        per_client: list = [[] for _ in range(self.num_clients)]
        for index, operation in enumerate(trace):
            if max_operations is not None and index >= max_operations:
                break
            per_client[index % self.num_clients].append((index, operation))

        engine = ConcurrentExecutor(self.cluster)
        self.last_engine = engine
        # Register on the cluster so membership changes mid-run (an
        # elastic add_server inside the trace) grow this engine's event
        # lanes instead of leaving the newcomer unschedulable.
        self.cluster._concurrent_engine = engine
        scheduler = engine.scheduler

        def client_task(assigned):
            for index, operation in assigned:
                if duration is not None and scheduler.now >= duration:
                    break
                try:
                    outcome, cost = yield from engine.operation_task(operation)
                except WorkloadError:
                    # Malformed trace: ends this client's task; re-raised
                    # from run() below once the scheduler has drained.
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
                    except MigrationAbortedError:
                        pass

        for client_index, assigned in enumerate(per_client):
            if assigned:
                engine.submit(
                    client_task(assigned), label=self.client_ids[client_index]
                )
        report.measured_wall_time = engine.run()
        for handle in engine.failures():
            if isinstance(handle.error, WorkloadError):
                raise handle.error

        for server in self.cluster.servers:
            baseline = busy_before.setdefault(
                server.server_id, server.busy_seconds
            )
            report.server_busy[server.server_id] = (
                server.busy_seconds - baseline
            )
        report.max_server_busy = max(report.server_busy.values(), default=0.0)
        return report
