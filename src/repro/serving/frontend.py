"""ServingFrontend: the cluster's front door.

Every client operation enters here.  The frontend owns the serving-side
simulated clock (the *arrival* timeline — what a client observes, as
opposed to the cluster clock that advances with execution), and runs
each submission through the full pipeline:

1. advance the arrival clock and retire finished queue entries;
2. route — the :class:`~repro.serving.router.GraphRouter` picks a
   primary or a fresh one-hop replica;
3. admission — the :class:`~repro.serving.queue.QueryQueue` either
   admits the operation (returning its queueing delay) or sheds it with
   a typed reason;
4. execute against the cluster (degraded outcomes from injected faults
   still complete — they consumed their timeout);
5. writes ship replica updates (asynchronously: charged to the replica
   hosts' backlogs, not the client's latency), charged as counts; with
   an engine attached one event per write occupies every replica host;
6. meter the operation to its tenant.

The client-observed latency of a completed operation is
``queueing wait + execution cost``.  Shed operations never reach a
server; their outcome carries the typed reason instead.

The registry is the only ledger, tenants included: every series the
front door and its parts bind carries the cluster label, so two front
doors sharing one hub keep separate books.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from inspect import Parameter, signature
from typing import Any, Dict, Optional, Tuple

from repro.cluster.network import nanoseconds, seconds
from repro.cluster.traversal import check_hops, check_start
from repro.exceptions import (
    AdmissionRejectedError,
    ClusterError,
    FaultInjectedError,
    ServerDownError,
    StorageError,
)
from repro.serving.admission import Priority
from repro.serving.config import ServingConfig
from repro.serving.queue import SHED_REASONS, QueryQueue
from repro.serving.replicas import ReplicaIndex, ReplicaSynchronizer
from repro.serving.router import GraphRouter
from repro.concurrency.scheduler import Work
from repro.storage.property_store import encode_properties
from repro.telemetry import Telemetry
from repro.telemetry.registry import DEFAULT_TIME_BUCKETS

#: operation kinds the front door accepts, and the cluster method each
#: runs: a submission's arguments are that method's
SERVING_OPS = ("read", "traverse", "add_vertex", "add_edge")
SERVING_METHODS = dict(zip(SERVING_OPS, ("read_vertex",) + SERVING_OPS[1:]))

COMPLETED = "completed"
DEGRADED = "degraded"
SHED = "shed"


@dataclass
class ServeOutcome:
    """What happened to one front-door submission."""

    op: str
    client: str
    priority: Priority
    #: ``completed`` | ``degraded`` (fault timeout) | ``shed``
    status: str
    #: typed shed reason (``queue_full`` | ``overload_shed``), None
    #: unless shed
    reason: Optional[str] = None
    #: client-observed simulated latency (wait + cost, integer ns)
    latency: int = 0
    wait: int = 0
    cost: int = 0
    #: server that executed the operation (None when shed)
    served_by: Optional[int] = None
    replica_read: bool = False
    #: pending-update age of the data a replica read served
    staleness: int = 0
    result: Any = None
    arrival: int = 0

    @property
    def admitted(self) -> bool:
        return self.status != SHED


class _TenantSeries:
    """One tenant's registry series, bound the first time it is counted:
    ``tenant_ops_total{outcome}`` (sheds also by ``reason``), cost
    seconds and replica reads."""

    __slots__ = ("admitted", "shed", "cost_seconds", "replica_reads")

    def __init__(self, telemetry: Telemetry, **labels):
        counter = telemetry.counter
        ops = "front-door operations per tenant"
        self.admitted = counter("tenant_ops_total", ops, outcome="admitted", **labels)
        self.shed = {
            reason: counter(
                "tenant_ops_total", ops, outcome="shed", reason=reason, **labels
            )
            for reason in SHED_REASONS
        }
        self.cost_seconds = counter(
            "tenant_cost_seconds_total", "simulated execution cost per tenant", **labels
        )
        self.replica_reads = counter(
            "tenant_replica_reads_total", "replica-served reads per tenant", **labels
        )

    def totals(self) -> Dict[str, Any]:
        return {
            "admitted": int(self.admitted.value),
            "shed": int(sum(series.value for series in self.shed.values())),
            "cost_seconds": self.cost_seconds.value,
            "replica_reads": int(self.replica_reads.value),
        }


def check_properties(properties: Any) -> None:
    """Refuse, as :class:`ClusterError`, properties a store would refuse."""
    try:
        if not isinstance(properties, Mapping):
            raise StorageError(f"properties must be a mapping, got {properties!r}")
        encode_properties(properties)
    except StorageError as error:
        raise ClusterError(f"properties cannot be stored: {error}") from None


class ServingFrontend:
    """Route, admit, execute, and account every client operation."""

    def __init__(self, cluster, config: Optional[ServingConfig] = None):
        self.cluster = cluster
        #: each operation's parameters, name -> default (or Parameter.empty)
        self._parameters = {
            op: {p.name: p.default for p in signature(getattr(cluster, method)).parameters.values()}
            for op, method in SERVING_METHODS.items()
        }
        #: (op, positional count, *keyword names) -> the parameters left
        #: after the positional ones, name -> default; valid shapes only
        self._shapes: Dict[Tuple, Dict[str, Any]] = {}
        self.config = config or ServingConfig()
        self.telemetry = cluster.telemetry
        #: serving-side simulated clock of arrivals, in ns (``now`` in s)
        self.now_ns = 0
        labels = {"cluster": cluster.cluster_id}
        self.index = ReplicaIndex(cluster)
        self.sync = ReplicaSynchronizer(
            cluster, self.index, self.config, telemetry=self.telemetry,
            labels=labels,
        )
        self.queue = QueryQueue(
            cluster.num_servers,
            self.config,
            telemetry=self.telemetry,
            labels=labels,
        )
        self.router = GraphRouter(
            cluster,
            self.index,
            self.sync,
            self.queue,
            self.config,
            telemetry=self.telemetry,
            labels=labels,
        )
        self._latency_hist = self.telemetry.histogram(
            "serving_latency_seconds",
            "client-observed simulated latency (queue wait + execution)",
            buckets=DEFAULT_TIME_BUCKETS,
            **labels,
        )
        #: tenant id -> its bound series, in first-seen order
        self._tenants: Dict[str, _TenantSeries] = {}
        #: optional ConcurrentExecutor (see :meth:`attach_engine`)
        self.engine = None

    # ------------------------------------------------------------------
    # Concurrent execution
    # ------------------------------------------------------------------
    def attach_engine(self, engine) -> None:
        """Route background work through an event scheduler.

        With a :class:`~repro.concurrency.engine.ConcurrentExecutor`
        attached, the front door becomes event-driven on the engine's
        timeline: every arrival first drains the events that precede it
        (pending migration copy-steps, replica-update deliveries), writes
        ship their replica updates as scheduled delivery events that
        occupy the replica hosts, and :meth:`rebalance` runs the physical
        migration online through the scheduler.  ``None`` detaches and
        restores the inline behavior.
        """
        self.engine = engine

    @property
    def now(self) -> float:
        """The serving clock in seconds."""
        return seconds(self.now_ns)

    def _replica_delivery_task(self, demands: Tuple[Tuple[int, int], ...]):
        """One write's asynchronous replica-update deliveries as one event."""
        yield Work(demands=demands, kind="replica-update")

    def rebalance(self, force: bool = False):
        """Run the cluster's repartitioner from the front door.

        With an engine attached the physical migration streams through
        the event scheduler — pending events interleave with its
        copy-steps and the double-write window covers copied vertices
        until the atomic commit.  Replica placement is read from the
        auxiliary data, which phase 1 retargets (and an abort restores),
        so there is nothing to refresh afterwards.
        """
        if self.engine is not None:
            handle = self.engine.submit_rebalance(force=force, at=self.now_ns)
            self.engine.run()
            if handle.error is not None:
                raise handle.error
            return handle.result
        return self.cluster.rebalance(force=force)

    # ------------------------------------------------------------------
    # The submission pipeline
    # ------------------------------------------------------------------
    def submit(
        self,
        op: str,
        *args,
        client: str = "client-0",
        priority: Priority = Priority.NORMAL,
        now: Optional[float] = None,
        **kwargs,
    ) -> ServeOutcome:
        """Run one client operation through the front door.

        ``now`` is the operation's arrival time on the serving clock, in
        seconds; omitted, the operation arrives as soon as the previous
        one did (back-to-back).  The clock never runs backwards.
        """
        if op not in SERVING_OPS:
            raise ValueError(f"unknown serving op {op!r}")
        # The call itself is checked before anything moves or is counted.
        args = self._bind(op, args, kwargs)
        if op in ("read", "traverse"):
            check_start(args[0])
        if op == "traverse":
            check_hops(args[1])
        elif op != "read" and args[2] is not None:
            check_properties(args[2])
        if now is not None:
            self.now_ns = max(self.now_ns, nanoseconds(now))
        arrival = self.now_ns
        if self.engine is not None:
            # Event-driven front door: work scheduled before this
            # arrival (migration copy-steps, replica-update deliveries)
            # executes first, so the operation observes the cluster
            # state those events produced.
            self.engine.run_until(arrival)
        self.queue.drain(arrival)

        outcome = ServeOutcome(
            op=op, client=client, priority=priority, status=SHED,
            arrival=arrival,
        )
        # 1. Route.  The routing lookups and the cluster's own write
        # pre-checks double as validation: an operation that cannot
        # execute (unknown vertex, duplicate vertex/edge, self-loop,
        # non-integral id — e.g. a schedule invalidated by an earlier
        # degraded write) raises ClusterError *here*, before consuming
        # admission capacity, so queue conservation is never broken by
        # a mid-pipeline failure.
        decision = None
        forward_cost = 0
        if op == "read":
            decision = self.router.route_read(args[0], arrival)
            target = decision.host
            forward_cost = decision.forward_cost
        elif op == "add_vertex":
            self.cluster.check_new_vertex(args[0], args[1])
            # The vertex does not exist yet: its home is the hash
            # placement target the cluster will pick (over the live
            # active membership, so joined servers receive inserts).
            target = self.cluster.placement_target(args[0])
        else:
            # traverse starts at its root's primary; add_edge's record
            # home is the src primary.
            if op == "add_edge":
                self.cluster.check_new_edge(args[0], args[1])
            target, forward_cost = self.router.primary_of(args[0])
        # A tenant's series are bound when it is first counted, so a
        # submission rejected by validation leaves the registry as it was.
        tenant = self._tenant(client)

        # 2. Admit.
        try:
            wait = self.queue.try_admit(target, priority, arrival)
        except AdmissionRejectedError as rejection:
            tenant.shed[rejection.reason].inc()
            outcome.reason = rejection.reason
            return outcome

        # 3. Execute.
        result, cost, degraded = self._execute(op, args, decision, arrival)
        cost += forward_cost

        # 4. Commit to the queue; the operation occupies its target
        # server from arrival+wait to finish.
        finish = self.queue.commit(target, arrival, wait, cost)

        # 5. Writes ship replica updates, stamped at commit time.
        if not degraded and op in ("add_vertex", "add_edge"):
            touched = [args[0]] if op == "add_vertex" else [args[0], args[1]]
            costs = self.sync.record_write(touched, finish)
            for host, async_cost in costs.items():
                self.queue.add_backlog(host, finish, async_cost)
            if costs and self.engine is not None:
                # The shipment is also a real event: the replica hosts
                # are occupied at delivery time on the event timeline,
                # not just debited on their serving backlogs.
                delivery = self._replica_delivery_task(tuple(costs.items()))
                self.engine.submit(delivery, at=finish, label="replica-update")

        # 6. Meter and report.
        outcome.status = DEGRADED if degraded else COMPLETED
        outcome.wait = wait
        outcome.cost = cost
        outcome.latency = wait + cost
        outcome.served_by = target
        outcome.result = result
        if decision is not None and decision.replica_read and not degraded:
            outcome.replica_read = True
            outcome.staleness = self.sync.staleness(args[0], arrival)
            tenant.replica_reads.inc()
        tenant.admitted.inc()
        tenant.cost_seconds.inc(seconds(cost))
        self._latency_hist.observe(seconds(outcome.latency))
        return outcome

    def _tenant(self, client: str) -> _TenantSeries:
        """The tenant's series, bound the first time it is counted."""
        tenant = self._tenants.get(client)
        if tenant is None:
            tenant = self._tenants[client] = _TenantSeries(
                self.telemetry, cluster=self.cluster.cluster_id, tenant=client
            )
        return tenant

    def _bind(self, op: str, args: tuple, kwargs: Dict[str, Any]) -> Tuple:
        """The cluster call's arguments in order, defaults filled in; a call
        that method would refuse raises :class:`ClusterError` instead."""
        shape = (op, len(args), *kwargs)
        left = self._shapes.get(shape)
        if left is None:
            parameters = self._parameters[op]
            left = dict(list(parameters.items())[len(args):])
            if (
                len(args) > len(parameters)
                or not kwargs.keys() <= left.keys()
                or any(left[name] is Parameter.empty for name in left.keys() - kwargs.keys())
            ):
                raise ClusterError(f"{op} takes {tuple(parameters)}, got {args} and {kwargs}")
            self._shapes[shape] = left
        return args + tuple([kwargs.get(name, default) for name, default in left.items()])

    def _execute(self, op, args, decision, arrival):
        """Run the operation against the cluster.

        Returns ``(result, cost, degraded)``.  Fault-degraded operations
        complete with their timeout cost — from the queue's perspective
        they are completions, which is what keeps admitted == completed
        + in_flight balanced under fault injection.
        """
        cluster = self.cluster
        if op == "read":
            if decision is not None and decision.replica_read:
                properties, cost, _, degraded = self.router.serve_replica_read(
                    args[0], decision, arrival
                )
                return properties, cost, degraded
            degraded = (
                cluster.faults is not None
                and cluster.faults.is_down(decision.primary)
            )
            properties, cost = cluster.read_vertex(args[0])
            return properties, cost, degraded
        if op == "traverse":
            result = cluster.traverse(*args)
            return result.response, result.cost, result.partial
        # A write was pre-checked when it was routed.
        if op == "add_vertex":
            try:
                cost = cluster._insert_vertex(*args)
            except ServerDownError as exc:
                return None, exc.cost, True
            return args[0], cost, False
        # add_edge
        try:
            cost = cluster._insert_edge(*args)
        except (FaultInjectedError, ServerDownError) as exc:
            return None, exc.cost, True
        return (args[0], args[1]), cost, False

    # ------------------------------------------------------------------
    # Introspection (experiments + simtest auditor)
    # ------------------------------------------------------------------
    def conservation(self) -> Dict[str, int]:
        """Queue-conservation snapshot at the current serving time."""
        return self.queue.conservation(self.now_ns)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary of the whole serving stack; ``tenants`` reads
        each tenant's series, sorted by tenant id."""
        return {
            "now": self.now,
            "admission_state": self.queue.admission.state,
            "queue": self.conservation(),
            "max_served_staleness": seconds(self.sync.max_served_staleness),
            "tenants": {
                client: tenant.totals()
                for client, tenant in sorted(self._tenants.items())
            },
        }
