"""ServingFrontend: the cluster's front door.

Every client operation enters here.  The frontend owns the serving-side
simulated clock (the *arrival* timeline — what a client observes, as
opposed to the cluster clock that advances with execution), and runs
each submission through the full pipeline:

1. advance the arrival clock and retire finished queue entries;
2. per-tenant credit check (shed with ``insufficient_credits``);
3. route — the :class:`~repro.serving.router.GraphRouter` picks a
   primary or a fresh one-hop replica;
4. admission — the :class:`~repro.serving.queue.QueryQueue` either
   admits the operation (returning its queueing delay) or sheds it with
   a typed reason;
5. execute against the cluster (degraded outcomes from injected faults
   still complete — they consumed their timeout);
6. writes ship replica updates (asynchronously: charged to the replica
   hosts' backlogs, not the client's latency);
7. account the operation to its tenant.

The client-observed latency of a completed operation is
``queueing wait + execution cost``.  Shed operations never reach a
server; their outcome carries the typed reason instead.

The registry is the only ledger, tenants included: every series the
front door and its parts bind carries the cluster label, so two front
doors sharing one hub keep separate books.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.cluster.traversal import check_hops
from repro.exceptions import (
    AdmissionRejectedError,
    FaultInjectedError,
    ServerDownError,
)
from repro.serving.admission import Priority
from repro.serving.config import ServingConfig
from repro.serving.queue import SHED_REASONS, QueryQueue
from repro.serving.replicas import ReplicaIndex, ReplicaSynchronizer
from repro.serving.router import GraphRouter
from repro.concurrency.scheduler import Work
from repro.telemetry import Telemetry
from repro.telemetry.registry import DEFAULT_TIME_BUCKETS

#: operation kinds the front door accepts
SERVING_OPS = ("read", "traverse", "add_vertex", "add_edge")

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
    #: typed shed reason (``queue_full`` | ``overload_shed`` |
    #: ``insufficient_credits``), None unless shed
    reason: Optional[str] = None
    #: client-observed simulated latency (wait + cost); sheds observe 0
    latency: float = 0.0
    wait: float = 0.0
    cost: float = 0.0
    #: server that executed the operation (None when shed)
    served_by: Optional[int] = None
    replica_read: bool = False
    #: pending-update age of the data a replica read served
    staleness: float = 0.0
    result: Any = None
    arrival: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.status != SHED


class _TenantSeries:
    """One tenant's registry series, bound the first time it is counted:
    ``tenant_ops_total{outcome}`` (sheds also by ``reason``), cost
    seconds, replica reads and — with credits on — the balance gauge."""

    __slots__ = ("admitted", "shed", "cost_seconds", "replica_reads", "credits")

    def __init__(self, telemetry: Telemetry, config: ServingConfig, **labels):
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
        self.credits = None
        if config.tenant_credits is not None:
            self.credits = telemetry.gauge(
                "tenant_credits_remaining", "credit balance per tenant", **labels
            )
            self.credits.set(config.tenant_credits)

    def totals(self) -> Dict[str, Any]:
        return {
            "admitted": int(self.admitted.value),
            "shed": int(sum(series.value for series in self.shed.values())),
            "cost_seconds": self.cost_seconds.value,
            "replica_reads": int(self.replica_reads.value),
            "credits": None if self.credits is None else self.credits.value,
        }


class ServingFrontend:
    """Route, admit, execute, and account every client operation."""

    def __init__(
        self,
        cluster,
        config: Optional[ServingConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.cluster = cluster
        self.config = config or ServingConfig()
        self.telemetry = telemetry or cluster.telemetry
        #: serving-side simulated clock: operation arrival times
        self.now = 0.0
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

    def _replica_delivery_task(self, host: int, cost: float):
        """One asynchronous replica-update delivery as an event."""
        yield Work(demands=((host, cost),), kind="replica-update")

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
            handle = self.engine.submit_rebalance(force=force, at=self.now)
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

        ``now`` is the operation's arrival time on the serving clock;
        omitted, the operation arrives as soon as the previous one did
        (back-to-back).  The clock never runs backwards.
        """
        if op not in SERVING_OPS:
            raise ValueError(f"unknown serving op {op!r}")
        if now is not None and now > self.now:
            self.now = now
        arrival = self.now
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
        # A tenant's series are bound when it is first counted, so a
        # submission rejected by validation leaves the registry as it was.
        tenant = self._tenants.get(client)

        # 1. Credit gate (before the queue: a tenant out of credits is
        # shed without consuming admission capacity).
        balance = self.config.tenant_credits
        if tenant is not None and balance is not None:
            balance = tenant.credits.value
        if balance is not None and balance < self.config.credit_per_op:
            outcome.reason = "insufficient_credits"
            self.queue.record_shed(outcome.reason, arrival)
            self._tenant(client).shed[outcome.reason].inc()
            return outcome

        # 2. Route.  The routing lookups and the cluster's own write
        # pre-checks double as validation: an operation that cannot
        # execute (unknown vertex, duplicate vertex/edge, self-loop,
        # non-integral id — e.g. a schedule invalidated by an earlier
        # degraded write) raises ClusterError *here*, before consuming
        # admission capacity, so queue conservation is never broken by
        # a mid-pipeline failure.
        decision = None
        forward_cost = 0.0
        if op == "read":
            decision = self.router.route_read(args[0], arrival)
            target = decision.host
            forward_cost = decision.forward_cost
        elif op == "add_vertex":
            self.cluster.check_new_vertex(args[0])
            # The vertex does not exist yet: its home is the hash
            # placement target the cluster will pick (over the live
            # active membership, so joined servers receive inserts).
            target = self.cluster.placement_target(args[0])
        else:
            # traverse starts at its root's primary; add_edge's record
            # home is the src primary.
            if op == "traverse":
                check_hops(self._hops(args, kwargs))
            else:
                self.cluster.check_new_edge(args[0], args[1])
            target, forward_cost = self.router.primary_of(args[0])
        if tenant is None:
            tenant = self._tenant(client)

        # 3. Admit.
        try:
            wait = self.queue.try_admit(target, priority, arrival)
        except AdmissionRejectedError as rejection:
            tenant.shed[rejection.reason].inc()
            outcome.reason = rejection.reason
            return outcome

        # 4. Execute.
        result, cost, degraded = self._execute(op, args, kwargs, decision, arrival)
        cost += forward_cost

        # 5. Commit to the queue; the operation occupies its target
        # server from arrival+wait to finish.
        finish = self.queue.commit(target, arrival, wait, cost)

        # 6. Writes ship replica updates, stamped at commit time.
        if not degraded and op in ("add_vertex", "add_edge"):
            touched = [args[0]] if op == "add_vertex" else [args[0], args[1]]
            for host, async_cost in self.sync.record_write(touched, finish).items():
                self.queue.add_backlog(host, finish, async_cost)
                if self.engine is not None:
                    # The shipment is also a real event: the replica
                    # host is occupied at delivery time on the event
                    # timeline, not just debited on its serving backlog.
                    self.engine.submit(
                        self._replica_delivery_task(host, async_cost),
                        at=finish,
                        label=f"replica-update:{host}",
                    )

        # 7. Account and report.
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
        tenant.cost_seconds.inc(cost)
        if tenant.credits is not None:
            config = self.config
            debit = config.credit_per_op + cost * config.credits_per_cost_second
            tenant.credits.set(tenant.credits.value - debit)
        self._latency_hist.observe(outcome.latency)
        return outcome

    def _tenant(self, client: str) -> _TenantSeries:
        """The tenant's series, bound the first time it is counted."""
        tenant = self._tenants.get(client)
        if tenant is None:
            tenant = self._tenants[client] = _TenantSeries(
                self.telemetry, self.config,
                cluster=self.cluster.cluster_id, tenant=client,
            )
        return tenant

    @staticmethod
    def _hops(args, kwargs) -> int:
        """The depth of a ``traverse`` submission (keyword, positional, 1)."""
        return kwargs.get("hops", args[1] if len(args) > 1 else 1)

    def _execute(self, op, args, kwargs, decision, arrival):
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
            result = cluster.traverse(args[0], self._hops(args, kwargs))
            return result.response, result.cost, result.partial
        if op == "add_vertex":
            try:
                cost = cluster.add_vertex(args[0], **kwargs)
            except ServerDownError as exc:
                return None, exc.cost, True
            return args[0], cost, False
        # add_edge
        try:
            cost = cluster.add_edge(args[0], args[1], **kwargs)
        except (FaultInjectedError, ServerDownError) as exc:
            return None, exc.cost, True
        return (args[0], args[1]), cost, False

    # ------------------------------------------------------------------
    # Introspection (experiments + simtest auditor)
    # ------------------------------------------------------------------
    def conservation(self) -> Dict[str, int]:
        """Queue-conservation snapshot at the current serving time."""
        return self.queue.conservation(self.now)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary of the whole serving stack; ``tenants`` reads
        each tenant's series, sorted by tenant id."""
        return {
            "now": self.now,
            "admission_state": self.queue.admission.state,
            "queue": self.conservation(),
            "max_served_staleness": self.sync.max_served_staleness,
            "tenants": {
                client: tenant.totals()
                for client, tenant in sorted(self._tenants.items())
            },
        }
