"""Scenario runner: applies a schedule to a cluster, auditing as it goes.

The runner is the deterministic heart of the harness: given a
:class:`~repro.simtest.scenario.ScenarioSpec` and a schedule it always
produces the same sequence of cluster states, so the shrinker and the
replay tool can re-execute any prefix/subset of a failing schedule and
trust that a reproduced violation is the *same* violation.

Each step is applied through :meth:`ScenarioRunner._apply`, which maps
the cluster's expected failure modes to step statuses instead of letting
them abort the run:

* ``aborted`` — a rebalance hit an injected fault and rolled back;
* ``degraded`` — a read/write timed out against a crash window or lost
  message (the cluster stayed consistent, the operation did not happen);
* ``skipped`` — the step was invalidated by an earlier degraded write
  (e.g. an ``add_edge`` whose endpoint vertex never got inserted), or
  was a membership step against a server in the wrong state (e.g. a
  ``drain_server`` whose target already crashed earlier in the
  schedule);
* ``shed`` — a ``serve`` step was rejected by the front door's
  admission control (queue full, overload, or out of credits) before
  reaching any server;
* ``ok`` — the operation completed.

``serve`` steps route through the spec's
:class:`~repro.serving.frontend.ServingFrontend` (attached to the
cluster as ``cluster.serving`` by ``build_cluster``); rebalances on a
serving cluster go through the frontend too, so they run on its engine
at its arrival time.

The runner also keeps the oracle the cluster cannot be: a reference
copy of the logical graph.  It starts as the spec's input graph and
takes every write the cluster reported done — a serial write that
returned, a ``serve`` write that completed, each write op of an
``interleave`` group that returned — and nothing else.

After every step (or every ``audit_every`` steps) the
:class:`~repro.simtest.invariants.InvariantAuditor` sweeps the cluster
against that reference; the first violating step ends the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.faults import FaultPlan
from repro.exceptions import (
    FaultInjectedError,
    HermesError,
    MigrationAbortedError,
)
from repro.workloads.queries import (
    InsertEdge,
    InsertVertex,
    ReadVertex,
    Traversal,
)
from repro.graph.adjacency import SocialGraph
from repro.serving.admission import Priority
from repro.serving.frontend import COMPLETED, DEGRADED, SHED
from repro.simtest.invariants import InvariantAuditor, InvariantViolation
from repro.simtest.scenario import (
    Schedule,
    ScenarioSpec,
    Step,
    build_cluster,
    build_graph,
)


@dataclass
class ScenarioOutcome:
    """What happened when a schedule ran against its spec's cluster."""

    spec: ScenarioSpec
    statuses: List[str] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    violation_step: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for status in self.statuses:
            counts[status] = counts.get(status, 0) + 1
        return counts

    def summary(self) -> str:
        counts = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.status_counts.items())
        )
        if self.ok:
            return f"seed {self.spec.seed}: OK ({counts})"
        return (
            f"seed {self.spec.seed}: {len(self.violations)} violation(s) at "
            f"step {self.violation_step} ({counts}); first: {self.violations[0]}"
        )


class ScenarioRunner:
    """Deterministically executes schedules with interleaved audits."""

    def __init__(
        self,
        auditor: Optional[InvariantAuditor] = None,
        audit_every: int = 1,
    ):
        self.auditor = auditor or InvariantAuditor()
        self.audit_every = max(1, audit_every)

    def run(self, spec: ScenarioSpec, schedule: Schedule) -> ScenarioOutcome:
        cluster = build_cluster(spec)
        reference = build_graph(spec)
        outcome = ScenarioOutcome(spec=spec)
        for index, step in enumerate(schedule):
            outcome.statuses.append(self._apply(cluster, step, reference))
            if (index + 1) % self.audit_every == 0 or index == len(schedule) - 1:
                violations = self.auditor.audit(cluster, reference)
                if violations:
                    outcome.violations = violations
                    outcome.violation_step = index
                    break
        return outcome

    # ------------------------------------------------------------------
    def _apply(
        self, cluster, step: Step, reference: Optional[SocialGraph] = None
    ) -> str:
        """Run one step; writes the cluster reports done also go to
        ``reference`` (when one is kept)."""
        try:
            status = self._dispatch(cluster, step, reference)
        except MigrationAbortedError:
            return "aborted"
        except FaultInjectedError:
            return "degraded"
        except HermesError:
            # e.g. an add_edge whose endpoint was lost to a degraded
            # add_vertex earlier, or a read of a never-inserted vertex.
            return "skipped"
        return status or "ok"

    def _dispatch(
        self, cluster, step: Step, reference: Optional[SocialGraph]
    ) -> Optional[str]:
        """Execute one step; returns a status override or None (= ok)."""
        kind, args = step.kind, step.args
        if kind == "traverse":
            cluster.traverse(int(args["start"]), hops=int(args["hops"]))
        elif kind == "read":
            cluster.read_vertex(int(args["vertex"]))
        elif kind == "add_edge":
            u, v = int(args["u"]), int(args["v"])
            cluster.add_edge(u, v)
            _record_write(reference, InsertEdge(u, v))
        elif kind == "add_vertex":
            vertex = int(args["vertex"])
            cluster.add_vertex(vertex)
            _record_write(reference, InsertVertex(vertex))
        elif kind == "serve":
            return self._serve(cluster, args, reference)
        elif kind == "interleave":
            return self._interleave(cluster, args, reference)
        elif kind == "rebalance":
            frontend = getattr(cluster, "serving", None)
            if frontend is not None:
                frontend.rebalance(force=bool(args.get("force", False)))
            else:
                cluster.rebalance(force=bool(args.get("force", False)))
        elif kind == "add_server":
            cluster.add_server(
                capacity=float(args.get("capacity", 1.0)),
                reshard=bool(args.get("reshard", True)),
            )
        elif kind == "drain_server":
            cluster.drain_server(int(args["server"]))
        elif kind == "crash_recover":
            cluster.crash_recover_server(
                int(args["server"]),
                keep_unflushed_bytes=int(args.get("keep_unflushed_bytes", 0)),
            )
        elif kind == "decay":
            cluster.decay_weights(float(args.get("factor", 0.5)))
        elif kind == "attach_faults":
            cluster.attach_faults(FaultPlan.from_dict(args["plan"]))
        elif kind == "clear_faults":
            cluster.attach_faults(None)
        elif kind == "corrupt":
            # Test-only hook: deliberately break an invariant so the
            # auditor/shrinker/replay loop can be exercised end to end.
            # Never emitted by ScenarioGenerator.
            _corrupt(cluster, str(args.get("mode", "catalog_drift")))
        else:
            raise ValueError(f"unknown step kind {kind!r}")
        return None

    def _serve(
        self, cluster, args: Dict[str, object], reference: Optional[SocialGraph]
    ) -> Optional[str]:
        """Dispatch one front-door submission; maps its outcome to a
        step status (``shed``/``degraded``/ok)."""
        frontend = _frontend(cluster)
        op = str(args["op"])
        op_args = dict(args.get("args", {}))
        if op == "traverse":
            positional = (int(op_args["start"]),)
            keywords = {"hops": int(op_args.get("hops", 1))}
        elif op == "read" or op == "add_vertex":
            positional = (int(op_args["vertex"]),)
            keywords = {}
        elif op == "add_edge":
            positional = (int(op_args["u"]), int(op_args["v"]))
            keywords = {}
        else:
            raise ValueError(f"unknown serve op {op!r}")
        outcome = frontend.submit(
            op,
            *positional,
            client=str(args.get("client", "client-0")),
            priority=Priority.from_name(str(args.get("priority", "normal"))),
            now=frontend.now + float(args.get("gap", 0.0)),
            **keywords,
        )
        if outcome.status == SHED:
            return "shed"
        if outcome.status == DEGRADED:
            return "degraded"
        if outcome.status == COMPLETED and op in ("add_edge", "add_vertex"):
            write = _operation_from_dict({"kind": op, "args": op_args})
            _record_write(reference, write)
        return None

    def _interleave(
        self, cluster, args: Dict[str, object], reference: Optional[SocialGraph]
    ) -> Optional[str]:
        """Run a group of ops (and optionally a rebalance) concurrently.

        The ops fan out round-robin over ``clients`` client tasks on a
        fresh :class:`~repro.concurrency.engine.ConcurrentExecutor`; an
        absorbed rebalance is submitted as its own task, so the online
        migration's copy-steps interleave with live traffic and every
        copied vertex crosses its double-write window under load.  The
        engine stays on the cluster as ``_concurrent_engine`` for the
        auditor's event-clock and double-write sweeps.  Statuses:
        ``aborted`` if the rebalance rolled back, ``degraded`` if any op
        hit a cluster error, ok otherwise.
        """
        from repro.concurrency.engine import ConcurrentExecutor

        engine = ConcurrentExecutor(cluster)
        cluster._concurrent_engine = engine
        operations = [
            _operation_from_dict(entry) for entry in args.get("ops", [])
        ]
        clients = max(1, int(args.get("clients", 4)))
        per_client = [operations[i::clients] for i in range(clients)]
        failed = [0]

        def client_task(assigned):
            for operation in assigned:
                try:
                    yield from engine.operation_task(operation)
                except HermesError:
                    failed[0] += 1
                else:
                    _record_write(reference, operation)

        for index, assigned in enumerate(per_client):
            if assigned:
                engine.submit(client_task(assigned), label=f"client-{index}")
        rebalance_handle = None
        if "rebalance" in args:
            rebalance_handle = engine.submit_rebalance(
                force=bool(dict(args["rebalance"]).get("force", False))
            )
        engine.run()
        if rebalance_handle is not None and isinstance(
            rebalance_handle.error, MigrationAbortedError
        ):
            return "aborted"
        if failed[0]:
            return "degraded"
        return None


def _operation_from_dict(entry: Dict[str, object]):
    """Rebuild a workload Operation from an interleave step's op dict.

    The dicts are the plain step dicts the generator grouped (same shape
    as serial ``traverse``/``read``/``add_edge``/``add_vertex`` steps),
    so a shrunk interleave group can be spliced back into a serial
    schedule without translation.
    """
    kind = str(entry["kind"])
    args = dict(entry.get("args", {}))
    if kind == "traverse":
        return Traversal(int(args["start"]), hops=int(args.get("hops", 1)))
    if kind == "read":
        return ReadVertex(int(args["vertex"]))
    if kind == "add_edge":
        return InsertEdge(int(args["u"]), int(args["v"]))
    if kind == "add_vertex":
        return InsertVertex(int(args["vertex"]))
    raise ValueError(f"unknown interleave op kind {kind!r}")


def _record_write(reference: Optional[SocialGraph], operation) -> None:
    """A write the cluster reported done, applied to the reference graph
    (reads and a missing reference change nothing)."""
    if reference is None:
        return
    if isinstance(operation, InsertVertex):
        reference.add_vertex(operation.vertex, weight=operation.weight)
    elif isinstance(operation, InsertEdge):
        reference.add_edge(operation.u, operation.v)


def _frontend(cluster):
    """The cluster's serving front door, attached on first use for
    hand-written schedules whose spec did not declare ``serving``."""
    frontend = getattr(cluster, "serving", None)
    if frontend is None:
        from repro.serving.frontend import ServingFrontend

        frontend = ServingFrontend(cluster)
        cluster.serving = frontend
    return frontend


def _corrupt(cluster, mode: str) -> None:
    """Deliberately violate one invariant (test-only)."""
    if mode == "catalog_drift":
        vertex = next(iter(cluster.graph.vertices()))
        home = cluster.catalog.lookup(vertex)
        cluster.catalog.move(vertex, (home + 1) % cluster.num_servers)
    elif mode == "ghost_flip":
        for server in range(cluster.num_servers):
            store = cluster.servers[server].store
            for record in store.relationships.records():
                if record.ghost:
                    store.set_ghost(record.rel_id, False)
                    return
        raise ValueError("no ghost record to flip")
    elif mode == "drop_record":
        # Drop one copy of a *replicated* (inter-partition) relationship
        # so the surviving copy is what the auditor trips over; a
        # single-copy record would vanish without a surviving witness.
        copies: Dict[int, List[int]] = {}
        for server in range(cluster.num_servers):
            store = cluster.servers[server].store
            for record in store.relationships.records():
                copies.setdefault(record.rel_id, []).append(server)
        for rel_id, holders in sorted(copies.items()):
            if len(holders) >= 2:
                cluster.servers[holders[0]].store.delete_relationship(rel_id)
                return
        raise ValueError("no replicated relationship record to drop")
    elif mode == "cache_poison":
        cluster.location_cache.learn(0, 10**9, 0)
    elif mode == "journal_leak":
        # A copy left in the window after its migration ended: nothing
        # would ever retire it.
        vertex = next(iter(cluster.graph.vertices()))
        cluster._executor._window[vertex] = cluster.catalog.lookup(vertex)
    elif mode == "stats_skew":
        cluster.network.link_bytes[0][1] += 64
    elif mode == "heat_skew":
        # An observation the engine never counted: breaks the parity of
        # the model's counter with the engine's.
        cluster.workload_model.observations += 1
    elif mode == "queue_skew":
        # An admitted operation that never committed nor shed: breaks
        # admitted == completed + in_flight.
        _frontend(cluster).queue._admitted.inc()
    elif mode == "tenant_skew":
        # One tenant's admitted series counts an operation the queue
        # never admitted: breaks the per-tenant sum alone.
        _frontend(cluster)._tenant("client-0").admitted.inc()
    elif mode == "stale_serve":
        # Pretend a replica served data far beyond the staleness bound.
        frontend = _frontend(cluster)
        frontend.sync.max_served_staleness = (
            frontend.config.max_staleness * 10
        )
    elif mode == "event_skew":
        # Forge an event that finishes before it starts on server 0's
        # timeline: breaks event-clock monotonicity.
        engine = _concurrent_engine(cluster)
        from repro.concurrency.scheduler import EventRecord

        engine.scheduler.records.append(
            EventRecord(
                seq=10**9, task=0, server=0, kind="forged",
                start=5.0, finish=1.0,
            )
        )
    elif mode == "window_leak":
        # A double-write window entry that outlived its migration (the
        # catalog never flipped): breaks window coherence.
        _concurrent_engine(cluster)
        vertex = next(iter(cluster.graph.vertices()))
        home = cluster.catalog.lookup(vertex)
        cluster._executor._window[vertex] = (home + 1) % cluster.num_servers
    elif mode == "phantom_primary":
        # Mark a populated server detached without draining it: every
        # primary it owns becomes a phantom a drained server must not
        # hold.  Only drain-completeness looks at membership state, so
        # the corruption is surgical.
        from repro.cluster import server as server_states

        for server in cluster.servers:
            if cluster.catalog.vertices_on(server.server_id):
                server.state = server_states.DETACHED
                return
        raise ValueError("no populated server to detach")
    elif mode == "lost_commit":
        # A property write on a vertex commits as one frame on its host;
        # drop that committed frame from the host's log and crash-recover
        # the host.  Recovery replays a log missing a write the live store
        # had: breaks recovery-fidelity, and only because ``pre`` is the
        # live store, not the log's own replay.  A node property is read
        # by no other invariant, and the recovered store still serves
        # what the catalog says, so nothing else trips.
        from repro.cluster import server as server_states
        from repro.storage.wal import WriteAheadLog

        for vertex in sorted(cluster.graph.vertices()):
            server = cluster.servers[cluster.catalog.lookup(vertex)]
            if server.journal is None or server.state != server_states.ACTIVE:
                continue
            server.store.set_node_property(vertex, "lost", True)
            server.journal.commit()
            frames = list(server.journal.wal.frames())
            server.journal.wal = WriteAheadLog()
            for payload in frames[:-1]:
                server.journal.wal.append(payload)
            server.journal.wal.flush()
            cluster.crash_recover_server(server.server_id)
            return
        raise ValueError("no durable server to lose a commit on")
    elif mode == "stale_recovery":
        # Forge a recovery episode whose recovered image disagrees with
        # the store that crashed: breaks recovery-fidelity without
        # touching any live structure.
        cluster.recovery_log.append(
            {
                "server": 0,
                "pre": {
                    "nodes": {
                        0: {"weight": 1.0, "available": True, "properties": {}}
                    },
                    "rels": {},
                },
                "post": {"nodes": {}, "rels": {}},
            }
        )
    elif mode == "stale_view":
        # A chain write that skips one invalidation: fill a vertex's
        # adjacency-view entry, delete the record at the tail of its
        # chain and create it again under the same id — head-linked now,
        # so the chain order changes while the graph, the placement and
        # every record's content do not — then put the dropped entry
        # back.  Only the view invariant compares a chain's order.
        for vertex in sorted(cluster.graph.vertices()):
            server = cluster.servers[cluster.catalog.lookup(vertex)]
            store = server.store
            chain = store.chain(vertex)
            if len(chain) < 2:
                continue
            (stale,) = store.read_frontier([vertex], True)
            tail = chain[-1]
            properties = (
                {} if tail.ghost else store.relationship_properties(tail.rel_id)
            )
            store.delete_relationship(tail.rel_id)
            store.create_relationship(
                tail.rel_id, tail.src, tail.dst, tail.ghost, properties
            )
            store.adjacency[vertex] = stale
            if server.journal is not None:
                server.journal.commit()
            return
        raise ValueError("no vertex with two relationships to reorder")
    elif mode == "stale_available":
        # Node writes that skip the availability set's invalidation: a
        # spare node is answered available, then made unavailable and
        # removed — the migration remove step's two writes — through the
        # untyped record writers, which leave the answer in the set.
        # The store's records end as they began, so only the view
        # invariant, which reads the set, can see it.
        from repro.storage.records import FixedRecordStore

        spare = max(cluster.graph.vertices()) + 1
        server = cluster.servers[cluster.catalog.lookup(spare - 1)]
        store = server.store
        store.create_node(spare)
        store.read_frontier([spare], False)
        FixedRecordStore.write(
            store.nodes, spare, store.node(spare).with_available(False)
        )
        FixedRecordStore.delete(store.nodes, spare)
        if server.journal is not None:
            server.journal.commit()
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


def _concurrent_engine(cluster):
    """The cluster's concurrent engine, attached on first use (mirrors
    ``_frontend`` for hand-written corruption schedules)."""
    engine = getattr(cluster, "_concurrent_engine", None)
    if engine is None:
        from repro.concurrency.engine import ConcurrentExecutor

        engine = ConcurrentExecutor(cluster)
        cluster._concurrent_engine = engine
    return engine


#: corruption modes understood by the test-only ``corrupt`` step
CORRUPT_MODES = (
    "catalog_drift",
    "ghost_flip",
    "drop_record",
    "cache_poison",
    "journal_leak",
    "stats_skew",
    "heat_skew",
    "queue_skew",
    "tenant_skew",
    "stale_serve",
    "event_skew",
    "window_leak",
    "phantom_primary",
    "stale_recovery",
    "lost_commit",
    "stale_view",
    "stale_available",
)
