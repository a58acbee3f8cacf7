"""HermesCluster: the distributed graph database facade (Figure 6).

One object wires together every substrate: per-server storage engines,
the catalog, the simulated network, the traversal engine, the lightweight
repartitioner + physical migration executor, and the static partitioners
used for initial placement.  The evaluation harness and the examples talk
to this class only.

The cluster also maintains two simulation-level conveniences the real
system distributes across servers:

* ``graph`` — a :class:`~repro.graph.SocialGraph` mirror of the logical
  graph (adjacency + vertex weights).  Hosting servers know their local
  adjacency; the mirror stands in for that local knowledge when the
  repartitioner forwards counter updates for migrating vertices, and it
  gives the METIS baseline the global view it genuinely requires.
* ``aux`` — the :class:`~repro.core.AuxiliaryData` that in Hermes is
  sharded per server; centralizing it changes nothing observable because
  every read the algorithm performs is one a hosting server could answer
  locally: a partition's selection reads only its own hosted records and
  the alpha partition weights (``tests/core/test_selection_engine.py``
  carries that locality claim as a test).

Operations that can pause (traversals, rebalances) are implemented once,
as generators that do the work and yield each slice's cost; the serial
entry points (:meth:`HermesCluster.traverse`,
:meth:`HermesCluster.rebalance`) drain them and fold the total into the
clock, the concurrent engine resumes them slice by slice.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.cluster import server as server_states
from repro.cluster.catalog import Catalog, LocationCache
from repro.cluster.durability import (
    ServerJournal,
    commit_all,
    logical_store_snapshot,
)
from repro.cluster.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.cluster.migration_executor import (
    MigrationExecutor,
    MigrationReport,
    MigrationStep,
)
from repro.concurrency.config import ConcurrencyConfig
from repro.cluster.network import NetworkConfig, SimulatedNetwork
from repro.cluster.server import HermesServer
from repro.cluster.traversal import TraversalEngine, TraversalResult
from repro.core.auxiliary import AuxiliaryData
from repro.core.config import RepartitionerConfig
from repro.core.migration import build_migration_plan
from repro.core.repartitioner import LightweightRepartitioner, RepartitionResult
from repro.core.triggers import ImbalanceTrigger, TriggerDecision
from repro.exceptions import (
    ClusterError,
    FaultInjectedError,
    MigrationAbortedError,
    ServerDownError,
)
from repro.graph.adjacency import SocialGraph
from repro.storage.graph_store import GraphStore
from repro.partitioning.base import Partitioner, Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.telemetry import Telemetry, export_jsonl, installed, summary_text


def _commits(operation):
    """Make a public cluster operation one log transaction per server it
    touched: every open transaction commits when it returns or raises
    (a fault-rolled-back write commits its compensating writes too)."""

    @functools.wraps(operation)
    def committing(self, *args, **kwargs):
        try:
            return operation(self, *args, **kwargs)
        finally:
            commit_all(self.servers)

    return committing


class HermesCluster:
    """A simulated multi-server Hermes deployment."""

    #: process-wide cluster numbering, used as a telemetry label
    _ids = itertools.count()

    def __init__(
        self,
        num_servers: int,
        network: Optional[NetworkConfig] = None,
        repartitioner: Optional[RepartitionerConfig] = None,
        lock_timeout: float = 1.0,
        telemetry: Optional[Telemetry] = None,
        concurrency: Optional[ConcurrencyConfig] = None,
        durability: bool = False,
    ):
        if num_servers < 1:
            raise ClusterError("need at least one server")
        self.num_servers = num_servers
        self.now = 0.0
        self.faults: Optional[FaultInjector] = None
        # Resolution order: explicit hub, then the process-wide installed
        # hub (the runner's --telemetry-out path), then a private hub with
        # metrics on but recording off.  The hub is always *real* — the
        # registry backs the legacy per-server counter attributes.
        self.telemetry = telemetry or installed() or Telemetry()
        self.telemetry.set_clock(lambda: self.now)
        # Distinguishes this cluster's per-server series when several
        # clusters share one installed hub (e.g. the Figure 9 baselines).
        self.cluster_id = next(HermesCluster._ids)
        self.network = SimulatedNetwork(
            num_servers,
            network,
            telemetry=self.telemetry,
            labels={"cluster": self.cluster_id},
        )
        self.servers: List[HermesServer] = [
            HermesServer(
                server_id,
                num_servers,
                clock=lambda: self.now,
                lock_timeout=lock_timeout,
                telemetry=self.telemetry,
                labels={"cluster": self.cluster_id},
            )
            for server_id in range(num_servers)
        ]
        self.catalog = Catalog(num_servers)
        self.location_cache = LocationCache(
            self.catalog, num_servers, telemetry=self.telemetry
        )
        self.graph = SocialGraph()
        self.aux = AuxiliaryData(num_servers)
        self.repartitioner_config = repartitioner or RepartitionerConfig()
        self.trigger = ImbalanceTrigger(
            self.repartitioner_config.epsilon, telemetry=self.telemetry
        )
        self._engine = TraversalEngine(
            self.servers,
            self.catalog,
            self.network,
            telemetry=self.telemetry,
            location_cache=self.location_cache,
        )
        self._executor = MigrationExecutor(
            self.servers,
            self.catalog,
            self.network,
            telemetry=self.telemetry,
            location_cache=self.location_cache,
        )
        self._placer = HashPartitioner()
        #: optional WorkloadModel observing traversal traffic (see
        #: attach_workload_model); None keeps the read path untouched
        self.workload_model = None
        #: event-queue scheduler knobs; the default (enabled=False) runs
        #: every operation to completion before the next one starts
        self.concurrency = concurrency or ConcurrencyConfig()
        # In-flight traversals re-resolve their frontiers when a
        # migration commits underneath them (serial mode never observes
        # the epoch change: no traversal is paused during a migration).
        self._executor.topology_listeners.append(self._engine.note_topology_change)
        self._lock_timeout = lock_timeout
        #: a write-ahead log per server (``server.journal``), for
        #: crash-recovery episodes; off by default
        self.durability = durability
        #: one entry per completed recovery episode: the live store's
        #: logical snapshot when it crashed and the recovered store's
        #: (audited by the simtest recovery-fidelity invariant)
        self.recovery_log: List[Dict[str, Any]] = []
        #: live snapshot of each crashed server, until it recovers
        self._crash_images: Dict[int, Dict[str, Any]] = {}
        if durability:
            for server in self.servers:
                server.journal = ServerJournal(server.store)

    # ==================================================================
    # Workload model
    # ==================================================================
    def attach_workload_model(self, model) -> None:
        """Feed traversal traffic into a WorkloadModel (None detaches).

        While attached, every frontier expansion the traversal engine
        performs becomes one :meth:`~repro.workloads.model.WorkloadModel.
        observe_edge` call, and the cluster clock drives the model's
        decay clock.  Observation is passive — costs, schedules and
        results of the read path are unchanged; the model only becomes
        *active* when its heat is attached to the auxiliary data for a
        workload-aware rebalance (``RepartitionerConfig.workload_alpha``).
        """
        if model is not None:
            model.advance(self.now)
        self.workload_model = model
        self._engine.workload_model = model

    # ==================================================================
    # Fault injection
    # ==================================================================
    def attach_faults(
        self,
        plan: Optional[FaultPlan],
        retry: Optional[RetryPolicy] = None,
    ) -> Optional[FaultInjector]:
        """Install a fault-injection plan (or with None, remove it).

        Wires one shared :class:`~repro.cluster.faults.FaultInjector` into
        the network and every server, and the retry policy into the
        traversal engine and migration executor.  Returns the injector so
        tests can inspect it.
        """
        if plan is None:
            self.faults = None
            self.network.attach_faults(None)
            for server in self.servers:
                server.attach_faults(None)
            return None
        self.faults = FaultInjector(
            plan, clock=lambda: self.now, telemetry=self.telemetry
        )
        self.network.attach_faults(self.faults)
        for server in self.servers:
            server.attach_faults(self.faults)
        if retry is not None:
            self._engine.retry = retry
            self._executor.retry = retry
        return self.faults

    def _advance(self, cost: float) -> None:
        """Fold an operation's simulated cost into the cluster clock."""
        self.now += cost
        if self.faults is not None:
            # The operation's in-flight time is now part of the clock.
            self.faults.reset()
        if self.workload_model is not None:
            self.workload_model.advance(self.now)

    # ==================================================================
    # Loading
    # ==================================================================
    @classmethod
    def from_graph(
        cls,
        graph: SocialGraph,
        num_servers: int,
        partitioner: Optional[Partitioner] = None,
        partitioning: Optional[Partitioning] = None,
        **kwargs,
    ) -> "HermesCluster":
        """Build a cluster and bulk-load a graph.

        Either give an explicit ``partitioning`` or a ``partitioner`` to
        compute the initial placement (default: random hash).
        """
        cluster = cls(num_servers, **kwargs)
        if partitioning is None:
            partitioning = (partitioner or HashPartitioner()).partition(
                graph, num_servers
            )
        cluster.load(graph, partitioning)
        return cluster

    def load(self, graph: SocialGraph, partitioning: Partitioning) -> None:
        """Bulk-load: nodes to their partitions, edges with ghosts.

        A bulk import: the stores are written without committing and
        each durable server then checkpoints once, so loading logs
        nothing."""
        if self.graph.num_vertices:
            raise ClusterError("cluster already loaded")
        for vertex in graph.vertices():
            server = partitioning.partition_of(vertex)
            weight = graph.weight(vertex)
            self.servers[server].store.create_node(vertex, weight=weight)
            self.catalog.register(vertex, server)
            self.graph.add_vertex(vertex, weight=weight)
            self.aux.add_vertex(vertex, server, weight)
        for u, v in graph.edges():
            self._create_edge_records(u, v, properties=None)
            self.graph.add_edge(u, v)
            self.aux.add_edge(u, v)
        self._checkpoint()

    def _checkpoint(self) -> None:
        """Every durable server's current pages become its recovery
        baseline, and its log starts empty."""
        for server in self.servers:
            if server.journal is not None:
                server.journal.attach(server.store)

    def _create_edge_records(
        self, u: int, v: int, properties: Optional[Dict[str, Any]]
    ) -> float:
        """Primary record on the src (u) host, ghost on the dst host.

        Under fault injection the write is transactional: a crashed
        primary host rejects the whole insert up front, and a ghost
        shipment that fails deletes the already-created primary record
        before re-raising — a half-written edge must never survive.
        """
        host_u = self.catalog.lookup(u)
        host_v = self.catalog.lookup(v)
        if self.faults is not None:
            self.faults.check_server(
                host_u, cost=self.network.config.fault_timeout_cost
            )
        rel_id = self.servers[host_u].store.allocate_rel_id()
        cost = self.network.local_visit()
        self.servers[host_u].store.create_relationship(
            rel_id, u, v, properties=properties
        )
        if host_v != host_u:
            try:
                cost += self.network.remote_hop(host_u, host_v)
            except FaultInjectedError as exc:
                self.servers[host_u].store.delete_relationship(rel_id)
                exc.cost += cost
                raise
            self.servers[host_v].store.create_relationship(rel_id, u, v, ghost=True)
        # Double-write window: an endpoint mid-copy in an online
        # migration also receives the record on its target server, after
        # every fault point — a failed write must not leave mirror state.
        # No-op (empty window) outside an online migration.
        if self._executor.window_open:
            rel = {"rel_id": rel_id, "src": u, "dst": v, "properties": properties or {}}
            for endpoint in (u, v):
                self._executor.mirror_edge(endpoint, rel)
        return cost

    # ==================================================================
    # Read path
    # ==================================================================
    def traverse(self, start: int, hops: int = 1) -> TraversalResult:
        """Distributed k-hop traversal; updates popularity weights."""
        result = self._engine.traverse(start, hops)
        self._advance(result.cost)
        self.add_popularity(result.response)
        return result

    def add_popularity(self, vertices: Iterable[int]) -> None:
        """Every vertex a read returned gains one unit of weight, in the
        graph and in the auxiliary data phase 1 balances — in the given
        order (partition weights are order-sensitive floats once
        :meth:`decay_weights` has run)."""
        graph_add = self.graph.add_weight
        aux_add = self.aux.add_weight
        for vertex in vertices:
            graph_add(vertex, 1.0)
            aux_add(vertex, 1.0)

    @_commits
    def read_vertex(self, vertex: int) -> Tuple[Dict[str, Any], float]:
        """Single-record query; returns (properties, simulated cost).

        If the hosting server is inside a crash window the dispatch times
        out and the client gets a degraded (empty) result — the same
        contract a traversal honors when its home server is down, instead
        of reads silently succeeding against a crashed server.
        """
        server = self.catalog.lookup(vertex)
        if self.faults is not None and self.faults.is_down(server):
            cost = (
                self.network.config.client_dispatch_cost
                + self.network.config.fault_timeout_cost
            )
            self.telemetry.counter(
                "reads_degraded_total",
                "single-record reads that timed out against a crashed server",
            ).inc()
            self._advance(cost)
            return {}, cost
        properties = self.servers[server].read_vertex(vertex)
        self.servers[server].busy_counter.inc(self.network.local_visit())
        cost = self.network.config.client_dispatch_cost + self.network.local_visit()
        self._advance(cost)
        self.add_popularity((vertex,))
        return properties, cost

    # ==================================================================
    # Write path
    # ==================================================================
    @_commits
    def add_vertex(
        self,
        vertex: int,
        weight: float = 1.0,
        properties: Optional[Dict[str, Any]] = None,
        server: Optional[int] = None,
    ) -> float:
        """Insert a new user; placed by hash unless ``server`` is given."""
        if vertex in self.catalog:
            raise ClusterError(f"vertex {vertex} already exists")
        target = server if server is not None else self.placement_target(vertex)
        if self.faults is not None and self.faults.is_down(target):
            # The insert times out against the crashed placement target;
            # no layer has been touched, so the failure is clean.
            cost = (
                self.network.config.client_dispatch_cost
                + self.network.config.fault_timeout_cost
            )
            self._count_degraded_write()
            self._advance(cost)
            raise ServerDownError(target, cost=cost)
        self.servers[target].create_vertex(vertex, weight=weight, properties=properties)
        self.catalog.register(vertex, target)
        self.graph.add_vertex(vertex, weight=weight)
        self.aux.add_vertex(vertex, target, weight)
        cost = self.network.config.client_dispatch_cost + self.network.local_visit()
        self._advance(cost)
        return cost

    @_commits
    def add_edge(
        self, u: int, v: int, properties: Optional[Dict[str, Any]] = None
    ) -> float:
        """Connect two users (updates stores, mirror and auxiliary data).

        With faults attached the write can fail (crashed host, lost ghost
        shipment); the store mutation is rolled back before the error
        propagates, so the mirror, auxiliary data and stores stay in
        agreement — the wasted timeout is still simulated time.
        """
        if self.graph.has_edge(u, v):
            raise ClusterError(f"edge ({u}, {v}) already exists")
        cost = self.network.config.client_dispatch_cost
        try:
            cost += self._create_edge_records(u, v, properties)
        except FaultInjectedError as exc:
            cost += exc.cost
            self._count_degraded_write()
            self._advance(cost)
            raise
        self.graph.add_edge(u, v)
        self.aux.add_edge(u, v)
        self._advance(cost)
        return cost

    def _count_degraded_write(self) -> None:
        self.telemetry.counter(
            "writes_degraded_total",
            "write operations that failed against an injected fault",
        ).inc()

    # ==================================================================
    # Repartitioning
    # ==================================================================
    def check_trigger(self) -> TriggerDecision:
        """Would the repartitioner fire right now?"""
        return self.trigger.check(self.aux)

    def rebalance(
        self, force: bool = False
    ) -> Optional[Tuple[RepartitionResult, MigrationReport]]:
        """Run the lightweight repartitioner end to end, to completion.

        Drains :meth:`rebalance_steps` without pausing and folds the
        whole migration cost into the clock once.  Returns None when the
        trigger does not fire (and ``force`` is False).
        """
        steps = self.rebalance_steps(force=force)
        try:
            while True:
                next(steps)
        except StopIteration as stop:
            outcome = stop.value
        except MigrationAbortedError as exc:
            # The wasted copy/rollback work still consumed simulated time.
            self._advance(exc.report.total_cost)
            raise
        if outcome is not None:
            self._advance(outcome[1].total_cost)
        return outcome

    def rebalance_steps(
        self, force: bool = False
    ) -> Generator[
        MigrationStep, None, Optional[Tuple[RepartitionResult, MigrationReport]]
    ]:
        """The rebalance as a resumable task.

        Phase 1 (logical, auxiliary-data only) computes the moves against
        the cluster state at call time; phase 2 physically migrates the
        records with the copy/remove protocol, streaming one
        :class:`~repro.cluster.migration_executor.MigrationStep` per
        copied vertex, the barrier, and one per removed source copy — so
        the concurrent engine interleaves queries and writes with the
        physical migration.  Copied vertices sit in a double-write window
        until the atomic catalog commit; an abort rolls back copy-steps
        and mirrored writes together and re-points the auxiliary data.
        Because the plan is fixed up front and commit is atomic, the
        final placement (and therefore the edge-cut) is the same however
        the steps are interleaved.

        The generator does the work and yields each step's cost; the
        *consumer* folds costs into the clock (``_advance``), as with
        :meth:`TraversalEngine.traverse_steps` — :meth:`rebalance`
        charges the total once, the concurrent engine per step.  Yields
        nothing when the trigger does not fire and ``force`` is False;
        the generator's return value is ``(RepartitionResult,
        MigrationReport)`` or ``None``.
        """
        decision = self.check_trigger()
        if not decision.should_repartition and not force:
            return None
        span = self.telemetry.span("rebalance", forced=force)
        scratch = self.catalog.snapshot()
        if (
            self.workload_model is not None
            and self.repartitioner_config.workload_alpha > 0.0
        ):
            # Close the telemetry loop: refresh the auxiliary data's heat
            # overlay from the observed traffic before selecting moves.
            self.aux.attach_heat(self.workload_model.normalized_edge_heat())
        repartitioner = LightweightRepartitioner(self.repartitioner_config)
        result = repartitioner.run(
            self.graph, scratch, aux=self.aux, telemetry=self.telemetry
        )
        plan = build_migration_plan(result.moves)
        try:
            report = yield from self._executor.migrate_steps(plan)
        except MigrationAbortedError as exc:
            # Phase 1 already retargeted the auxiliary data; the physical
            # migration rolled itself back, so undo the logical moves too
            # and the cluster is exactly where it was before the attempt.
            self._rollback_aux(result.moves)
            self.telemetry.counter(
                "rebalance_aborts_total",
                "rebalance runs aborted by injected faults",
            ).inc()
            self.telemetry.event(
                "rebalance_aborted",
                forced=force,
                vertices_moved=result.vertices_moved,
                error=str(exc.cause),
            )
            span.set_attribute("aborted", True)
            span.finish(duration=exc.report.total_cost)
            raise
        self.telemetry.counter(
            "rebalances_total", "repartitioner end-to-end runs"
        ).inc()
        self.telemetry.event(
            "rebalance",
            forced=force,
            iterations=result.iterations,
            vertices_moved=result.vertices_moved,
            initial_edge_cut=result.initial_edge_cut,
            final_edge_cut=result.final_edge_cut,
            final_imbalance=result.final_imbalance,
            migration_cost=report.total_cost,
        )
        span.set_attribute("vertices_moved", result.vertices_moved)
        span.finish(duration=report.total_cost)
        return result, report

    def decay_weights(self, factor: float = 0.5, floor: float = 1.0) -> None:
        """Age popularity weights so rebalancing tracks current traffic."""
        self.aux.decay_weights(factor, floor=floor)
        for vertex in self.graph.vertices():
            self.graph.set_weight(vertex, self.aux.weight_of(vertex))

    def repartition_static(self, partitioner: Partitioner) -> MigrationReport:
        """Re-run a static partitioner (e.g. the METIS substitute) and
        migrate the difference — the paper's comparison point that needs a
        global view of the graph."""
        new_partitioning = partitioner.partition(self.graph, self.num_servers)
        moves = {}
        for vertex in self.graph.vertices():
            source = self.catalog.lookup(vertex)
            target = new_partitioning.partition_of(vertex)
            if source != target:
                moves[vertex] = (source, target)
        # Keep auxiliary data in sync with the new placement.
        self._point_aux({vertex: target for vertex, (_, target) in moves.items()})
        try:
            return self._apply_moves(moves)
        except MigrationAbortedError:
            self._rollback_aux(moves)
            raise

    def _point_aux(self, placement: Dict[int, int]) -> None:
        """Logically move each vertex of ``placement`` to its partition,
        as one all-or-nothing batch (in the map's order)."""
        self.aux.apply_moves(
            list(placement),
            list(placement.values()),
            [self.graph.neighbors(vertex) for vertex in placement],
        )

    def _rollback_aux(self, moves: Dict[int, Tuple[int, int]]) -> None:
        """Re-point the auxiliary data at the pre-move placement."""
        self._point_aux({vertex: source for vertex, (source, _) in moves.items()})

    def _apply_moves(self, moves: Dict[int, Tuple[int, int]]) -> MigrationReport:
        plan = build_migration_plan(moves)
        try:
            report = self._executor.execute(plan)
        except MigrationAbortedError as exc:
            # The wasted copy/rollback work still consumed simulated time.
            self._advance(exc.report.total_cost)
            raise
        self._advance(report.total_cost)
        return report

    # ==================================================================
    # Elastic membership (join / drain / crash-recover)
    # ==================================================================
    def active_servers(self) -> List[int]:
        """Ids of servers currently schedulable as placement targets."""
        return [
            server.server_id
            for server in self.servers
            if server.state == server_states.ACTIVE
        ]

    def placement_target(self, vertex: int) -> int:
        """Hash placement over the *active* membership.

        With every server active this is exactly the historical
        ``place(vertex, num_servers)`` — the active list is then the
        identity mapping — so pre-elasticity schedules are unchanged.
        """
        active = self.active_servers()
        if not active:
            raise ClusterError("no active servers to place on")
        return active[self._placer.place(vertex, len(active))]

    def _member(self, server_id: int) -> HermesServer:
        """The addressed member, or ClusterError for an id never joined
        (membership steps against unknown servers degrade, not crash)."""
        if not 0 <= server_id < self.num_servers:
            raise ClusterError(f"unknown server {server_id}")
        return self.servers[server_id]

    def set_server_capacity(self, server_id: int, capacity: float) -> None:
        """Change one server's relative capacity (weighted balance)."""
        self._member(server_id).capacity = capacity
        self.aux.set_capacity(server_id, capacity)

    def add_server(
        self, capacity: float = 1.0, reshard: bool = True
    ) -> Tuple[int, Optional[Tuple[RepartitionResult, MigrationReport]]]:
        """Join one server: register everywhere, then scale-out reshard.

        Registration order matters: the id-generation rebase must use a
        floor computed *before* any layer could mint ids under the new
        stripe count.  With ``reshard`` the join ends with a forced
        capacity-weighted rebalance that moves load onto the (initially
        empty) newcomer; an aborted reshard leaves a consistent cluster
        with an empty-but-ACTIVE new server.
        """
        span = self.telemetry.span("add_server")
        new_id = self.num_servers
        new_total = self.num_servers + 1
        # Every existing allocator's next id, before anything changes:
        # rebasing all stripes above this floor makes future ids collision
        # free against both history and each other.
        floor = max(server.store.next_id_bound() for server in self.servers)
        server = HermesServer(
            new_id,
            new_total,
            clock=lambda: self.now,
            lock_timeout=self._lock_timeout,
            telemetry=self.telemetry,
            labels={"cluster": self.cluster_id},
        )
        server.state = server_states.JOINING
        server.capacity = capacity
        if self.faults is not None:
            server.attach_faults(self.faults)
        self.servers.append(server)
        self.num_servers = new_total
        self.network.add_server()
        self.catalog.add_server()
        self.location_cache.add_server()
        self.aux.add_partition(capacity)
        for member in self.servers:
            member.store.rebase_ids(new_total, floor)
            if member.journal is not None:
                member.journal.note_meta()
        if self.durability:
            server.journal = ServerJournal(server.store)
        # Grow whatever traffic surfaces are attached to this cluster.
        serving = getattr(self, "serving", None)
        if serving is not None:
            serving.queue.add_server()
        engine = getattr(self, "_concurrent_engine", None)
        if engine is not None:
            engine.scheduler.add_server()
        server.state = server_states.ACTIVE
        self.telemetry.event("server_joined", server=new_id, capacity=capacity)
        span.set_attribute("server", new_id)
        result: Optional[Tuple[RepartitionResult, MigrationReport]] = None
        try:
            if reshard:
                result = self.rebalance(force=True)
        finally:
            span.finish()
        return new_id, result

    def _drain_plan(self, server_id: int) -> Dict[int, Tuple[int, int]]:
        """Deterministic evacuation plan for one server's primaries.

        Each vertex goes to the ACTIVE candidate holding most of its
        neighbors (minimizing new edge-cut); ties break toward the least
        projected load relative to capacity, then the lowest id.  Running
        weights make the plan spread load instead of dogpiling one host.
        """
        candidates = [
            other.server_id
            for other in self.servers
            if other.state == server_states.ACTIVE and other.server_id != server_id
        ]
        if not candidates:
            raise ClusterError("cannot drain the only active server")
        weights = list(self.aux.partition_weights)
        moves: Dict[int, Tuple[int, int]] = {}
        for vertex in sorted(self.catalog.vertices_on(server_id)):
            counts = self.aux.neighbor_counts(vertex)
            vertex_weight = self.aux.weight_of(vertex)

            def rank(candidate: int) -> Tuple[float, float, int]:
                capacity = max(self.servers[candidate].capacity, 1e-12)
                projected = (weights[candidate] + vertex_weight) / capacity
                return (-counts.get(candidate, 0), projected, candidate)

            target = min(candidates, key=rank)
            weights[target] += vertex_weight
            moves[vertex] = (server_id, target)
        return moves

    def drain_server(self, server_id: int) -> Optional[MigrationReport]:
        """Graceful leave: unschedulable, evacuate primaries, detach.

        The drained server keeps its id (the server list never shrinks)
        but ends DETACHED with zero primaries, zero capacity and no
        location-cache entry pointing at it.  An aborted evacuation rolls
        everything back and the server returns to ACTIVE.
        """
        server = self._member(server_id)
        if server.state != server_states.ACTIVE:
            raise ClusterError(
                f"server {server_id} is {server.state}; only ACTIVE servers drain"
            )
        span = self.telemetry.span("drain_server", server=server_id)
        old_capacity = server.capacity
        server.state = server_states.DRAINING
        server.capacity = 0.0
        self.aux.set_capacity(server_id, 0.0)
        moves = self._drain_plan(server_id)
        self._point_aux({vertex: target for vertex, (_, target) in moves.items()})
        report: Optional[MigrationReport] = None
        try:
            if moves:
                report = self._apply_moves(moves)
        except MigrationAbortedError:
            self._rollback_aux(moves)
            self.aux.set_capacity(server_id, old_capacity)
            server.capacity = old_capacity
            server.state = server_states.ACTIVE
            span.set_attribute("aborted", True)
            span.finish()
            raise
        self.location_cache.purge_host(server_id)
        server.state = server_states.DETACHED
        self.telemetry.event(
            "server_drained", server=server_id, vertices_moved=len(moves)
        )
        span.set_attribute("vertices_moved", len(moves))
        span.finish()
        return report

    def _require_journal(self, server: HermesServer) -> ServerJournal:
        if server.journal is None:
            raise ClusterError(
                f"server {server.server_id} has no write-ahead log "
                "(build the cluster with durability=True)"
            )
        return server.journal

    def crash_server(self, server_id: int, keep_unflushed_bytes: int = 0) -> None:
        """Crash episode: lose the page cache and the unflushed WAL tail.
        The server is CRASHED (unreadable) until :meth:`recover_server`
        rebuilds its store; what the live store held at the crash is kept
        as the episode's ``pre`` image."""
        server = self._member(server_id)
        if server.state != server_states.ACTIVE:
            raise ClusterError(
                f"server {server_id} is {server.state}; only ACTIVE servers crash"
            )
        journal = self._require_journal(server)
        journal.crash(keep_unflushed_bytes)
        self._crash_images[server_id] = logical_store_snapshot(server.store)
        server.state = server_states.CRASHED
        self.telemetry.event(
            "server_crashed", server=server_id, wal_bytes=journal.wal.size_bytes
        )

    def recover_server(self, server_id: int) -> Dict[str, Any]:
        """Rebuild the store from checkpoint + WAL and re-validate.

        The recovered store must agree with the catalog on exactly which
        vertices this server serves; if it does not, the server stays
        CRASHED, its store untouched, and ``ClusterError`` is raised.
        Otherwise the store is swapped in and checkpointed, and the
        (live at crash, recovered) snapshot pair is appended to
        :attr:`recovery_log` for the recovery-fidelity invariant.
        """
        server = self._member(server_id)
        if server.state != server_states.CRASHED:
            raise ClusterError(
                f"server {server_id} is {server.state}; nothing to recover"
            )
        journal = self._require_journal(server)
        server.state = server_states.RECOVERING
        store = journal.rebuild(server_id)
        available, _ = store.membership()
        expected = frozenset(self.catalog.vertices_on(server_id))
        if available != expected:
            server.state = server_states.CRASHED
            raise ClusterError(
                f"recovered server {server_id} serves {len(available)} vertices; "
                f"catalog expects {len(expected)}"
            )
        server.store = store
        journal.attach(store)
        post = logical_store_snapshot(store)
        episode = {
            "server": server_id,
            "pre": self._crash_images.pop(server_id),
            "post": post,
        }
        self.recovery_log.append(episode)
        server.state = server_states.ACTIVE
        self.telemetry.event(
            "server_recovered",
            server=server_id,
            nodes=len(post["nodes"]),
            rels=len(post["rels"]),
        )
        return episode

    def crash_recover_server(
        self, server_id: int, keep_unflushed_bytes: int = 0
    ) -> Dict[str, Any]:
        """One whole crash-recovery episode (the simtest step kind)."""
        self.crash_server(server_id, keep_unflushed_bytes)
        return self.recover_server(server_id)

    # ==================================================================
    # Whole-cluster persistence
    # ==================================================================
    _META_FILE = "cluster.json"

    def save(self, directory: str) -> None:
        """Persist every server's stores; catalog/mirror/aux are derived
        state and are reconstructed on load from the stores themselves."""
        os.makedirs(directory, exist_ok=True)
        for server in self.servers:
            server.store.save(os.path.join(directory, f"server-{server.server_id}"))
        meta = {"num_servers": self.num_servers}
        with open(os.path.join(directory, self._META_FILE), "w") as handle:
            json.dump(meta, handle)

    @classmethod
    def load_cluster(cls, directory: str, **kwargs) -> "HermesCluster":
        """Reopen a saved cluster.

        The stores are the source of truth: vertex placement comes from
        which store holds each (available) node, the logical mirror from
        the union of non-ghost relationship records, vertex weights from
        the node records, and the auxiliary data is bootstrapped from the
        reconstructed mirror + placement.
        """
        with open(os.path.join(directory, cls._META_FILE)) as handle:
            meta = json.load(handle)
        cluster = cls(meta["num_servers"], **kwargs)
        for server in cluster.servers:
            server.store = GraphStore.load(
                os.path.join(directory, f"server-{server.server_id}")
            )
        cluster._checkpoint()
        for server in cluster.servers:
            for node_id in server.store.node_ids():
                if not server.store.is_available(node_id):
                    continue
                cluster.catalog.register(node_id, server.server_id)
                cluster.graph.add_vertex(
                    node_id, weight=server.store.node_weight(node_id)
                )
                cluster.aux.add_vertex(
                    node_id, server.server_id, server.store.node_weight(node_id)
                )
        seen = set()
        for server in cluster.servers:
            for record in server.store.relationships.records():
                if record.ghost or record.rel_id in seen:
                    continue
                seen.add(record.rel_id)
                cluster.graph.add_edge(record.src, record.dst)
                cluster.aux.add_edge(record.src, record.dst)
        return cluster

    # ==================================================================
    # Metrics / introspection
    # ==================================================================
    def edge_cut(self) -> int:
        return self.aux.edge_cut()

    def edge_cut_fraction(self) -> float:
        if self.graph.num_edges == 0:
            return 0.0
        return self.aux.edge_cut() / self.graph.num_edges

    def imbalance(self) -> float:
        return self.aux.max_imbalance()

    def boundary_sizes(self) -> List[int]:
        """Per-server count of vertices with cross-server neighbors — the
        working-set size of the next phase-1 selection scan."""
        return self.aux.boundary_sizes()

    def partitioning(self) -> Partitioning:
        return self.catalog.snapshot()

    def membership(self) -> List[Tuple[frozenset, frozenset]]:
        """Per-server ``(available, unavailable)`` store membership.

        The storage-side view of vertex placement, enumerated straight
        from the node stores — the simtest auditor diffs this against the
        catalog to catch placement drift.
        """
        return [server.store.membership() for server in self.servers]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def start_tracing(self) -> None:
        """Turn span/event capture on for this cluster's hub."""
        self.telemetry.start_recording()

    def export_telemetry(
        self, path: str, meta: Optional[Dict[str, Any]] = None
    ) -> int:
        """Dump the full telemetry state (metrics, spans, events) as JSONL.

        Per-link traffic gauges are materialized from the network stats
        right before the snapshot so the log carries them.  Returns the
        number of lines written.
        """
        self.network.export_link_metrics()
        header: Dict[str, Any] = {
            "system": "hermes-repro",
            "num_servers": self.num_servers,
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "simulated_now": self.now,
        }
        if meta:
            header.update(meta)
        return export_jsonl(self.telemetry, path, meta=header)

    def telemetry_summary(self, top: int = 10) -> str:
        """Human-readable digest of metrics, hot links, and spans."""
        return summary_text(self.telemetry, self.network.stats, top=top)

    def storage_stats(self) -> List:
        return [server.store.stats() for server in self.servers]

    def validate(self) -> None:
        """Full cross-layer consistency check (used by integration tests).

        Verifies catalog == auxiliary placement, store hosting, ghost
        conventions and auxiliary counters against the mirror graph.
        """
        for vertex in self.graph.vertices():
            home = self.catalog.lookup(vertex)
            if self.aux.partition_of(vertex) != home:
                raise ClusterError(f"aux/catalog disagree on vertex {vertex}")
            if not self.servers[home].store.is_available(vertex):
                raise ClusterError(f"vertex {vertex} not available on server {home}")
            for other in range(self.num_servers):
                if other != home and self.servers[other].store.has_node(vertex):
                    raise ClusterError(
                        f"vertex {vertex} has a stray replica on server {other}"
                    )
            # Auxiliary neighbor counters must match the mirror adjacency.
            expected: Dict[int, int] = {}
            for neighbor in self.graph.neighbors(vertex):
                part = self.catalog.lookup(neighbor)
                expected[part] = expected.get(part, 0) + 1
            if dict(self.aux.neighbor_counts(vertex)) != expected:
                raise ClusterError(f"aux counters wrong for vertex {vertex}")
            # The hosting server's adjacency must equal the mirror's.
            local = sorted(self.servers[home].store.neighbors(vertex))
            if local != sorted(self.graph.neighbors(vertex)):
                raise ClusterError(f"store adjacency wrong for vertex {vertex}")
        for u, v in self.graph.edges():
            self._validate_edge(u, v)

    def _validate_edge(self, u: int, v: int) -> None:
        host_u = self.catalog.lookup(u)
        host_v = self.catalog.lookup(v)
        rel_u = self._find_rel(host_u, u, v)
        if rel_u is None:
            raise ClusterError(f"edge ({u}, {v}) missing on server {host_u}")
        if host_u == host_v:
            record = self.servers[host_u].store.relationship(rel_u)
            if record.ghost:
                raise ClusterError(f"local edge ({u}, {v}) is marked ghost")
            return
        rel_v = self._find_rel(host_v, v, u)
        if rel_v is None:
            raise ClusterError(f"edge ({u}, {v}) missing on server {host_v}")
        if rel_u != rel_v:
            raise ClusterError(f"edge ({u}, {v}) has mismatched record IDs")
        record_u = self.servers[host_u].store.relationship(rel_u)
        record_v = self.servers[host_v].store.relationship(rel_v)
        src_host = self.catalog.lookup(record_u.src)
        for host, record in ((host_u, record_u), (host_v, record_v)):
            expected_ghost = host != src_host
            if record.ghost != expected_ghost:
                raise ClusterError(
                    f"edge ({u}, {v}) ghost flag wrong on server {host}"
                )

    def _find_rel(self, host: int, node: int, other: int) -> Optional[int]:
        store = self.servers[host].store
        for entry in store.neighbor_entries(node, include_unavailable=True):
            if entry.neighbor == other:
                return entry.rel_id
        return None

    def __repr__(self) -> str:
        return (
            f"HermesCluster(servers={self.num_servers}, "
            f"vertices={self.graph.num_vertices}, edges={self.graph.num_edges}, "
            f"edge_cut={self.edge_cut()}, imbalance={self.imbalance():.3f})"
        )
