"""Physical data migration: the two-step copy/remove protocol (Section 3.2).

Given the :class:`~repro.core.migration.MigrationPlan` produced by phase 1
of the lightweight repartitioner, the executor:

1. **copy step** — for every (source, target) pair of the plan, the
   target server receives the payloads of the pair's vertices (node
   record, properties, relationship records with their properties) and
   inserts them locally.  Insertion-only, so each target proceeds
   independently with no cross-partition locks;
2. **synchronization barrier** — every participating server confirms copy
   completion (cheap: no locks or resources held);
3. **remove step** — each source server marks its moved vertices
   *unavailable* (queries thereafter treat them as absent); then, one
   (source, target) pair at a time, it converts or deletes their
   relationship records and finally drops the node records.

Relationship bookkeeping follows the ownership convention: the primary
(property-bearing) record lives with the ``src`` endpoint's host; the
other side keeps a ghost.  The executor computes each record's role once
against the *post-migration* placement (:meth:`MigrationExecutor._roles`,
shared by the copy step, :meth:`MigrationExecutor.mirror_edge` and the
remove step) so that edges between two migrating vertices, edges to
third-party servers, and edges collapsing into a single server are all
handled.

Neither step moves a record at a time.  A pair's copy is one
:meth:`~repro.storage.graph_store.GraphStore.import_nodes` on the target:
each vertex's node, properties and relationship records, each record
written once with its final pointers, a page at a time.  A remove is one
:meth:`~repro.storage.graph_store.GraphStore.delete_node` walk per vertex
on the source, keeping a record only where the other endpoint stays
there.  The stores end byte for byte where installing and unlinking one
record at a time left them (``tests/cluster/test_migration_differential.py``).

Execution is **transactional** because the copy step only inserts: a
failure before the catalog flips (a crash window or message loss
surviving all retries, a stale plan naming a vertex a server no longer
hosts) runs the remove step on the targets instead of the sources.  The
double-write window lists every copy that landed; each is retired, newest
first, by the same ``delete_node`` walk against the placement the catalog
still holds, so every store, the catalog and the migration counters are
exactly as they were before the migration started — the paper's "failure
mid-migration cannot corrupt the database" guarantee.  The aborted
attempt surfaces as a :class:`~repro.exceptions.MigrationAbortedError`
carrying its wasted simulated cost, and the same plan can be retried
idempotently once the fault clears.  After the catalog flips, the
remaining work (the remove step) is purely server-local and cannot fault.

There is one implementation of the protocol,
:meth:`MigrationExecutor.migrate_steps`, a generator that pauses after
each pair's copy, the barrier and each pair's remove
(:meth:`~repro.core.migration.MigrationPlan.by_pair`) so the event
scheduler can interleave traffic; :meth:`MigrationExecutor.execute`
drains it.  Each pause commits one log transaction per server the step
wrote.  Closing the generator before the commit rolls back as an abort
does; closing it after the commit finishes the removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Set, Tuple

from repro.cluster.catalog import Catalog, LocationCache
from repro.cluster.durability import commit_all
from repro.cluster.faults import RetryPolicy
from repro.cluster.network import LOCAL_VISIT, SimulatedNetwork, seconds
from repro.cluster.server import HermesServer
from repro.core.migration import MigrationPlan, VertexMove
from repro.exceptions import (
    ClusterError,
    FaultInjectedError,
    HermesError,
    MigrationAbortedError,
)
from repro.storage.graph_store import Export
from repro.storage.relationship_store import REL_SRC
from repro.telemetry import Telemetry
from repro.telemetry.registry import DEFAULT_SIZE_BUCKETS


@dataclass
class MigrationReport:
    """Cost accounting of one physical migration (costs in integer ns)."""

    vertices_moved: int = 0
    relationships_transferred: int = 0
    relationships_rewritten: int = 0
    bytes_transferred: int = 0
    copy_cost: int = 0
    barrier_cost: int = 0
    remove_cost: int = 0
    per_target: Dict[int, int] = field(default_factory=dict)

    @property
    def total_cost(self) -> int:
        return self.copy_cost + self.barrier_cost + self.remove_cost


@dataclass(frozen=True)
class MigrationStep:
    """One yielded unit of online-migration progress.

    ``kind`` is ``"copy"`` (one (source, target) pair's vertices
    replicated onto the target), ``"barrier"`` (participants confirm) or
    ``"remove"`` (one pair's source copies retired after commit).
    ``cost`` is the step's simulated time in integer nanoseconds;
    ``servers`` the servers the step occupies on the event timeline.
    """

    kind: str
    cost: int
    servers: Tuple[int, ...] = ()


def _payload_size(export: Export) -> int:
    """Rough wire size: fixed record sizes + property payload estimate."""
    size = 64 + 80 * len(export.chain)  # node record + framing, relationship records
    for properties in (export.properties, *export.chain_properties.values()):
        for key, value in properties.items():
            size += len(key) + len(repr(value)) + 16
    return size


class MigrationExecutor:
    """Executes migration plans against the servers."""

    def __init__(
        self,
        servers: List[HermesServer],
        catalog: Catalog,
        network: SimulatedNetwork,
        telemetry: Optional[Telemetry] = None,
        location_cache: Optional[LocationCache] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self.servers = servers
        self.catalog = catalog
        self.network = network
        self.location_cache = location_cache
        #: double-write window of the migration in flight: vertex -> target
        #: server for every vertex whose copy-step has run but whose
        #: catalog entry has not flipped yet, in copy order — what an
        #: abort retires.  Writes that touch a windowed vertex mirror onto
        #: the target (``mirror_edge``); reads keep forwarding through the
        #: catalog to the source.  Always empty outside ``migrate_steps``
        #: (the simtest auditor's ``undo-journal-closed`` invariant).
        self._window: Dict[int, int] = {}
        #: final placement of the migration owning the window
        self._window_final_home: Optional[Dict[int, int]] = None
        #: windowed vertices a copy-step or a mirrored write touched since
        #: the last :meth:`sweep_window_changes` (all of them at the barrier)
        self._window_unswept: Set[int] = set()
        #: called after every catalog commit; in-flight traversals use
        #: this to re-resolve their frontiers.
        self.topology_listeners: List[Callable[[], None]] = []
        telemetry = telemetry or Telemetry()
        self.telemetry = telemetry
        #: every migration series carries these (the owning cluster)
        self._labels = labels = labels or {}
        self._vertices_moved = telemetry.counter(
            "migration_vertices_moved_total", "vertices physically migrated", **labels
        )
        self._rels_transferred = telemetry.counter(
            "migration_relationships_transferred_total",
            "relationship records shipped in copy steps",
            **labels,
        )
        self._rels_rewritten = telemetry.counter(
            "migration_relationships_rewritten_total",
            "relationship records converted or deleted in remove steps",
            **labels,
        )
        self._bytes = telemetry.counter(
            "migration_bytes_total", "payload bytes shipped in copy steps", **labels
        )
        self._phase_seconds = {
            phase: telemetry.counter(
                "migration_phase_seconds_total",
                "simulated seconds spent per migration phase",
                phase=phase,
                **labels,
            )
            for phase in ("copy", "barrier", "remove")
        }
        self._payload_sizes = telemetry.histogram(
            "migration_payload_bytes",
            "wire size of one vertex payload",
            buckets=DEFAULT_SIZE_BUCKETS,
            **labels,
        )

    # ------------------------------------------------------------------
    def execute(self, plan: MigrationPlan) -> MigrationReport:
        """Run the full two-step protocol for ``plan`` to completion.

        Drains :meth:`migrate_steps` without pausing between steps.
        Raises :class:`~repro.exceptions.MigrationAbortedError` if the
        copy step or the barrier fails; the cluster is then rolled back
        to its exact pre-call state and the plan may be retried.
        """
        steps = self.migrate_steps(plan)
        try:
            while True:
                next(steps)
        except StopIteration as stop:
            return stop.value

    def migrate_steps(
        self, plan: MigrationPlan
    ) -> Generator[MigrationStep, None, MigrationReport]:
        """Run the two-step protocol as a resumable task.

        One (source, target) pair at a time: yields a
        :class:`MigrationStep` after each pair's copy, after the barrier
        and after each pair's remove so the event scheduler can
        interleave queries and writes with the migration (:meth:`execute`
        drains it in one go).  Every copied vertex enters the
        double-write window as soon as its copy lands and stays there
        until the (atomic) catalog commit: writes mirror onto the target
        via :meth:`mirror_edge`, reads keep forwarding to the source.  An
        abort (also one part-way through a pair), or closing the
        generator before the commit, retires the landed copies newest
        first together with their mirrored writes and clears the window
        — exactly the pre-call state.  Closed after the commit, the
        generator finishes the remaining removes without yielding.
        """
        report = MigrationReport()
        if not plan.moves:
            return report
        final_home = self._final_placement(plan)
        self._window_final_home = final_home
        payload_sizes: List[int] = []

        batches = plan.by_pair()
        span = self.telemetry.span("migration", moves=plan.num_moves)
        try:
            copy_span = self.telemetry.span("migration.copy")
            for pair, moves in batches.items():
                cost_before = report.copy_cost
                self._copy_pair(moves, final_home, report, payload_sizes)
                yield self._step("copy", report.copy_cost - cost_before, pair)
            copy_span.set_attribute("bytes", report.bytes_transferred)
            copy_span.finish(duration=seconds(report.copy_cost))

            barrier_span = self.telemetry.span("migration.barrier")
            report.barrier_cost = self._barrier(plan)
            barrier_span.finish(duration=seconds(report.barrier_cost))
            # Last pause before the commit: the next sweep covers the
            # whole window, not only what the events announced.
            self._window_unswept.update(self._window)
            participants = tuple(sorted({s for pair in batches for s in pair}))
            yield self._step("barrier", report.barrier_cost, participants)
        except (HermesError, GeneratorExit) as exc:
            if isinstance(exc, FaultInjectedError):
                # The timeouts and backoff of the failed attempt are real
                # simulated time even though no records moved.
                report.copy_cost += exc.cost
            self._rollback()
            self._close_window()
            commit_all(self.servers)
            self.telemetry.counter(
                "migration_aborts_total",
                "migrations aborted and rolled back",
                **self._labels,
            ).inc()
            self.telemetry.event(
                "migration_aborted",
                moves=plan.num_moves,
                rolled_back=report.vertices_moved,
                reason=type(exc).__name__,
                error=str(exc),
            )
            span.set_attribute("aborted", True)
            span.finish(duration=seconds(report.copy_cost + report.barrier_cost))
            if isinstance(exc, GeneratorExit):
                raise
            raise MigrationAbortedError(exc, report) from exc

        # Atomic commit: the catalog flips for every move at once, so
        # queries now route to the fresh replicas while the originals
        # are being removed.  The migration participants update their
        # location caches as part of the commit; non-participants keep
        # stale entries that resolve via a forwarding hop on next use.
        # Past this point nothing is rolled back: the window closes and
        # in-flight traversals are told to re-resolve.
        for move in plan.moves:
            self.catalog.move(move.vertex, move.target)
            if self.location_cache is not None:
                self.location_cache.on_moved(move.vertex, move.source, move.target)
        self._close_window()
        self._notify_topology_change()

        remove_span = self.telemetry.span("migration.remove")
        # First pass: the unavailable state, so no query can lock them.
        for move in plan.moves:
            self.servers[move.source].store.set_available(move.vertex, False)
        # Second pass: relationship record surgery + node removal.  A
        # consumer that closes the generator here still gets the rest:
        # the removes are local and cannot fault.
        closed = False
        for (source, _), moves in batches.items():
            cost_before = report.remove_cost
            for move in moves:
                self._remove_one(move, final_home, report)
            step = self._step("remove", report.remove_cost - cost_before, (source,))
            if not closed:
                try:
                    yield step
                except GeneratorExit:
                    closed = True
        remove_span.set_attribute(
            "relationships_rewritten", report.relationships_rewritten
        )
        remove_span.finish(duration=seconds(report.remove_cost))

        # Telemetry is published only once the migration is past its
        # abort points, so an aborted attempt leaves the counters and the
        # payload histogram exactly as they were.
        for size in payload_sizes:
            self._payload_sizes.observe(size)
        self._vertices_moved.inc(report.vertices_moved)
        self._rels_transferred.inc(report.relationships_transferred)
        self._rels_rewritten.inc(report.relationships_rewritten)
        self._bytes.inc(report.bytes_transferred)
        self._phase_seconds["copy"].inc(seconds(report.copy_cost))
        self._phase_seconds["barrier"].inc(seconds(report.barrier_cost))
        self._phase_seconds["remove"].inc(seconds(report.remove_cost))
        span.set_attribute("vertices_moved", report.vertices_moved)
        span.finish(duration=seconds(report.total_cost))
        return report

    def _step(
        self, kind: str, cost: int, servers: Tuple[int, ...]
    ) -> MigrationStep:
        """The step about to be yielded, its writes committed first: a
        pair's copies are one log transaction on its target, its
        removals one on its source."""
        commit_all(self.servers)
        return MigrationStep(kind, cost, servers)

    def _close_window(self) -> None:
        """Retire the double-write window (commit and abort both end
        with no migration in flight)."""
        self._window.clear()
        self._window_final_home = None
        self._window_unswept.clear()

    def _final_placement(self, plan: MigrationPlan) -> Dict[int, int]:
        """Vertex -> server map *after* the plan completes: the catalog as
        the plan starts with every move applied, so the role rule finds
        each endpoint in one dict (a vertex inserted later is looked up
        in the catalog, :meth:`_home_after`)."""
        placement = self.catalog.as_mapping()
        placement.update((move.vertex, move.target) for move in plan.moves)
        return placement

    def _home_after(self, vertex: int, final_home: Dict[int, int]) -> int:
        override = final_home.get(vertex)
        if override is not None:
            return override
        return self.catalog.lookup(vertex)

    # ------------------------------------------------------------------
    # Step 1: copy
    # ------------------------------------------------------------------
    def _copy_pair(
        self,
        moves: List[VertexMove],
        final_home: Dict[int, int],
        report: MigrationReport,
        payload_sizes: List[int],
    ) -> None:
        """Replicate one (source, target) pair's vertices on the target:
        each vertex checked, exported and shipped in plan order, then one
        ``import_nodes`` of the shipped copies with their roles
        (:meth:`_roles`), which enter the window in that order.  When a
        vertex fails (not hosted, not available, retries exhausted, a
        payload the target rejects) the copies before it land and its
        error is raised, as copying one vertex at a time did; a rejected
        payload is found after the pair's transfers."""
        source, target = moves[0].source, moves[0].target
        store = self.servers[source].store
        exports: List[Export] = []
        try:
            for move in moves:
                if not store.has_node(move.vertex):
                    raise ClusterError(
                        f"server {source} does not host vertex {move.vertex}"
                    )
                export = store.export_fields(move.vertex)
                size = _payload_size(export)
                payload_sizes.append(size)
                report.bytes_transferred += size
                report.copy_cost += self._transfer(source, target, size)
                report.vertices_moved += 1
                report.per_target[target] = report.per_target.get(target, 0) + 1
                exports.append(export)
        finally:
            # The import adds one node per copy it installs.
            arrivals = self.servers[target].store
            installed = arrivals.num_nodes
            try:
                srcs = (rel[REL_SRC] for export in exports for rel in export.chain)
                arrivals.import_nodes(exports, self._roles(srcs, target, final_home))
            finally:
                installed = arrivals.num_nodes - installed
                for move, export in zip(moves[:installed], exports):
                    self._window[move.vertex] = target
                    self._window_unswept.add(move.vertex)
                    report.relationships_transferred += len(export.chain)

    def _transfer(self, src: int, dst: int, size: int) -> int:
        """One copy-step record shipment, retried under injected faults."""
        cost, wasted = RetryPolicy.call(
            lambda: self.network.transfer(src, dst, size),
            injector=self.network.fault_injector,
            on_retry=self._on_retry,
        )
        return cost + wasted

    def _on_retry(self, exc: FaultInjectedError, pause: int) -> None:
        self.telemetry.counter(
            "migration_retries_total",
            "copy/barrier network operations retried after an injected fault",
            **self._labels,
        ).inc()

    def _install_relationship(
        self,
        target: HermesServer,
        arriving: int,
        rel: Dict[str, Any],
        final_home: Dict[int, int],
    ) -> None:
        """Create or merge one relationship record on the target server:
        :meth:`mirror_edge`'s one edge into the chain of a copy already
        installed."""
        rel_id = rel["rel_id"]
        src, dst = rel["src"], rel["dst"]
        here = target.server_id
        (ghost,) = self._roles([src], here, final_home)

        if target.store.has_relationship(rel_id):
            # Counterpart already present (the other endpoint lives here
            # or is windowed here too): link the new endpoint in and
            # reconcile the primary/ghost role.  A mid-window write whose
            # other endpoint lives on the target was already linked into
            # the arriving copy's chain by ``create_relationship`` (it
            # links every local endpoint, available or not) — the mirror
            # then only sets its role, without double-linking the chain.
            if not target.store.chain_contains(arriving, rel_id):
                target.store.attach_endpoint(rel_id, arriving)
            if target.store.relationship(rel_id).ghost != ghost:
                target.store.set_ghost(rel_id, ghost)
            if not ghost:
                for key, value in rel.get("properties", {}).items():
                    target.store.set_relationship_property(rel_id, key, value)
            return

        properties = None if ghost else rel.get("properties") or None
        target.store.create_relationship(
            rel_id, src, dst, ghost=ghost, properties=properties
        )

    def _roles(
        self, srcs: Iterable[int], here: int, final_home: Dict[int, int]
    ) -> List[bool]:
        """The primary/ghost rule, a flag per relationship ``src`` (True: a
        ghost): a relationship's record on ``here`` is the property-bearing
        primary exactly when its ``src`` ends the migration hosted on
        ``here`` (:meth:`_home_after`, inlined)."""
        lookup = self.catalog.lookup
        return [
            (final_home[src] if src in final_home else lookup(src)) != here
            for src in srcs
        ]

    # ------------------------------------------------------------------
    # Rollback (abort path)
    # ------------------------------------------------------------------
    def _rollback(self) -> None:
        """Retire every copy in the window, newest first: the remove
        step run on the target against the placement the catalog still
        holds.

        A record is kept only for an endpoint that lived on the target
        before the migration, and it is a ghost again exactly when the
        departing copy is its ``src``, which drops any properties the
        copy or a mirrored write merged in.  Records between two copies
        and records a mirrored write created go; a vertex inserted on the
        target during the window stays.
        """
        lookup = self.catalog.lookup
        for vertex, here in reversed(self._window.items()):
            self.servers[here].store.delete_node(
                vertex, stays=lambda other, here=here: lookup(other) == here
            )

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------
    def _barrier(self, plan: MigrationPlan) -> int:
        """All participants confirm copy completion (no locks held)."""
        participants = {move.source for move in plan.moves}
        participants.update(move.target for move in plan.moves)
        cost = 0
        for server in participants:
            # A lost confirmation is re-broadcast; duplicates are
            # harmless (the barrier is idempotent by construction).
            confirmed, wasted = RetryPolicy.call(
                lambda s=server: self.network.broadcast(s, size=32),
                injector=self.network.fault_injector,
                on_retry=self._on_retry,
            )
            cost += confirmed + wasted
        return cost

    # ------------------------------------------------------------------
    # Step 2: remove
    # ------------------------------------------------------------------
    def _remove_one(
        self,
        move,
        final_home: Dict[int, int],
        report: MigrationReport,
    ) -> None:
        """Retire one migrated vertex's source copy (post-commit, local).

        An edge whose other endpoint stays here now crosses partitions:
        the store keeps its record for that endpoint, as a ghost exactly
        when the departing vertex was its ``src`` — :meth:`_roles`
        with the source as ``here``.  Every other record goes.  One local
        visit is charged per chain entry and one for the node.
        """
        here = move.source
        rewritten = self.servers[here].store.delete_node(
            move.vertex,
            stays=lambda other: self._home_after(other, final_home) == here,
        )
        report.relationships_rewritten += rewritten
        report.remove_cost += (rewritten + 1) * LOCAL_VISIT

    # ------------------------------------------------------------------
    # Double-write window
    # ------------------------------------------------------------------
    def _notify_topology_change(self) -> None:
        for listener in self.topology_listeners:
            listener()

    def window_target(self, vertex: int) -> Optional[int]:
        """Target server of ``vertex``'s open double-write window, if any."""
        return self._window.get(vertex)

    @property
    def window_open(self) -> bool:
        """Is any vertex currently inside a double-write window?"""
        return bool(self._window)

    @property
    def window_vertices(self) -> Dict[int, int]:
        """Read-only view of the open double-write window (auditor hook)."""
        return dict(self._window)

    def mirror_edge(self, vertex: int, rel: Dict[str, Any]) -> None:
        """Apply one just-written relationship to ``vertex``'s window target.

        The write path calls this for every endpoint of a new edge that
        sits inside an open double-write window, after the write has
        fully succeeded on its primary/ghost hosts.  The record is
        installed on the target store with its *post-migration* ghost
        role in ``vertex``'s chain, so an aborted migration retires
        mirrored writes together with the copy while the write itself
        stays durable on the source.  The shipment piggybacks on the
        migration channel and is charged no extra simulated cost.
        """
        target_id = self._window.get(vertex)
        if target_id is None:
            return
        final_home = self._window_final_home or {}
        self._window_unswept.add(vertex)
        self._install_relationship(self.servers[target_id], vertex, rel, final_home)

    def check_window_coherence(self) -> List[str]:
        """Audit the whole open double-write window (the simtest invariant).

        For every windowed vertex: the target must hold a replica, the
        catalog must still route reads to the source (reads *forward*
        until commit), the source copy must still be available, and the
        two adjacency lists must agree — i.e. every write that landed
        during the window reached both sides.  Returns human-readable
        problems (empty when coherent).
        """
        return self._window_problems(self._window)

    def sweep_window_changes(self) -> List[str]:
        """The same audit over the windowed vertices changed since the
        previous call: the vertices a copy step just added, the endpoints
        :meth:`mirror_edge` was called for — and, once the barrier has
        run, every windowed vertex, so a change no event announced is
        still caught before the catalog commits.  The per-event sweep
        of the concurrent engine; O(changes), not O(window)."""
        changed = self._window_unswept
        self._window_unswept = set()
        return self._window_problems(changed)

    def _window_problems(self, vertices: Iterable[int]) -> List[str]:
        problems: List[str] = []
        for vertex in sorted(vertices):
            target_id = self._window[vertex]
            try:
                source_id = self.catalog.lookup(vertex)
            except HermesError:
                problems.append(f"windowed vertex {vertex} left the catalog")
                continue
            if source_id == target_id:
                problems.append(
                    f"windowed vertex {vertex} already committed to "
                    f"server {target_id} with its window still open"
                )
                continue
            source = self.servers[source_id].store
            target = self.servers[target_id].store
            if not target.has_node(vertex):
                problems.append(
                    f"windowed vertex {vertex} has no replica on its "
                    f"target server {target_id}"
                )
                continue
            if not (source.has_node(vertex) and source.is_available(vertex)):
                problems.append(
                    f"windowed vertex {vertex} is unavailable on its "
                    f"source server {source_id} before commit"
                )
                continue
            if sorted(source.neighbors(vertex)) != sorted(target.neighbors(vertex)):
                problems.append(
                    f"windowed vertex {vertex} adjacency diverged between "
                    f"source {source_id} and target {target_id}"
                )
        return problems
