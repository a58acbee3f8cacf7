"""Physical data migration: the two-step copy/remove protocol (Section 3.2).

Given the :class:`~repro.core.migration.MigrationPlan` produced by phase 1
of the lightweight repartitioner, the executor:

1. **copy step** — for every move, the target server receives the vertex's
   payload (node record, properties, relationship records with their
   properties) and inserts it locally.  Insertion-only, so each target
   proceeds independently with no cross-partition locks;
2. **synchronization barrier** — every participating server confirms copy
   completion (cheap: no locks or resources held);
3. **remove step** — each source server marks its moved vertices
   *unavailable* (queries thereafter treat them as absent), converts or
   deletes their relationship records, and finally drops the node records.

Relationship bookkeeping follows the ownership convention: the primary
(property-bearing) record lives with the ``src`` endpoint's host; the
other side keeps a ghost.  The executor recomputes ghost/primary roles
against the *post-migration* catalog so that edges between two migrating
vertices, edges to third-party servers, and edges collapsing into a
single server are all handled.

Execution is **transactional**: every store mutation performed by the
copy step is journalled, and a failure before the catalog flips (a crash
window or message loss surviving all retries, a stale plan naming a
vertex a server no longer hosts) rolls the journal back so every store,
the catalog and the migration counters are exactly as they were before
the migration started — the paper's "failure mid-migration cannot
corrupt the database" guarantee.  The aborted attempt surfaces as a
:class:`~repro.exceptions.MigrationAbortedError` carrying its wasted
simulated cost, and the same plan can be retried idempotently once the
fault clears.  After the catalog flips, the remaining work (the remove
step) is purely server-local and cannot fault.

There is one implementation of the protocol,
:meth:`MigrationExecutor.migrate_steps`, a generator that pauses after
every copy, the barrier and every remove so the event scheduler can
interleave traffic; :meth:`MigrationExecutor.execute` drains it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Set, Tuple

from repro.cluster.catalog import Catalog, LocationCache
from repro.cluster.durability import commit_all
from repro.cluster.faults import RetryPolicy
from repro.cluster.network import SimulatedNetwork
from repro.cluster.server import HermesServer
from repro.core.migration import MigrationPlan
from repro.exceptions import (
    ClusterError,
    FaultInjectedError,
    HermesError,
    MigrationAbortedError,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.registry import DEFAULT_SIZE_BUCKETS


@dataclass
class MigrationReport:
    """Cost accounting of one physical migration."""

    vertices_moved: int = 0
    relationships_transferred: int = 0
    relationships_rewritten: int = 0
    bytes_transferred: int = 0
    copy_cost: float = 0.0
    barrier_cost: float = 0.0
    remove_cost: float = 0.0
    per_target: Dict[int, int] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return self.copy_cost + self.barrier_cost + self.remove_cost


@dataclass(frozen=True)
class MigrationStep:
    """One yielded unit of online-migration progress.

    ``kind`` is ``"copy"`` (one vertex replicated onto its target),
    ``"barrier"`` (participants confirm) or ``"remove"`` (one source
    copy retired after commit).  ``cost`` is the step's simulated
    seconds; ``servers`` the servers the step occupies on the event
    timeline.
    """

    kind: str
    cost: float
    servers: Tuple[int, ...] = ()


def _payload_size(payload: Dict[str, Any]) -> int:
    """Rough wire size: fixed record sizes + property payload estimate."""
    size = 64  # node record + framing
    for key, value in payload.get("properties", {}).items():
        size += len(key) + len(repr(value)) + 16
    for rel in payload.get("relationships", []):
        size += 80  # relationship record
        for key, value in rel.get("properties", {}).items():
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
        retry: Optional[RetryPolicy] = None,
        location_cache: Optional[LocationCache] = None,
    ):
        self.servers = servers
        self.catalog = catalog
        self.network = network
        self.retry = retry or RetryPolicy()
        self.location_cache = location_cache
        #: the undo journal of the migration currently in flight.
        #: None whenever no migration is in flight — both a committed and
        #: an aborted attempt must leave it None (the simtest auditor's
        #: journal-emptiness invariant between schedule steps).
        self.active_journal: Optional[List[Tuple]] = None
        #: double-write window of the migration in flight: vertex -> target
        #: server for every vertex whose copy-step has run but whose
        #: catalog entry has not flipped yet.  Writes that touch a
        #: windowed vertex mirror onto the target (``mirror_edge``);
        #: reads keep forwarding through the catalog to the source.
        #: Always empty outside ``migrate_steps``.
        self._window: Dict[int, int] = {}
        #: final placement of the migration owning the window
        self._window_final_home: Optional[Dict[int, int]] = None
        #: windowed vertices a copy-step or a mirrored write touched since
        #: the last :meth:`sweep_window_changes` (all of them at the barrier)
        self._window_unswept: Set[int] = set()
        #: called after every catalog commit; in-flight traversals use
        #: this to re-resolve their frontiers.
        self.topology_listeners: List[Callable[[], None]] = []
        self.attach_telemetry(telemetry or NULL_TELEMETRY)

    @property
    def journal_open(self) -> bool:
        """Is a copy-step undo journal currently live?"""
        return self.active_journal is not None

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self._vertices_moved = telemetry.counter(
            "migration_vertices_moved_total", "vertices physically migrated"
        )
        self._rels_transferred = telemetry.counter(
            "migration_relationships_transferred_total",
            "relationship records shipped in copy steps",
        )
        self._rels_rewritten = telemetry.counter(
            "migration_relationships_rewritten_total",
            "relationship records converted or deleted in remove steps",
        )
        self._bytes = telemetry.counter(
            "migration_bytes_total", "payload bytes shipped in copy steps"
        )
        self._phase_seconds = {
            phase: telemetry.counter(
                "migration_phase_seconds_total",
                "simulated seconds spent per migration phase",
                phase=phase,
            )
            for phase in ("copy", "barrier", "remove")
        }
        self._payload_sizes = telemetry.histogram(
            "migration_payload_bytes",
            "wire size of one vertex payload",
            buckets=DEFAULT_SIZE_BUCKETS,
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

        One vertex at a time: yields a :class:`MigrationStep` after
        every copy, after the barrier and after every remove so the
        event scheduler can interleave queries and writes with the
        migration (:meth:`execute` drains it in one go).  Every copied
        vertex enters the double-write window until the (atomic) catalog
        commit: writes mirror onto the target via :meth:`mirror_edge`,
        reads keep forwarding to the source.  An abort rolls back
        copy-steps *and* mirrored writes through the shared undo journal
        and clears the window — exactly the pre-call state.
        """
        report = MigrationReport()
        if not plan.moves:
            return report
        final_home = self._final_placement(plan)
        #: reverse journal of every store mutation, for rollback on abort
        undo: List[Tuple] = []
        self.active_journal = undo
        self._window_final_home = final_home
        payload_sizes: List[int] = []

        span = self.telemetry.span("migration", moves=plan.num_moves)
        try:
            copy_span = self.telemetry.span("migration.copy")
            for move in plan.moves:
                cost_before = report.copy_cost
                self._copy_one(move, final_home, report, undo, payload_sizes)
                self._window[move.vertex] = move.target
                self._window_unswept.add(move.vertex)
                yield self._step(
                    "copy",
                    report.copy_cost - cost_before,
                    (move.source, move.target),
                )
            copy_span.set_attribute("bytes", report.bytes_transferred)
            copy_span.finish(duration=report.copy_cost)

            barrier_span = self.telemetry.span("migration.barrier")
            report.barrier_cost = self._barrier(plan)
            barrier_span.finish(duration=report.barrier_cost)
            # Last pause before the commit: the next sweep covers the
            # whole window, not only what the events announced.
            self._window_unswept.update(self._window)
            participants = sorted(
                {move.source for move in plan.moves}
                | {move.target for move in plan.moves}
            )
            yield self._step("barrier", report.barrier_cost, tuple(participants))
        except HermesError as exc:
            if isinstance(exc, FaultInjectedError):
                # The timeouts and backoff of the failed attempt are real
                # simulated time even though no records moved.
                report.copy_cost += exc.cost
            self._rollback(undo)
            self._close_window()
            commit_all(self.servers)
            self.telemetry.counter(
                "migration_aborts_total", "migrations aborted and rolled back"
            ).inc()
            self.telemetry.event(
                "migration_aborted",
                moves=plan.num_moves,
                rolled_back=report.vertices_moved,
                reason=type(exc).__name__,
                error=str(exc),
            )
            span.set_attribute("aborted", True)
            span.finish(duration=report.copy_cost + report.barrier_cost)
            raise MigrationAbortedError(exc, report) from exc

        # Atomic commit: the catalog flips for every move at once, so
        # queries now route to the fresh replicas while the originals
        # are being removed.  The migration participants update their
        # location caches as part of the commit; non-participants keep
        # stale entries that resolve via a forwarding hop on next use.
        # Past this point the journal will never be replayed: the window
        # closes and in-flight traversals are told to re-resolve.
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
        # Second pass: relationship record surgery + node removal.
        for move in plan.moves:
            cost_before = report.remove_cost
            self._remove_one(move, final_home, report)
            yield self._step(
                "remove", report.remove_cost - cost_before, (move.source,)
            )
        remove_span.set_attribute(
            "relationships_rewritten", report.relationships_rewritten
        )
        remove_span.finish(duration=report.remove_cost)

        # Telemetry is published only once the migration is past its
        # abort points, so an aborted attempt leaves the counters and the
        # payload histogram exactly as they were.
        for size in payload_sizes:
            self._payload_sizes.observe(size)
        self._vertices_moved.inc(report.vertices_moved)
        self._rels_transferred.inc(report.relationships_transferred)
        self._rels_rewritten.inc(report.relationships_rewritten)
        self._bytes.inc(report.bytes_transferred)
        self._phase_seconds["copy"].inc(report.copy_cost)
        self._phase_seconds["barrier"].inc(report.barrier_cost)
        self._phase_seconds["remove"].inc(report.remove_cost)
        span.set_attribute("vertices_moved", report.vertices_moved)
        span.finish(duration=report.total_cost)
        return report

    def _step(
        self, kind: str, cost: float, servers: Tuple[int, ...]
    ) -> MigrationStep:
        """The step about to be yielded, its writes committed first: one
        copied vertex is one log transaction on its target, one removal
        one on its source."""
        commit_all(self.servers)
        return MigrationStep(kind, cost, servers)

    def _close_window(self) -> None:
        """Retire the undo journal and the double-write window (commit
        and abort both end with no migration in flight)."""
        self.active_journal = None
        self._window.clear()
        self._window_final_home = None
        self._window_unswept.clear()

    def _final_placement(self, plan: MigrationPlan) -> Dict[int, int]:
        """Vertex -> server map *after* the plan completes."""
        placement = {move.vertex: move.target for move in plan.moves}
        return placement

    def _home_after(self, vertex: int, final_home: Dict[int, int]) -> int:
        override = final_home.get(vertex)
        if override is not None:
            return override
        return self.catalog.lookup(vertex)

    # ------------------------------------------------------------------
    # Step 1: copy
    # ------------------------------------------------------------------
    def _copy_one(
        self,
        move,
        final_home: Dict[int, int],
        report: MigrationReport,
        undo: List[Tuple],
        payload_sizes: List[int],
    ) -> None:
        """Replicate one moving vertex on its target server.

        Every store mutation appends its inverse to ``undo`` *after* it
        succeeds, so a failure at any point leaves a journal that undoes
        exactly the mutations that happened.
        """
        source = self.servers[move.source]
        target = self.servers[move.target]
        if not source.store.has_node(move.vertex):
            raise ClusterError(
                f"server {move.source} does not host vertex {move.vertex}"
            )
        payload = source.store.export_node(move.vertex)
        size = _payload_size(payload)
        payload_sizes.append(size)
        report.bytes_transferred += size
        report.copy_cost += self._transfer(move.source, move.target, size)
        report.vertices_moved += 1
        report.per_target[move.target] = report.per_target.get(move.target, 0) + 1

        target.store.import_node(payload)
        undo.append(("import", move.target, move.vertex))
        for rel in payload["relationships"]:
            self._install_relationship(target, move.vertex, rel, final_home, undo)
            report.relationships_transferred += 1

    def _transfer(self, src: int, dst: int, size: int) -> float:
        """One copy-step record shipment, retried under injected faults."""
        if self.network.fault_injector is None:
            return self.network.transfer(src, dst, size)
        cost, wasted = self.retry.call(
            lambda: self.network.transfer(src, dst, size),
            injector=self.network.fault_injector,
            on_retry=self._on_retry,
        )
        return cost + wasted

    def _on_retry(self, exc: FaultInjectedError, pause: float) -> None:
        self.telemetry.counter(
            "migration_retries_total",
            "copy/barrier network operations retried after an injected fault",
        ).inc()

    def _install_relationship(
        self,
        target: HermesServer,
        arriving: int,
        rel: Dict[str, Any],
        final_home: Dict[int, int],
        undo: List[Tuple],
    ) -> None:
        """Create or merge one relationship record on the target server."""
        rel_id = rel["rel_id"]
        src, dst = rel["src"], rel["dst"]
        other = dst if arriving == src else src
        other_home = self._home_after(other, final_home)
        here = target.server_id
        primary_here = self._home_after(src, final_home) == here
        both_local_eventually = other_home == here

        if target.store.has_relationship(rel_id):
            # Counterpart already present (other endpoint lives here or
            # arrived earlier in this copy step): link the new endpoint in
            # and reconcile the primary/ghost role.  A mid-window write
            # whose other endpoint lives on the target was already linked
            # into the arriving copy's chain by ``create_relationship``
            # (it links every local endpoint, available or not) — the
            # mirror then only journals the attach so an abort still
            # detaches it, without double-linking the chain.
            if not target.store.chain_contains(arriving, rel_id):
                target.store.attach_endpoint(rel_id, arriving)
            undo.append(("attach", target.server_id, rel_id, arriving))
            existing = target.store.relationship(rel_id)
            should_be_ghost = not (primary_here or both_local_eventually)
            if existing.ghost and not should_be_ghost:
                target.store.set_ghost(rel_id, False)
                undo.append(("ghost", target.server_id, rel_id, True, {}))
            elif not existing.ghost and should_be_ghost:
                # Downgrading drops the property chain; capture it so a
                # rollback can restore the record byte-for-byte.
                old_props = target.store.relationship_properties(rel_id)
                target.store.set_ghost(rel_id, True)
                undo.append(("ghost", target.server_id, rel_id, False, old_props))
            if not should_be_ghost:
                # Merge properties: the primary payload may arrive second
                # when both endpoints migrate to the same server.
                for key, value in rel.get("properties", {}).items():
                    had = key in target.store.relationship_properties(rel_id)
                    old = target.store.get_relationship_property(rel_id, key)
                    target.store.set_relationship_property(rel_id, key, value)
                    undo.append(
                        ("prop", target.server_id, rel_id, key, had, old)
                    )
            return

        ghost = not (primary_here or both_local_eventually)
        properties = rel.get("properties", {}) if not ghost else None
        target.store.create_relationship(
            rel_id, src, dst, ghost=ghost, properties=properties or None
        )
        undo.append(("create_rel", target.server_id, rel_id))

    # ------------------------------------------------------------------
    # Rollback (abort path)
    # ------------------------------------------------------------------
    def _rollback(self, undo: List[Tuple]) -> None:
        """Undo the copy step's journalled mutations, newest first.

        Reverse order matters: a vertex's relationship records are
        detached/deleted before its imported node record is removed, and
        property merges are unwound before ghost roles are restored.
        """
        for action in reversed(undo):
            kind, server_id = action[0], action[1]
            store = self.servers[server_id].store
            if kind == "prop":
                _, _, rel_id, key, had, old = action
                if had:
                    store.set_relationship_property(rel_id, key, old)
                else:
                    store.remove_relationship_property(rel_id, key)
            elif kind == "ghost":
                _, _, rel_id, old_ghost, old_props = action
                store.set_ghost(rel_id, old_ghost)
                for key, value in old_props.items():
                    store.set_relationship_property(rel_id, key, value)
            elif kind == "attach":
                _, _, rel_id, node_id = action
                store.detach_endpoint(rel_id, node_id)
            elif kind == "create_rel":
                store.delete_relationship(action[2])
            elif kind == "import":
                # By now every relationship installed for this vertex has
                # been unwound, so its chain is empty again.
                store.remove_node_record(action[2])

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------
    def _barrier(self, plan: MigrationPlan) -> float:
        """All participants confirm copy completion (no locks held)."""
        participants = {move.source for move in plan.moves}
        participants.update(move.target for move in plan.moves)
        cost = 0.0
        injector = self.network.fault_injector
        for server in participants:
            if injector is None:
                cost += self.network.broadcast(server, size=32)
            else:
                # A lost confirmation is re-broadcast; duplicates are
                # harmless (the barrier is idempotent by construction).
                confirmed, wasted = self.retry.call(
                    lambda s=server: self.network.broadcast(s, size=32),
                    injector=injector,
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
        """Retire one migrated vertex's source copy (post-commit, local)."""
        source = self.servers[move.source]
        store = source.store
        entries = list(
            store.neighbor_entries(move.vertex, include_unavailable=True)
        )
        for entry in entries:
            other = entry.neighbor
            other_here = (
                store.has_node(other)
                and self._home_after(other, final_home) == move.source
            )
            if other_here:
                # The edge now crosses partitions: keep the record for
                # the staying endpoint, null the migrated side, and
                # recompute its ghost role (primary follows src).
                store.detach_endpoint(entry.rel_id, move.vertex)
                record = store.relationship(entry.rel_id)
                should_be_ghost = (
                    self._home_after(record.src, final_home) != move.source
                )
                if record.ghost != should_be_ghost:
                    store.set_ghost(entry.rel_id, should_be_ghost)
                report.relationships_rewritten += 1
            else:
                store.delete_relationship(entry.rel_id)
                report.relationships_rewritten += 1
            report.remove_cost += self.network.local_visit()
        store.remove_node_record(move.vertex)
        report.remove_cost += self.network.local_visit()

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
        role and journalled into the live undo journal, so an aborted
        migration unwinds mirrored writes together with the copy-steps
        while the write itself stays durable on the source.  The
        shipment piggybacks on the migration channel and is charged no
        extra simulated cost.
        """
        target_id = self._window.get(vertex)
        if target_id is None or self.active_journal is None:
            return
        final_home = self._window_final_home or {}
        self._window_unswept.add(vertex)
        self._install_relationship(
            self.servers[target_id], vertex, rel, final_home, self.active_journal
        )

    def check_window_coherence(self) -> List[str]:
        """Audit the whole open double-write window (the simtest invariant).

        For every windowed vertex: the journal must be open, the target
        must hold a replica, the catalog must still route reads to the
        source (reads *forward* until commit), the source copy must
        still be available, and the two adjacency lists must agree —
        i.e. every write that landed during the window reached both
        sides.  Returns human-readable problems (empty when coherent).
        """
        return self._window_problems(self._window)

    def sweep_window_changes(self) -> List[str]:
        """The same audit over the windowed vertices changed since the
        previous call: the vertex a copy-step just added, the endpoints
        :meth:`mirror_edge` was called for — and, once the barrier has
        run, every windowed vertex, so a change no event announced is
        still caught before the catalog commits.  The per-event sweep
        of the concurrent engine; O(changes), not O(window)."""
        changed = self._window_unswept
        self._window_unswept = set()
        return self._window_problems(changed)

    def _window_problems(self, vertices: Iterable[int]) -> List[str]:
        problems: List[str] = []
        if self._window and not self.journal_open:
            problems.append("double-write window open without a live journal")
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
