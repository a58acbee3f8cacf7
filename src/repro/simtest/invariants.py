"""Cluster-wide invariant auditor for the simulation harness.

Between schedule steps the cluster must sit in a *quiescent* state — no
migration in flight, no half-created edge, no leaked window — so a
strong set of global invariants must hold regardless of which operations
succeeded, degraded or aborted along the way.  The auditor walks every
layer (stores, catalog, location caches, auxiliary data, telemetry,
migration executor) and reports each broken invariant by name.

The cluster keeps no copy of the logical graph, so the auditor takes one
as its oracle: ``audit(cluster, reference)``, where ``reference`` is the
simtest runner's graph — the scenario's input graph plus every write the
cluster reported done.  Without one, the graph-level invariants compare
the stores with the cluster's own view (``cluster.graph``), whose edge
count comes from auxiliary counters the stores do not write.  Below,
"the logical graph" is the reference when given, else the view.

The invariant catalog (names match :class:`InvariantViolation.invariant`
and TESTING.md):

``catalog-store-membership``
    Every catalogued vertex is an *available* node on exactly its home
    store; every available store node is catalogued to that server; no
    store holds an unavailable node between steps (the migration remove
    step completes inside a single schedule step).
``one-primary-per-edge``
    Each relationship ID appears on exactly the endpoint-host set, with
    exactly one non-ghost (primary) copy, hosted on the *source*
    endpoint's server; record endpoints correspond to a real edge of the
    logical graph, and no edge is represented by two distinct rel IDs.
``vertex-edge-conservation``
    Vertices and edges are conserved across migrations, rollbacks and
    degraded writes: the available-node total, the catalog and the
    auxiliary data all agree with the logical graph's vertex count, and
    the number of distinct primary records equals its edge count.
``aux-agreement``
    Auxiliary placement equals the catalog everywhere, and the
    per-partition weight totals sum to the per-vertex weights.
``location-cache-coherence``
    Every cached location entry points at a live catalogued vertex and a
    valid server, so a stale hint is always resolvable via at most one
    forward to the authoritative catalog.
``telemetry-conservation``
    The network's send-side per-link ledger holds no negative or
    same-server traffic, and its aggregates equal the registry's
    independently incremented per-kind network counters.
``undo-journal-closed``
    The migration executor's double-write window, the list of copies an
    abort retires, is closed (rolled back or past the commit point)
    between steps.
``mirror-consistency``
    The cluster's own :meth:`~repro.cluster.hermes.HermesCluster.validate`
    deep check (adjacency chains, ghost conventions, aux counters), and,
    against a reference, the catalog holds exactly the reference's
    vertices and the view lists exactly each one's reference neighbours.
``drain-completeness``
    Elastic membership is quiescent between steps: no server is stuck
    in a transitional state (joining/draining/recovering), and every
    *detached* server owns zero catalogued vertices, holds an empty
    store, and appears in no location cache — neither as a cached home
    for some vertex nor as a viewer with leftover entries of its own.
``recovery-fidelity``
    Every crash-recovery episode on record rebuilt exactly what the
    server held when it crashed: the logical snapshot of the live store
    taken at the crash and that of the recovered store, in each
    :attr:`~repro.cluster.hermes.HermesCluster.recovery_log` entry, are
    equal, re-checked on every sweep — so a committed write missing from
    the log is caught, not replayed on both sides.
``queue-conservation``
    (Serving clusters only.)  The front door's admission ledger
    balances: submitted == admitted + shed, admitted == completed +
    in_flight, and the per-reason shed counts sum to the shed total —
    no operation is lost between the queue and the executor.  The
    cluster's per-tenant admitted and shed series, counted on their own
    path, sum to the queue's admitted and shed totals.
``replica-staleness-bound``
    (Serving clusters only.)  No replica read ever served data older
    than the configured ``max_staleness``, and the replica placement
    the router reads from the auxiliary data agrees with a from-scratch
    one-hop placement of the logical graph computed against the
    catalog's partitioning — aux/catalog drift, as seen by the router,
    shows up here.
``workload-model-conservation``
    (Clusters with an attached workload model only.)  Every edge heat
    is non-negative, the model clock never trails the cluster clock,
    total decayed heat never exceeds the undecayed observed weight
    (decay only shrinks), and the model's observation count matches
    the growth of this cluster's ``workload_model_observations_total``
    series since the model was attached.
``event-clock-monotonic``
    (Clusters that ran interleaved schedules only.)  Per server, the
    concurrent scheduler's recorded event timeline never runs
    backwards: successive event starts/finishes are non-decreasing, no
    event finishes before it starts, and the server's free-at
    bookkeeping equals its last recorded finish.
``double-write-coherence``
    (Clusters that ran interleaved schedules only.)  Every mid-step
    double-write coherence sweep came back clean (windowed vertices
    readable at the source, mirrored verbatim at the target): after
    each event over the vertices it changed, at the barrier over the
    whole window.  And no double-write window survives past the step
    that opened it — online migrations commit or roll back within their
    schedule step; a survivor is swept whole once more here.
``adjacency-view-coherence``
    Every filled entry of a store's adjacency view belongs to an
    available node and equals, in order, the neighbour ids a fresh walk
    of that node's relationship chain gives, and every id in a store's
    availability set is an in-use, available node of that store — no
    write skipped the invalidation that should have dropped it.
``hop-plans-fresh``
    Every hop plan whose array is still its store's view entry equals a
    fresh build from its server's current cache entries — no entry
    changed behind the mutators that drop the plans built from it.

A check that cannot read the cluster (a view read that finds no home
copy, an untracked vertex) reports that as a violation of its invariant
instead of aborting the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.cluster import server as server_states
from repro.cluster.catalog import hop_plan
from repro.cluster.replication import OneHopReplicator
from repro.graph.adjacency import SocialGraph
from repro.exceptions import (
    ClusterError,
    HermesError,
    InvariantViolationError,
    StorageError,
    VertexUnavailableError,
)
from repro.telemetry.conservation import registry_conservation_violations

#: every invariant name the auditor can emit, in audit order
INVARIANT_NAMES = (
    "catalog-store-membership",
    "one-primary-per-edge",
    "vertex-edge-conservation",
    "aux-agreement",
    "location-cache-coherence",
    "telemetry-conservation",
    "undo-journal-closed",
    "mirror-consistency",
    "drain-completeness",
    "recovery-fidelity",
    "queue-conservation",
    "replica-staleness-bound",
    "workload-model-conservation",
    "event-clock-monotonic",
    "double-write-coherence",
    "adjacency-view-coherence",
    "hop-plans-fresh",
)


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant: which one, and a human-readable detail."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"

    def to_dict(self) -> Dict[str, str]:
        return {"invariant": self.invariant, "detail": self.detail}


class InvariantAuditor:
    """Checks every cluster-wide invariant against a quiescent cluster."""

    def audit(
        self, cluster, reference: Optional[SocialGraph] = None
    ) -> List[InvariantViolation]:
        """All violations present right now (empty when healthy), checked
        against ``reference`` — an independent copy of the logical graph
        — when one is given, else against the cluster's own view."""
        logical = cluster.graph if reference is None else reference
        checks = (
            self._check_membership,
            partial(self._check_primaries, logical=logical),
            partial(self._check_conservation, logical=logical),
            self._check_aux,
            self._check_location_cache,
            self._check_telemetry,
            self._check_journal,
            partial(self._check_mirror, reference=reference),
            self._check_drain,
            self._check_recovery,
            self._check_queue_conservation,
            partial(self._check_replica_staleness, logical=logical),
            self._check_workload_model,
            self._check_event_clock,
            self._check_double_write,
            self._check_adjacency_view,
            self._check_hop_plans,
        )
        violations: List[InvariantViolation] = []
        for invariant, check in zip(INVARIANT_NAMES, checks):
            try:
                violations += check(cluster)
            except HermesError as exc:
                violations.append(
                    InvariantViolation(
                        invariant, f"the sweep could not read the cluster: {exc}"
                    )
                )
        return violations

    def check(self, cluster, reference: Optional[SocialGraph] = None) -> None:
        """Audit and raise :class:`InvariantViolationError` on failure."""
        violations = self.audit(cluster, reference)
        if violations:
            raise InvariantViolationError(violations)

    # ------------------------------------------------------------------
    def _check_membership(self, cluster) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        catalogued = cluster.catalog.as_mapping()
        seen = set()
        for server, (available, unavailable) in enumerate(cluster.membership()):
            if unavailable:
                out.append(
                    InvariantViolation(
                        "catalog-store-membership",
                        f"server {server} holds unavailable nodes between "
                        f"steps: {sorted(unavailable)[:5]}",
                    )
                )
            for vertex in available:
                home = catalogued.get(vertex)
                if home != server:
                    out.append(
                        InvariantViolation(
                            "catalog-store-membership",
                            f"vertex {vertex} stored on server {server} but "
                            f"catalogued to {home}",
                        )
                    )
                seen.add(vertex)
        for vertex, home in catalogued.items():
            if vertex not in seen:
                out.append(
                    InvariantViolation(
                        "catalog-store-membership",
                        f"vertex {vertex} catalogued to server {home} but "
                        f"available on no store",
                    )
                )
        return out

    def _check_primaries(self, cluster, logical) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        copies: Dict[int, List[Tuple[int, object]]] = {}
        for server in range(cluster.num_servers):
            for record in cluster.servers[server].store.relationships.records():
                copies.setdefault(record.rel_id, []).append((server, record))
        edge_rels: Dict[Tuple[int, int], int] = {}
        for rel_id, holders in sorted(copies.items()):
            record = holders[0][1]
            endpoints = {record.src, record.dst}
            if any(
                {rec.src, rec.dst} != endpoints for _, rec in holders[1:]
            ):
                out.append(
                    InvariantViolation(
                        "one-primary-per-edge",
                        f"rel {rel_id} has divergent endpoints across servers",
                    )
                )
                continue
            edge = (min(endpoints), max(endpoints))
            if not logical.has_edge(*edge):
                out.append(
                    InvariantViolation(
                        "one-primary-per-edge",
                        f"rel {rel_id} connects {edge} which is not a logical edge",
                    )
                )
            if edge in edge_rels and edge_rels[edge] != rel_id:
                out.append(
                    InvariantViolation(
                        "one-primary-per-edge",
                        f"edge {edge} stored under two rel IDs "
                        f"({edge_rels[edge]} and {rel_id})",
                    )
                )
            edge_rels.setdefault(edge, rel_id)
            try:
                hosts = {cluster.catalog.lookup(v) for v in endpoints}
                src_host = cluster.catalog.lookup(record.src)
            except ClusterError as exc:
                out.append(
                    InvariantViolation(
                        "one-primary-per-edge",
                        f"rel {rel_id} references uncatalogued vertex: {exc}",
                    )
                )
                continue
            holder_hosts = {server for server, _ in holders}
            if holder_hosts != hosts:
                out.append(
                    InvariantViolation(
                        "one-primary-per-edge",
                        f"rel {rel_id} stored on servers {sorted(holder_hosts)}"
                        f" but endpoints live on {sorted(hosts)}",
                    )
                )
            primaries = [server for server, rec in holders if not rec.ghost]
            if len(primaries) != 1:
                out.append(
                    InvariantViolation(
                        "one-primary-per-edge",
                        f"rel {rel_id} has {len(primaries)} primary copies "
                        f"(on servers {primaries})",
                    )
                )
            elif primaries[0] != src_host:
                out.append(
                    InvariantViolation(
                        "one-primary-per-edge",
                        f"rel {rel_id} primary on server {primaries[0]} but "
                        f"src vertex {record.src} lives on {src_host}",
                    )
                )
        return out

    def _check_conservation(self, cluster, logical) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        available_total = sum(
            len(available) for available, _ in cluster.membership()
        )
        graph_vertices = logical.num_vertices
        catalog_vertices = len(cluster.catalog.as_mapping())
        aux_vertices = cluster.aux.num_vertices
        if not (
            available_total == graph_vertices == catalog_vertices == aux_vertices
        ):
            out.append(
                InvariantViolation(
                    "vertex-edge-conservation",
                    f"vertex counts diverge: stores={available_total} "
                    f"graph={graph_vertices} catalog={catalog_vertices} "
                    f"aux={aux_vertices}",
                )
            )
        primary_rels = set()
        for server in range(cluster.num_servers):
            for record in cluster.servers[server].store.relationships.records():
                if not record.ghost:
                    primary_rels.add(record.rel_id)
        if len(primary_rels) != logical.num_edges:
            out.append(
                InvariantViolation(
                    "vertex-edge-conservation",
                    f"{len(primary_rels)} primary relationship records for "
                    f"{logical.num_edges} logical edges",
                )
            )
        return out

    def _check_aux(self, cluster) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        for vertex in cluster.graph.vertices():
            home = cluster.catalog.lookup(vertex)
            if cluster.aux.partition_of(vertex) != home:
                out.append(
                    InvariantViolation(
                        "aux-agreement",
                        f"aux places vertex {vertex} on "
                        f"{cluster.aux.partition_of(vertex)}, catalog on {home}",
                    )
                )
        total = sum(cluster.aux.partition_weights)
        per_vertex = sum(
            cluster.aux.weight_of(vertex) for vertex in cluster.aux.vertices()
        )
        if not math.isclose(total, per_vertex, rel_tol=1e-9, abs_tol=1e-6):
            out.append(
                InvariantViolation(
                    "aux-agreement",
                    f"partition weight total {total} != per-vertex sum {per_vertex}",
                )
            )
        return out

    def _check_location_cache(self, cluster) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        for server, vertex, host in cluster.location_cache.all_entries():
            if vertex not in cluster.catalog:
                out.append(
                    InvariantViolation(
                        "location-cache-coherence",
                        f"server {server} caches vertex {vertex} which is "
                        f"not in the catalog (unresolvable hint)",
                    )
                )
            elif not 0 <= host < cluster.num_servers:
                out.append(
                    InvariantViolation(
                        "location-cache-coherence",
                        f"server {server} caches vertex {vertex} on "
                        f"invalid server {host}",
                    )
                )
        return out

    def _check_telemetry(self, cluster) -> List[InvariantViolation]:
        problems = registry_conservation_violations(
            cluster.telemetry, cluster.network
        )
        return [
            InvariantViolation("telemetry-conservation", detail)
            for detail in problems
        ]

    def _check_journal(self, cluster) -> List[InvariantViolation]:
        if cluster._executor.window_open:
            return [
                InvariantViolation(
                    "undo-journal-closed",
                    "migration executor's double-write window is open between "
                    f"steps ({len(cluster._executor.window_vertices)} copies)",
                )
            ]
        return []

    def _check_mirror(
        self, cluster, reference: Optional[SocialGraph]
    ) -> List[InvariantViolation]:
        try:
            cluster.validate()
        except ClusterError as exc:
            return [InvariantViolation("mirror-consistency", str(exc))]
        if reference is None:
            return []
        out: List[InvariantViolation] = []
        catalogued = set(cluster.catalog.vertices())
        expected = set(reference.vertices())
        if catalogued != expected:
            out.append(
                InvariantViolation(
                    "mirror-consistency",
                    f"the catalog lacks {sorted(expected - catalogued)[:5]} and "
                    f"adds {sorted(catalogued - expected)[:5]} against the "
                    f"reference graph",
                )
            )
        view = cluster.graph
        wrong = [
            vertex
            for vertex in sorted(expected & catalogued)
            if sorted(view.neighbors(vertex)) != sorted(reference.neighbors(vertex))
        ]
        if wrong:
            out.append(
                InvariantViolation(
                    "mirror-consistency",
                    f"{len(wrong)} vertices list other neighbours in the stores "
                    f"than in the reference graph (first: {wrong[:5]})",
                )
            )
        return out

    # ------------------------------------------------------------------
    # Elastic-membership invariants
    # ------------------------------------------------------------------
    def _check_drain(self, cluster) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        transitional = (
            server_states.JOINING,
            server_states.DRAINING,
            server_states.RECOVERING,
        )
        detached = set()
        for server in cluster.servers:
            state = getattr(server, "state", server_states.ACTIVE)
            if state in transitional:
                out.append(
                    InvariantViolation(
                        "drain-completeness",
                        f"server {server.server_id} is mid-transition "
                        f"({state}) between steps",
                    )
                )
            elif state == server_states.DETACHED:
                detached.add(server.server_id)
        for server_id in sorted(detached):
            owned = sorted(cluster.catalog.vertices_on(server_id))
            if owned:
                out.append(
                    InvariantViolation(
                        "drain-completeness",
                        f"detached server {server_id} still owns "
                        f"{len(owned)} catalogued vertices "
                        f"(first: {owned[:5]})",
                    )
                )
            available, unavailable = cluster.servers[server_id].store.membership()
            if available or unavailable:
                out.append(
                    InvariantViolation(
                        "drain-completeness",
                        f"detached server {server_id}'s store still holds "
                        f"{len(available)} available / {len(unavailable)} "
                        f"unavailable nodes",
                    )
                )
        if detached:
            for viewer, vertex, host in cluster.location_cache.all_entries():
                if host in detached:
                    out.append(
                        InvariantViolation(
                            "drain-completeness",
                            f"server {viewer} caches vertex {vertex} on "
                            f"detached server {host}",
                        )
                    )
                elif viewer in detached:
                    out.append(
                        InvariantViolation(
                            "drain-completeness",
                            f"detached server {viewer} still holds a cache "
                            f"entry for vertex {vertex}",
                        )
                    )
        return out

    def _check_recovery(self, cluster) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        for index, episode in enumerate(getattr(cluster, "recovery_log", [])):
            if episode["pre"] != episode["post"]:
                out.append(
                    InvariantViolation(
                        "recovery-fidelity",
                        f"recovery episode {index} (server "
                        f"{episode['server']}) rebuilt a store that differs "
                        f"from the one that crashed",
                    )
                )
        return out

    # ------------------------------------------------------------------
    # Serving-layer invariants (no-ops for clusters without a front door)
    # ------------------------------------------------------------------
    def _check_queue_conservation(self, cluster) -> List[InvariantViolation]:
        frontend = getattr(cluster, "serving", None)
        if frontend is None:
            return []
        out: List[InvariantViolation] = []
        snap = frontend.conservation()
        if snap["submitted"] != snap["admitted"] + snap["shed"]:
            out.append(
                InvariantViolation(
                    "queue-conservation",
                    f"submitted {snap['submitted']} != admitted "
                    f"{snap['admitted']} + shed {snap['shed']}",
                )
            )
        if snap["admitted"] != snap["completed"] + snap["in_flight"]:
            out.append(
                InvariantViolation(
                    "queue-conservation",
                    f"admitted {snap['admitted']} != completed "
                    f"{snap['completed']} + in_flight {snap['in_flight']}",
                )
            )
        by_reason = sum(snap["shed_by_reason"].values())
        if by_reason != snap["shed"]:
            out.append(
                InvariantViolation(
                    "queue-conservation",
                    f"per-reason shed counts sum to {by_reason}, "
                    f"shed total is {snap['shed']}",
                )
            )
        registry = frontend.telemetry.registry
        for outcome in ("admitted", "shed"):
            tenants = registry.total(
                "tenant_ops_total", cluster=cluster.cluster_id, outcome=outcome
            )
            if tenants != snap[outcome]:
                out.append(
                    InvariantViolation(
                        "queue-conservation",
                        f"per-tenant {outcome} counts sum to {tenants:g}, "
                        f"the queue's {outcome} total is {snap[outcome]}",
                    )
                )
        return out

    def _check_replica_staleness(
        self, cluster, logical
    ) -> List[InvariantViolation]:
        frontend = getattr(cluster, "serving", None)
        if frontend is None:
            return []
        out: List[InvariantViolation] = []
        bound = frontend.sync.max_staleness
        served = frontend.sync.max_served_staleness
        if served > bound:
            out.append(
                InvariantViolation(
                    "replica-staleness-bound",
                    f"a replica read served data {served / 1e6:.3f} ms "
                    f"stale, past the {bound / 1e6:.3f} ms bound",
                )
            )
        # The view over the auxiliary data must agree with a
        # from-scratch placement over the catalog; a fresh replicator
        # keeps counters off the cluster's registry.
        expected = OneHopReplicator().placements(logical, cluster.partitioning())
        actual = frontend.index.placements()
        expected = {v: set(parts) for v, parts in expected.items() if parts}
        actual = {v: set(parts) for v, parts in actual.items() if parts}
        if expected != actual:
            drifted = sorted(
                v
                for v in set(expected) | set(actual)
                if expected.get(v, set()) != actual.get(v, set())
            )
            out.append(
                InvariantViolation(
                    "replica-staleness-bound",
                    f"replica view of the auxiliary data disagrees with a "
                    f"fresh one-hop placement for {len(drifted)} vertices "
                    f"(first: {drifted[:5]})",
                )
            )
        return out

    # ------------------------------------------------------------------
    # Workload-model invariants (no-ops without an attached model)
    # ------------------------------------------------------------------
    def _check_workload_model(self, cluster) -> List[InvariantViolation]:
        model = getattr(cluster, "workload_model", None)
        if model is None:
            return []
        out: List[InvariantViolation] = []
        if model.now < cluster.now:
            out.append(
                InvariantViolation(
                    "workload-model-conservation",
                    f"model clock {model.now} trails cluster clock {cluster.now}",
                )
            )
        negative = [
            (key, heat) for key, heat in model.edge_heats().items() if heat < 0.0
        ]
        if negative:
            out.append(
                InvariantViolation(
                    "workload-model-conservation",
                    f"{len(negative)} edges carry negative heat "
                    f"(first: {negative[:3]})",
                )
            )
        total = model.total_heat()
        if total > model.observed_weight + 1e-6:
            out.append(
                InvariantViolation(
                    "workload-model-conservation",
                    f"decayed heat total {total} exceeds observed weight "
                    f"{model.observed_weight} — decay must only shrink heat",
                )
            )
        counted = cluster.telemetry.registry.value(
            "workload_model_observations_total", cluster=cluster.cluster_id
        ) - cluster.workload_model_baseline
        if counted != model.observations:
            out.append(
                InvariantViolation(
                    "workload-model-conservation",
                    f"model recorded {model.observations} observations but "
                    f"the engine counter says {counted:g}",
                )
            )
        return out

    # ------------------------------------------------------------------
    # Concurrency invariants (no-ops without a concurrent engine)
    # ------------------------------------------------------------------
    def _check_event_clock(self, cluster) -> List[InvariantViolation]:
        engine = getattr(cluster, "_concurrent_engine", None)
        if engine is None:
            return []
        return [
            InvariantViolation("event-clock-monotonic", detail)
            for detail in engine.monotonicity_violations()
        ]

    def _check_double_write(self, cluster) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        engine = getattr(cluster, "_concurrent_engine", None)
        if engine is not None:
            out += [
                InvariantViolation("double-write-coherence", detail)
                for detail in engine.coherence_violations
            ]
        # Window lifetime is bounded by the schedule step that opened it
        # whether or not an engine is attached: between steps every
        # online migration has committed or rolled back.
        if cluster._executor.window_open:
            leaked = sorted(cluster._executor.window_vertices.items())
            out.append(
                InvariantViolation(
                    "double-write-coherence",
                    f"double-write window still open between steps for "
                    f"{len(leaked)} vertices (first: {leaked[:5]})",
                )
            )
            out += [
                InvariantViolation("double-write-coherence", detail)
                for detail in cluster._executor.check_window_coherence()
            ]
        return out

    # ------------------------------------------------------------------
    # Storage read plane
    # ------------------------------------------------------------------
    def _check_adjacency_view(self, cluster) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        for server in cluster.servers:
            store = server.store
            for node_id, neighbors in sorted(store.adjacency.items()):
                try:
                    walked = [
                        entry.neighbor for entry in store.neighbor_entries(node_id)
                    ]
                except (StorageError, VertexUnavailableError) as exc:
                    # Missing, unavailable or damaged: nothing to serve.
                    walked = f"no answer ({exc})"
                if list(neighbors) != walked:
                    out.append(
                        InvariantViolation(
                            "adjacency-view-coherence",
                            f"server {server.server_id}'s adjacency view holds "
                            f"{list(neighbors)} for node {node_id}; its chain "
                            f"walk gives {walked}",
                        )
                    )
            for node_id in sorted(store.available):
                try:
                    record = store.nodes.get(node_id)
                    state = "missing" if record is None else "unavailable"
                except StorageError as exc:
                    record, state = None, f"unreadable ({exc})"
                if record is None or not record.available:
                    out.append(
                        InvariantViolation(
                            "adjacency-view-coherence",
                            f"server {server.server_id}'s availability set "
                            f"holds node {node_id}; its node record is {state}",
                        )
                    )
        return out

    def _check_hop_plans(self, cluster) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        cache = cluster.location_cache
        for server_id, server in enumerate(cluster.servers):
            entries = cache.entries_on(server_id)
            for vertex, plan in sorted(cache.plans_on(server_id).items()):
                # A plan that outlived its array is never served again.
                hosts = list(map(entries.get, plan.neighbors))
                if server.store.adjacency.get(vertex) is plan.neighbors and (
                    plan != hop_plan(plan.neighbors, hosts)
                ):
                    detail = f"server {server_id}'s plan of {vertex} names {plan.hosts}"
                    out.append(
                        InvariantViolation("hop-plans-fresh", f"{detail}, not {hosts}")
                    )
        return out
