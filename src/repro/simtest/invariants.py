"""Cluster-wide invariant auditor for the simulation harness.

Between schedule steps the cluster must sit in a *quiescent* state — no
migration in flight, no half-created edge, no leaked journal — so a
strong set of global invariants must hold regardless of which operations
succeeded, degraded or aborted along the way.  The auditor walks every
layer (stores, catalog, location caches, auxiliary data, telemetry,
migration executor) and reports each broken invariant by name.

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
    auxiliary data all agree with the mirror graph, and the number of
    distinct primary records equals the mirror edge count.
``aux-agreement``
    Auxiliary placement equals the catalog everywhere, and the
    per-partition weight totals sum to the per-vertex weights.
``location-cache-coherence``
    Every cached location entry points at a live catalogued vertex and a
    valid server, so a stale hint is always resolvable via at most one
    forward to the authoritative catalog.
``telemetry-conservation``
    Per-link bytes/messages sent equal bytes/messages received, and the
    registry's independent network counters match the legacy stats.
``undo-journal-closed``
    The migration executor's undo journal is closed (fully rolled back
    or past the commit point) — nothing to replay between steps.
``mirror-consistency``
    The cluster's own :meth:`~repro.cluster.hermes.HermesCluster.validate`
    deep check (adjacency chains, ghost conventions, aux counters).
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
    no operation is lost between the queue, the executor and the
    accountant.
``replica-staleness-bound``
    (Serving clusters only.)  No replica read ever served data older
    than the configured ``max_staleness``, and the replica placement
    the router reads from the auxiliary data agrees with a from-scratch
    one-hop placement computed against the catalog's partitioning —
    aux/catalog drift, as seen by the router, shows up here.
``workload-model-conservation``
    (Clusters with an attached workload model only.)  Every edge and
    link heat is non-negative, the model clock never trails the cluster
    clock, total decayed heat never exceeds the undecayed observed
    weight (decay only shrinks), the model's observation count matches
    the engine's ``workload_model_observations_total`` counter, and
    after folding in the network stats the model's per-link totals
    equal the send-side message/byte counters exactly.
``event-clock-monotonic``
    (Clusters that ran interleaved schedules only.)  Per server, the
    concurrent scheduler's recorded event timeline never runs
    backwards: successive event starts/finishes are non-decreasing, no
    event finishes before it starts, and the server's free-at
    bookkeeping equals its last recorded finish.
``double-write-coherence``
    (Clusters that ran interleaved schedules only.)  Every mid-step
    double-write coherence sweep came back clean (windowed vertices
    readable at the source, mirrored verbatim at the target, journal
    open while the window is): after each event over the vertices it
    changed, at the barrier over the whole window.  And no double-write
    window survives past the step that opened it — online migrations
    commit or roll back within their schedule step; a survivor is
    swept whole once more here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cluster import server as server_states
from repro.cluster.replication import OneHopReplicator
from repro.exceptions import ClusterError, InvariantViolationError
from repro.telemetry.conservation import (
    network_conservation_violations,
    registry_conservation_violations,
)

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

    def audit(self, cluster) -> List[InvariantViolation]:
        """All violations present right now (empty when healthy)."""
        violations: List[InvariantViolation] = []
        violations += self._check_membership(cluster)
        violations += self._check_primaries(cluster)
        violations += self._check_conservation(cluster)
        violations += self._check_aux(cluster)
        violations += self._check_location_cache(cluster)
        violations += self._check_telemetry(cluster)
        violations += self._check_journal(cluster)
        violations += self._check_mirror(cluster)
        violations += self._check_drain(cluster)
        violations += self._check_recovery(cluster)
        violations += self._check_queue_conservation(cluster)
        violations += self._check_replica_staleness(cluster)
        violations += self._check_workload_model(cluster)
        violations += self._check_event_clock(cluster)
        violations += self._check_double_write(cluster)
        return violations

    def check(self, cluster) -> None:
        """Audit and raise :class:`InvariantViolationError` on failure."""
        violations = self.audit(cluster)
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

    def _check_primaries(self, cluster) -> List[InvariantViolation]:
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
            if not cluster.graph.has_edge(*edge):
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

    def _check_conservation(self, cluster) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        available_total = sum(
            len(available) for available, _ in cluster.membership()
        )
        graph_vertices = cluster.graph.num_vertices
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
        if len(primary_rels) != cluster.graph.num_edges:
            out.append(
                InvariantViolation(
                    "vertex-edge-conservation",
                    f"{len(primary_rels)} primary relationship records for "
                    f"{cluster.graph.num_edges} logical edges",
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
        problems = network_conservation_violations(cluster.network.stats)
        problems += registry_conservation_violations(
            cluster.telemetry, cluster.network
        )
        return [
            InvariantViolation("telemetry-conservation", detail)
            for detail in problems
        ]

    def _check_journal(self, cluster) -> List[InvariantViolation]:
        if cluster._executor.journal_open:
            return [
                InvariantViolation(
                    "undo-journal-closed",
                    "migration executor's undo journal is open between steps "
                    f"({len(cluster._executor.active_journal)} entries)",
                )
            ]
        return []

    def _check_mirror(self, cluster) -> List[InvariantViolation]:
        try:
            cluster.validate()
        except ClusterError as exc:
            return [InvariantViolation("mirror-consistency", str(exc))]
        return []

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
        return out

    def _check_replica_staleness(self, cluster) -> List[InvariantViolation]:
        frontend = getattr(cluster, "serving", None)
        if frontend is None:
            return []
        out: List[InvariantViolation] = []
        bound = frontend.config.max_staleness
        served = frontend.sync.max_served_staleness
        if served > bound + 1e-12:
            out.append(
                InvariantViolation(
                    "replica-staleness-bound",
                    f"a replica read served data {served * 1e3:.3f} ms "
                    f"stale, past the {bound * 1e3:.3f} ms bound",
                )
            )
        # The view over the auxiliary data must agree with a
        # from-scratch placement over the catalog; a fresh replicator
        # keeps counters off the cluster's registry.
        expected = OneHopReplicator().placements(
            cluster.graph, cluster.partitioning()
        )
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
        if model.now < cluster.now - 1e-12:
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
        counted = cluster.telemetry.registry.total(
            "workload_model_observations_total"
        )
        if counted != model.observations:
            out.append(
                InvariantViolation(
                    "workload-model-conservation",
                    f"model recorded {model.observations} observations but "
                    f"the engine counter says {counted:g}",
                )
            )
        # Folding the network stats in (idempotent) must land the model's
        # link totals exactly on the send-side counters.  After a counter
        # reset (a restarted server's stats re-started from zero) the
        # model's accumulated totals legitimately exceed the live
        # counters, so the equality only holds reset-free.
        model.ingest_network(cluster.network.stats)
        if model.link_resets:
            return out
        sent_messages = sum(
            link.messages for link in cluster.network.stats.per_link.values()
        )
        sent_bytes = sum(
            link.bytes for link in cluster.network.stats.per_link.values()
        )
        if model.link_messages_total != sent_messages:
            out.append(
                InvariantViolation(
                    "workload-model-conservation",
                    f"model link messages {model.link_messages_total:g} != "
                    f"network messages sent {sent_messages}",
                )
            )
        if model.link_bytes_total != sent_bytes:
            out.append(
                InvariantViolation(
                    "workload-model-conservation",
                    f"model link bytes {model.link_bytes_total:g} != "
                    f"network bytes sent {sent_bytes}",
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
