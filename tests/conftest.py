"""Shared fixtures and scenario builders.

Beyond the small deterministic graph/cluster fixtures, this module hosts
the scenario builders the cluster test modules used to duplicate:
explicitly-placed clusters (:func:`build_placed_cluster`), a new
vertex id placed on a chosen server (:func:`new_vertex_on`), direct
migrations (:func:`migrate_moves`), the replica-placement oracle and view
(:func:`oracle_placements`, :func:`view_placements`), deep multi-layer state snapshots
(:func:`deep_snapshot`), physical store images for the differential
tests (:func:`store_state`), metric dumps (:func:`telemetry_snapshot`),
record-index call counting for the count guards (:func:`count_index_calls`),
hand-draining of step generators (:func:`drain`), the per-entry traversal
cost model (:func:`per_entry_model`), canned fault plans (:func:`link_down_plan`,
:func:`crash_plan`) and the :class:`FixedPartitioner` test double.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.cluster import network
from repro.cluster.faults import CrashWindow, FaultPlan
from repro.cluster.hermes import HermesCluster
from repro.cluster.replication import OneHopReplicator
from repro.core.config import RepartitionerConfig
from repro.core.migration import build_migration_plan
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.storage.records import FixedRecordStore

#: ``--hypothesis-profile sweep``: the wide CI sweep for property tests
#: that take ``max_examples`` from the profile (the adjacency-view
#: differential in ``tests/storage/test_read_frontier.py``, the
#: traversal differential in ``tests/cluster/test_traversal_differential.py``,
#: the phase-1 differential in ``tests/core/test_phase1_columns_differential.py``,
#: the drawn chain-write differentials in
#: ``tests/cluster/test_migration_differential.py``, the drawn bulk-load
#: differentials in ``tests/cluster/test_load_differential.py``, the
#: drawn bad-input properties in ``tests/cluster/test_bad_input.py`` and
#: ``tests/serving/test_frontend.py`` and the rollback-atomicity property
#: ``test_aborted_migration_restores_state_exactly`` in
#: ``tests/cluster/test_cluster_properties.py``).
settings.register_profile("sweep", max_examples=2000)


def make_random_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    max_weight: float = 1.0,
) -> SocialGraph:
    """Deterministic Erdos-Renyi-ish graph for structural tests."""
    rng = random.Random(seed)
    graph = SocialGraph()
    for vertex in range(num_vertices):
        weight = 1.0 if max_weight == 1.0 else rng.uniform(1.0, max_weight)
        graph.add_vertex(vertex, weight=weight)
    attempts = 0
    while graph.num_edges < num_edges and attempts < 50 * num_edges:
        attempts += 1
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def build_placed_cluster(graph, placement, num_servers=3, **kwargs):
    """Cluster loaded with an explicit ``{vertex: server}`` placement."""
    partitioning = Partitioning.from_mapping(placement, num_partitions=num_servers)
    return HermesCluster.from_graph(
        graph, num_servers=num_servers, partitioning=partitioning, **kwargs
    )


def new_vertex_on(cluster, server, start):
    """The first id from ``start`` up that is not catalogued and that the
    cluster's hash placement puts on ``server``."""
    vertex = start
    while vertex in cluster.catalog or cluster.placement_target(vertex) != server:
        vertex += 1
    return vertex


def migrate_moves(cluster, moves):
    """Run a physical migration directly (keeping aux in sync first,
    the way repartitioning phase 1 normally would)."""
    plan = build_migration_plan(moves)
    for vertex, (_, target) in moves.items():
        cluster.aux.apply_move(vertex, target, cluster.graph.neighbors(vertex))
    return cluster._executor.execute(plan)


def oracle_placements(cluster):
    """Non-empty entries of the from-scratch one-hop replica placement
    over the catalog's partitioning (the oracle the replica view is
    held to)."""
    fresh = OneHopReplicator().placements(cluster.graph, cluster.partitioning())
    return {vertex: parts for vertex, parts in fresh.items() if parts}


def view_placements(frontend):
    """Non-empty entries of the front door's replica view."""
    placements = frontend.index.placements()
    return {vertex: parts for vertex, parts in placements.items() if parts}


class FixedPartitioner:
    """Static partitioner returning a fixed mapping (test double)."""

    def __init__(self, mapping):
        self.mapping = mapping

    def partition(self, graph, num_partitions):
        return Partitioning.from_mapping(
            self.mapping, num_partitions=num_partitions
        )


def link_down_plan(src=0, dst=1):
    """A fault plan dropping every message on one directed link."""
    return FaultPlan(link_loss={(src, dst): 1.0})


def crash_plan(server, start=0, end=10**18, **kwargs):
    """A fault plan with one crash window in simulated ns (default: down
    forever)."""
    return FaultPlan(
        crash_windows=(CrashWindow(server=server, start=start, end=end),),
        **kwargs,
    )


def deep_snapshot(cluster):
    """Logical state of every layer: stores, catalog, auxiliary data.

    Physical record IDs of re-created property records may legitimately
    differ after a rollback, so properties are compared as dicts while
    node/relationship structure is compared field by field.
    """
    servers = []
    for server in cluster.servers:
        store = server.store
        nodes = {}
        for node_id in sorted(store.node_ids()):
            record = store.node(node_id)
            nodes[node_id] = {
                "weight": record.weight,
                "available": record.available,
                "properties": store.node_properties(node_id)
                if record.available
                else None,
                "chain": sorted(
                    (entry.neighbor, entry.rel_id, entry.ghost)
                    for entry in store.neighbor_entries(
                        node_id, include_unavailable=True
                    )
                ),
            }
        rels = {}
        for record in store.relationships.records():
            rels[record.rel_id] = {
                "src": record.src,
                "dst": record.dst,
                "ghost": record.ghost,
                "properties": store.relationship_properties(record.rel_id),
            }
        servers.append({"nodes": nodes, "rels": rels})
    catalog = {
        vertex: cluster.catalog.lookup(vertex)
        for vertex in cluster.graph.vertices()
    }
    aux = {
        vertex: {
            "partition": cluster.aux.partition_of(vertex),
            "weight": cluster.aux.weight_of(vertex),
            "counts": dict(cluster.aux.neighbor_counts(vertex)),
        }
        for vertex in cluster.graph.vertices()
    }
    return {"servers": servers, "catalog": catalog, "aux": aux}


def drain(generator):
    """Run a step generator to exhaustion by hand; returns
    ``(yielded steps, StopIteration value)``."""
    steps = []
    while True:
        try:
            steps.append(next(generator))
        except StopIteration as stop:
            return steps, stop.value


def per_entry_model(result):
    """What a traversal would cost at one message per remote frontier
    entry: every remote step pays its own round trip and RPC dispatch
    (the closed-form baseline of DESIGN.md section 9)."""
    return (
        network.CLIENT_DISPATCH
        + result.remote_hops
        * (network.REMOTE_HOP + network.REMOTE_SERVICE)
        + result.processed * network.LOCAL_VISIT
    )


def count_index_calls(monkeypatch, tally):
    """Give every record store built from now on an id->slot index that
    counts into ``tally``: ``get`` and ``in`` as ``probes``, storing an
    id it does not hold (one at a time or by ``update``) as ``inserts``,
    removing one as ``deletes``."""

    class CountingIndex(dict):
        def get(self, key, default=None):
            tally["probes"] += 1
            return dict.get(self, key, default)

        def __contains__(self, key):
            tally["probes"] += 1
            return dict.__contains__(self, key)

        def __setitem__(self, key, value):
            if not dict.__contains__(self, key):
                tally["inserts"] += 1
            dict.__setitem__(self, key, value)

        def update(self, pairs):
            for key, value in dict(pairs).items():
                self[key] = value

        def __delitem__(self, key):
            tally["deletes"] += 1
            dict.__delitem__(self, key)

    original = FixedRecordStore.__init__

    def counting_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._index = CountingIndex(self._index)

    monkeypatch.setattr(FixedRecordStore, "__init__", counting_init)


def store_state(store, journal=None):
    """Everything physical of one graph store, for the differential tests:
    per record store the page bytes, free list, next slot and sorted
    id->slot index; the allocators; the next dynamic chunk id; and the
    frames of its log when a journal is given."""
    record_stores = [
        (
            [bytes(page) for page in record_store.pages.buffers],
            list(record_store._free_slots),
            record_store._next_slot,
            sorted(record_store._index.items()),
        )
        for record_store in store.record_stores()
    ]
    return (
        record_stores,
        store.allocator_state(),
        store.properties._dynamic._next_chunk_id,
        list(journal.wal.frames()) if journal else None,
    )


def telemetry_snapshot(cluster):
    """Every metric series of the cluster's hub (counters, gauges,
    histograms), with the process-wide ``cluster`` id label stripped so
    two clusters built the same way compare equal."""
    samples = []
    for sample in cluster.telemetry.registry.snapshot():
        sample["labels"].pop("cluster", None)
        samples.append(sample)
    return samples


@pytest.fixture
def triangle_graph() -> SocialGraph:
    """Three vertices in a triangle, unit weights."""
    graph = SocialGraph()
    for vertex in (0, 1, 2):
        graph.add_vertex(vertex)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(0, 2)
    return graph


@pytest.fixture
def small_graph() -> SocialGraph:
    """20 vertices, ~40 edges, unit weights."""
    return make_random_graph(20, 40, seed=1)


@pytest.fixture
def medium_graph() -> SocialGraph:
    """100 vertices, ~300 edges, unit weights."""
    return make_random_graph(100, 300, seed=2)


@pytest.fixture
def small_partitioning(small_graph) -> Partitioning:
    return HashPartitioner().partition(small_graph, 3)


@pytest.fixture
def small_cluster(small_graph) -> HermesCluster:
    """A loaded 3-server cluster over the small graph."""
    return HermesCluster.from_graph(
        small_graph.copy(),
        num_servers=3,
        partitioner=HashPartitioner(),
        repartitioner=RepartitionerConfig(k=2),
    )
