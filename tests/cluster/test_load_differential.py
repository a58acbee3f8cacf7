"""Differential test: the chain-at-once bulk load against the per-record one.

``HermesCluster.load`` plans every record in one pass over the edges and
writes each server's share with one ``GraphStore.bulk_load`` — every node
and relationship record once, with its final pointers (DESIGN.md §15,
"Bulk load writes a chain once").  The loop it replaced created one node
and then one edge at a time through ``create_node`` and
``_create_edge_records`` (which head-inserts each record with
``create_relationship``); it is kept here, test-local, as the reference.
Twin clusters, durable and not, load the same graph and placement, one
each way, and must be equal in everything: the page bytes of all four
record stores, the id->slot indexes, free lists and next slots, the
allocators, the checkpoint pages, the catalog, the mirror (adjacency
*iteration order* and weights), the auxiliary data, the network stats,
the metrics and the clock.  The same traversals and a serial rebalance
then run on both, and their results and costs must agree by ``repr``.

Mutants of ``load`` / ``bulk_load`` this test catches: observing the ghost
ids after the edge loop instead of inside it (rel ids and allocator
counters drift), swapping a record's ``prev`` and ``next``, making the
node's chain head its oldest record, writing the relationships in reverse
creation order (slots move), and dropping the remote-hop charge.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.hermes import HermesCluster
from repro.graph.adjacency import SocialGraph
from repro.graph.generators import make_dataset
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from tests.conftest import store_state, telemetry_snapshot


# ----------------------------------------------------------------------
# The per-record load, as it ran before records were written in bulk
# ----------------------------------------------------------------------
def per_record_load(cluster, graph, partitioning):
    for vertex in graph.vertices():
        server = partitioning.partition_of(vertex)
        weight = graph.weight(vertex)
        cluster.servers[server].store.create_node(vertex, weight=weight)
        cluster.catalog.register(vertex, server)
        cluster.aux.add_vertex(vertex, server, weight)
    for u, v in graph.edges():
        cluster._create_edge_records(u, v, properties=None)
        cluster.aux.add_edge(u, v)
    cluster._checkpoint()


def twins(graph, partitioning, servers, durable):
    bulk = HermesCluster(servers, durability=durable)
    bulk.load(graph, partitioning)
    reference = HermesCluster(servers, durability=durable)
    per_record_load(reference, graph, partitioning)
    return bulk, reference


# ----------------------------------------------------------------------
# What must be equal
# ----------------------------------------------------------------------
def server_state(server):
    """The store's physical state and log, plus the checkpoint taken."""
    journal = server.journal
    checkpoint = None
    if journal is not None:
        checkpoint = (
            [[bytes(page) for page in paged.buffers] for paged in journal._pages],
            journal._allocators,
        )
    return store_state(server.store, journal), checkpoint


def aux_state(aux):
    used = aux._used
    return (
        aux.num_partitions,
        repr(aux.partition_weights),
        aux.capacities,
        used,
        aux._live,
        aux._partition[:used].tolist(),
        aux._weight[:used].tolist(),
        aux._counts[:used].tolist(),
        None if aux._ids is None else aux._ids[:used].tolist(),
        None if aux._rows is None else list(aux._rows.items()),
        aux._free,
    )


def mirror_state(graph):
    return (
        [
            (vertex, repr(graph.weight(vertex)), list(graph.neighbors(vertex)))
            for vertex in graph.vertices()
        ],
        graph.num_edges,
    )


def cluster_state(cluster):
    return {
        "servers": [server_state(server) for server in cluster.servers],
        "catalog": list(cluster.catalog.as_mapping().items()),
        "placement": [
            sorted(cluster.catalog.vertices_on(server))
            for server in range(cluster.num_servers)
        ],
        "mirror": mirror_state(cluster.graph),
        "aux": aux_state(cluster.aux),
        "network": repr(cluster.network.stats),
        "telemetry": telemetry_snapshot(cluster),
        "clock": repr(cluster.now),
    }


def exercise(cluster):
    """The same reads and a serial rebalance; what they returned."""
    starts = sorted(cluster.graph.vertices())[::7][:12]
    results = [
        repr(cluster.traverse(start, hops)) for start in starts for hops in (1, 2)
    ]
    result, report = cluster.rebalance(force=True)
    return results, sorted(result.moves.items()), result.history, repr(report)


def assert_twins_agree(graph, partitioning, servers, durable):
    bulk, reference = twins(graph, partitioning, servers, durable)
    assert cluster_state(bulk) == cluster_state(reference)
    bulk.validate()
    assert exercise(bulk) == exercise(reference)
    assert cluster_state(bulk) == cluster_state(reference)


# ----------------------------------------------------------------------
# Seeded social graphs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
@pytest.mark.parametrize(
    "n, servers", [(300, 4), (1200, 8)], ids=["orkut300x4", "orkut1200x8"]
)
def test_bulk_load_equals_per_record_load(n, servers, durable):
    graph = make_dataset("orkut", n, seed=31).graph
    partitioning = HashPartitioner(salt=31).partition(graph, servers)
    assert_twins_agree(graph, partitioning, servers, durable)


# ----------------------------------------------------------------------
# Drawn graphs: one server, many, isolated vertices, sparse huge ids,
# fractional weights
# ----------------------------------------------------------------------
@st.composite
def loads(draw):
    n = draw(st.integers(0, 14))
    if draw(st.booleans()):
        ids = list(range(n))
    else:
        # Non-contiguous ids >= 2**40 force the auxiliary data's mapped rows.
        ids = draw(
            st.lists(
                st.integers(2**40, 2**40 + 10**6), min_size=n, max_size=n, unique=True
            )
        )
    ids = draw(st.permutations(ids)) if draw(st.booleans()) else ids
    fractional = draw(st.booleans())
    graph = SocialGraph()
    for vertex in ids:
        weight = draw(st.floats(0.1, 9.9)) if fractional else 1.0
        graph.add_vertex(vertex, weight=weight)
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True)):
            graph.add_edge(u, v)
    servers = draw(st.sampled_from([1, 2, 3, 8]))
    placement = {vertex: draw(st.integers(0, servers - 1)) for vertex in ids}
    return graph, Partitioning.from_mapping(placement, num_partitions=servers), servers


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(loads(), st.booleans())
def test_drawn_bulk_load_equals_per_record_load(load, durable):
    graph, partitioning, servers = load
    assert_twins_agree(graph, partitioning, servers, durable)
