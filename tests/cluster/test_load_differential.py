"""Differential test: the columnar bulk load against the per-record one.

``HermesCluster.load`` plans the load on columns and writes each server's
share with one ``GraphStore.bulk_load``, which fills every record store
a page at a time (DESIGN.md §15, "Bulk load writes pages").  The loop it
replaced created one node and then one edge at a time through
``create_node`` and ``_create_edge_records`` (which head-inserts each
record with ``create_relationship``); it is kept here, test-local, as the
reference.  Twin clusters, durable and not, load the same graph and
placement, one each way, and must be equal in everything: the page bytes
of all four record stores, the id->slot indexes, free lists and next
slots, the allocators, the checkpoint pages, the catalog, the mirror
(adjacency *iteration order* and weights), the auxiliary data, the
network stats, the metrics and the clock.  The same traversals and a
serial rebalance then run on both, and their results and costs must agree
by ``repr``.  Drawn loads reach stores of several pages, exactly-full
pages included.

Bad input is held to the checks the record-at-a-time bulk load ran,
kept here as :func:`reference_error`: a repeated node or relationship
id, a self-loop, a relationship with no local endpoint, a weight that is
not a real number (``None``, ``"heavy"``, ``"1.5"``, which numpy would
convert), an id beyond int64, an endpoint that is not an int or a negative
relationship id must raise
the same exception with the same message, the store or cluster left as
it was.

Mutants of ``load`` / ``bulk_load`` this test catches: observing the ghost
ids after the edge loop instead of inside it (rel ids and allocator
counters drift), swapping a record's ``prev`` and ``next``, making the
node's chain head its oldest record, writing the relationships in reverse
creation order (slots move), and dropping the remote-hop charge.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.hermes import HermesCluster
from repro.exceptions import ClusterError, StorageError
from repro.graph.adjacency import SocialGraph
from repro.graph.generators import make_dataset
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.storage.graph_store import GraphStore, _check_rel_values, check_node_values
from repro.storage.node_store import NodeStore
from repro.storage.relationship_store import RelationshipStore
from tests.conftest import store_state, telemetry_snapshot

#: records per 4 KiB page: 124 node slots, 63 relationship slots
NODE_SLOTS = NodeStore().slots_per_page
REL_SLOTS = RelationshipStore().slots_per_page


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
# fractional weights, stores of several pages and exactly-full pages
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw):
    """Up to 14 vertices, every choice drawn."""
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
    weights = [draw(st.floats(0.1, 9.9)) if fractional else 1.0 for _ in ids]
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    edges = []
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    servers = draw(st.sampled_from([1, 2, 3, 8]))
    homes = [draw(st.integers(0, servers - 1)) for _ in ids]
    return ids, weights, edges, servers, homes


@st.composite
def paged_graphs(draw):
    """Stores of several pages: on one server a node count or an edge
    count of a whole number of pages fills its last page exactly."""
    n = draw(
        st.sampled_from([NODE_SLOTS - 1, NODE_SLOTS, NODE_SLOTS + 1, 2 * NODE_SLOTS])
        | st.integers(15, 2 * NODE_SLOTS + 5)
    )
    m = draw(
        st.sampled_from([REL_SLOTS, REL_SLOTS + 1, 2 * REL_SLOTS, 3 * REL_SLOTS])
        | st.integers(0, 3 * n)
    )
    m = min(m, n * (n - 1) // 2)
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        ids = list(range(n))
    else:
        ids = rng.sample(range(2**40, 2**40 + 10**6), n)
    weights = [round(rng.uniform(0.1, 9.9), 3) for _ in ids]
    edges = rng.sample(list(itertools.combinations(ids, 2)), m)
    servers = draw(st.sampled_from([1, 1, 2, 3]))
    homes = [rng.randrange(servers) for _ in ids]
    return ids, weights, edges, servers, homes


def build(ids, weights, edges, servers, homes):
    graph = SocialGraph()
    for vertex, weight in zip(ids, weights):
        graph.add_vertex(vertex, weight=weight)
    for u, v in edges:
        graph.add_edge(u, v)
    placement = Partitioning.from_columns(ids, homes, servers)
    return graph, placement, servers


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs() | paged_graphs(), st.booleans())
def test_drawn_bulk_load_equals_per_record_load(drawn, durable):
    assert_twins_agree(*build(*drawn), durable)


def test_a_full_page_load_fills_its_pages_exactly():
    """One server, a whole number of pages in both record stores."""
    ids = list(range(2 * NODE_SLOTS))
    edges = list(itertools.combinations(ids, 2))[: 3 * REL_SLOTS]
    graph, placement, servers = build(ids, [1.0] * len(ids), edges, 1, [0] * len(ids))
    bulk, reference = twins(graph, placement, servers, durable=True)
    store = bulk.servers[0].store
    assert store.nodes.pages.num_pages == 2
    assert store.relationships.pages.num_pages == 3
    assert cluster_state(bulk) == cluster_state(reference)


# ----------------------------------------------------------------------
# Bad input: the record-at-a-time checks, in their order
# ----------------------------------------------------------------------
def reference_error(nodes, rels):
    """The :class:`StorageError` the record-at-a-time bulk load raised
    for ``(node_id, weight)`` and ``(rel_id, src, dst, ghost)`` rows —
    every node checked, then every relationship, in creation order — or
    None."""
    local = set()
    seen = set()
    try:
        for node_id, weight in nodes:
            if node_id in local:
                raise StorageError(f"node {node_id} appears twice")
            check_node_values(node_id, weight)
            local.add(node_id)
        for rel_id, src, dst, _ in rels:
            if rel_id in seen:
                raise StorageError(f"relationship id {rel_id} is repeated")
            _check_rel_values(rel_id, src, dst)
            seen.add(rel_id)
            if src == dst:
                raise StorageError(f"relationship {rel_id} is a self-loop")
            if src not in local and dst not in local:
                raise StorageError(f"neither endpoint of relationship {rel_id} is local")
    except StorageError as error:
        return error
    return None


#: what a drawn corruption inserts or overwrites
CORRUPTIONS = (
    "repeated-node", "repeated-rel", "self-loop", "non-local", "weight-none",
    "weight-heavy", "weight-numeric-str", "huge-node-id", "huge-rel-id",
    "huge-endpoint", "str-endpoint", "float-endpoint", "negative-rel-id",
)


@st.composite
def bad_bulk_loads(draw):
    """Server 0's share of a drawn two-server load, as rows, with up to
    three corruptions inserted at drawn positions."""
    n = draw(st.integers(1, 10))
    local = draw(st.lists(st.integers(0, 40), min_size=1, max_size=n, unique=True))
    remote = [1000 + i for i in range(draw(st.integers(0, 4)))]
    nodes = [(node, draw(st.sampled_from([1.0, 0.5, 7]))) for node in local]
    rel_ids = iter(draw(st.lists(st.integers(0, 10**6), max_size=12, unique=True)))
    rels = []
    for rel_id in rel_ids:
        src = draw(st.sampled_from(local + remote))
        dst = draw(st.sampled_from([v for v in local + remote if v != src] or [src]))
        if src in local or dst in local:
            rels.append((rel_id, src, dst, src not in local))
    for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=3)):
        rows = nodes if kind in ("repeated-node", "huge-node-id") or "weight" in kind else rels
        at = draw(st.integers(0, len(rows)))
        node, weight = nodes[min(at, len(nodes) - 1)]
        if kind == "repeated-node":
            nodes.insert(at, (node, 1.0))
        elif kind == "huge-node-id":
            nodes.insert(at, (2**70, 1.0))
        elif kind.startswith("weight"):
            value = {"weight-none": None, "weight-heavy": "heavy"}.get(kind, "1.5")
            nodes.insert(at, (node + 100, value))
        elif kind == "repeated-rel" and rels:
            rels.insert(at, (rels[-1][0], node, 1000, True))
        elif kind == "self-loop":
            rels.insert(at, (5 * 10**6, node, node, False))
        elif kind == "non-local":
            rels.insert(at, (6 * 10**6, 2000, 2001, True))
        elif kind == "huge-rel-id":
            rels.insert(at, (2**70, node, 1000, True))
        elif kind == "huge-endpoint":
            rels.insert(at, (7 * 10**6, node, 2**70, False))
        elif kind == "str-endpoint":
            rels.insert(at, (8 * 10**6, node, "1000", True))
        elif kind == "float-endpoint":
            rels.insert(at, (9 * 10**6, 1000.0, node, True))
        elif kind == "negative-rel-id":
            rels.insert(at, (-5, node, 1000, True))
    return nodes, rels


def columns(nodes, rels):
    """``bulk_load``'s six columns from the rows."""
    return (
        *[[row[field] for row in nodes] for field in range(2)],
        *[[row[field] for row in rels] for field in range(4)],
    )


@settings(deadline=None)
@given(bad_bulk_loads())
def test_drawn_bad_input_raises_what_the_per_record_checks_raised(drawn):
    nodes, rels = drawn
    expected = reference_error(nodes, rels)
    store = GraphStore(server_id=0, num_servers=2)
    before = store_state(store)
    if expected is None:
        store.bulk_load(*columns(nodes, rels))
        reference = GraphStore(server_id=0, num_servers=2)
        for node_id, weight in nodes:
            reference.create_node(node_id, weight=weight)
        for rel_id, src, dst, ghost in rels:
            reference.create_relationship(rel_id, src, dst, ghost=ghost)
        assert store_state(store) == store_state(reference)
        return
    with pytest.raises(StorageError) as raised:
        store.bulk_load(*columns(nodes, rels))
    assert (type(raised.value), str(raised.value)) == (type(expected), str(expected))
    assert store_state(store) == before


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs(), st.sampled_from([2**70, 2**63, -(2**63) - 1]), st.data())
def test_drawn_unstorable_vertex_leaves_the_cluster_empty(drawn, bad, data):
    """A vertex id no node record can hold, at a drawn place in graph
    order: the first such vertex is named, as the per-vertex check named
    it, and nothing is loaded."""
    ids, weights, edges, servers, homes = drawn
    at = data.draw(st.integers(0, len(ids)))
    ids, weights, homes = (
        column[:at] + [value] + column[at:]
        for column, value in ((ids, bad), (weights, 1.0), (homes, 0))
    )
    graph, placement, servers = build(ids, weights, edges, servers, homes)
    with pytest.raises(StorageError) as check:
        check_node_values(bad, 1.0)
    cluster = HermesCluster(servers, durability=True)
    with pytest.raises(ClusterError) as raised:
        cluster.load(graph, placement)
    assert str(raised.value) == f"vertex {bad!r} cannot be loaded: {check.value}"
    assert cluster_state(cluster) == cluster_state(HermesCluster(servers, durability=True))
