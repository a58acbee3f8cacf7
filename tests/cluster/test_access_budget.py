"""Count guard for the storage access path (no timing).

A record access is one index probe and one unpack, no caller locates a
record it already holds, a traversal builds no record objects at all, and
an expanded vertex's chain is walked once, then answered by its server's
adjacency view (DESIGN.md "Storage access path").  The budget is checked by counting,
with hooks installed from here:

* every record store's id->slot index (``count_index_calls``) — each
  ``get`` and ``in`` is one probe;
* ``NodeCodec.decode`` / ``RelationshipCodec.decode`` — every record
  value built from page bytes.

The model outputs pinned at the bottom were produced by the commit before
the access path was rebuilt: cheaper access may not change an answer, a
cost or a counter.
"""

from collections import Counter

import pytest

from repro.storage.node_store import NodeCodec
from repro.storage.relationship_store import RelationshipCodec
from tests.conftest import build_placed_cluster, count_index_calls, make_random_graph


@pytest.fixture
def counts(monkeypatch):
    """A Counter of ``probes`` and ``decodes``, fed by class-level hooks."""
    tally = Counter()

    def count_calls(owner, name, key):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            tally[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count_index_calls(monkeypatch, tally)
    count_calls(NodeCodec, "decode", "decodes")
    count_calls(RelationshipCodec, "decode", "decodes")
    return tally


def placed_cluster():
    graph = make_random_graph(8, 12, seed=5)
    placement = {vertex: vertex % 3 for vertex in graph.vertices()}
    return graph, build_placed_cluster(graph, placement, num_servers=3)


def test_is_available_is_one_probe_and_one_decode(counts):
    _, cluster = placed_cluster()
    store = cluster.servers[0].store
    counts.clear()
    assert store.is_available(0)
    assert counts == {"probes": 1, "decodes": 1}
    assert not store.is_available(1)  # hosted on server 1: absent here
    assert counts == {"probes": 2, "decodes": 1}


def test_one_hop_traversal_stays_inside_its_budget(counts):
    """Start vertex: one node access serves availability and chain head,
    then, cold, d relationship accesses fill its adjacency view entry;
    then one availability access per neighbour.  The read plane works
    from raw fields: no record objects."""
    graph, cluster = placed_cluster()
    for vertex in sorted(graph.vertices()):
        degree = graph.degree(vertex)
        counts.clear()
        result = cluster.traverse(vertex, 1)
        assert len(result.response) == degree + 1
        assert counts == {"probes": 1 + 2 * degree}


def test_a_warm_one_hop_reads_no_relationship_record(counts):
    """Once a vertex's view entry is filled, a 1-hop is node probes only:
    the start vertex's and one per neighbour."""
    graph, cluster = placed_cluster()
    for vertex in sorted(graph.vertices()):
        cluster.traverse(vertex, 1)
    for vertex in sorted(graph.vertices()):
        degree = graph.degree(vertex)
        counts.clear()
        result = cluster.traverse(vertex, 1)
        assert len(result.response) == degree + 1
        assert counts == {"probes": 1 + degree}


def test_two_hop_traversal_asks_about_each_distinct_vertex_once(counts):
    """Every path into a vertex is processed and charged, but a depth
    reads each distinct vertex of a host's share once: the final depth of
    a 2-hop costs one access per distinct vertex two steps away.  An
    expanded vertex walks its chain only the first time any traversal
    expands it; after that its adjacency view entry answers."""
    graph, cluster = placed_cluster()
    warm = set()

    def chain_reads(vertex):
        return 0 if vertex in warm else graph.degree(vertex)

    for start in sorted(graph.vertices()):
        first = sorted(graph.neighbors(start))
        second = set().union(*(graph.neighbors(vertex) for vertex in first))
        counts.clear()
        result = cluster.traverse(start, 2)
        assert result.processed == 1 + len(first) + sum(
            graph.degree(vertex) for vertex in first
        )
        assert counts == {
            "probes": 1
            + chain_reads(start)
            + sum(1 + chain_reads(vertex) for vertex in first)
            + len(second)
        }
        warm.update(first, [start])


def test_point_read_fetches_its_node_record_once(counts):
    """Availability and the property-chain head come from one fetch, and
    nothing is written back: popularity is auxiliary data (the parent: 2
    probes, the second the weight write-back locating the slot)."""
    graph, cluster = placed_cluster()
    for vertex in sorted(graph.vertices()):
        store = cluster.servers[vertex % 3].store
        stored = store.node(vertex).weight
        popularity = cluster.aux.weight_of(vertex)
        counts.clear()
        properties, _ = cluster.read_vertex(vertex)
        assert properties == {}
        assert counts == {"probes": 1, "decodes": 1}
        assert store.node(vertex).weight == stored
        assert cluster.aux.weight_of(vertex) == popularity + 1.0


#: (start, hops) -> (response, processed, remote_hops, repr(cost)) at the parent
PINNED_TRAVERSALS = {
    (0, 1): ((0, 3, 5, 7), 4, 2, "0.00133"),
    (1, 1): ((1, 2, 3), 3, 2, "0.00131"),
    (2, 1): ((1, 2, 3, 6, 7), 5, 4, "0.0014000000000000002"),
    (3, 1): ((0, 1, 2, 3, 6), 5, 2, "0.00135"),
    (4, 1): ((4, 5, 6), 3, 2, "0.00131"),
    (5, 1): ((0, 4, 5, 7), 4, 3, "0.001355"),
    (6, 1): ((2, 3, 4, 6), 4, 2, "0.00133"),
    (7, 1): ((0, 2, 5, 7), 4, 3, "0.001355"),
    (0, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 14, 10, "0.005030000000000001"),
    (1, 2): ((0, 1, 2, 3, 6, 7), 11, 8, "0.003820000000000001"),
    (2, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 17, 13, "0.004065000000000002"),
    (3, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 17, 12, "0.005140000000000001"),
    (4, 2): ((0, 2, 3, 4, 5, 6, 7), 9, 7, "0.0037550000000000005"),
    (5, 2): ((0, 2, 3, 4, 5, 6, 7), 12, 10, "0.0038900000000000007"),
    (6, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 14, 10, "0.00503"),
    (7, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 14, 12, "0.003980000000000001"),
}
#: per server after all of the above: (visits, reads, writes, repr(busy_seconds))
PINNED_COUNTERS = [
    (58, 0, 0, "0.0036100000000000047"),
    (44, 0, 0, "0.003180000000000003"),
    (38, 0, 0, "0.0030100000000000027"),
]


def test_results_costs_and_server_counters_did_not_move():
    _, cluster = placed_cluster()
    for (start, hops), pinned in PINNED_TRAVERSALS.items():
        result = cluster.traverse(start, hops)
        assert (
            result.response,
            result.processed,
            result.remote_hops,
            repr(result.cost),
        ) == pinned
        assert not result.partial
    assert [
        (server.visits, server.reads, server.writes, repr(server.busy_seconds))
        for server in cluster.servers
    ] == PINNED_COUNTERS
