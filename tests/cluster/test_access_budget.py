"""Count guard for the storage access path (no timing).

A record access is one index probe and one unpack, no caller locates a
record it already holds, a traversal builds no record objects at all, and
a vertex its server already knows to be available is answered from
memory: an expanded vertex's chain is walked once, then answered by its
server's adjacency view, and an availability-only answer is kept in the
server's availability set (DESIGN.md "Storage access path").  The budget
is checked by counting, with hooks installed from here:

* every record store's id->slot index (``count_index_calls``) — each
  ``get`` and ``in`` is one probe;
* ``NodeCodec.decode`` / ``RelationshipCodec.decode`` — every record
  value built from page bytes.

The model outputs pinned at the bottom were produced by the commit before
the access path was rebuilt: cheaper access may not change an answer, a
cost or a counter.
"""

import random
from collections import Counter

import pytest

from repro.cluster.hermes import HermesCluster
from repro.graph.generators import make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.storage.node_store import NodeCodec, NodeStore
from repro.storage.relationship_store import RelationshipCodec
from repro.workloads.traces import TraceConfig, zipf_trace
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


@pytest.fixture
def node_accesses(monkeypatch):
    """A Counter of checked node-record accesses (``NodeStore.fields``)."""
    tally = Counter()
    original = NodeStore.fields

    def counting(self, node_id):
        tally["fields"] += 1
        return original(self, node_id)

    monkeypatch.setattr(NodeStore, "fields", counting)
    return tally


def placed_cluster():
    graph = make_random_graph(8, 12, seed=5)
    placement = {vertex: vertex % 3 for vertex in graph.vertices()}
    return graph, build_placed_cluster(graph, placement, num_servers=3)


class Warmth:
    """What the servers already know, as the model of the probes a read
    costs: vertices whose adjacency view entry is filled, and vertices
    answered available by an availability-only read.  Nothing here
    writes, so nothing is dropped."""

    def __init__(self, graph):
        self.graph = graph
        self.expanded = set()
        self.answered = set()

    def expand(self, vertex):
        """Cold: one node access, then one access per chain record."""
        if vertex in self.expanded:
            return 0
        self.expanded.add(vertex)
        return 1 + self.graph.degree(vertex)

    def check(self, vertex):
        """Cold: one node access.  A view entry answers too."""
        if vertex in self.expanded or vertex in self.answered:
            return 0
        self.answered.add(vertex)
        return 1


def test_is_available_is_one_probe_and_one_decode(counts):
    _, cluster = placed_cluster()
    store = cluster.servers[0].store
    counts.clear()
    assert store.is_available(0)
    assert counts == {"probes": 1, "decodes": 1}
    assert not store.is_available(1)  # hosted on server 1: absent here
    assert counts == {"probes": 2, "decodes": 1}


def test_one_hop_traversal_stays_inside_its_budget(counts):
    """Start vertex, cold: one node access serves availability and chain
    head, then d relationship accesses fill its adjacency view entry.
    Then one availability access per neighbour its server does not know
    yet.  The read plane works from raw fields: no record objects."""
    graph, cluster = placed_cluster()
    warmth = Warmth(graph)
    for vertex in sorted(graph.vertices()):
        degree = graph.degree(vertex)
        expected = warmth.expand(vertex) + sum(
            map(warmth.check, graph.neighbors(vertex))
        )
        counts.clear()
        result = cluster.traverse(vertex, 1)
        assert len(result.response) == degree + 1
        assert counts == Counter(probes=expected)
    # The first pass went cold on every start vertex.
    assert warmth.expanded == set(graph.vertices())


def test_a_warm_one_hop_reads_no_relationship_record(counts):
    """Once every vertex has been a start, a 1-hop touches no record at
    all: the start vertex's view entry and its neighbours' (or their
    availability answers) serve the whole traversal."""
    graph, cluster = placed_cluster()
    for vertex in sorted(graph.vertices()):
        cluster.traverse(vertex, 1)
    for vertex in sorted(graph.vertices()):
        degree = graph.degree(vertex)
        counts.clear()
        result = cluster.traverse(vertex, 1)
        assert len(result.response) == degree + 1
        assert counts == Counter()


def test_two_hop_traversal_asks_about_each_distinct_vertex_once(counts):
    """Every path into a vertex is processed and charged, but a depth
    reads each distinct vertex of a host's share once: the final depth of
    a 2-hop costs at most one access per distinct vertex two steps away,
    and none for a vertex its server already knows to be available.  An
    expanded vertex walks its chain only the first time any traversal
    expands it; after that its adjacency view entry answers."""
    graph, cluster = placed_cluster()
    warmth = Warmth(graph)
    for start in sorted(graph.vertices()):
        first = sorted(graph.neighbors(start))
        second = set().union(*(graph.neighbors(vertex) for vertex in first))
        expected = warmth.expand(start)
        expected += sum(map(warmth.expand, first))
        expected += sum(map(warmth.check, second))
        counts.clear()
        result = cluster.traverse(start, 2)
        assert result.processed == 1 + len(first) + sum(
            graph.degree(vertex) for vertex in first
        )
        assert counts == Counter(probes=expected)
    assert warmth.answered  # some final-depth vertex was never expanded first


def test_a_second_pass_reads_no_node_record(node_accesses):
    """After one 1-hop from every vertex, every vertex's view entry is
    filled: a second pass of 1- and 2-hop traversals makes no checked
    node access at all."""
    graph, cluster = placed_cluster()
    for vertex in sorted(graph.vertices()):
        cluster.traverse(vertex, 1)
    node_accesses.clear()
    for hops in (1, 2):
        for vertex in sorted(graph.vertices()):
            cluster.traverse(vertex, hops)
    assert node_accesses == Counter()


def test_a_warm_skewed_stream_reads_almost_no_node_record(node_accesses):
    """A stream shaped like the wall-clock benchmark's ``traverse_read``,
    at a fifth of its length: Zipf(1.1) starts over a 1 200-vertex
    orkut-like graph on 8 servers, 90 % 1-hop and 10 % 2-hop.  After a
    200-traversal warm-up, fewer than one processed vertex in a hundred
    costs a node access: what is left is the first answer for a vertex
    the warm-up never reached (0.64 per processed vertex when every
    vertex cost one)."""
    graph = make_dataset("orkut", 1200, 2015).graph
    cluster = HermesCluster.from_graph(
        graph, 8, partitioner=HashPartitioner(salt=21)
    )
    rng = random.Random(7)
    starts = [
        op.start
        for op in zipf_trace(
            sorted(graph.vertices()), TraceConfig(num_queries=2200, seed=7)
        )
    ]
    ops = [(start, 2 if rng.random() < 0.1 else 1) for start in starts]
    for start, hops in ops[:200]:
        cluster.traverse(start, hops)
    node_accesses.clear()
    processed = sum(
        cluster.traverse(start, hops).processed for start, hops in ops[200:]
    )
    assert node_accesses["fields"] / processed < 0.01


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


#: (start, hops) -> (response, processed, remote_hops, cost in ns) at the parent
PINNED_TRAVERSALS = {
    (0, 1): ((0, 3, 5, 7), 4, 2, 1_330_000),
    (1, 1): ((1, 2, 3), 3, 2, 1_310_000),
    (2, 1): ((1, 2, 3, 6, 7), 5, 4, 1_400_000),
    (3, 1): ((0, 1, 2, 3, 6), 5, 2, 1_350_000),
    (4, 1): ((4, 5, 6), 3, 2, 1_310_000),
    (5, 1): ((0, 4, 5, 7), 4, 3, 1_355_000),
    (6, 1): ((2, 3, 4, 6), 4, 2, 1_330_000),
    (7, 1): ((0, 2, 5, 7), 4, 3, 1_355_000),
    (0, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 14, 10, 5_030_000),
    (1, 2): ((0, 1, 2, 3, 6, 7), 11, 8, 3_820_000),
    (2, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 17, 13, 4_065_000),
    (3, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 17, 12, 5_140_000),
    (4, 2): ((0, 2, 3, 4, 5, 6, 7), 9, 7, 3_755_000),
    (5, 2): ((0, 2, 3, 4, 5, 6, 7), 12, 10, 3_890_000),
    (6, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 14, 10, 5_030_000),
    (7, 2): ((0, 1, 2, 3, 4, 5, 6, 7), 14, 12, 3_980_000),
}
#: per server after all of the above: (visits, reads, writes, busy ns)
PINNED_COUNTERS = [
    (58, 0, 0, 3_610_000),
    (44, 0, 0, 3_180_000),
    (38, 0, 0, 3_010_000),
]


def test_results_costs_and_server_counters_did_not_move():
    _, cluster = placed_cluster()
    for (start, hops), pinned in PINNED_TRAVERSALS.items():
        result = cluster.traverse(start, hops)
        assert (
            result.response,
            result.processed,
            result.remote_hops,
            result.cost,
        ) == pinned
        assert not result.partial
    assert [
        (
            server.visits_counter.value,
            server.reads_counter.value,
            server.writes_counter.value,
            server.busy_counter.value,
        )
        for server in cluster.servers
    ] == PINNED_COUNTERS
