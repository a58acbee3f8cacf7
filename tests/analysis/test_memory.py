"""Tests for the memory-footprint estimators (Section 5.3 claim)."""

import gc
import types

import numpy as np

from repro.analysis.memory import (
    adjacency_view_bytes,
    auxiliary_memory_bytes,
    measure_memory,
    multilevel_memory_bytes,
)
from repro.cluster.hermes import HermesCluster
from repro.core.auxiliary import AuxiliaryData
from repro.graph.adjacency import SocialGraph
from repro.graph.generators import make_dataset, orkut_like
from repro.partitioning.hashing import HashPartitioner
from repro.storage.graph_store import GraphStore


class TestEstimators:
    def test_multilevel_scales_with_edges(self):
        small = orkut_like(n=200, seed=1).graph
        dense = orkut_like(n=400, seed=1).graph
        assert multilevel_memory_bytes(dense) > multilevel_memory_bytes(small)

    def test_auxiliary_much_smaller_on_dense_graphs(self):
        graph = orkut_like(n=400, seed=2).graph
        partitioning = HashPartitioner().partition(graph, 4)
        aux = AuxiliaryData.from_graph(graph, partitioning)
        assert multilevel_memory_bytes(graph) > 3 * auxiliary_memory_bytes(aux)

    def test_auxiliary_bytes_positive(self):
        graph = orkut_like(n=100, seed=3).graph
        partitioning = HashPartitioner().partition(graph, 2)
        aux = AuxiliaryData.from_graph(graph, partitioning)
        assert auxiliary_memory_bytes(aux) > 0


def loaded_store():
    """One store holding a 20 000-vertex power-law graph (181 331 edges),
    nothing read yet, and its vertices."""
    graph = orkut_like(n=20_000, seed=1).graph
    store = GraphStore()
    vertices = sorted(graph.vertices())
    ends = np.array(list(graph.edges()), np.int64)
    store.bulk_load(
        vertices, [1.0] * len(vertices), np.arange(len(ends)), ends[:, 0], ends[:, 1],
        np.zeros(len(ends), bool),
    )
    return store, vertices


class TestAdjacencyView:
    def test_a_fully_warm_view_stays_inside_its_byte_budget(self):
        """Every node of the loaded store expanded once: at most 250
        B/vertex (a dict of sets holding the same adjacency measures
        1 138)."""
        store, vertices = loaded_store()
        assert adjacency_view_bytes(store) < 300  # empty until read
        store.read_frontier(vertices, True)
        assert len(store.adjacency) == len(vertices)
        assert not store.available  # a view entry answers availability too
        assert adjacency_view_bytes(store) / len(vertices) <= 250

    def test_a_full_availability_set_stays_inside_its_byte_budget(self):
        """The same store answering every node's availability before
        expanding any: the set holds every id next to the full view, at
        most 400 B/vertex for both (the set alone measures 133)."""
        store, vertices = loaded_store()
        store.read_frontier(vertices, False)
        store.read_frontier(vertices, True)
        assert len(store.available) == len(store.adjacency) == len(vertices)
        assert adjacency_view_bytes(store) / len(vertices) <= 400


def reachable(root, cls):
    """Instances of ``cls`` reachable from ``root`` through object
    references — attributes, containers, closure cells — but not through
    classes, modules or a function's globals (those reach the whole
    process)."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, cls):
            found.append(obj)
        if isinstance(obj, types.FunctionType):
            referents = [cell.cell_contents for cell in obj.__closure__ or ()]
            referents += list(obj.__defaults__ or ())
        elif isinstance(obj, (type, types.ModuleType, types.CodeType)):
            continue
        else:
            referents = gc.get_referents(obj)
        for referent in referents:
            if id(referent) not in seen:
                seen.add(id(referent))
                stack.append(referent)
    return found


class TestClusterFootprint:
    """The cluster keeps no copy of the graph: a write lands in the home
    stores and the auxiliary data only, and ``cluster.graph`` is a view."""

    def test_a_loaded_cluster_holds_no_whole_graph_adjacency(self):
        """A freshly loaded 8-server cluster at n=5 000 (45 407 edges),
        measured with tracemalloc while the input graph lives outside the
        measured call: 2 719 B/vertex, all but ~150 of it record pages
        and their id->slot indexes.  With the mirror it measured 4 008 —
        the mirror's boxed ints belong to the input graph, so its
        tracemalloc share was 1 290, not the 1 821 ``social_graph_bytes``
        charges."""
        graph = make_dataset("orkut", 5_000, seed=3).graph
        placement = HashPartitioner().partition(graph, 8)
        cluster, retained, _ = measure_memory(
            lambda: HermesCluster.from_graph(graph, 8, partitioning=placement)
        )
        assert cluster.graph.num_edges == graph.num_edges
        assert retained / graph.num_vertices <= 3_000

    def test_no_social_graph_is_reachable_after_load_or_reopen(self, tmp_path):
        graph = orkut_like(n=300, seed=4).graph
        cluster = HermesCluster.from_graph(
            graph, 4, partitioner=HashPartitioner(), durability=True
        )
        assert reachable(cluster, SocialGraph) == []
        cluster.save(str(tmp_path))
        reopened = HermesCluster.load_cluster(str(tmp_path))
        assert reachable(reopened, SocialGraph) == []
        edges = {frozenset(edge) for edge in cluster.graph.edges()}
        assert {frozenset(edge) for edge in reopened.graph.edges()} == edges
        assert len(edges) == reopened.graph.num_edges == graph.num_edges
