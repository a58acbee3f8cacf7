"""Tests for the multilevel (METIS-substitute) partitioner."""

import random

import pytest

from repro.exceptions import InvalidPartitionError
from repro.graph.generators import community_graph
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.metrics import edge_cut, imbalance_factor
from repro.partitioning.multilevel import MultilevelPartitioner, WeightedGraph
from repro.partitioning.multilevel.coarsening import contract
from repro.partitioning.multilevel.matching import heavy_edge_matching
from repro.partitioning.multilevel.refinement import cut_weight, refine
from tests.conftest import make_random_graph


class TestWeightedGraph:
    def test_from_social_graph(self, triangle_graph):
        weighted = WeightedGraph.from_social_graph(triangle_graph)
        assert weighted.num_vertices == 3
        assert weighted.num_edges == 3
        assert weighted.total_vertex_weight() == 3.0

    def test_edge_weight_accumulates(self):
        weighted = WeightedGraph()
        weighted.add_vertex(0, 1.0)
        weighted.add_vertex(1, 1.0)
        weighted.add_edge(0, 1, 2.0)
        weighted.add_edge(0, 1, 3.0)
        assert weighted.neighbors(0)[1] == 5.0
        assert weighted.num_edges == 1

    def test_self_edges_dropped(self):
        weighted = WeightedGraph()
        weighted.add_vertex(0, 1.0)
        weighted.add_edge(0, 0, 1.0)
        assert weighted.num_edges == 0


class TestMatchingAndContraction:
    def test_matching_is_symmetric(self, medium_graph):
        weighted = WeightedGraph.from_social_graph(medium_graph)
        matching = heavy_edge_matching(weighted, random.Random(1))
        for vertex, partner in matching.items():
            assert matching[partner] == vertex

    def test_matched_pairs_share_an_edge_or_neighbor(self, medium_graph):
        weighted = WeightedGraph.from_social_graph(medium_graph)
        matching = heavy_edge_matching(weighted, random.Random(1))
        for vertex, partner in matching.items():
            if partner == vertex:
                continue
            direct = partner in weighted.neighbors(vertex)
            two_hop = bool(
                set(weighted.neighbors(vertex)) & set(weighted.neighbors(partner))
            )
            assert direct or two_hop

    def test_contract_preserves_weight(self, medium_graph):
        weighted = WeightedGraph.from_social_graph(medium_graph)
        matching = heavy_edge_matching(weighted, random.Random(2))
        coarse, projection = contract(weighted, matching)
        assert coarse.total_vertex_weight() == pytest.approx(
            weighted.total_vertex_weight()
        )
        assert set(projection) == set(weighted.vertex_weights)
        assert coarse.num_vertices < weighted.num_vertices

    def test_contract_preserves_cut_structure(self, medium_graph):
        """Any partition of the coarse graph must have the same cut weight
        as its projection to the fine graph."""
        weighted = WeightedGraph.from_social_graph(medium_graph)
        matching = heavy_edge_matching(weighted, random.Random(3))
        coarse, projection = contract(weighted, matching)
        rng = random.Random(4)
        coarse_assignment = {v: rng.randrange(2) for v in coarse.vertex_weights}
        fine_assignment = {
            v: coarse_assignment[projection[v]] for v in weighted.vertex_weights
        }
        assert cut_weight(coarse, coarse_assignment) == pytest.approx(
            cut_weight(weighted, fine_assignment)
        )


class TestRefinement:
    def test_refine_never_worsens_cut(self, medium_graph):
        weighted = WeightedGraph.from_social_graph(medium_graph)
        rng = random.Random(5)
        assignment = {v: rng.randrange(3) for v in weighted.vertex_weights}
        before = cut_weight(weighted, assignment)
        refine(weighted, assignment, 3, epsilon=1.1)
        after = cut_weight(weighted, assignment)
        assert after <= before

    def test_refine_respects_balance(self, medium_graph):
        weighted = WeightedGraph.from_social_graph(medium_graph)
        rng = random.Random(6)
        assignment = {v: rng.randrange(2) for v in weighted.vertex_weights}
        refine(weighted, assignment, 2, epsilon=1.1)
        weights = [0.0, 0.0]
        for vertex, part in assignment.items():
            weights[part] += weighted.vertex_weights[vertex]
        average = sum(weights) / 2
        # Refinement may not fix pre-existing imbalance, but must not
        # create one beyond epsilon from a balanced-ish start.
        assert max(weights) <= 1.2 * average


class TestPartitioner:
    def test_produces_total_assignment(self, medium_graph):
        partitioning = MultilevelPartitioner(seed=1).partition(medium_graph, 4)
        assert isinstance(partitioning, Partitioning)
        assert partitioning.num_vertices == medium_graph.num_vertices
        assert all(size > 0 for size in partitioning.sizes())

    def test_deterministic_with_seed(self, medium_graph):
        a = MultilevelPartitioner(seed=3).partition(medium_graph, 4)
        b = MultilevelPartitioner(seed=3).partition(medium_graph, 4)
        assert a == b

    def test_respects_balance(self, medium_graph):
        partitioning = MultilevelPartitioner(epsilon=1.05, seed=2).partition(
            medium_graph, 4
        )
        assert imbalance_factor(medium_graph, partitioning) <= 1.06

    def test_beats_random_on_community_graph(self):
        graph = community_graph(400, intra_probability=0.8, seed=7)
        metis = MultilevelPartitioner(seed=7).partition(graph, 4)
        hashed = HashPartitioner().partition(graph, 4)
        assert edge_cut(graph, metis) < 0.5 * edge_cut(graph, hashed)

    def test_far_better_than_random_at_eight_partitions(self):
        graph = community_graph(500, intra_probability=0.8, seed=9)
        hashed = HashPartitioner().partition(graph, 8)
        partitioning = MultilevelPartitioner(seed=9).partition(graph, 8)
        assert edge_cut(graph, partitioning) < 0.5 * edge_cut(graph, hashed)

    def test_single_partition(self, small_graph):
        partitioning = MultilevelPartitioner(seed=1).partition(small_graph, 1)
        assert partitioning.sizes() == [small_graph.num_vertices]

    def test_more_partitions_than_vertices(self, triangle_graph):
        partitioning = MultilevelPartitioner(seed=1).partition(triangle_graph, 5)
        assert partitioning.num_vertices == 3

    def test_weighted_vertices_balanced(self):
        graph = make_random_graph(200, 500, seed=10, max_weight=5.0)
        partitioning = MultilevelPartitioner(epsilon=1.1, seed=10).partition(graph, 4)
        assert imbalance_factor(graph, partitioning) <= 1.12

    def test_best_of_tries_not_worse(self, medium_graph):
        single = MultilevelPartitioner(seed=11, tries=1).partition(medium_graph, 4)
        multi = MultilevelPartitioner(seed=11, tries=3).partition(medium_graph, 4)
        assert edge_cut(medium_graph, multi) <= edge_cut(medium_graph, single)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidPartitionError):
            MultilevelPartitioner(epsilon=0.9)
        with pytest.raises(InvalidPartitionError):
            MultilevelPartitioner(tries=0)
