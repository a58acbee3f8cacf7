"""Tests for the streaming partitioner baselines (LDG, Fennel)."""

import pytest

from repro.exceptions import PartitioningError
from repro.graph.generators import community_graph
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.metrics import edge_cut, imbalance_factor
from repro.partitioning.streaming import FennelPartitioner, LinearDeterministicGreedy
from tests.conftest import make_random_graph


@pytest.fixture(scope="module")
def clustered():
    return community_graph(400, intra_probability=0.8, seed=13)


class TestLDG:
    def test_total_assignment(self, clustered):
        partitioning = LinearDeterministicGreedy(seed=1).partition(clustered, 4)
        assert partitioning.num_vertices == clustered.num_vertices
        assert all(size > 0 for size in partitioning.sizes())

    def test_respects_capacity(self, clustered):
        partitioning = LinearDeterministicGreedy(seed=1).partition(clustered, 4)
        capacity = LinearDeterministicGreedy.BALANCE_SLACK * clustered.num_vertices / 4
        assert max(partitioning.sizes()) <= capacity + 1

    def test_beats_hashing_on_communities(self, clustered):
        ldg = LinearDeterministicGreedy(seed=2).partition(clustered, 4)
        hashed = HashPartitioner().partition(clustered, 4)
        assert edge_cut(clustered, ldg) < 0.8 * edge_cut(clustered, hashed)

    def test_deterministic_given_seed(self, clustered):
        a = LinearDeterministicGreedy(seed=3).partition(clustered, 4)
        b = LinearDeterministicGreedy(seed=3).partition(clustered, 4)
        assert a == b

    def test_validation(self, clustered):
        with pytest.raises(PartitioningError):
            LinearDeterministicGreedy().partition(clustered, 0)


class TestFennel:
    def test_total_assignment(self, clustered):
        partitioning = FennelPartitioner(seed=4).partition(clustered, 4)
        assert partitioning.num_vertices == clustered.num_vertices

    def test_balanced(self, clustered):
        partitioning = FennelPartitioner(seed=4).partition(clustered, 4)
        assert imbalance_factor(clustered, partitioning) <= 1.25

    def test_beats_hashing_on_communities(self, clustered):
        fennel = FennelPartitioner(seed=5).partition(clustered, 4)
        hashed = HashPartitioner().partition(clustered, 4)
        assert edge_cut(clustered, fennel) < 0.8 * edge_cut(clustered, hashed)

    def test_handles_sparse_graph(self):
        graph = make_random_graph(50, 20, seed=7)
        partitioning = FennelPartitioner(seed=7).partition(graph, 3)
        assert partitioning.num_vertices == 50
