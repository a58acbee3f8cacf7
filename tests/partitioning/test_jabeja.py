"""Tests for the JA-BE-JA baseline, including the paper's critique."""

import pytest

from repro.exceptions import PartitioningError
from repro.graph.generators import community_graph, zipf_vertex_weights
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.jabeja import JaBeJaPartitioner
from repro.partitioning.metrics import edge_cut, imbalance_factor


@pytest.fixture(scope="module")
def clustered():
    return community_graph(200, intra_probability=0.8, seed=17)


class TestJaBeJa:
    def test_total_assignment(self, clustered):
        partitioning = JaBeJaPartitioner(rounds=5, seed=1).partition(clustered, 4)
        assert partitioning.num_vertices == clustered.num_vertices

    def test_counts_perfectly_balanced(self, clustered):
        """Color swapping can never change partition cardinalities."""
        partitioning = JaBeJaPartitioner(rounds=10, seed=2).partition(clustered, 4)
        sizes = partitioning.sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_improves_cut_over_hashing(self, clustered):
        jabeja = JaBeJaPartitioner(rounds=15, seed=3).partition(clustered, 4)
        hashed = HashPartitioner().partition(clustered, 4)
        assert edge_cut(clustered, jabeja) < 0.5 * edge_cut(clustered, hashed)

    def test_deterministic(self, clustered):
        a = JaBeJaPartitioner(rounds=5, seed=4).partition(clustered, 4)
        b = JaBeJaPartitioner(rounds=5, seed=4).partition(clustered, 4)
        assert a == b

    def test_papers_critique_weight_imbalance(self, clustered):
        """The paper: JA-BE-JA 'will ensure maintaining a balanced
        partitioning if vertices have fixed, uniform weights; however,
        this is usually not the case for social networks.'  With Zipf
        popularity weights, JA-BE-JA's count-balanced partitions are
        weight-imbalanced far beyond Hermes's epsilon."""
        graph = clustered.copy()
        partitioning = JaBeJaPartitioner(rounds=10, seed=5).partition(graph, 4)
        zipf_vertex_weights(graph, exponent=1.3, average_weight=3.0, seed=5)
        assert imbalance_factor(graph, partitioning) > 1.2

    def test_validation(self):
        with pytest.raises(PartitioningError):
            JaBeJaPartitioner(rounds=0)
