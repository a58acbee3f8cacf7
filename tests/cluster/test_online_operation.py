"""Tests for online operation extensions: weight decay and periodic
auto-rebalancing during a running workload."""

import pytest

from repro.cluster import ClientPool, HermesCluster
from repro.core import RepartitionerConfig
from repro.exceptions import PartitioningError
from repro.graph.generators import community_graph
from repro.partitioning import MultilevelPartitioner
from repro.workloads import TraceConfig, hotspot_trace


def build_cluster():
    graph = community_graph(120, seed=31)
    return HermesCluster.from_graph(
        graph,
        num_servers=3,
        partitioner=MultilevelPartitioner(seed=31),
        repartitioner=RepartitionerConfig(epsilon=1.1, k=2),
    )


@pytest.fixture
def cluster():
    return build_cluster()


class LoadedWeights:
    """A cluster's graph view read with another graph's vertex weights."""

    def __init__(self, view, weights):
        self._view = view
        self._weights = weights

    def __getattr__(self, name):
        return getattr(self._view, name)

    def weight_of(self, vertex):
        return self._weights.weight(vertex)


class TestWeightDecay:
    def test_decay_shrinks_hot_weights(self, cluster):
        vertex = next(iter(cluster.graph.vertices()))
        cluster.aux.add_weight(vertex, 99.0)
        cluster.decay_weights(factor=0.5)
        assert cluster.aux.weight_of(vertex) == pytest.approx(50.0)

    def test_floor_preserved(self, cluster):
        cluster.decay_weights(factor=0.01)
        for vertex in cluster.graph.vertices():
            assert cluster.aux.weight_of(vertex) >= 1.0

    def test_partition_weights_rebuilt(self, cluster):
        cluster.decay_weights(factor=0.5)
        total = sum(
            cluster.aux.weight_of(v) for v in cluster.graph.vertices()
        )
        assert sum(cluster.aux.partition_weights) == pytest.approx(total)
        cluster.validate()

    def test_invalid_factor(self, cluster):
        with pytest.raises(PartitioningError):
            cluster.decay_weights(factor=0.0)
        with pytest.raises(PartitioningError):
            cluster.decay_weights(factor=1.5)

    def test_static_repartitioning_balances_live_popularity(self):
        """The METIS substitute reads the view's weights; after reads
        and a decay they must be the auxiliary data's."""

        def driven():
            cluster = build_cluster()
            trace = hotspot_trace(
                sorted(cluster.graph.vertices()),
                sorted(cluster.catalog.vertices_on(0)),
                TraceConfig(num_queries=200, hops=1, seed=5),
            )
            for operation in trace:
                cluster.traverse(operation.start, hops=operation.hops)
            cluster.decay_weights(factor=0.5)
            return cluster

        # A twin run's view, whose weights are its auxiliary data's.
        # Read with the loaded weights instead, the placement differs.
        twin = driven()
        loaded = community_graph(120, seed=31)
        stale = MultilevelPartitioner(seed=7).partition(
            LoadedWeights(twin.graph, loaded), 3
        )
        expected = MultilevelPartitioner(seed=7).partition(twin.graph, 3)
        assert sorted(expected.items()) != sorted(stale.items())
        cluster = driven()
        cluster.repartition_static(MultilevelPartitioner(seed=7))
        assert sorted(cluster.catalog.as_mapping().items()) == sorted(
            expected.items()
        )
        cluster.validate()

    def test_decay_can_quiesce_the_trigger(self, cluster):
        for vertex in list(cluster.catalog.vertices_on(0)):
            cluster.aux.add_weight(vertex, 20.0)
        assert cluster.check_trigger().should_repartition
        cluster.decay_weights(factor=0.01)
        assert not cluster.check_trigger().should_repartition


class TestAutoRebalance:
    def test_periodic_rebalance_keeps_balance(self, cluster):
        pool = ClientPool(cluster, num_clients=8)
        vertices = list(cluster.graph.vertices())
        hot = sorted(cluster.catalog.vertices_on(0))
        pool.run(
            hotspot_trace(
                vertices,
                hot,
                TraceConfig(num_queries=400, hops=1, seed=1),
                hot_multiplier=3.0,
            ),
            rebalance_every=100,
        )
        # Periodic checks bounded the drift; without them the same trace
        # pushes imbalance well past epsilon.
        assert cluster.imbalance() < 1.45
        assert pool.last_engine.coherence_violations == []
        cluster.validate()

    def test_without_rebalance_drifts_more(self):
        def run(rebalance_every):
            graph = community_graph(120, seed=32)
            cluster = HermesCluster.from_graph(
                graph,
                num_servers=3,
                partitioner=MultilevelPartitioner(seed=32),
                repartitioner=RepartitionerConfig(epsilon=1.1, k=2),
            )
            pool = ClientPool(cluster, num_clients=8)
            vertices = list(cluster.graph.vertices())
            hot = sorted(cluster.catalog.vertices_on(0))
            pool.run(
                hotspot_trace(
                    vertices,
                    hot,
                    TraceConfig(num_queries=400, hops=1, seed=2),
                    hot_multiplier=3.0,
                ),
                rebalance_every=rebalance_every,
            )
            return cluster.imbalance()

        assert run(rebalance_every=80) <= run(rebalance_every=None) + 1e-9
