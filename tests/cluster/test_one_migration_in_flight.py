"""Only one migration in flight per cluster.

Every entry that starts a migration — ``rebalance_steps`` (and so
``rebalance``), ``drain_server``, ``repartition_static`` and a resharding
``add_server`` — takes the cluster's migration slot before its first side
effect and holds it from phase 1 through the last remove step.  A clash
raises :class:`~repro.exceptions.MigrationInFlightError` and changes
nothing.  Without the slot, two online rebalances interleave their
copy-steps, windows and remove steps and corrupt the stores.
"""

import pytest

from repro.cluster import ClientPool, HermesCluster
from repro.concurrency.engine import ConcurrentExecutor
from repro.core import RepartitionerConfig
from repro.exceptions import ClusterError, MigrationInFlightError
from repro.graph.generators import community_graph
from repro.partitioning import MultilevelPartitioner
from repro.simtest.invariants import InvariantAuditor
from repro.workloads import TraceConfig, hotspot_trace

from tests.conftest import deep_snapshot, telemetry_snapshot


def build_cluster():
    return HermesCluster.from_graph(
        community_graph(120, seed=31),
        num_servers=3,
        partitioner=MultilevelPartitioner(seed=31),
        repartitioner=RepartitionerConfig(epsilon=1.1, k=2),
    )


def observable(cluster):
    """Everything a refused entry must leave as it was."""
    return (
        deep_snapshot(cluster),
        telemetry_snapshot(cluster),
        cluster.now,
        cluster.num_servers,
        [server.state for server in cluster.servers],
        list(cluster.aux.capacities),
        {v: cluster.graph.weight(v) for v in cluster.graph.vertices()},
    )


def assert_clean(cluster, engine):
    assert engine.coherence_violations == []
    assert engine.monotonicity_violations() == []
    assert InvariantAuditor().audit(cluster) == []
    cluster.validate()


class TestPeriodicRebalances:
    def test_overlapping_periodic_rebalances_are_refused(self):
        """Eight clients check the trigger every 20 operations; a check
        that lands while the previous rebalance is still migrating is
        skipped instead of starting a second migration.  (A rebalance
        takes a step per (source, target) pair, so checks every 100
        operations no longer overlap.)"""
        cluster = build_cluster()
        refused = []
        rebalance_steps = cluster.rebalance_steps

        def recording(force=False):
            try:
                return (yield from rebalance_steps(force=force))
            except MigrationInFlightError as exc:
                refused.append(exc)
                raise

        cluster.rebalance_steps = recording
        pool = ClientPool(cluster, num_clients=8)
        report = pool.run(
            hotspot_trace(
                list(cluster.graph.vertices()),
                sorted(cluster.catalog.vertices_on(0)),
                TraceConfig(num_queries=400, hops=1, seed=1),
                hot_multiplier=3.0,
            ),
            rebalance_every=20,
        )
        assert refused, "the scenario no longer overlaps two checks"
        assert all(exc.holder == "rebalance" for exc in refused)
        assert report.operations == 400
        assert report.failed_operations == 0
        assert cluster.migration_in_flight is None
        assert_clean(cluster, pool.last_engine)


ENTRIES = {
    "rebalance": lambda cluster: cluster.rebalance(force=True),
    "drain_server": lambda cluster: cluster.drain_server(1),
    "repartition_static": lambda cluster: cluster.repartition_static(
        MultilevelPartitioner(seed=7)
    ),
    "add_server": lambda cluster: cluster.add_server(),
}


class TestEntriesWhileAMigrationIsInFlight:
    def start(self):
        """An online rebalance that has run phase 1 and its first
        copy-step and no further; returns ``(cluster, engine, handle)``."""
        cluster = build_cluster()
        for vertex in list(cluster.catalog.vertices_on(0)):
            cluster.aux.add_weight(vertex, 5.0)
        engine = ConcurrentExecutor(cluster)
        cluster._concurrent_engine = engine
        handle = engine.submit_rebalance(force=True)
        engine.step()
        assert not handle.done
        assert cluster._executor.window_open
        assert cluster.migration_in_flight == "rebalance"
        return cluster, engine, handle

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_entry_is_refused_and_changes_nothing(self, entry):
        cluster, engine, handle = self.start()
        before = observable(cluster)
        with pytest.raises(MigrationInFlightError) as refused:
            ENTRIES[entry](cluster)
        assert isinstance(refused.value, ClusterError)
        assert (refused.value.entry, refused.value.holder) == (entry, "rebalance")
        assert observable(cluster) == before
        engine.run()
        assert handle.ok, handle.error
        assert cluster.migration_in_flight is None
        assert_clean(cluster, engine)
        # The slot is free again: the refused call now goes through.
        ENTRIES[entry](cluster)
        assert cluster.migration_in_flight is None
        cluster.validate()

    def test_a_second_online_rebalance_is_refused(self):
        cluster = build_cluster()
        for vertex in list(cluster.catalog.vertices_on(0)):
            cluster.aux.add_weight(vertex, 5.0)
        engine = ConcurrentExecutor(cluster)
        cluster._concurrent_engine = engine
        first = engine.submit_rebalance(force=True)
        second = engine.submit_rebalance(force=True)
        engine.run()
        assert first.ok, first.error
        assert isinstance(second.error, MigrationInFlightError)
        assert second.steps == 0
        assert_clean(cluster, engine)

    def test_remove_steps_still_hold_the_slot(self):
        """The catalog commit closes the double-write window, but the remove
        steps still rewrite source records: the slot outlives it."""
        cluster, engine, handle = self.start()
        while cluster._executor.window_open:
            engine.step()
        assert not handle.done
        assert cluster.migration_in_flight == "rebalance"
        with pytest.raises(MigrationInFlightError):
            cluster.rebalance(force=True)
        engine.run()
        assert_clean(cluster, engine)
