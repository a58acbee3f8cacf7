"""Tests for the simulated network cost model."""

import pytest

from repro.cluster.network import (
    BATCH_BASE_BYTES,
    BATCH_ENTRY_BYTES,
    BATCH_ENTRY,
    LOCAL_VISIT,
    REMOTE_HOP,
    LinkStats,
    SimulatedNetwork,
)
from repro.exceptions import ClusterError
from repro.telemetry import Telemetry


class TestCosts:
    def test_local_visit_cost(self):
        network = SimulatedNetwork(4)
        assert network.local_visit() == LOCAL_VISIT

    def test_remote_hop_counts_message(self):
        network = SimulatedNetwork(4)
        cost = network.remote_hop(0, 1)
        assert cost == REMOTE_HOP
        assert network.stats.messages == 1
        assert network.stats.per_link[(0, 1)].messages == 1
        assert network.stats.per_link[(0, 1)].bytes == 256

    def test_same_server_hop_is_free(self):
        network = SimulatedNetwork(4)
        assert network.remote_hop(2, 2) == 0.0
        assert network.stats.messages == 0

    def test_transfer_scales_with_size(self):
        network = SimulatedNetwork(4)
        small = network.transfer(0, 1, 100)
        large = network.transfer(0, 1, 100_000)
        assert large > small
        assert network.stats.bytes_sent == 100_100
        assert network.stats.per_link[(0, 1)].bytes == 100_100
        assert network.stats.per_link[(0, 1)].messages == 2

    def test_broadcast_reaches_everyone_else(self):
        network = SimulatedNetwork(4)
        cost = network.broadcast(0)
        assert cost == pytest.approx(3 * REMOTE_HOP)
        assert network.stats.messages == 3

    def test_validation(self):
        with pytest.raises(ClusterError):
            SimulatedNetwork(0)
        network = SimulatedNetwork(2)
        with pytest.raises(ClusterError):
            network.remote_hop(0, 5)

    def test_add_server_grows_the_ledger(self):
        network = SimulatedNetwork(2)
        network.remote_hop(0, 1, size=10)
        joined = network.add_server()
        network.remote_hop(0, joined, size=20)
        network.batched_hop(joined, 1, count=3)
        batch = BATCH_BASE_BYTES + 3 * BATCH_ENTRY_BYTES
        assert network.stats.per_link == {
            (0, 1): LinkStats(1, 10),
            (0, 2): LinkStats(1, 20),
            (2, 1): LinkStats(1, batch),
        }
        assert [len(row) for row in network.link_bytes] == [3, 3, 3]
        with pytest.raises(ClusterError):
            network.remote_hop(0, 3)


class TestTopLinks:
    def build(self):
        network = SimulatedNetwork(4)
        network.remote_hop(0, 1, size=100)
        network.remote_hop(0, 1, size=100)
        network.transfer(2, 3, size=5_000)
        network.remote_hop(1, 0, size=50)
        return network

    def test_top_by_bytes(self):
        network = self.build()
        top = network.stats.top_links(2)
        assert [link for link, _ in top] == [(2, 3), (0, 1)]
        assert top[0][1].bytes == 5_000
        assert top[1][1].messages == 2

    def test_top_by_messages(self):
        network = self.build()
        top = network.stats.top_links(1, by="messages")
        assert top[0][0] == (0, 1)

    def test_top_n_larger_than_links(self):
        network = self.build()
        assert len(network.stats.top_links(100)) == 3

    def test_bad_sort_key(self):
        network = self.build()
        with pytest.raises(ValueError):
            network.stats.top_links(1, by="latency")

    def test_ties_break_in_ascending_link_order(self):
        network = SimulatedNetwork(4)
        # Insert in descending link order so insertion order cannot mask
        # a missing tie-break; all three links carry identical traffic.
        network.remote_hop(2, 3, size=100)
        network.remote_hop(1, 2, size=100)
        network.remote_hop(0, 1, size=100)
        top = network.stats.top_links(3)
        assert [link for link, _ in top] == [(0, 1), (1, 2), (2, 3)]
        top = network.stats.top_links(3, by="messages")
        assert [link for link, _ in top] == [(0, 1), (1, 2), (2, 3)]


class TestTelemetryMirror:
    def test_counters_match_legacy_stats(self):
        hub = Telemetry()
        network = SimulatedNetwork(4, telemetry=hub)
        network.remote_hop(0, 1, size=128)
        network.transfer(1, 2, size=4_096)
        network.broadcast(3, size=16)
        assert hub.registry.total("network_messages_total") == (
            network.stats.messages
        )
        assert hub.registry.total("network_bytes_total") == (
            network.stats.bytes_sent
        )
        assert hub.registry.value("network_messages_total", kind="transfer") == 1

    def test_hop_latency_follows_from_counts(self):
        """Wire latency is not observed: it is the hop count and the batch
        entries times the price table."""
        hub = Telemetry()
        network = SimulatedNetwork(2, telemetry=hub)
        cost = sum(network.remote_hop(0, 1) for _ in range(5))
        cost += network.batched_hop(0, 1, count=3)
        hops = hub.registry.value("network_messages_total", kind="hop")
        entries = hub.histogram("network_batch_entries").sum
        assert cost == pytest.approx(hops * REMOTE_HOP + entries * BATCH_ENTRY)
        assert "network_hop_seconds" not in {
            family.name for family in hub.registry.families()
        }

    def test_link_gauge_export(self):
        hub = Telemetry()
        network = SimulatedNetwork(2, telemetry=hub)
        network.remote_hop(0, 1, size=64)
        network.export_link_metrics()
        assert hub.registry.value("network_link_bytes", src=0, dst=1) == 64
        assert hub.registry.value("network_link_messages", src=0, dst=1) == 1

    def test_a_network_without_a_hub_counts(self):
        network = SimulatedNetwork(2)
        network.remote_hop(0, 1, size=64)
        assert network.stats.messages == 1
        registry = network.telemetry.registry
        assert registry.value("network_messages_total", kind="hop") == 1
        assert registry.value("network_bytes_total", kind="hop") == 64
