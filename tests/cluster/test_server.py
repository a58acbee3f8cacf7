"""Tests for the per-server request handling."""

import pytest

from repro.cluster.hermes import HermesCluster
from repro.cluster.server import HermesServer
from repro.exceptions import ClusterError
from tests.conftest import store_state


@pytest.fixture
def server():
    s = HermesServer(0, num_servers=2)
    for i in range(4):
        s.store.create_node(i)
    return s


class TestReads:
    """Single-record reads have one body, the cluster's: it reads the
    home server's store and counts the read on that server."""

    @pytest.fixture
    def cluster(self):
        cluster = HermesCluster(2)
        for i in range(4):
            cluster.add_vertex(i, properties={"name": f"user-{i}"})
        return cluster

    def test_read_vertex_writes_nothing(self, cluster):
        home = cluster.servers[cluster.catalog.lookup(1)]
        before = store_state(home.store)
        writes = home.writes_counter.value
        props, _ = cluster.read_vertex(1)
        assert props == {"name": "user-1"}
        assert store_state(home.store) == before
        assert home.store.node(1).weight == 1.0
        assert home.reads_counter.value == 1
        assert home.writes_counter.value == writes

    def test_read_missing_vertex(self, cluster):
        with pytest.raises(ClusterError):
            cluster.read_vertex(99)

    def test_read_unavailable_vertex(self, cluster):
        cluster.servers[cluster.catalog.lookup(1)].store.set_available(1, False)
        with pytest.raises(ClusterError):
            cluster.read_vertex(1)

    def test_expand(self, server):
        """The traversal engine's expansion step is a bulk store read."""
        server.store.create_relationship(server.store.allocate_rel_id(), 0, 1)
        server.store.set_available(2, False)
        answers = server.store.read_frontier([0, 2, 99, 1], True)
        assert [None if answer is None else list(answer) for answer in answers] == [
            [1],
            None,
            None,
            [0],
        ]
        assert server.store.read_frontier([0, 2, 99], False) == [(), None, None]
        # Visit accounting belongs to the traversal engine, not the read.
        assert server.visits_counter.value == 0


class TestWrites:
    def test_create_vertex(self, server):
        server.create_vertex(10, weight=2.0, properties={"a": 1})
        assert server.store.node(10).weight == 2.0
        assert server.store.node_properties(10) == {"a": 1}
        assert server.writes_counter.value == 1

    def test_create_edge(self, server):
        rel = server.store.create_relationship(
            server.store.allocate_rel_id(), 0, 1, properties={"w": 1}
        )
        assert server.store.neighbors(0) == [1]
        assert server.store.relationship_properties(rel.rel_id) == {"w": 1}

    def test_create_ghost_edge(self, server):
        server.store.create_relationship(1234, 0, 999, ghost=True)
        record = server.store.relationship(1234)
        assert record.ghost

    def test_repr(self, server):
        assert "HermesServer" in repr(server)
