"""Count guard for the write-ahead log (no timing).

One logical operation is one flushed log transaction per server it
touched (DESIGN.md §14).  The budget is checked by counting calls to
``WriteAheadLog.flush`` and the bytes ``WriteAheadLog.append`` adds, on
a seeded durable cluster:

* a bulk load logs nothing — it checkpoints;
* a write is one transaction on each server it wrote to;
* a migrated vertex is one transaction on its target (the copy) and one
  on its source (the removal); the first removal also carries the
  unavailable flags of every moved vertex to each source;
* a point read is one transaction — its popularity bump is a store
  write (until reads stop writing).
"""

import pytest

from repro.cluster.hermes import HermesCluster
from repro.graph.generators import make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.storage.wal import WriteAheadLog

SERVERS = 4


@pytest.fixture
def wal(monkeypatch):
    """A tally of ``flushes`` and appended ``bytes``."""
    tally = {"flushes": 0, "bytes": 0}
    flush, append = WriteAheadLog.flush, WriteAheadLog.append

    def counting_flush(log):
        tally["flushes"] += 1
        flush(log)

    def counting_append(log, payload):
        before = log.size_bytes
        append(log, payload)
        tally["bytes"] += log.size_bytes - before

    monkeypatch.setattr(WriteAheadLog, "flush", counting_flush)
    monkeypatch.setattr(WriteAheadLog, "append", counting_append)
    return tally


def loaded_cluster():
    graph = make_dataset("orkut", 300, seed=31).graph
    cluster = HermesCluster(SERVERS, durability=True)
    cluster.load(graph, HashPartitioner(salt=31).partition(graph, SERVERS))
    return cluster


def test_bulk_load_logs_nothing(wal):
    loaded_cluster()
    assert wal == {"flushes": 0, "bytes": 0}  # the parent: 4 768 flushes


def test_writes_are_one_transaction_per_touched_server(wal):
    cluster = loaded_cluster()
    home = cluster.catalog.lookup
    wal["flushes"] = 0
    cluster.add_vertex(10**6, properties={"name": "x"}, server=0)
    assert wal["flushes"] == 1  # the parent: 2
    local = next(v for v in sorted(cluster.graph.vertices()) if home(v) == 0 and v != 10**6)
    remote = next(v for v in sorted(cluster.graph.vertices()) if home(v) == 1)
    cluster.add_edge(10**6, local)
    assert wal["flushes"] == 2
    cluster.add_edge(10**6, remote)
    assert wal["flushes"] == 4


def test_point_read_is_one_transaction(wal):
    cluster = loaded_cluster()
    wal["flushes"] = 0
    for vertex in sorted(cluster.graph.vertices())[:10]:
        cluster.read_vertex(vertex)
    assert wal["flushes"] == 10


def test_migration_is_two_transactions_per_vertex(wal):
    cluster = loaded_cluster()
    wal.update(flushes=0, bytes=0)
    result, report = cluster.rebalance(force=True)
    moved = report.vertices_moved
    assert moved == result.vertices_moved > 100
    sources = len({source for source, _ in result.moves.values()})
    # one copy + one removal per vertex, and the availability pass of
    # the first removal reaching every other source server
    assert wal["flushes"] == 2 * moved + sources - 1
    assert wal["flushes"] / moved < 2.05  # the parent: 27.6
    assert wal["bytes"] / moved <= 8 * 1024  # the parent: 8 646 B
