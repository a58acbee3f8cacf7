"""Count guard for the write-ahead log (no timing).

One logical operation is one flushed log transaction per server it
touched (DESIGN.md §14).  The budget is checked by counting calls to
``WriteAheadLog.flush`` and the bytes ``WriteAheadLog.append`` adds, on
a seeded durable cluster:

* a bulk load logs nothing — it checkpoints;
* a write is one transaction on each server it wrote to;
* a migration step moves one (source, target) pair of the plan: its
  copy is one transaction on the target and its removal one on the
  source; the first removal also carries the unavailable flags of every
  moved vertex to each source;
* a point read logs nothing — popularity is auxiliary data, so a read
  writes no store.
"""

import pytest

from repro.cluster.hermes import HermesCluster
from repro.graph.generators import make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.serving.frontend import ServingFrontend
from repro.storage.records import FixedRecordStore
from repro.storage.wal import WriteAheadLog
from tests.conftest import new_vertex_on

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


@pytest.fixture
def record_writes(monkeypatch):
    """A one-entry list counting slot writes: calls of
    ``FixedRecordStore.write_fields``, which every write goes through."""
    tally = [0]
    write = FixedRecordStore.write_fields

    def counting_write(store, *args):
        tally[0] += 1
        write(store, *args)

    monkeypatch.setattr(FixedRecordStore, "write_fields", counting_write)
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
    fresh = new_vertex_on(cluster, 0, 10**6)
    cluster.add_vertex(fresh, properties={"name": "x"})
    assert wal["flushes"] == 1  # the parent: 2
    local = next(v for v in sorted(cluster.graph.vertices()) if home(v) == 0 and v != fresh)
    remote = next(v for v in sorted(cluster.graph.vertices()) if home(v) == 1)
    cluster.add_edge(fresh, local)
    assert wal["flushes"] == 2
    cluster.add_edge(fresh, remote)
    assert wal["flushes"] == 4


def test_point_read_logs_nothing(wal, record_writes):
    cluster = loaded_cluster()
    wal.update(flushes=0, bytes=0)
    record_writes[0] = 0
    for vertex in sorted(cluster.graph.vertices())[:10]:
        properties, _ = cluster.read_vertex(vertex)
        assert properties == {}
    assert wal == {"flushes": 0, "bytes": 0}  # the parent: 10 flushes
    assert record_writes == [0]  # the parent: 10
    assert [len(server.journal.wal) for server in cluster.servers] == [0] * SERVERS


def test_front_door_reads_write_no_record(wal, record_writes):
    """Primary- and replica-served reads alike leave every store as it
    was: popularity goes to the auxiliary data only."""
    cluster = loaded_cluster()
    frontend = ServingFrontend(cluster)
    cluster.serving = frontend
    vertices = sorted(cluster.graph.vertices())[:20]
    popularity = [cluster.aux.weight_of(vertex) for vertex in vertices]
    wal.update(flushes=0, bytes=0)
    record_writes[0] = 0
    outcomes = [frontend.submit("read", vertex) for vertex in vertices]
    assert [outcome.status for outcome in outcomes] == ["completed"] * 20
    assert record_writes == [0]
    assert wal == {"flushes": 0, "bytes": 0}
    assert [cluster.aux.weight_of(vertex) for vertex in vertices] == [
        weight + 1.0 for weight in popularity
    ]


def test_migration_is_one_transaction_per_pair_step(wal):
    cluster = loaded_cluster()
    wal.update(flushes=0, bytes=0)
    result, report = cluster.rebalance(force=True)
    moved = report.vertices_moved
    assert moved == result.vertices_moved > 100
    pairs = len(set(result.moves.values()))
    sources = len({source for source, _ in result.moves.values()})
    # one copy on the target + one removal on the source per (source,
    # target) pair, and the availability pass of the first removal
    # reaching every other source server
    assert wal["flushes"] == 2 * pairs + sources - 1
    assert wal["flushes"] / moved < 0.5  # per vertex steps: 2.02
    assert wal["bytes"] / moved <= 8 * 1024  # the parent: 8 646 B
