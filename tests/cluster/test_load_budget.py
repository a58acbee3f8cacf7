"""Count guard for the bulk load (no timing).

``HermesCluster.load`` writes each server's share with one
``GraphStore.bulk_load``: every node and relationship record is written
once, with its final pointers, and nothing is read back (DESIGN.md §15,
"Bulk load writes a chain once").  The budget is checked by counting,
with hooks installed from here, on a seeded durable cluster:

* ``FixedRecordStore.write_fields`` — every slot write (the one place a
  slot is packed and written; ``write`` goes through it too);
* ``FixedRecordStore.fields`` — every checked record access (each read
  goes through it);
* every record store's id->slot index (``count_index_calls``): storing a
  new id is an insert, removing one a delete, ``get`` and ``in`` probes;
* ``WriteAheadLog.flush`` — a bulk load checkpoints, it logs nothing.

The per-record load it replaced made 14 736 slot writes (3.10 per
record) and 13 758 record reads (2.89 per record) on this load.
"""

from collections import Counter

import pytest

from repro.cluster.hermes import HermesCluster
from repro.graph.generators import make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.storage.records import FixedRecordStore
from repro.storage.wal import WriteAheadLog
from tests.conftest import count_index_calls

SERVERS = 4


@pytest.fixture
def counts(monkeypatch):
    tally = Counter()

    def count_calls(owner, name, key):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            tally[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count_index_calls(monkeypatch, tally)
    count_calls(FixedRecordStore, "write_fields", "writes")
    count_calls(FixedRecordStore, "fields", "reads")
    count_calls(WriteAheadLog, "flush", "flushes")
    return tally


def test_bulk_load_writes_each_record_once_and_reads_none(counts):
    graph = make_dataset("orkut", 300, seed=31).graph
    cluster = HermesCluster(SERVERS, durability=True)
    partitioning = HashPartitioner(salt=31).partition(graph, SERVERS)
    counts.clear()
    cluster.load(graph, partitioning)
    records = sum(
        len(server.store.nodes) + len(server.store.relationships)
        for server in cluster.servers
    )
    assert records == 4760
    assert counts["writes"] == records  # the parent: 14 736
    assert counts["reads"] == 0  # the parent: 13 758
    assert (counts["inserts"], counts["deletes"]) == (records, 0)
    assert counts["probes"] == records  # each write's own slot lookup
    assert counts["flushes"] == 0
    cluster.validate()
