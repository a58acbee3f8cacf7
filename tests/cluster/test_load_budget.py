"""Count guard for the bulk load (no timing).

``HermesCluster.load`` writes each server's share with one
``GraphStore.bulk_load``, which fills every record store a page at a
time from columns (``FixedRecordStore.write_columns``) and reads nothing
back (DESIGN.md §15, "Bulk load writes pages").  The budget is checked
by counting, with hooks installed from here, on a seeded durable
cluster:

* ``FixedRecordStore.write_fields`` — the slot writer: none on the load
  path;
* ``FixedRecordStore.fields`` — every checked record access (each read
  goes through it);
* ``PagedFile.allocate_page`` — each record store allocates exactly the
  pages its records fill, ⌈records / slots_per_page⌉;
* every record store's id->slot index (``count_index_calls``): storing a
  new id is an insert, removing one a delete, ``get`` and ``in`` probes;
* ``WriteAheadLog.flush`` — a bulk load checkpoints, it logs nothing.

The per-record load before it made 14 736 slot writes (3.10 per record)
and 13 758 record reads (2.89 per record) on this load; the
chain-at-once load that wrote each record once made 4 760 slot writes
and 4 760 index probes.
"""

from collections import Counter

import pytest

from repro.cluster.hermes import HermesCluster
from repro.graph.generators import make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.storage.pages import PagedFile
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
    count_calls(PagedFile, "allocate_page", "pages")
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
    assert counts["writes"] == 0  # the record-at-a-time loads: 14 736, 4 760
    assert counts["reads"] == 0  # the per-record load: 13 758
    pages = 0
    for server in cluster.servers:
        for store in server.store.record_stores():
            full, partial = divmod(len(store), store.slots_per_page)
            assert store.pages.num_pages == full + (partial > 0)
            pages += store.pages.num_pages
    assert counts["pages"] == pages
    assert (counts["inserts"], counts["deletes"]) == (records, 0)
    assert counts["probes"] == 0  # the record-at-a-time load: 4 760
    assert counts["flushes"] == 0
    cluster.validate()
