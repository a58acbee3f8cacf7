"""Count guard for the migration write path (no timing).

The copy step installs a (source, target) pair's vertices with one
``GraphStore.import_nodes`` and the remove step retires each with one
``GraphStore.delete_node`` walk, so a relationship record is written
once where it arrives instead of once per record linked in after it,
and both work on raw fields, building no record value (DESIGN.md §15,
"migration write path").  The budget is checked by counting, with hooks
installed from here:

* every record store's id->slot index (``count_index_calls``): ``get``
  and ``in`` are probes; storing a new id and removing one are index
  maintenance, which the bulk path must leave exactly as the per-record
  path had it;
* the codecs' ``decode`` — every record value built from page bytes;
* every slot write: ``FixedRecordStore.write_fields`` packs and writes
  one slot (``write(record)`` and the field-level paths go through it),
  ``FixedRecordStore.write_columns`` writes a pair's images a page at a
  time and counts one write per slot it writes;
* ``GraphStore.import_nodes`` — one call per (source, target) pair.

The per-relationship figures of the path chains replaced on the same
rebalance were 20.1 probes and 5.2 slot writes; the chain path that
still built record values made 3.47 decodes, and the chain-at-a-time
import 1.37 slot writes and 8.06 probes.
"""

from collections import Counter

import pytest

from repro.cluster.hermes import HermesCluster
from repro.exceptions import StorageError
from repro.graph.generators import make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.storage.graph_store import GraphStore
from repro.storage.node_store import NodeCodec
from repro.storage.property_store import PropertyCodec
from repro.storage.records import FixedRecordStore
from repro.storage.relationship_store import RelationshipCodec
from tests.conftest import count_index_calls


@pytest.fixture
def counts(monkeypatch):
    tally = Counter()

    def count_calls(owner, name, key, weight=lambda *args: 1):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            tally[key] += weight(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count_index_calls(monkeypatch, tally)
    for codec in (NodeCodec, RelationshipCodec, PropertyCodec):
        count_calls(codec, "decode", "decodes")
    count_calls(FixedRecordStore, "write_fields", "writes")
    count_calls(
        FixedRecordStore, "write_columns", "writes", lambda store, columns: len(columns[1])
    )
    count_calls(GraphStore, "import_nodes", "pair imports")
    return tally


def test_serial_rebalance_stays_inside_its_write_budget(counts):
    graph = make_dataset("orkut", 300, 5).graph
    cluster = HermesCluster(4)
    cluster.load(graph, HashPartitioner(salt=5).partition(graph, 4))
    counts.clear()
    result, report = cluster.rebalance(force=True)
    assert (report.vertices_moved, report.relationships_transferred) == (202, 3470)
    transferred = report.relationships_transferred
    assert counts["writes"] <= 1.5 * transferred  # 1.29; a chain at a time: 1.37
    assert counts["decodes"] <= 1.0 * transferred  # 0; building records: 3.47
    assert counts["probes"] <= 7.95 * transferred  # 7.90; a chain at a time: 8.06
    pairs = {(source, target) for source, target in result.moves.values()}
    assert counts["pair imports"] == len(pairs) == 12
    # Index maintenance is what one record at a time did: the same
    # records come and go.
    assert (counts["inserts"], counts["deletes"]) == (1750, 3109)
    cluster.validate()


def store_state(store):
    return [
        (
            [bytes(page) for page in record_store.pages.buffers],
            list(record_store._free_slots),
            record_store._next_slot,
            list(record_store.ids()),
        )
        for record_store in store.record_stores()
    ] + [store.allocator_state(), store.properties._dynamic._next_chunk_id]


def payload(*relationships, node_id=0, weight=1.0):
    return {
        "node": {"node_id": node_id, "weight": weight},
        "properties": {"name": "zero"},
        "relationships": [
            {"rel_id": rel_id, "src": src, "dst": dst, "ghost": False, "properties": {"w": 1}}
            for rel_id, src, dst in relationships
        ],
    }


def target_store():
    """Hosts 1 and 2; record 10 (0, 1) waits for node 0, record 11
    (1, 2) is local, record 12 (0, 2) is linked on node 0's side (a
    corrupt leftover)."""
    store = GraphStore(server_id=0, num_servers=2)
    store.create_node(1, properties={"n": 1})
    store.create_node(2)
    store.create_relationship(10, 0, 1, ghost=True)
    store.create_relationship(11, 1, 2, properties={"w": 2})
    store.create_relationship(12, 0, 2)
    store.relationships.write(store.relationship(12)._replace(src_next=10))
    return store


@pytest.mark.parametrize(
    "bad, roles",
    [
        (payload((20, 0, 5), node_id=1), [False]),  # the node is already here
        (payload((20, 0, 5)), [False, True]),  # a role per relationship
        (payload((20, 0, 5), (20, 0, 6)), [False, False]),  # a record twice
        (payload((20, 0, 5), (21, 3, 5)), [False, False]),  # not an endpoint
        (payload((20, 0, 5), (21, 0, 0)), [False, False]),  # a self-loop
        (payload((20, 0, 5), (11, 0, 1)), [False, False]),  # 11 joins (1, 2)
        (payload((20, 0, 5), (12, 0, 2)), [False, False]),  # 12 is linked on 0's side
        # Values that fail only when packed: each used to be found by the
        # slot write that could not pack it, after earlier records were
        # written and linked into node 1's chain.
        (payload((30, 0, 1), (20, 0, 5), weight=None), [False, False]),
        (payload((30, 0, 1), (20, 0, 5), weight="heavy"), [False, False]),
        (payload((30, 0, 1), (-5, 0, 5)), [False, False]),  # negative id
        (payload((30, 0, 1), (2**70, 0, 5)), [False, False]),  # beyond int64
        (payload((30, 2**70, 1), (20, 2**70, 5), node_id=2**70), [False, False]),
    ],
    ids=[
        "present",
        "roles",
        "twice",
        "endpoint",
        "self-loop",
        "other-pair",
        "linked",
        "weight-none",
        "weight-str",
        "negative-rel-id",
        "huge-rel-id",
        "huge-node-id",
    ],
)
def test_an_invalid_payload_leaves_the_store_untouched(bad, roles):
    store = target_store()
    before = store_state(store)
    with pytest.raises(StorageError):
        store.import_node(bad, roles)
    assert store_state(store) == before


def test_a_valid_payload_after_the_checks_installs_the_chain():
    store = target_store()
    store.import_node(payload((20, 0, 5), (10, 0, 1)), [False, False])
    assert store.neighbors(0) == [1, 5]
    assert sorted(store.neighbors(1)) == [0, 2]
    assert store.relationship_properties(10) == {"w": 1}
