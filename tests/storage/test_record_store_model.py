"""Model test: ``FixedRecordStore`` against a plain dict, for every codec.

A hypothesis state machine drives write / overwrite / delete / read /
``get`` / ``in`` / ``ids()`` / save→load and compares each answer with a
dict holding the same records.  Small pages make page growth and slot
recycling happen within a few steps.  The id->slot index is a hash
table, so the ascending order of ``ids()`` / ``records()`` and
``max_id()`` is computed on demand; it is checked after every step, on
the live store and on one reopened from the same pages.
"""

import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.exceptions import RecordNotFoundError
from repro.storage.node_store import NodeCodec, NodeRecord
from repro.storage.pages import PagedFile
from repro.storage.property_store import PropertyCodec, PropertyRecord
from repro.storage.records import FixedRecordStore
from repro.storage.relationship_store import RelationshipCodec, RelationshipRecord

RECORD_IDS = st.integers(min_value=0, max_value=40)
REFS = st.integers(min_value=-1, max_value=2**62)
WEIGHTS = st.floats(allow_nan=False, allow_infinity=False, width=64)


def node_records(record_id):
    return st.builds(
        NodeRecord,
        node_id=st.just(record_id),
        first_rel=REFS,
        first_prop=REFS,
        weight=WEIGHTS,
        available=st.booleans(),
    )


def relationship_records(record_id):
    return st.builds(
        RelationshipRecord,
        rel_id=st.just(record_id),
        src=REFS,
        dst=REFS,
        src_prev=REFS,
        src_next=REFS,
        dst_prev=REFS,
        dst_next=REFS,
        first_prop=REFS,
        ghost=st.booleans(),
    )


def property_records(record_id):
    return st.builds(
        PropertyRecord,
        prop_id=st.just(record_id),
        owner_id=REFS,
        next_prop=REFS,
        key_blob=REFS,
        value_blob=REFS,
    )


class RecordStoreModel(RuleBasedStateMachine):
    """Subclasses bind ``codec_class`` and the ``records_for`` strategy."""

    codec_class = None
    records_for = None

    def __init__(self):
        super().__init__()
        self.store = self.fresh_store(PagedFile(page_size=128))
        self.model = {}

    def fresh_store(self, paged_file):
        return FixedRecordStore(self.codec_class(), paged_file)

    @rule(data=st.data(), record_id=RECORD_IDS)
    def write(self, data, record_id):
        record = data.draw(type(self).records_for(record_id))
        self.store.write(record_id, record)
        self.model[record_id] = record

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_present(self, data):
        record_id = data.draw(st.sampled_from(sorted(self.model)))
        self.store.delete(record_id)
        del self.model[record_id]
        with pytest.raises(RecordNotFoundError):
            self.store.read(record_id)

    @rule(record_id=RECORD_IDS)
    def lookup(self, record_id):
        expected = self.model.get(record_id)
        assert self.store.get(record_id) == expected
        assert (record_id in self.store) == (expected is not None)
        if expected is None:
            with pytest.raises(RecordNotFoundError):
                self.store.read(record_id)
            with pytest.raises(RecordNotFoundError):
                self.store.delete(record_id)
        else:
            assert self.store.read(record_id) == expected

    @rule()
    def save_and_reload(self):
        pages_before = self.store.pages.num_pages
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "records.store")
            self.store.save(path)
            self.store = self.fresh_store(PagedFile.load(path))
        assert self.store.pages.num_pages == pages_before

    @invariant()
    def enumerations_agree(self):
        assert len(self.store) == len(self.model)
        assert list(self.store.records()) == [
            self.model[record_id] for record_id in sorted(self.model)
        ]
        # Freed slots are recycled: the file never outgrows its high-water mark.
        slots = self.store.pages.num_pages * self.store.slots_per_page
        assert slots - len(self.store._free_slots) >= len(self.model)

    @invariant()
    def order_holds_live_and_after_reopen(self):
        """Reopening rebuilds the index by scanning the pages
        (``_rebuild_index``); the on-demand order must not depend on it."""
        pages = PagedFile(page_size=self.store.pages.page_size)
        pages.buffers.extend(bytearray(page) for page in self.store.pages.buffers)
        expected_max = max(self.model) if self.model else None
        for store in (self.store, self.fresh_store(pages)):
            ids = list(store.ids())
            assert all(low < high for low, high in zip(ids, ids[1:]))
            assert ids == sorted(self.model)
            assert store.max_id() == expected_max


def machine_for(codec, records):
    class Machine(RecordStoreModel):
        codec_class = codec
        records_for = staticmethod(records)

    Machine.__name__ = f"{codec.__name__}Model"
    case = Machine.TestCase
    case.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
    return case


TestNodeCodecModel = machine_for(NodeCodec, node_records)
TestRelationshipCodecModel = machine_for(RelationshipCodec, relationship_records)
TestPropertyCodecModel = machine_for(PropertyCodec, property_records)
