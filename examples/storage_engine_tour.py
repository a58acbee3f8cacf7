"""A tour of the Neo4j-style storage engine underneath each server.

Shows the record model the paper describes in Section 4: fixed-size node
and relationship records with doubly-linked relationship chains, a
dynamic property store, ghost relationships for cross-partition edges,
the hash ID index (sparse, striped ids), the write-ahead log with crash
recovery, and checksummed persistence.

Run with::

    python examples/storage_engine_tour.py
"""

import tempfile

from repro.cluster.durability import ServerJournal
from repro.exceptions import StorageError, VertexUnavailableError
from repro.storage import GraphStore


def main() -> None:
    # Two "servers", each with its own store; IDs are striped so they
    # never collide.
    server_a = GraphStore(server_id=0, num_servers=2)
    server_b = GraphStore(server_id=1, num_servers=2)

    # --- nodes and properties -----------------------------------------
    for user, name in ((1, "alice"), (2, "bob"), (3, "carol")):
        server_a.create_node(user, properties={"name": name})
    server_b.create_node(4, properties={"name": "dave"})

    # --- local relationships: doubly-linked chains ----------------------
    friendship = server_a.create_relationship(
        server_a.allocate_rel_id(), 1, 2, properties={"since": 2015}
    )
    server_a.create_relationship(server_a.allocate_rel_id(), 1, 3)
    print("alice's adjacency (one chain walk, no index):",
          sorted(server_a.neighbors(1)))
    print("friendship properties:",
          server_a.relationship_properties(friendship.rel_id))

    # --- a cross-partition edge: primary + ghost ------------------------
    rel_id = server_a.allocate_rel_id()
    server_a.create_relationship(rel_id, 3, 4)           # primary, with props allowed
    server_b.create_relationship(rel_id, 3, 4, ghost=True)  # ghost counterpart
    print("carol sees dave locally:", server_a.neighbors(3))
    print("dave's side is a ghost:",
          server_b.relationship(rel_id).ghost)

    # --- a write is checked before its first byte is written ------------
    try:
        server_a.set_node_property(1, "avatar", object())
    except StorageError as exc:
        print("rejected write:", exc, "- alice still has", server_a.node_properties(1))

    # --- the migration 'unavailable' state ------------------------------
    server_a.set_available(2, False)
    try:
        server_a.node_properties(2)
    except VertexUnavailableError:
        print("bob is mid-migration: queries treat him as absent")
    server_a.set_available(2, True)

    # --- write-ahead logging and crash recovery --------------------------
    # A log over the stores themselves: the journal checkpoints the pages,
    # each commit writes the changed slots' images as one flushed frame,
    # and recovery redoes the frames into the checkpoint pages.
    journal = ServerJournal(server_a)
    server_a.set_node_property(3, "city", "oslo")
    journal.commit()
    server_a.set_node_property(3, "city", "rome")  # open: not in the log yet
    recovered = journal.rebuild(server_id=0)
    print(
        "after crash recovery: carol's city =",
        recovered.get_node_property(3, "city"),
        f"({len(journal.wal)} committed frame, {journal.wal.size_bytes} bytes "
        "of WAL; the uncommitted write is gone)",
    )

    # --- persistence with per-page checksums -----------------------------
    with tempfile.TemporaryDirectory() as directory:
        server_a.save(directory)
        reloaded = GraphStore.load(directory)
        print("reloaded alice:", reloaded.node_properties(1),
              "neighbors:", sorted(reloaded.neighbors(1)))
        print("store stats:", reloaded.stats())


if __name__ == "__main__":
    main()
