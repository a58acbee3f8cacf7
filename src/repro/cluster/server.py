"""One Hermes server: a GraphStore plus transactions and request handling.

Servers expose the record-level operations the workloads exercise —
single-record reads, property writes, vertex/edge inserts.  The
distributed traversal engine reads a server's share of a frontier
straight from its ``store`` (``GraphStore.read_frontier``) and does the
visit accounting itself.  Every mutation runs inside a transaction with
record locks, mirroring the engine described in Section 4.

Per-server load counters (vertices visited, record reads, transactional
writes, simulated busy seconds) live in the telemetry registry, labelled
by server, so they show up in every export alongside the network and
migration metrics.  The historical ``server.visits``-style attribute API
is preserved as thin properties over those instruments; the instrument
objects themselves (``visits_counter`` …) are public so hot paths pay a
single bound-method call.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cluster.faults import FaultInjector
from repro.exceptions import ClusterError
from repro.storage.graph_store import GraphStore
from repro.telemetry import Telemetry
from repro.txn.locks import LockMode
from repro.txn.manager import TransactionManager


#: membership state machine (DESIGN.md §14):
#: JOINING -> ACTIVE -> DRAINING -> DETACHED, ACTIVE -> CRASHED ->
#: RECOVERING -> ACTIVE.  Servers are never deleted from the cluster's
#: server list — ids stay dense and valid — but only ACTIVE servers are
#: schedulable placement targets.
JOINING = "joining"
ACTIVE = "active"
DRAINING = "draining"
DETACHED = "detached"
CRASHED = "crashed"
RECOVERING = "recovering"


class HermesServer:
    """A single database server hosting one partition."""

    def __init__(
        self,
        server_id: int,
        num_servers: int,
        clock=None,
        lock_timeout: float = 1.0,
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self.server_id = server_id
        self.store = GraphStore(server_id=server_id, num_servers=num_servers)
        self.txns = TransactionManager(clock=clock, lock_timeout=lock_timeout)
        #: the store's write-ahead log (a ``ServerJournal``) on durable
        #: clusters, None otherwise
        self.journal = None
        self.faults: Optional[FaultInjector] = None
        #: membership state (module-level constants above)
        self.state = ACTIVE
        #: relative serving capacity (1.0 = one standard server)
        self.capacity = 1.0
        # The legacy attribute API reads through these instruments, so the
        # registry must be real even without an attached sink: a bare
        # Telemetry() is exactly that (in-memory numbers, no recording).
        if telemetry is None or telemetry.null:
            telemetry = Telemetry(clock=clock)
        self.telemetry = telemetry
        label = dict(labels or {})
        label["server"] = server_id
        #: instrumentation: how many vertices this server processed
        self.visits_counter = telemetry.counter(
            "server_visits_total", "vertices processed by this server", **label
        )
        self.reads_counter = telemetry.counter(
            "server_reads_total", "single-record read requests", **label
        )
        self.writes_counter = telemetry.counter(
            "server_writes_total", "transactional write requests", **label
        )
        #: simulated CPU-seconds this server has spent serving requests
        self.busy_counter = telemetry.counter(
            "server_busy_seconds_total", "simulated busy seconds", **label
        )

    # ------------------------------------------------------------------
    # Read-only attribute views of the counters
    # ------------------------------------------------------------------
    @property
    def visits(self) -> int:
        return int(self.visits_counter.value)

    @property
    def reads(self) -> int:
        return int(self.reads_counter.value)

    @property
    def writes(self) -> int:
        return int(self.writes_counter.value)

    @property
    def busy_seconds(self) -> float:
        return self.busy_counter.value

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def attach_faults(self, injector: Optional[FaultInjector]) -> None:
        """Install (or with None, remove) the fault-injection oracle.

        While the injector places this server inside a crash window,
        request dispatch raises :class:`~repro.exceptions.ServerDownError`
        — the store itself survives the outage untouched, matching the
        paper's assumption that a restarted server recovers its data.
        """
        self.faults = injector

    def check_up(self) -> None:
        """Raise :class:`~repro.exceptions.ServerDownError` while the
        injector places this server inside a crash window."""
        if self.faults is not None:
            self.faults.check_server(self.server_id)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read_vertex(self, node_id: int) -> Dict[str, Any]:
        """Single-record query: the node's properties (bumps popularity)."""
        self.check_up()
        properties = self.store.point_read(node_id, 1.0)
        if properties is None:
            raise ClusterError(f"vertex {node_id} is not served by server {self.server_id}")
        self.reads_counter.inc()
        self.visits_counter.inc()
        return properties

    # ------------------------------------------------------------------
    # Write path (transactional)
    # ------------------------------------------------------------------
    def create_vertex(
        self, node_id: int, weight: float = 1.0, properties: Optional[Dict] = None
    ) -> None:
        self.writes_counter.inc()
        with self.txns.begin() as txn:
            txn.lock(("node", node_id), LockMode.EXCLUSIVE)
            self.store.create_node(node_id, weight=weight, properties=properties)
            txn.record_undo(lambda: self.store.delete_node(node_id))

    def create_local_edge(
        self, rel_id: int, src: int, dst: int, properties: Optional[Dict] = None
    ) -> None:
        """Insert an edge record; both/either endpoint may be local."""
        self.writes_counter.inc()
        with self.txns.begin() as txn:
            txn.lock(("node", src), LockMode.EXCLUSIVE)
            txn.lock(("node", dst), LockMode.EXCLUSIVE)
            self.store.create_relationship(rel_id, src, dst, properties=properties)
            txn.record_undo(lambda: self.store.delete_relationship(rel_id))

    def create_ghost_edge(self, rel_id: int, src: int, dst: int) -> None:
        """Insert the ghost counterpart of a cross-partition edge."""
        self.writes_counter.inc()
        with self.txns.begin() as txn:
            txn.lock(("rel", rel_id), LockMode.EXCLUSIVE)
            self.store.create_relationship(rel_id, src, dst, ghost=True)
            txn.record_undo(lambda: self.store.delete_relationship(rel_id))

    def set_property(self, node_id: int, key: str, value: Any) -> None:
        self.writes_counter.inc()
        with self.txns.begin() as txn:
            txn.lock(("node", node_id), LockMode.EXCLUSIVE)
            previous = self.store.get_node_property(node_id, key)
            had_key = key in self.store.node_properties(node_id)
            self.store.set_node_property(node_id, key, value)

            def undo() -> None:
                if had_key:
                    self.store.set_node_property(node_id, key, previous)
                else:
                    self.store.remove_node_property(node_id, key)

            txn.record_undo(undo)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.store.num_nodes

    def __repr__(self) -> str:
        return (
            f"HermesServer(id={self.server_id}, vertices={self.store.num_nodes}, "
            f"relationships={len(self.store.relationships)})"
        )
