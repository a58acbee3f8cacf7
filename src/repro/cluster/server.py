"""One Hermes server: a GraphStore plus request handling.

Servers expose vertex inserts and a crash-window check.  Reads go
straight to a server's ``store``: the cluster's one single-record read
body (``HermesCluster._serve_read``) and the traversal engine
(``GraphStore.read_frontier``) each do their own visit accounting; the
cluster writes edges through ``store.create_relationship``.  No
lock manager is modelled: the event scheduler applies each mutation as
one atomic step (DESIGN.md §13), and a store mutation validates its
input before its first write.

Per-server load counters (vertices visited, record reads, vertex
inserts, simulated busy nanoseconds) live only in the telemetry registry,
labelled by server, so they show up in every export alongside the
network and migration metrics.  The instruments (``visits_counter`` …)
are public: hot paths pay a single bound-method call, and readers read
``.value``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.faults import FaultInjector
from repro.storage.graph_store import GraphStore
from repro.telemetry import Telemetry


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
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self.server_id = server_id
        self.store = GraphStore(server_id=server_id, num_servers=num_servers)
        #: the store's write-ahead log (a ``ServerJournal``) on durable
        #: clusters, None otherwise
        self.journal = None
        self.faults: Optional[FaultInjector] = None
        #: membership state (module-level constants above)
        self.state = ACTIVE
        telemetry = telemetry or Telemetry()
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
            "server_writes_total", "vertex inserts", **label
        )
        #: simulated CPU time (integer ns) spent serving requests
        self.busy_counter = telemetry.counter(
            "server_busy_ns_total", "simulated busy time (integer ns)", **label
        )

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
    # Write path
    # ------------------------------------------------------------------
    def create_vertex(
        self, node_id: int, weight: float = 1.0, properties: Optional[Dict] = None
    ) -> None:
        self.store.create_node(node_id, weight=weight, properties=properties)
        self.writes_counter.inc()

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.store.num_nodes

    def __repr__(self) -> str:
        return (
            f"HermesServer(id={self.server_id}, vertices={self.store.num_nodes}, "
            f"relationships={len(self.store.relationships)})"
        )
