"""Every call the benchmark makes into ``repro`` lives in this file.

The workloads, the tracer and the checks speak only to the functions
below, so a later change that moves or merges code under ``src/`` (the
ROADMAP's path-collapse items may not edit the benchmark) has one file
to stay compatible with.  Rules kept here:

* configs come from ``ConcurrencyConfig.from_dict`` (unknown keys are
  ignored) and constructors get no ``sharded_aux`` /
  ``batch_remote_hops`` / ``track_weights`` arguments;
* the only underscore attribute touched is ``cluster._concurrent_engine``
  — the registration ``experiments/concurrency.py`` itself uses;
* only public functions are wrapped for tracing (``TRACE_TARGETS``).
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy

from repro.analysis.memory import peak_rss_bytes
from repro.cluster.catalog import Catalog, LocationCache
from repro.cluster.durability import ServerJournal
from repro.cluster.hermes import HermesCluster
from repro.cluster.migration_executor import MigrationExecutor
from repro.cluster.network import SimulatedNetwork
from repro.cluster.replication import OneHopReplicator
from repro.cluster.traversal import TraversalEngine
from repro.concurrency.config import ConcurrencyConfig
from repro.concurrency.engine import ConcurrentExecutor
from repro.concurrency.scheduler import EventScheduler
from repro.core.auxiliary import AuxiliaryData
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner
from repro.exceptions import HermesError
from repro.graph.compact import GraphBuilder
from repro.graph.generators import make_dataset, powerlaw_edge_stream
from repro.partitioning.hashing import HashPartitioner
from repro.serving.frontend import COMPLETED, ServingFrontend
from repro.serving.queue import QueryQueue
from repro.serving.replicas import ReplicaIndex, ReplicaSynchronizer
from repro.serving.router import GraphRouter
from repro.simtest.invariants import InvariantAuditor
from repro.storage.graph_store import GraphStore
from repro.storage.wal import WriteAheadLog
from repro.telemetry import Telemetry
from repro.workloads.queries import InsertEdge, InsertVertex, Traversal
from repro.workloads.writes import GraphEvolution

#: what a failed operation raises
OperationError = HermesError

PHASE1_EPSILON = 1.1


def machine() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return peak_rss_bytes() / 2**20


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def generate_graph(n: int, seed: int):
    """The Orkut-like social graph every cluster workload loads."""
    return make_dataset("orkut", n, seed).graph


def graph_edges(graph) -> List[Tuple[int, int]]:
    return list(graph.edges())


def graph_vertices(graph) -> List[int]:
    return sorted(graph.vertices())


def vertices_by_degree(graph) -> List[int]:
    return sorted(graph.vertices(), key=lambda v: (graph.degree(v), v))


def hash_placement(graph, servers: int, seed: int):
    """Hash placement: a high cut, so there is something to repartition."""
    return HashPartitioner(salt=seed).partition(graph, servers)


class WriteGenerator:
    """``GraphEvolution`` over a benchmark-owned copy of the graph.

    The library's generator reads a live mirror and never mutates it; a
    stale mirror hands out duplicate edges.  Here every generated
    operation is applied to the generator's own copy at once, so the
    trace is valid however the program later interleaves it.  With
    ``defer_vertices`` new vertices stay invisible to later edges: the
    concurrent phase runs eight clients whose relative order the engine
    picks, so no edge may depend on another client's insert.
    """

    def __init__(self, graph, seed: int, defer_vertices: bool = False):
        self._graph = graph.copy()
        self._evolution = GraphEvolution(self._graph, seed=seed)
        self._defer = defer_vertices

    def next_write(self) -> Tuple:
        """``("add_vertex", v)`` or ``("add_edge", u, v)``."""
        operation = self._evolution.next_operation()
        if isinstance(operation, InsertVertex):
            if not self._defer:
                self._graph.add_vertex(operation.vertex, weight=operation.weight)
            return ("add_vertex", operation.vertex)
        self._graph.add_edge(operation.u, operation.v)
        return ("add_edge", operation.u, operation.v)


def as_operation(op: Tuple):
    """A benchmark op tuple as the library's Operation (engine tasks)."""
    kind = op[0]
    if kind == "traverse":
        return Traversal(start=op[1], hops=op[2])
    if kind == "add_vertex":
        return InsertVertex(vertex=op[1], weight=1.0)
    return InsertEdge(u=op[1], v=op[2])


# ----------------------------------------------------------------------
# Cluster construction
# ----------------------------------------------------------------------
def build_cluster(
    servers: int,
    durability: bool = False,
    concurrent: bool = False,
    recording_telemetry: bool = False,
):
    """An empty cluster.  The concurrent configuration switches the
    per-event double-write sweep off: it is an audit, it costs minutes
    on an online rebalance, and its price is reported on its own
    (``concurrency.coherence_sweep_ms_per_event``)."""
    kwargs: Dict[str, Any] = {"durability": durability}
    if concurrent:
        kwargs["concurrency"] = ConcurrencyConfig.from_dict(
            {"enabled": True, "check_window_coherence": False}
        )
    if recording_telemetry:
        kwargs["telemetry"] = Telemetry(record=True)
    return HermesCluster(servers, **kwargs)


def build_audited_cluster(servers: int):
    """Concurrent cluster with the per-event coherence sweep left on."""
    return HermesCluster(
        servers,
        concurrency=ConcurrencyConfig.from_dict(
            {"enabled": True, "check_window_coherence": True}
        ),
    )


def load(cluster, graph, placement) -> None:
    cluster.load(graph.copy(), placement)


def attach_engine(cluster):
    engine = ConcurrentExecutor(cluster)
    cluster._concurrent_engine = engine
    return engine


def attach_frontend(cluster, engine):
    frontend = ServingFrontend(cluster)
    cluster.serving = frontend
    frontend.attach_engine(engine)
    return frontend


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
def traverse(cluster, start: int, hops: int):
    return cluster.traverse(start, hops)


def submit(frontend, op: Tuple, now: float):
    """One front-door submission; returns ``(completed, response)``.

    A shed or degraded outcome is a failed operation.
    """
    kind = op[0]
    if kind == "traverse":
        outcome = frontend.submit("traverse", op[1], hops=op[2], now=now)
    else:
        outcome = frontend.submit(kind, *op[1:], now=now)
    return outcome.status == COMPLETED, outcome.result


def shed_count(frontend) -> int:
    return frontend.conservation()["shed"]


def conservation_holds(frontend) -> bool:
    snapshot = frontend.conservation()
    return (
        snapshot["submitted"] == snapshot["admitted"] + snapshot["shed"]
        and snapshot["admitted"] == snapshot["completed"] + snapshot["in_flight"]
        and snapshot["shed"] == sum(snapshot["shed_by_reason"].values())
    )


def response_of(result) -> Tuple[int, ...]:
    return tuple(result.response)


def traversal_model(result) -> Tuple[int, int]:
    """``(remote hops, processed vertices)`` the cost model counted."""
    return result.remote_hops, result.processed


# ----------------------------------------------------------------------
# Rebalance, membership, recovery
# ----------------------------------------------------------------------
def rebalance_serial(cluster):
    """Stop-the-world rebalance; returns the RepartitionResult."""
    return cluster.rebalance(force=True)[0]


def rebalance_frontdoor(frontend):
    """Online rebalance through the front door's engine."""
    return frontend.rebalance(force=True)[0]


def submit_rebalance(engine):
    return engine.submit_rebalance(force=True)


def submit_clients(engine, traces: List[List[Tuple]], failures: List[int]) -> None:
    """One engine task per client, each running its ops in order."""

    def client(assigned):
        for op in assigned:
            try:
                yield from engine.operation_task(as_operation(op))
            except OperationError:
                failures[0] += 1

    for index, assigned in enumerate(traces):
        if assigned:
            engine.submit(client(assigned), label=f"client-{index}")


def engine_pending(engine) -> int:
    return engine.scheduler.pending


def engine_step(engine) -> None:
    engine.step()


def engine_run(engine) -> float:
    return engine.run()


def engine_makespan(engine) -> float:
    return engine.scheduler.now


def handle_outcome(handle):
    """RepartitionResult of a finished rebalance handle (raises its error)."""
    if handle.error is not None:
        raise handle.error
    return handle.result[0]


def join_server(cluster):
    """Scale out by one server with a reshard; returns vertices moved."""
    _, outcome = cluster.add_server(capacity=1.0)
    return outcome[0].vertices_moved if outcome is not None else 0


def drain_server(cluster, server: int) -> int:
    report = cluster.drain_server(server)
    return report.vertices_moved if report is not None else 0


def crash_recover(cluster, server: int) -> bool:
    """One crash-recovery episode; True when the rebuilt store equals
    the durable pre-crash image."""
    episode = cluster.crash_recover_server(server)
    return episode["pre"] == episode["post"]


def active_servers(cluster) -> List[int]:
    return list(cluster.active_servers())


def primaries_on(cluster, server: int) -> List[int]:
    return sorted(cluster.catalog.vertices_on(server))


def simulated_now(cluster) -> float:
    return cluster.now


def cut_and_imbalance(cluster) -> Tuple[int, float]:
    return cluster.edge_cut(), cluster.imbalance()


def store_bytes_per_vertex(cluster, vertices: int) -> float:
    return sum(stats.total_bytes for stats in cluster.storage_stats()) / vertices


def validate(cluster) -> None:
    cluster.validate()


def audit(cluster) -> List[str]:
    return [str(violation) for violation in InvariantAuditor().audit(cluster)]


# ----------------------------------------------------------------------
# CSR substrate (no cluster)
# ----------------------------------------------------------------------
def edge_stream(n: int, seed: int) -> List[Tuple[Any, Any]]:
    return list(powerlaw_edge_stream(n, seed=seed))


def stream_neighbors(batches, vertex: int) -> List[int]:
    """Neighbours of ``vertex`` straight from the raw edge batches
    (self-loops and duplicates dropped, as the builder documents)."""
    found = set()
    for src, dst in batches:
        found.update(dst[src == vertex].tolist())
        found.update(src[dst == vertex].tolist())
    found.discard(vertex)
    return sorted(found)


def ingest(batches: Iterable[Tuple[Any, Any]]):
    builder = GraphBuilder()
    builder.ensure_vertex(0)
    for src, dst in batches:
        builder.add_edge_batch(src, dst)
    return builder


def finalize(builder):
    return builder.finalize()


def csr_bytes_per_edge(graph) -> float:
    return graph.memory_bytes() / max(1, graph.num_edges)


def csr_read(graph, vertex: int):
    """What one hop costs on the CSR substrate: the neighbour row and
    the neighbours' weights."""
    neighbors = graph.neighbors_array(vertex)
    return neighbors, graph.weights_column[neighbors]


def phase1(
    graph,
    placement,
    iterations: int,
    on_iteration: Optional[Callable[[Any], None]] = None,
):
    n = graph.num_vertices
    config = RepartitionerConfig(
        epsilon=PHASE1_EPSILON, k=max(1, n // 100), max_iterations=iterations
    )
    return LightweightRepartitioner(config).run(
        graph, placement, on_iteration=on_iteration
    )


# ----------------------------------------------------------------------
# Tracing targets: (class, attribute, layer, group)
# ----------------------------------------------------------------------
#: Public functions wrapped by a traced run.  ``layer`` is the package
#: under ``src/repro``; the self times of one ``layer.group`` add up to
#: the per-layer metric ``layer.group_s`` and their number to
#: ``layer.group_calls``.  A generator function is timed per resumption.
TRACE_TARGETS: List[Tuple[type, str, str, str]] = [
    (ServingFrontend, "submit", "serving", "submit_self"),
    (GraphRouter, "route_read", "serving", "route"),
    (GraphRouter, "primary_of", "serving", "route"),
    (QueryQueue, "drain", "serving", "admit"),
    (QueryQueue, "try_admit", "serving", "admit"),
    (QueryQueue, "commit", "serving", "admit"),
    (ReplicaSynchronizer, "record_write", "serving", "replica_sync"),
    (ReplicaIndex, "replicas_of", "serving", "replica_sync"),
    (OneHopReplicator, "placements", "serving", "replica_sync"),
    (ConcurrentExecutor, "step", "concurrency", "step_self"),
    (EventScheduler, "step", "concurrency", "step_self"),
    (HermesCluster, "traverse", "cluster", "traverse_self"),
    (HermesCluster, "read_vertex", "cluster", "traverse_self"),
    (TraversalEngine, "traverse_steps", "cluster", "traverse_self"),
    (SimulatedNetwork, "local_visit", "cluster", "network"),
    (SimulatedNetwork, "remote_hop", "cluster", "network"),
    (SimulatedNetwork, "batched_hop", "cluster", "network"),
    (SimulatedNetwork, "transfer", "cluster", "network"),
    (Catalog, "lookup", "cluster", "catalog"),
    (LocationCache, "lookup_from", "cluster", "catalog"),
    (LocationCache, "learn", "cluster", "catalog"),
    (HermesCluster, "add_vertex", "cluster", "write_self"),
    (HermesCluster, "add_edge", "cluster", "write_self"),
    (HermesCluster, "rebalance", "cluster", "migrate_self"),
    (HermesCluster, "rebalance_steps", "cluster", "migrate_self"),
    (MigrationExecutor, "migrate_steps", "cluster", "migrate_self"),
    (MigrationExecutor, "execute", "cluster", "migrate_self"),
    (ServerJournal, "node_changed", "cluster", "journal"),
    (ServerJournal, "node_removed", "cluster", "journal"),
    (ServerJournal, "rel_changed", "cluster", "journal"),
    (ServerJournal, "rel_removed", "cluster", "journal"),
    (ServerJournal, "note_meta", "cluster", "journal"),
    (HermesCluster, "add_server", "cluster", "join"),
    (HermesCluster, "drain_server", "cluster", "drain"),
    (HermesCluster, "crash_recover_server", "cluster", "recover_self"),
    (ServerJournal, "rebuild", "cluster", "recover_rebuild"),
    (GraphStore, "neighbor_entries", "storage", "read"),
    (GraphStore, "node", "storage", "read"),
    (GraphStore, "is_available", "storage", "read"),
    (GraphStore, "node_properties", "storage", "read"),
    (GraphStore, "create_node", "storage", "write"),
    (GraphStore, "create_relationship", "storage", "write"),
    (GraphStore, "delete_node", "storage", "write"),
    (GraphStore, "delete_relationship", "storage", "write"),
    (GraphStore, "export_node", "storage", "write"),
    (GraphStore, "import_node", "storage", "write"),
    (GraphStore, "attach_endpoint", "storage", "write"),
    (GraphStore, "detach_endpoint", "storage", "write"),
    (WriteAheadLog, "append", "storage", "wal"),
    (WriteAheadLog, "flush", "storage", "wal"),
    (LightweightRepartitioner, "run", "core", "phase1"),
    (AuxiliaryData, "from_graph", "core", "aux_bootstrap"),
    (AuxiliaryData, "add_weight", "core", "aux_update"),
    (AuxiliaryData, "add_vertex", "core", "aux_update"),
    (AuxiliaryData, "add_edge", "core", "aux_update"),
    (AuxiliaryData, "apply_move", "core", "aux_update"),
]


#: the target whose wrapper also counts bytes
WAL_APPEND = (WriteAheadLog, "append")


def wal_size(log) -> int:
    """Bytes in a ``WriteAheadLog`` (the tracer diffs it around append)."""
    return log.size_bytes
