"""Distributed cluster simulator (paper Sections 4-5).

The paper evaluates Hermes on 16 servers connected by 1Gb Ethernet with
32 concurrent clients.  This package reproduces that system as a
discrete-event simulation: each :class:`HermesServer` owns a real
:class:`~repro.storage.GraphStore`; a :class:`SimulatedNetwork` charges
latency for every remote hop and counts messages; traversals execute
exactly like the paper describes (the query is forwarded to the server
hosting the start vertex, remote traversals follow inter-server links);
and the :class:`MigrationExecutor` runs the two-step copy/remove physical
migration protocol with ghost-relationship bookkeeping.
"""

from repro.cluster.catalog import Catalog, LocationCache
from repro.cluster.clients import ClientPool, WorkloadReport
from repro.cluster.faults import CrashWindow, FaultInjector, FaultPlan, RetryPolicy
from repro.cluster.graph_view import ClusterGraph
from repro.cluster.hermes import HermesCluster
from repro.cluster.migration_executor import MigrationExecutor, MigrationReport
from repro.cluster.network import SimulatedNetwork
from repro.cluster.server import HermesServer
from repro.cluster.traversal import TraversalEngine, TraversalResult

__all__ = [
    "Catalog",
    "ClusterGraph",
    "LocationCache",
    "CrashWindow",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "SimulatedNetwork",
    "HermesServer",
    "TraversalEngine",
    "TraversalResult",
    "MigrationExecutor",
    "MigrationReport",
    "ClientPool",
    "WorkloadReport",
    "HermesCluster",
]
