"""BENCH_concurrency: the event-queue scheduler under interleaved load.

Three scenarios exercise :class:`~repro.concurrency.engine.
ConcurrentExecutor` against a simulated cluster, all on the event
timeline:

* **client scaling** — the same uniform 1-hop trace driven by 1, 2, 4,
  8, 16 and 32 concurrent clients.  The scheduler *measures* the
  makespan, so adding clients must shorten it until the hottest server
  saturates.
  Acceptance: throughput at 16 clients is at least ``scaling_floor_16``
  times the single-client throughput, and 32 clients never regress
  below 80% of 16.
* **online migration under traffic** — a mixed read/write workload (so
  the double-write window sees genuine writes) runs while a forced
  rebalance streams its copy-steps through the same scheduler.
  Acceptance: the migration moves vertices, every per-event coherence
  sweep comes back clean, the event clock never runs backwards, and the
  full simtest invariant audit passes afterwards.
* **matched-schedule parity** — two identical clusters after an
  identical serial warmup; one rebalances serially (stop-the-world),
  the other online with read traffic interleaved between copy-steps.
  Because the plan is fixed up front and the catalog commit is atomic,
  both must land on the *same* placement and the same edge-cut.

The acceptance gates are computed in :func:`run`, checked by
:func:`gate_failures` and pinned both by
``benchmarks/test_bench_concurrency.py`` and ``hermes-experiments
concurrency --check`` against ``BENCH_concurrency.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import Table
from repro.cluster.clients import ClientPool
from repro.cluster.hermes import HermesCluster
from repro.concurrency.engine import ConcurrentExecutor
from repro.exceptions import HermesError
from repro.experiments.common import ClusterScale
from repro.graph.adjacency import SocialGraph
from repro.graph.generators import make_dataset
from repro.partitioning.metrics import edge_cut, edge_cut_fraction
from repro.simtest.invariants import InvariantAuditor
from repro.workloads.mixed import mixed_trace
from repro.workloads.queries import Traversal
from repro.workloads.traces import TraceConfig, hotspot_trace, uniform_trace

#: client counts swept by the scaling scenario (the paper runs 32)
CLIENT_COUNTS = (1, 2, 4, 8, 16, 32)


# ----------------------------------------------------------------------
# Result shapes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalingPoint:
    """One client-count run of the scaling scenario."""

    clients: int
    operations: int
    failed: int
    #: measured event-timeline makespan (simulated seconds)
    wall_time: float
    ops_per_second: float
    #: throughput relative to the single-client run
    speedup: float


@dataclass(frozen=True)
class MigrationUnderLoad:
    """The forced online migration interleaved with mixed traffic."""

    operations: int
    failed: int
    writes: int
    vertices_moved: int
    migration_steps: int
    wall_time: float
    coherence_violations: int
    monotonicity_violations: int
    audit_violations: int


@dataclass(frozen=True)
class ParityResult:
    """Serial stop-the-world vs online-with-traffic, matched schedules."""

    vertices_moved_serial: int
    vertices_moved_online: int
    edge_cut_serial: int
    edge_cut_online: int
    cut_fraction_serial: float
    cut_fraction_online: float
    placement_match: bool


@dataclass(frozen=True)
class ConcurrencyResult:
    n: int
    num_servers: int
    seed: int
    scaling: Tuple[ScalingPoint, ...]
    migration: MigrationUnderLoad
    parity: ParityResult
    #: the pinned acceptance gates, precomputed for benches and CI
    gates: Dict[str, float]


# ----------------------------------------------------------------------
# Setup helpers
# ----------------------------------------------------------------------
def _build_graph(scale: ClusterScale) -> SocialGraph:
    return make_dataset("orkut", n=scale.n, seed=scale.seed).graph


def _build_cluster(graph: SocialGraph, scale: ClusterScale) -> HermesCluster:
    return HermesCluster.from_graph(graph.copy(), scale.num_servers)


def _placement_items(cluster: HermesCluster) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(cluster.catalog.as_mapping().items()))


# ----------------------------------------------------------------------
# Scenario 1: client scaling
# ----------------------------------------------------------------------
def run_scaling(
    graph: SocialGraph,
    scale: ClusterScale,
    num_ops: int = 600,
    client_counts: Sequence[int] = CLIENT_COUNTS,
) -> Tuple[ScalingPoint, ...]:
    """The same trace at every client count; throughput must scale."""
    points = []
    base_rate: Optional[float] = None
    for clients in client_counts:
        cluster = _build_cluster(graph, scale)
        pool = ClientPool(cluster, num_clients=clients)
        trace = uniform_trace(
            sorted(graph.vertices()),
            TraceConfig(
                num_queries=num_ops,
                hops=1,
                seed=("hermes-concurrency-scaling", scale.seed).__repr__(),
            ),
        )
        report = pool.run(trace)
        rate = (
            report.operations / report.wall_time if report.wall_time else 0.0
        )
        if base_rate is None:
            base_rate = rate
        points.append(
            ScalingPoint(
                clients=clients,
                operations=report.operations,
                failed=report.failed_operations,
                wall_time=report.wall_time,
                ops_per_second=rate,
                speedup=rate / base_rate if base_rate else 0.0,
            )
        )
    return tuple(points)


# ----------------------------------------------------------------------
# Scenario 2: online migration under traffic
# ----------------------------------------------------------------------
def run_migration_under_load(
    graph: SocialGraph,
    scale: ClusterScale,
    num_ops: int = 400,
    write_fraction: float = 0.2,
    clients: int = 16,
) -> MigrationUnderLoad:
    """Force an online rebalance while mixed traffic is in flight.

    The rebalance task is submitted *first* so its plan is computed
    before any traffic mutates the graph, then its copy-steps interleave
    with the clients' reads and writes — every windowed vertex is live
    while queries (and potentially mirrored writes) hit it.
    """
    cluster = _build_cluster(graph, scale)
    working = cluster.graph  # the trace evolves the live graph
    engine = ConcurrentExecutor(cluster)
    cluster._concurrent_engine = engine
    before = _placement_items(cluster)

    rebalance_handle = engine.submit_rebalance(force=True)
    operations = list(
        mixed_trace(
            working,
            num_operations=num_ops,
            write_fraction=write_fraction,
            seed=scale.seed,
        )
    )
    stats = {"done": 0, "failed": 0, "writes": 0}

    def client_task(assigned):
        for operation in assigned:
            try:
                yield from engine.operation_task(operation)
            except HermesError:
                stats["failed"] += 1
                continue
            stats["done"] += 1
            if not isinstance(operation, Traversal):
                stats["writes"] += 1

    for index in range(clients):
        assigned = operations[index::clients]
        if assigned:
            engine.submit(client_task(assigned), label=f"client-{index}")
    wall_time = engine.run()

    moved = sum(
        1 for vertex, home in before if cluster.catalog.lookup(vertex) != home
    )
    migration_steps = sum(
        1 for record in engine.scheduler.records
        if record.kind.startswith("migration-")
    )
    if rebalance_handle.error is not None:
        raise rebalance_handle.error
    return MigrationUnderLoad(
        operations=stats["done"],
        failed=stats["failed"],
        writes=stats["writes"],
        vertices_moved=moved,
        migration_steps=migration_steps,
        wall_time=wall_time,
        coherence_violations=len(engine.coherence_violations),
        monotonicity_violations=len(engine.monotonicity_violations()),
        audit_violations=len(InvariantAuditor().audit(cluster)),
    )


# ----------------------------------------------------------------------
# Scenario 3: matched-schedule parity
# ----------------------------------------------------------------------
def run_parity(
    graph: SocialGraph,
    scale: ClusterScale,
    warmup_queries: int = 300,
    traffic_queries: int = 200,
) -> ParityResult:
    """Serial vs online rebalance from identical start states.

    Both clusters replay the identical skewed warmup serially (weight
    bumps are what the repartitioner optimizes against), then one
    rebalances stop-the-world and the other online with read traffic
    interleaved.  The read traffic only bumps weights — the plan is
    already fixed — so placements must come out identical.
    """
    clusters = {
        "serial": _build_cluster(graph, scale),
        "online": _build_cluster(graph, scale),
    }
    for cluster in clusters.values():
        warmup = hotspot_trace(
            sorted(cluster.graph.vertices()),
            sorted(cluster.catalog.vertices_on(0)),
            TraceConfig(num_queries=warmup_queries, hops=1, seed=scale.seed),
            hot_multiplier=3.0,
        )
        for operation in warmup:
            cluster.traverse(operation.start, hops=operation.hops)

    serial = clusters["serial"]
    serial_outcome = serial.rebalance(force=True)
    moved_serial = len(serial_outcome[0].moves) if serial_outcome else 0

    online = clusters["online"]
    engine = ConcurrentExecutor(online)
    online._concurrent_engine = engine
    handle = engine.submit_rebalance(force=True)
    trace = uniform_trace(
        sorted(online.graph.vertices()),
        TraceConfig(num_queries=traffic_queries, hops=1, seed=scale.seed + 1),
    )

    def traffic(assigned):
        for operation in assigned:
            try:
                yield from engine.operation_task(operation)
            except HermesError:
                continue

    engine.submit(traffic(list(trace)), label="traffic")
    engine.run()
    if handle.error is not None:
        raise handle.error
    moved_online = len(handle.result[0].moves) if handle.result else 0

    return ParityResult(
        vertices_moved_serial=moved_serial,
        vertices_moved_online=moved_online,
        edge_cut_serial=edge_cut(serial.graph, serial.partitioning()),
        edge_cut_online=edge_cut(online.graph, online.partitioning()),
        cut_fraction_serial=edge_cut_fraction(
            serial.graph, serial.partitioning()
        ),
        cut_fraction_online=edge_cut_fraction(
            online.graph, online.partitioning()
        ),
        placement_match=(
            _placement_items(serial) == _placement_items(online)
        ),
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _compute_gates(
    scaling: Tuple[ScalingPoint, ...],
    migration: MigrationUnderLoad,
    parity: ParityResult,
) -> Dict[str, float]:
    by_clients = {point.clients: point for point in scaling}
    thr16 = by_clients[16].ops_per_second if 16 in by_clients else 0.0
    thr32 = by_clients[32].ops_per_second if 32 in by_clients else thr16
    return {
        # adding clients must keep buying throughput out to 16
        "scaling_speedup_16": by_clients[16].speedup if 16 in by_clients else 0.0,
        "scaling_floor_16": 2.0,
        # 32 clients may saturate but must not collapse
        "saturation_ratio_32": (thr32 / thr16) if thr16 else 0.0,
        "saturation_floor_32": 0.8,
        "migration_vertices_moved": migration.vertices_moved,
        "migration_violations": (
            migration.coherence_violations
            + migration.monotonicity_violations
            + migration.audit_violations
        ),
        "parity_edge_cut_match": (
            parity.edge_cut_serial == parity.edge_cut_online
        ),
        "parity_placement_match": parity.placement_match,
    }


def run(
    scale: ClusterScale = ClusterScale(), ops: Optional[int] = None
) -> ConcurrencyResult:
    graph = _build_graph(scale)
    scaling_kwargs = {} if ops is None else {"num_ops": ops}
    mixed_kwargs = {} if ops is None else {"num_ops": max(100, ops // 2)}
    scaling = run_scaling(graph, scale, **scaling_kwargs)
    migration = run_migration_under_load(graph, scale, **mixed_kwargs)
    parity = run_parity(graph, scale)
    return ConcurrencyResult(
        n=scale.n,
        num_servers=scale.num_servers,
        seed=scale.seed,
        scaling=scaling,
        migration=migration,
        parity=parity,
        gates=_compute_gates(scaling, migration, parity),
    )


def gate_failures(result: ConcurrencyResult) -> List[str]:
    """The acceptance gates ``result`` misses; empty when all pass."""
    gates = result.gates
    checks = {
        "scaling_speedup_16 >= scaling_floor_16": (
            gates["scaling_speedup_16"] >= gates["scaling_floor_16"]
        ),
        "saturation_ratio_32 >= saturation_floor_32": (
            gates["saturation_ratio_32"] >= gates["saturation_floor_32"]
        ),
        "migration_vertices_moved > 0": gates["migration_vertices_moved"] > 0,
        "migration_violations == 0": gates["migration_violations"] == 0,
        "parity_edge_cut_match": bool(gates["parity_edge_cut_match"]),
        "parity_placement_match": bool(gates["parity_placement_match"]),
    }
    return [gate for gate, passed in checks.items() if not passed]


def render(result: ConcurrencyResult) -> str:
    table = Table(
        "BENCH_concurrency - event-queue scheduler "
        f"(n={result.n}, servers={result.num_servers}, seed={result.seed})",
        ["clients", "operations", "failed", "wall time s", "ops/s", "speedup"],
    )
    for point in result.scaling:
        table.add_row(
            str(point.clients),
            str(point.operations),
            str(point.failed),
            f"{point.wall_time:.4f}",
            f"{point.ops_per_second:,.0f}",
            f"{point.speedup:.2f}x",
        )
    migration = result.migration
    table.add_footnote(
        f"online migration under load: {migration.vertices_moved} vertices "
        f"moved across {migration.migration_steps} events while "
        f"{migration.operations} ops ({migration.writes} writes) ran; "
        f"{migration.coherence_violations} coherence + "
        f"{migration.monotonicity_violations} clock + "
        f"{migration.audit_violations} audit violations"
    )
    parity = result.parity
    table.add_footnote(
        f"parity: serial cut {parity.edge_cut_serial} "
        f"({parity.cut_fraction_serial:.1%}) vs online "
        f"{parity.edge_cut_online} ({parity.cut_fraction_online:.1%}), "
        f"moves {parity.vertices_moved_serial}/{parity.vertices_moved_online}, "
        f"placement {'match' if parity.placement_match else 'MISMATCH'}"
    )
    gates = result.gates
    table.add_footnote(
        f"gates: speedup@16 {gates['scaling_speedup_16']:.2f} (floor "
        f"{gates['scaling_floor_16']:g}), saturation@32 "
        f"{gates['saturation_ratio_32']:.2f} (floor "
        f"{gates['saturation_floor_32']:g}), violations "
        f"{gates['migration_violations']:g} -> "
        + ("FAIL" if gate_failures(result) else "PASS")
    )
    return table.to_text()
