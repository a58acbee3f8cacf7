"""BENCH_elasticity: elastic membership under measurement.

Three scenarios exercise the elastic-membership machinery end to end:

* **scale-out reshard vs full repartition** — one server joins a loaded
  cluster and the capacity-weighted repartitioner moves just enough load
  onto the (initially empty) newcomer.  The baseline is what a static
  hash layout would require: re-hashing every vertex over ``M+1``
  servers and shipping everyone whose home changed.  Acceptance: the
  incremental reshard moves a small fraction of what the full re-hash
  would, and the cluster lands balanced and deep-valid.
* **goodput dip during drain** — a serving cluster takes uniform
  read/traverse traffic through the front door, drains one server
  mid-stream (its primaries evacuate through the transactional
  executor), then keeps serving.  Acceptance: the drained server ends
  with zero primaries, and post-drain goodput retains at least
  ``drain_retention_floor`` of the pre-drain rate — losing a server
  costs capacity, it must not collapse the front door.
* **crash-recovery fidelity** — every server of a durability-enabled
  cluster is crashed (page cache + unflushed WAL tail lost) and
  recovered by redoing its WAL into its checkpoint pages.  Acceptance:
  every episode's recovered store equals the live store that crashed,
  and the full simtest invariant audit stays clean afterwards.

The acceptance gates are computed in :func:`run`, checked by
:func:`gate_failures` and pinned both by
``benchmarks/test_bench_elasticity.py`` and ``hermes-experiments
elasticity --check`` against ``BENCH_elasticity.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.report import Table
from repro.cluster.hermes import HermesCluster
from repro.experiments.common import ClusterScale
from repro.graph.adjacency import SocialGraph
from repro.graph.generators import make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.serving.frontend import COMPLETED, ServingFrontend
from repro.simtest.invariants import InvariantAuditor

#: ops per serving phase in the drain scenario
DRAIN_PHASE_OPS = 400
#: arrival spacing of the drain scenario's traffic (simulated seconds) —
#: chosen so the healthy cluster keeps up (completions, not sheds,
#: dominate) and the capacity lost to the drain shows up as queueing
DRAIN_ARRIVAL_GAP = 0.002


# ----------------------------------------------------------------------
# Result shapes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleOutResult:
    """One server joins; incremental reshard vs full re-hash baseline."""

    servers_before: int
    vertices: int
    #: vertices the capacity-weighted reshard moved onto the newcomer
    reshard_moved: int
    reshard_bytes: int
    reshard_cost: float
    #: vertices a from-scratch hash over M+1 servers would re-home
    full_rehash_moved: int
    #: reshard_moved / full_rehash_moved
    moved_fraction: float
    imbalance_after: float


@dataclass(frozen=True)
class DrainResult:
    """Goodput through the front door before and after a drain."""

    drained_server: int
    drain_moved: int
    drain_cost: float
    primaries_left: int
    ops_per_phase: int
    completed_before: int
    completed_after: int
    shed_after: int
    goodput_before: float
    goodput_after: float
    #: goodput_after / goodput_before
    retention: float


@dataclass(frozen=True)
class RecoveryResult:
    """Crash + WAL replay of every server of a durable cluster."""

    episodes: int
    #: episodes whose recovered store differed from the one that crashed
    mismatches: int
    nodes_recovered: int
    rels_recovered: int
    audit_violations: int


@dataclass(frozen=True)
class ElasticityResult:
    n: int
    num_servers: int
    seed: int
    scaleout: ScaleOutResult
    drain: DrainResult
    recovery: RecoveryResult
    #: the pinned acceptance gates, precomputed for benches and CI
    gates: Dict[str, float]


# ----------------------------------------------------------------------
# Setup helpers
# ----------------------------------------------------------------------
def _build_graph(scale: ClusterScale) -> SocialGraph:
    return make_dataset("orkut", n=scale.n, seed=scale.seed).graph


def _build_cluster(
    graph: SocialGraph, scale: ClusterScale, durability: bool = False
) -> HermesCluster:
    return HermesCluster.from_graph(
        graph.copy(), scale.num_servers, durability=durability
    )


# ----------------------------------------------------------------------
# Scenario 1: scale-out reshard vs full repartition
# ----------------------------------------------------------------------
def run_scaleout(graph: SocialGraph, scale: ClusterScale) -> ScaleOutResult:
    cluster = _build_cluster(graph, scale)
    # Settle the fresh hash placement first: the join measurement must
    # capture the *membership* cost, not the one-time edge-cut cleanup
    # any freshly hash-loaded cluster owes.
    cluster.rebalance(force=True)
    before = cluster.catalog.as_mapping()
    bytes_before = cluster.network.stats.bytes_sent

    new_id, result = cluster.add_server(capacity=1.0)
    assert result is not None
    _, report = result
    cluster.validate()

    # The static-layout baseline: re-hash everyone over M+1 servers and
    # move every vertex whose home changed.  (Hash placement re-homes
    # roughly M/(M+1) of the graph; the incremental reshard only fills
    # the newcomer.)
    full = HashPartitioner().partition(graph, scale.num_servers + 1)
    full_moved = sum(
        1 for vertex, home in before.items() if full.partition_of(vertex) != home
    )
    moved = report.vertices_moved
    return ScaleOutResult(
        servers_before=scale.num_servers,
        vertices=len(before),
        reshard_moved=moved,
        reshard_bytes=cluster.network.stats.bytes_sent - bytes_before,
        reshard_cost=report.total_cost,
        full_rehash_moved=full_moved,
        moved_fraction=(moved / full_moved) if full_moved else 0.0,
        imbalance_after=cluster.aux.max_imbalance(),
    )


# ----------------------------------------------------------------------
# Scenario 2: goodput dip during drain under traffic
# ----------------------------------------------------------------------
def _serve_phase(
    frontend: ServingFrontend, vertices, ops: int
) -> Tuple[int, int, float]:
    """Drive one uniform read/traverse phase; returns (completed, shed,
    goodput in completed ops per simulated second)."""
    start = frontend.now
    completed = 0
    shed = 0
    for index in range(ops):
        vertex = vertices[index % len(vertices)]
        arrival = frontend.now + DRAIN_ARRIVAL_GAP
        if index % 3 == 2:
            outcome = frontend.submit("traverse", vertex, hops=1, now=arrival)
        else:
            outcome = frontend.submit("read", vertex, now=arrival)
        if outcome.status == COMPLETED:
            completed += 1
        elif outcome.status == "shed":
            shed += 1
    elapsed = max(frontend.now - start, DRAIN_ARRIVAL_GAP)
    return completed, shed, completed / elapsed


def run_drain_under_traffic(
    graph: SocialGraph, scale: ClusterScale, ops: int = DRAIN_PHASE_OPS
) -> DrainResult:
    cluster = _build_cluster(graph, scale)
    frontend = ServingFrontend(cluster)
    cluster.serving = frontend
    vertices = sorted(cluster.graph.vertices())

    completed_before, _, goodput_before = _serve_phase(frontend, vertices, ops)
    target = scale.num_servers - 1
    report = cluster.drain_server(target)
    drain_moved = report.vertices_moved if report is not None else 0
    drain_cost = report.total_cost if report is not None else 0.0
    completed_after, shed_after, goodput_after = _serve_phase(
        frontend, vertices, ops
    )
    cluster.validate()

    return DrainResult(
        drained_server=target,
        drain_moved=drain_moved,
        drain_cost=drain_cost,
        primaries_left=len(cluster.catalog.vertices_on(target)),
        ops_per_phase=ops,
        completed_before=completed_before,
        completed_after=completed_after,
        shed_after=shed_after,
        goodput_before=goodput_before,
        goodput_after=goodput_after,
        retention=(goodput_after / goodput_before) if goodput_before else 0.0,
    )


# ----------------------------------------------------------------------
# Scenario 3: crash-recovery fidelity
# ----------------------------------------------------------------------
def run_recovery(graph: SocialGraph, scale: ClusterScale) -> RecoveryResult:
    cluster = _build_cluster(graph, scale, durability=True)
    # Take every log past its checkpoint with live writes + reads.
    base = 10 ** 6
    for offset in range(scale.num_servers * 4):
        cluster.add_vertex(base + offset, weight=2.0, properties={"k": "v"})
    for vertex in sorted(cluster.graph.vertices())[: scale.num_servers * 4]:
        cluster.traverse(vertex, hops=1)

    mismatches = 0
    nodes = 0
    rels = 0
    for server_id in list(cluster.active_servers()):
        episode = cluster.crash_recover_server(server_id)
        if episode["pre"] != episode["post"]:
            mismatches += 1
        nodes += len(episode["post"]["nodes"])
        rels += len(episode["post"]["rels"])
    cluster.validate()
    violations = InvariantAuditor().audit(cluster)
    return RecoveryResult(
        episodes=len(cluster.recovery_log),
        mismatches=mismatches,
        nodes_recovered=nodes,
        rels_recovered=rels,
        audit_violations=len(violations),
    )


# ----------------------------------------------------------------------
# Gates + entry points
# ----------------------------------------------------------------------
def _compute_gates(
    scaleout: ScaleOutResult, drain: DrainResult, recovery: RecoveryResult
) -> Dict[str, float]:
    return {
        # joining must move load onto the newcomer...
        "scaleout_moved": float(scaleout.reshard_moved),
        # ...at a fraction of the full re-hash churn
        "scaleout_moved_fraction": scaleout.moved_fraction,
        "scaleout_fraction_ceiling": 0.6,
        "drain_primaries_left": float(drain.primaries_left),
        "drain_goodput_retention": drain.retention,
        "drain_retention_floor": 0.5,
        "recovery_episodes": float(recovery.episodes),
        "recovery_mismatches": float(recovery.mismatches),
        "recovery_audit_violations": float(recovery.audit_violations),
    }


def run(scale: ClusterScale = ClusterScale()) -> ElasticityResult:
    graph = _build_graph(scale)
    scaleout = run_scaleout(graph, scale)
    drain = run_drain_under_traffic(graph, scale)
    recovery = run_recovery(graph, scale)
    return ElasticityResult(
        n=scale.n,
        num_servers=scale.num_servers,
        seed=scale.seed,
        scaleout=scaleout,
        drain=drain,
        recovery=recovery,
        gates=_compute_gates(scaleout, drain, recovery),
    )


def gate_failures(result: ElasticityResult) -> List[str]:
    """The acceptance gates ``result`` misses; empty when all pass."""
    gates = result.gates
    checks = {
        "scaleout_moved > 0": gates["scaleout_moved"] > 0,
        "scaleout_moved_fraction <= scaleout_fraction_ceiling": (
            gates["scaleout_moved_fraction"] <= gates["scaleout_fraction_ceiling"]
        ),
        "drain_primaries_left == 0": gates["drain_primaries_left"] == 0,
        "drain_goodput_retention >= drain_retention_floor": (
            gates["drain_goodput_retention"] >= gates["drain_retention_floor"]
        ),
        "recovery_episodes > 0": gates["recovery_episodes"] > 0,
        "recovery_mismatches == 0": gates["recovery_mismatches"] == 0,
        "recovery_audit_violations == 0": gates["recovery_audit_violations"] == 0,
    }
    return [gate for gate, passed in checks.items() if not passed]


def render(result: ElasticityResult) -> str:
    table = Table(
        "BENCH_elasticity - elastic membership "
        f"(n={result.n}, servers={result.num_servers}, seed={result.seed})",
        ["scenario", "moved", "cost s", "metric", "value"],
    )
    scaleout = result.scaleout
    table.add_row(
        "scale-out reshard",
        str(scaleout.reshard_moved),
        f"{scaleout.reshard_cost:.4f}",
        "vs full re-hash",
        f"{scaleout.moved_fraction:.1%} of {scaleout.full_rehash_moved}",
    )
    drain = result.drain
    table.add_row(
        f"drain server {drain.drained_server}",
        str(drain.drain_moved),
        f"{drain.drain_cost:.4f}",
        "goodput retention",
        f"{drain.retention:.1%}",
    )
    recovery = result.recovery
    table.add_row(
        f"crash-recover x{recovery.episodes}",
        str(recovery.nodes_recovered),
        "-",
        "image mismatches",
        str(recovery.mismatches),
    )
    table.add_footnote(
        f"drain under traffic: {drain.completed_before}/{drain.ops_per_phase} "
        f"ops completed before, {drain.completed_after}/{drain.ops_per_phase} "
        f"after ({drain.shed_after} shed); goodput "
        f"{drain.goodput_before:,.0f} -> {drain.goodput_after:,.0f} ops/s"
    )
    table.add_footnote(
        f"scale-out shipped {scaleout.reshard_bytes:,} bytes; imbalance "
        f"after join {scaleout.imbalance_after:.3f}"
    )
    gates = result.gates
    table.add_footnote(
        f"gates: moved fraction {gates['scaleout_moved_fraction']:.2f} "
        f"(ceiling {gates['scaleout_fraction_ceiling']:g}), retention "
        f"{gates['drain_goodput_retention']:.2f} (floor "
        f"{gates['drain_retention_floor']:g}), recovery mismatches "
        f"{gates['recovery_mismatches']:g}, audit violations "
        f"{gates['recovery_audit_violations']:g} -> "
        + ("FAIL" if gate_failures(result) else "PASS")
    )
    return table.to_text()
