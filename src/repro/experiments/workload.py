"""Workload-aware repartitioning: plain Hermes vs the telemetry-fed gain.

The paper's repartitioner optimizes the *static* edge cut — every edge
counts once, whether queries cross it constantly or never.  This
experiment closes the telemetry loop instead: traversal traffic recorded
by the cluster feeds a :class:`~repro.workloads.model.WorkloadModel`,
whose edge heat blends into the migration gain
(``RepartitionerConfig.workload_alpha``), steering moves toward the
edges queries actually cross.

Protocol, per trace kind (A/B at matched everything):

1. one graph, one hash placement, one operation stream — shared by both
   arms byte for byte;
2. **observe phase**: both clusters replay the same trace; the aware arm
   additionally has a WorkloadModel attached (observation is passive, so
   costs are identical across arms);
3. both arms force one rebalance — plain Hermes gain (alpha = 0) vs the
   heat-blended gain (alpha > 0), same epsilon, same k;
4. **eval phase**: both arms replay a second identical trace drawn from
   the same distribution; the per-arm inter-server traffic of this phase
   (network message/byte deltas, remote hop counts, simulated cost) is
   the measured outcome.

Trace kinds: ``uniform`` is the no-skew sanity row (the static cut is
the right objective there, so the aware arm must roughly tie);
``hotspot`` concentrates 1-hop reads on a small hot set; ``two_hop``
sends deeper 2-hop traversals from a zipf-skewed start distribution.

Gates (:func:`gate_failures`, pinned in BENCH_workload.json and checked
by ``hermes-experiments workload --check``): on the hotspot
trace the aware arm must cut observed inter-server traversal cost by at
least 15% vs plain Hermes while ending within 0.05 of the plain arm's
imbalance, and the two_hop trace must also improve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import Table
from repro.cluster.hermes import HermesCluster
from repro.experiments.common import ClusterScale, build_datasets, hermes_config
from repro.graph.generators import Dataset
from repro.workloads.model import WorkloadModel
from repro.workloads.queries import Traversal
from repro.workloads.traces import (
    TraceConfig,
    hotspot_trace,
    uniform_trace,
    zipf_trace,
)

#: blend factor of the aware arm; 0 stays exactly the paper's gain.
#: 0.5 keeps the static cut a full partner of the heat term — higher
#: alphas chase concentrated heat hard enough to wreck the cut that the
#: cold (unobserved) share of the traffic still pays for.
WORKLOAD_ALPHA = 0.5
#: fraction of vertices in the hotspot trace's hot set
HOT_FRACTION = 0.1
HOT_MULTIPLIER = 8.0
ZIPF_EXPONENT = 1.4
OBSERVE_QUERIES = 400
EVAL_QUERIES = 400
#: gate floors, recorded alongside the measurements
HOTSPOT_REDUCTION_FLOOR = 0.15
IMBALANCE_GAP_LIMIT = 0.05


@dataclass(frozen=True)
class ArmResult:
    """One cluster's outcome: rebalance shape plus eval-phase traffic."""

    label: str
    workload_alpha: float
    vertices_moved: int
    final_imbalance: float
    final_edge_cut: int
    #: eval-phase deltas — inter-server traffic after the rebalance
    eval_cost: float
    eval_remote_hops: int
    eval_messages: int
    eval_bytes: int
    #: observe-phase model state (aware arm only; zeros for plain)
    model_observations: int
    model_edges: int


@dataclass(frozen=True)
class TraceComparison:
    """Plain vs aware on one trace distribution."""

    trace: str
    observe_queries: int
    eval_queries: int
    plain: ArmResult
    aware: ArmResult
    #: 1 - aware/plain on the eval-phase inter-server cost
    cost_reduction: float
    message_reduction: float
    remote_hop_reduction: float
    imbalance_gap: float


@dataclass(frozen=True)
class WorkloadResult:
    dataset: str
    n: int
    num_servers: int
    seed: int
    workload_alpha: float
    cells: Tuple[TraceComparison, ...]
    #: the pinned acceptance gates, precomputed for benches and CI
    gates: Dict[str, float]


# ----------------------------------------------------------------------
# Trace construction
# ----------------------------------------------------------------------
def build_traces(
    dataset: Dataset, scale: ClusterScale, queries: int
) -> Dict[str, Tuple[List[Traversal], List[Traversal]]]:
    """(observe_ops, eval_ops) per trace kind, deterministic in the seed.

    Observe and eval draw from the same distribution with different
    seeds: the model learns the distribution, not the exact queries.
    """
    vertices = sorted(dataset.graph.vertices())
    hot = vertices[:: int(1 / HOT_FRACTION)]  # every 10th vertex

    def pair(maker) -> Tuple[List[Traversal], List[Traversal]]:
        return (
            list(maker(TraceConfig(queries, hops=1, seed=scale.seed))),
            list(maker(TraceConfig(queries, hops=1, seed=scale.seed + 1))),
        )

    def deep(maker) -> Tuple[List[Traversal], List[Traversal]]:
        return (
            list(maker(TraceConfig(queries, hops=2, seed=scale.seed))),
            list(maker(TraceConfig(queries, hops=2, seed=scale.seed + 1))),
        )

    return {
        "uniform": pair(lambda c: uniform_trace(vertices, c)),
        "hotspot": deep(
            lambda c: hotspot_trace(
                vertices, hot, c, hot_multiplier=HOT_MULTIPLIER
            )
        ),
        "two_hop": deep(
            lambda c: zipf_trace(vertices, c, exponent=ZIPF_EXPONENT)
        ),
    }


# ----------------------------------------------------------------------
# One arm: build, observe, rebalance, evaluate
# ----------------------------------------------------------------------
def _run_arm(
    dataset: Dataset,
    scale: ClusterScale,
    observe_ops: Sequence[Traversal],
    eval_ops: Sequence[Traversal],
    alpha: float,
    label: str,
) -> ArmResult:
    config = replace(
        hermes_config(dataset.graph.num_vertices, epsilon=scale.epsilon),
        workload_alpha=alpha,
        max_iterations=200,
    )
    # Identical hash placement across arms: from_graph's default
    # partitioner is deterministic in the graph, and both arms get
    # byte-identical graph copies.
    cluster = HermesCluster.from_graph(
        dataset.graph.copy(), num_servers=scale.num_servers, repartitioner=config
    )
    model = None
    if alpha > 0.0:
        model = WorkloadModel()
        cluster.attach_workload_model(model)

    for op in observe_ops:
        cluster.traverse(op.start, op.hops)

    # A forced rebalance always runs (or raises).
    rebalanced, report = cluster.rebalance(force=True)

    stats = cluster.network.stats
    messages_before = stats.messages
    bytes_before = stats.bytes_sent
    eval_cost = 0.0
    eval_remote = 0
    for op in eval_ops:
        result = cluster.traverse(op.start, op.hops)
        eval_cost += result.cost
        eval_remote += result.remote_hops

    return ArmResult(
        label=label,
        workload_alpha=alpha,
        vertices_moved=report.vertices_moved,
        # Imbalance as the repartitioner left it: both arms carry the
        # same vertex weights at this instant, so the gap between the
        # arms isolates what the heat term cost in balance.
        final_imbalance=rebalanced.final_imbalance,
        final_edge_cut=rebalanced.final_edge_cut,
        eval_cost=eval_cost,
        eval_remote_hops=eval_remote,
        eval_messages=stats.messages - messages_before,
        eval_bytes=stats.bytes_sent - bytes_before,
        model_observations=model.observations if model is not None else 0,
        model_edges=model.num_edges if model is not None else 0,
    )


def _reduction(plain: float, aware: float) -> float:
    return 1.0 - aware / plain if plain else 0.0


def _compare(
    dataset: Dataset,
    scale: ClusterScale,
    trace: str,
    observe_ops: List[Traversal],
    eval_ops: List[Traversal],
) -> TraceComparison:
    plain = _run_arm(dataset, scale, observe_ops, eval_ops, 0.0, "plain")
    aware = _run_arm(
        dataset, scale, observe_ops, eval_ops, WORKLOAD_ALPHA, "aware"
    )
    return TraceComparison(
        trace=trace,
        observe_queries=len(observe_ops),
        eval_queries=len(eval_ops),
        plain=plain,
        aware=aware,
        cost_reduction=_reduction(plain.eval_cost, aware.eval_cost),
        message_reduction=_reduction(
            plain.eval_messages, aware.eval_messages
        ),
        remote_hop_reduction=_reduction(
            plain.eval_remote_hops, aware.eval_remote_hops
        ),
        imbalance_gap=aware.final_imbalance - plain.final_imbalance,
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _compute_gates(cells: Tuple[TraceComparison, ...]) -> Dict[str, float]:
    by_trace = {cell.trace: cell for cell in cells}
    hotspot = by_trace["hotspot"]
    two_hop = by_trace["two_hop"]
    return {
        # observed inter-server traversal cost (remote frontier crossings,
        # each a fixed marginal network charge), hotspot trace: the aware
        # arm must beat plain Hermes by the floor at matched balance.
        # Total traversal cost is recorded but not gated — it includes
        # the local processing both arms share, which dilutes the signal.
        "hotspot_remote_hop_reduction": hotspot.remote_hop_reduction,
        "hotspot_reduction_floor": HOTSPOT_REDUCTION_FLOOR,
        "hotspot_cost_reduction": hotspot.cost_reduction,
        "hotspot_imbalance_gap": hotspot.imbalance_gap,
        "imbalance_gap_limit": IMBALANCE_GAP_LIMIT,
        # deeper skewed traversals must improve too (any margin)
        "two_hop_remote_hop_reduction": two_hop.remote_hop_reduction,
    }


def run(
    scale: ClusterScale = ClusterScale(), ops: Optional[int] = None
) -> WorkloadResult:
    dataset = build_datasets(scale.n, scale.seed)[0]
    queries = ops if ops is not None else OBSERVE_QUERIES
    traces = build_traces(dataset, scale, queries)
    cells = tuple(
        _compare(dataset, scale, trace, observe_ops, eval_ops)
        for trace, (observe_ops, eval_ops) in traces.items()
    )
    return WorkloadResult(
        dataset=dataset.name,
        n=scale.n,
        num_servers=scale.num_servers,
        seed=scale.seed,
        workload_alpha=WORKLOAD_ALPHA,
        cells=cells,
        gates=_compute_gates(cells),
    )


def gate_failures(result: WorkloadResult) -> List[str]:
    """The acceptance gates ``result`` misses; empty when all pass."""
    gates = result.gates
    checks = {
        "hotspot_remote_hop_reduction >= hotspot_reduction_floor": (
            gates["hotspot_remote_hop_reduction"]
            >= gates["hotspot_reduction_floor"]
        ),
        "hotspot_imbalance_gap <= imbalance_gap_limit": (
            gates["hotspot_imbalance_gap"] <= gates["imbalance_gap_limit"]
        ),
        "two_hop_remote_hop_reduction > 0": (
            gates["two_hop_remote_hop_reduction"] > 0.0
        ),
    }
    return [gate for gate, passed in checks.items() if not passed]


def render(result: WorkloadResult) -> str:
    table = Table(
        "BENCH_workload - telemetry-fed gain vs plain Hermes "
        f"({result.dataset}, n={result.n}, servers={result.num_servers}, "
        f"alpha={result.workload_alpha:g})",
        [
            "trace",
            "arm",
            "moved",
            "imbalance",
            "edge cut",
            "eval cost",
            "remote hops",
            "messages",
        ],
    )
    for cell in result.cells:
        for arm in (cell.plain, cell.aware):
            table.add_row(
                cell.trace,
                arm.label,
                str(arm.vertices_moved),
                f"{arm.final_imbalance:.3f}",
                str(arm.final_edge_cut),
                f"{arm.eval_cost:.4f}",
                str(arm.eval_remote_hops),
                str(arm.eval_messages),
            )
    for cell in result.cells:
        table.add_footnote(
            f"{cell.trace} reductions: remote hops "
            f"{cell.remote_hop_reduction:+.1%}, cost "
            f"{cell.cost_reduction:+.1%}, messages "
            f"{cell.message_reduction:+.1%}, imbalance gap "
            f"{cell.imbalance_gap:+.3f}"
        )
    gates = result.gates
    table.add_footnote(
        "gates: hotspot remote-hop reduction "
        f"{gates['hotspot_remote_hop_reduction']:+.1%} (floor "
        f"{gates['hotspot_reduction_floor']:.0%}), imbalance gap "
        f"{gates['hotspot_imbalance_gap']:+.3f} (limit "
        f"{gates['imbalance_gap_limit']:g}), two_hop remote-hop reduction "
        f"{gates['two_hop_remote_hop_reduction']:+.1%} -> "
        + ("FAIL" if gate_failures(result) else "PASS")
    )
    return table.to_text()
