"""Ablations of the repartitioner's design choices (beyond the eval).

Two studies the paper motivates but does not chart:

* **two-stage rule** (Figure 2): on an adversarial graph with two densely
  inter-connected groups, single-stage (any-direction) migration swaps
  the groups back and forth without improving edge-cut, while the
  two-stage rule converges;
* **epsilon sweep**: how the allowed imbalance trades balance for cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.report import Table
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner
from repro.experiments.common import GraphScale, build_datasets
from repro.graph.adjacency import SocialGraph
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner


def oscillation_graph(group_size: int = 6) -> Tuple[SocialGraph, Partitioning]:
    """Figure 2's pathology: two groups, each fully connected to the other
    group and placed on opposite partitions, plus local anchors."""
    graph = SocialGraph()
    group_a = list(range(group_size))
    group_b = list(range(group_size, 2 * group_size))
    anchors = [2 * group_size, 2 * group_size + 1]
    for vertex in group_a + group_b + anchors:
        graph.add_vertex(vertex)
    for u in group_a:
        for v in group_b:
            graph.add_edge(u, v)
    for u in group_a:
        graph.add_edge(u, anchors[0])
    for v in group_b:
        graph.add_edge(v, anchors[1])
    partitioning = Partitioning(2)
    for u in group_a:
        partitioning.assign(u, 0)
    for v in group_b:
        partitioning.assign(v, 1)
    partitioning.assign(anchors[0], 0)
    partitioning.assign(anchors[1], 1)
    return graph, partitioning


@dataclass(frozen=True)
class StageAblationCell:
    mode: str
    iterations: int
    converged: bool
    initial_edge_cut: int
    final_edge_cut: int
    logical_migrations: int


@dataclass(frozen=True)
class EpsilonCell:
    dataset: str
    epsilon: float
    final_cut: int
    final_imbalance: float
    iterations: int


@dataclass(frozen=True)
class AblationResult:
    stage_cells: Tuple[StageAblationCell, ...]
    epsilon_cells: Tuple[EpsilonCell, ...]


EPSILONS = (1.05, 1.1, 1.3, 1.5)


def run(scale: GraphScale = GraphScale()) -> AblationResult:
    stage_cells = []
    for two_stage, label in ((True, "two-stage"), (False, "single-stage")):
        graph, partitioning = oscillation_graph()
        # Figure 2's regime: k large enough for a whole group to move in
        # one stage, epsilon loose enough that balance never blocks the
        # swap, and no plateau cut-off so the oscillation is visible.
        config = RepartitionerConfig(
            epsilon=1.9,
            k=6,
            two_stage=two_stage,
            max_iterations=20,
            stall_iterations=None,
        )
        result = LightweightRepartitioner(config).run(graph, partitioning.copy())
        stage_cells.append(
            StageAblationCell(
                mode=label,
                iterations=result.iterations,
                converged=result.converged,
                initial_edge_cut=result.initial_edge_cut,
                final_edge_cut=result.final_edge_cut,
                logical_migrations=result.total_logical_migrations,
            )
        )

    epsilon_cells: List[EpsilonCell] = []
    datasets = build_datasets(max(400, scale.n // 4), scale.seed)
    for dataset in datasets:
        initial = HashPartitioner(salt=scale.seed).partition(
            dataset.graph, scale.num_partitions
        )
        for epsilon in EPSILONS:
            config = RepartitionerConfig(
                epsilon=epsilon, k=max(1, dataset.graph.num_vertices // 100)
            )
            result = LightweightRepartitioner(config).run(
                dataset.graph, initial.copy()
            )
            epsilon_cells.append(
                EpsilonCell(
                    dataset=dataset.name,
                    epsilon=epsilon,
                    final_cut=result.final_edge_cut,
                    final_imbalance=result.final_imbalance,
                    iterations=result.iterations,
                )
            )
    return AblationResult(
        stage_cells=tuple(stage_cells), epsilon_cells=tuple(epsilon_cells)
    )


def render(result: AblationResult) -> str:
    stages = Table(
        "Ablation (Figure 2) - Two-stage rule vs single-stage migration",
        ["mode", "converged", "iterations", "cut before", "cut after", "logical moves"],
    )
    for cell in result.stage_cells:
        stages.add_row(
            cell.mode,
            "yes" if cell.converged else "no",
            cell.iterations,
            cell.initial_edge_cut,
            cell.final_edge_cut,
            cell.logical_migrations,
        )
    stages.add_footnote(
        "single-stage migration swaps the groups each iteration (oscillation); "
        "the two-stage rule settles after the groups merge one-way"
    )
    epsilons = Table(
        "Extension - Imbalance bound (epsilon) sweep",
        ["dataset", "epsilon", "final cut", "final imbalance", "iterations"],
    )
    for cell in result.epsilon_cells:
        epsilons.add_row(
            cell.dataset,
            f"{cell.epsilon:.2f}",
            f"{cell.final_cut:,}",
            f"{cell.final_imbalance:.3f}",
            cell.iterations,
        )
    epsilons.add_footnote(
        "looser epsilon admits more cut-reducing moves at the price of balance"
    )
    return stages.to_text() + "\n\n" + epsilons.to_text()
