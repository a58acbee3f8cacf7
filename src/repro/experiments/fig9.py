"""Figure 9: aggregate throughput (visited vertices), 1-hop and 2-hop.

Protocol (Section 5.3.1): Metis forms the initial partitioning on an
unskewed trace; once the experiment starts, the skewed trace (one
partition's users selected twice as often) is applied.  Three systems are
compared under that skew:

* **Metis** — re-run the static partitioner after the skew (gold standard);
* **Hermes** — the skew triggers the lightweight repartitioner;
* **Random** — hash placement (the industry baseline).

Aggregate throughput is the total number of vertices visited by 32
concurrent clients within a fixed simulated window, the clients running
as tasks on the event engine (one traversal depth per step, per-server
FIFO queues).  The paper expects
Hermes within ~6% of Metis and 2-3x above Random; it also reports the
response/processed ratio collapsing from 1.0 (1-hop) to ~0.39/0.28
(2-hop) — reproduced in the ratio columns (Section 5.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.report import BarChart, Table
from repro.cluster.clients import ClientPool, WorkloadReport
from repro.cluster.hermes import HermesCluster
from repro.experiments.common import (
    ClusterScale,
    build_datasets,
    hermes_config,
    metis_partitioner,
)
from repro.graph.generators import Dataset
from repro.partitioning.hashing import HashPartitioner
from repro.workloads.traces import TraceConfig, hotspot_trace

SYSTEMS = ("Metis", "Hermes", "Random")


@dataclass(frozen=True)
class ThroughputCell:
    """One (dataset, system, hops) bar of Figure 9."""

    dataset: str
    system: str
    hops: int
    #: operations completed in the measurement window
    operations: int
    processed_vertices: int
    response_processed_ratio: float
    remote_hops: int
    edge_cut_fraction: float
    imbalance: float


@dataclass(frozen=True)
class Fig9Result:
    cells: Tuple[ThroughputCell, ...]

    def lookup(self, dataset: str, system: str, hops: int) -> ThroughputCell:
        for cell in self.cells:
            if (cell.dataset, cell.system, cell.hops) == (dataset, system, hops):
                return cell
        raise KeyError((dataset, system, hops))


def run(scale: ClusterScale = ClusterScale()) -> Fig9Result:
    cells: List[ThroughputCell] = []
    for dataset in build_datasets(scale.n, scale.seed):
        for system in SYSTEMS:
            cells.extend(_run_system(dataset, system, scale))
    return Fig9Result(cells=tuple(cells))


def _build_cluster(dataset: Dataset, system: str, scale: ClusterScale) -> HermesCluster:
    graph = dataset.graph.copy()
    if system == "Random":
        partitioner = HashPartitioner(salt=scale.seed)
    else:
        partitioner = metis_partitioner(scale.seed)
    return HermesCluster.from_graph(
        graph,
        num_servers=scale.num_servers,
        partitioner=partitioner,
        repartitioner=hermes_config(graph.num_vertices, epsilon=scale.epsilon),
    )


def _run_system(
    dataset: Dataset, system: str, scale: ClusterScale
) -> List[ThroughputCell]:
    cluster = _build_cluster(dataset, system, scale)
    pool = ClientPool(cluster, num_clients=scale.num_clients)
    vertices = list(cluster.graph.vertices())
    hot = sorted(cluster.catalog.vertices_on(0))

    def skewed(hops: int, seed_offset: int, num_queries: int):
        return hotspot_trace(
            vertices,
            hot,
            TraceConfig(num_queries=num_queries, hops=hops, seed=scale.seed + seed_offset),
        )

    # Warm-up under skew: this is what shifts the weights and (for Hermes)
    # triggers the repartitioner.
    pool.run(skewed(1, 1, scale.warmup_queries))
    if system == "Hermes":
        cluster.rebalance(force=True)
    elif system == "Metis":
        cluster.repartition_static(metis_partitioner(scale.seed + 2))

    cells = []
    for hops, seed_offset in ((1, 3), (2, 4)):
        report: WorkloadReport = pool.run(
            skewed(hops, seed_offset, 10**9), duration=scale.window
        )
        cells.append(
            ThroughputCell(
                dataset=dataset.name,
                system=system,
                hops=hops,
                operations=report.operations,
                processed_vertices=report.processed_vertices,
                response_processed_ratio=report.response_processed_ratio,
                remote_hops=report.remote_hops,
                edge_cut_fraction=cluster.edge_cut_fraction(),
                imbalance=cluster.imbalance(),
            )
        )
    return cells


def render(result: Fig9Result) -> str:
    datasets = []
    for cell in result.cells:
        if cell.dataset not in datasets:
            datasets.append(cell.dataset)
    blocks = []
    for dataset in datasets:
        table = Table(
            f"Figure 9 - Aggregate throughput, {dataset} "
            "(visited vertices per measurement window)",
            ["system", "1-hop", "2-hop", "1-hop ratio", "2-hop ratio", "cut%", "imb"],
        )
        for system in SYSTEMS:
            one = result.lookup(dataset, system, 1)
            two = result.lookup(dataset, system, 2)
            table.add_row(
                system,
                f"{one.processed_vertices:,}",
                f"{two.processed_vertices:,}",
                f"{one.response_processed_ratio:.2f}",
                f"{two.response_processed_ratio:.2f}",
                f"{one.edge_cut_fraction:.1%}",
                f"{one.imbalance:.2f}",
            )
        hermes = result.lookup(dataset, "Hermes", 1)
        random_ = result.lookup(dataset, "Random", 1)
        metis = result.lookup(dataset, "Metis", 1)
        if random_.processed_vertices:
            speedup = hermes.processed_vertices / random_.processed_vertices
            table.add_footnote(f"Hermes vs Random (1-hop): {speedup:.2f}x")
        if hermes.processed_vertices:
            gap = metis.processed_vertices / hermes.processed_vertices - 1.0
            table.add_footnote(f"Metis vs Hermes (1-hop): {gap:+.1%}")
        chart = BarChart(f"Figure 9 ({dataset}) - 1-hop visited vertices")
        for system in SYSTEMS:
            chart.add_bar(system, result.lookup(dataset, system, 1).processed_vertices)
        blocks.append(table.to_text())
        blocks.append(chart.to_text())
    blocks.append(
        "paper: Hermes ~1.7-3x over Random, within ~6% of Metis; 2-hop "
        "response/processed ratio ~0.39 (Metis) / 0.28 (Random) vs 1.0 for 1-hop"
    )
    return "\n\n".join(blocks)
