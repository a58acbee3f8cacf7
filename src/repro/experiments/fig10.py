"""Figure 10: throughput while varying the write rate.

Protocol (Section 5.3.3): mixed traces insert data through random write
traffic at 0/10/20/30% write mix; the lightweight repartitioner runs
after the inserts to restore partition quality.  The paper reports small
degradations (~3/5/7% for 10/20/30% writes) and, after repartitioning,
100%-read throughput within ~2% of a Metis re-partitioning.  Throughput
is processed vertices over the event engine's measured makespan of the
32 client tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.report import BarChart, Table
from repro.cluster.clients import ClientPool
from repro.cluster.hermes import HermesCluster
from repro.experiments.common import (
    ClusterScale,
    build_datasets,
    hermes_config,
    metis_partitioner,
)
from repro.graph.generators import Dataset
from repro.workloads.mixed import mixed_trace

WRITE_RATES = (0.0, 0.1, 0.2, 0.3)


@dataclass(frozen=True)
class WriteRateCell:
    dataset: str
    write_fraction: float
    throughput_vps: float
    operations: int
    writes: int


@dataclass(frozen=True)
class ReadbackCell:
    """The post-insert 100%-read comparison against Metis."""

    dataset: str
    hermes_vps: float
    metis_vps: float


@dataclass(frozen=True)
class Fig10Result:
    cells: Tuple[WriteRateCell, ...]
    readback: Tuple[ReadbackCell, ...]


def run(scale: ClusterScale = ClusterScale()) -> Fig10Result:
    cells: List[WriteRateCell] = []
    readback: List[ReadbackCell] = []
    for dataset in build_datasets(scale.n, scale.seed):
        for write_fraction in WRITE_RATES:
            cells.append(_run_mix(dataset, write_fraction, scale))
        readback.append(_run_readback(dataset, scale))
    return Fig10Result(cells=tuple(cells), readback=tuple(readback))


def _build_cluster(dataset: Dataset, scale: ClusterScale) -> HermesCluster:
    return HermesCluster.from_graph(
        dataset.graph.copy(),
        num_servers=scale.num_servers,
        partitioner=metis_partitioner(scale.seed),
        repartitioner=hermes_config(dataset.graph.num_vertices, epsilon=scale.epsilon),
    )


def _run_mix(
    dataset: Dataset, write_fraction: float, scale: ClusterScale
) -> WriteRateCell:
    cluster = _build_cluster(dataset, scale)
    pool = ClientPool(cluster, num_clients=scale.num_clients)
    trace = mixed_trace(
        cluster.graph,
        num_operations=10**9,
        write_fraction=write_fraction,
        hops=1,
        seed=scale.seed,
    )
    report = pool.run(trace, duration=scale.window)
    cluster.rebalance()  # the repartitioner runs after records are inserted
    return WriteRateCell(
        dataset=dataset.name,
        write_fraction=write_fraction,
        throughput_vps=report.throughput_vertices_per_second,
        operations=report.operations,
        writes=report.writes,
    )


def _run_readback(dataset: Dataset, scale: ClusterScale) -> ReadbackCell:
    """Insert at 30% writes, repartition, then measure 100% reads with the
    lightweight repartitioner vs a fresh Metis partitioning."""
    results = {}
    for system in ("Hermes", "Metis"):
        cluster = _build_cluster(dataset, scale)
        pool = ClientPool(cluster, num_clients=scale.num_clients)
        pool.run(
            mixed_trace(
                cluster.graph,
                num_operations=10**9,
                write_fraction=0.3,
                seed=scale.seed,
            ),
            duration=scale.window,
        )
        if system == "Hermes":
            cluster.rebalance(force=True)
        else:
            cluster.repartition_static(metis_partitioner(scale.seed + 2))
        report = pool.run(
            mixed_trace(
                cluster.graph,
                num_operations=10**9,
                write_fraction=0.0,
                seed=scale.seed + 3,
            ),
            duration=scale.window,
        )
        results[system] = report.throughput_vertices_per_second
    return ReadbackCell(
        dataset=dataset.name,
        hermes_vps=results["Hermes"],
        metis_vps=results["Metis"],
    )


def render(result: Fig10Result) -> str:
    table = Table(
        "Figure 10 - Throughput (vertices/s) while varying the write rate",
        ["dataset", "0%", "10%", "20%", "30%", "30% vs 0%"],
    )
    datasets = []
    for cell in result.cells:
        if cell.dataset not in datasets:
            datasets.append(cell.dataset)
    indexed = {(c.dataset, c.write_fraction): c for c in result.cells}
    for dataset in datasets:
        row = [dataset]
        for rate in WRITE_RATES:
            row.append(f"{indexed[(dataset, rate)].throughput_vps:,.0f}")
        base = indexed[(dataset, 0.0)].throughput_vps
        heavy = indexed[(dataset, 0.3)].throughput_vps
        row.append(f"{heavy / base - 1.0:+.1%}" if base else "n/a")
        table.add_row(*row)
    table.add_footnote(
        "paper: ~3% / 5% / 7% throughput decrease at 10% / 20% / 30% writes"
    )
    readback = Table(
        "Section 5.3.3 readback - 100% reads after inserts + repartitioning",
        ["dataset", "Hermes (v/s)", "Metis (v/s)", "gap"],
    )
    for cell in result.readback:
        gap = (cell.hermes_vps / cell.metis_vps - 1.0) if cell.metis_vps else 0.0
        readback.add_row(
            cell.dataset,
            f"{cell.hermes_vps:,.0f}",
            f"{cell.metis_vps:,.0f}",
            f"{gap:+.1%}",
        )
    readback.add_footnote("paper: Hermes within 2% of Metis")
    chart = BarChart("Figure 10 - throughput (vertices/s) at 0% vs 30% writes")
    for dataset in datasets:
        chart.add_bar(f"{dataset} @0%", indexed[(dataset, 0.0)].throughput_vps)
        chart.add_bar(f"{dataset} @30%", indexed[(dataset, 0.3)].throughput_vps)
    return "\n\n".join([table.to_text(), chart.to_text(), readback.to_text()])
