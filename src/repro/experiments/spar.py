"""Extension: Hermes vs SPAR-style one-hop replication (Section 6).

For each dataset: partition with the METIS substitute, then compare the
two strategies for serving social traffic —

* **Hermes**: no replicas; a fraction of 1-hop steps (= edge-cut) goes
  remote; writes touch one or two records;
* **SPAR**: replicate every border vertex onto its neighbors' partitions;
  1-hop traffic is fully local, at the price of storage and write
  amplification — and 2-hop queries still leave the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.report import Table
from repro.cluster.replication import OneHopReplicator, ReplicationStats
from repro.experiments.common import GraphScale, build_datasets, metis_partitioner
from repro.partitioning.metrics import edge_cut_fraction


@dataclass(frozen=True)
class SparCell:
    dataset: str
    edge_cut_fraction: float
    replication: ReplicationStats


@dataclass(frozen=True)
class SparResult:
    cells: Tuple[SparCell, ...]


def run(scale: GraphScale = GraphScale()) -> SparResult:
    cells = []
    replicator = OneHopReplicator()
    for dataset in build_datasets(scale.n, scale.seed):
        graph = dataset.graph
        partitioning = metis_partitioner(scale.seed).partition(
            graph, scale.num_partitions
        )
        cells.append(
            SparCell(
                dataset=dataset.name,
                edge_cut_fraction=edge_cut_fraction(graph, partitioning),
                replication=replicator.stats(graph, partitioning),
            )
        )
    return SparResult(cells=tuple(cells))


def render(result: SparResult) -> str:
    table = Table(
        "Extension - Hermes (partitioning) vs SPAR (one-hop replication)",
        [
            "dataset",
            "1-hop remote (Hermes)",
            "1-hop remote (SPAR)",
            "replication factor",
            "write amplification",
            "2-hop local (SPAR)",
        ],
    )
    for cell in result.cells:
        table.add_row(
            cell.dataset,
            f"{cell.edge_cut_fraction:.1%}",
            "0.0%",
            f"{cell.replication.replication_factor:.2f}x",
            f"{cell.replication.write_amplification:.2f}x",
            f"{cell.replication.two_hop_local_fraction:.1%}",
        )
    table.add_footnote(
        "SPAR buys perfect 1-hop locality with replicated storage and "
        "write fan-out; 2-hop traffic still leaves the partition, which "
        "is why Hermes supports general remote traversals instead"
    )
    return table.to_text()
