"""Section 5.3 memory comparison: auxiliary data vs multilevel state.

The paper: "Metis requires around 23GB and 17GB of memory to partition
the Orkut and Twitter datasets ... the lightweight repartitioner only
requires 2GB and 3GB" — because Metis scales with relationships and
coarsening stages while the repartitioner scales with vertices and
partitions.  This experiment measures both footprints on the surrogate
graphs and reports the ratio, which is the scale-free part of the claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.memory import auxiliary_memory_bytes, multilevel_memory_bytes
from repro.analysis.report import Table
from repro.core.auxiliary import AuxiliaryData
from repro.experiments.common import GraphScale, build_datasets, metis_partitioner


@dataclass(frozen=True)
class MemoryCell:
    dataset: str
    num_vertices: int
    num_edges: int
    auxiliary_bytes: int
    multilevel_bytes: int

    @property
    def ratio(self) -> float:
        if self.auxiliary_bytes == 0:
            return float("inf")
        return self.multilevel_bytes / self.auxiliary_bytes


@dataclass(frozen=True)
class MemoryResult:
    cells: Tuple[MemoryCell, ...]


def run(scale: GraphScale = GraphScale()) -> MemoryResult:
    cells = []
    for dataset in build_datasets(scale.n, scale.seed):
        graph = dataset.graph
        partitioning = metis_partitioner(scale.seed).partition(
            graph, scale.num_partitions
        )
        aux = AuxiliaryData.from_graph(graph, partitioning)
        cells.append(
            MemoryCell(
                dataset=dataset.name,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                auxiliary_bytes=auxiliary_memory_bytes(aux),
                multilevel_bytes=multilevel_memory_bytes(graph),
            )
        )
    return MemoryResult(cells=tuple(cells))


def render(result: MemoryResult) -> str:
    table = Table(
        "Section 5.3 - Repartitioning memory: auxiliary data vs multilevel",
        ["dataset", "V", "E", "lightweight", "multilevel", "multilevel/lightweight"],
    )
    for cell in result.cells:
        table.add_row(
            cell.dataset,
            f"{cell.num_vertices:,}",
            f"{cell.num_edges:,}",
            _human(cell.auxiliary_bytes),
            _human(cell.multilevel_bytes),
            f"{cell.ratio:.1f}x",
        )
    table.add_footnote(
        "paper: Metis needs ~23GB (Orkut) / ~17GB (Twitter); the lightweight "
        "repartitioner 2GB / 3GB (~6-11x) - the gap grows with edge density"
    )
    return table.to_text()


def _human(size: int) -> str:
    value = float(size)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:,.1f} {unit}"
        value /= 1024
    return f"{value:,.1f} GB"
