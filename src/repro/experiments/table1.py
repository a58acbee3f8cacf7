"""Table 1: summary description of datasets.

Measures the five characterisation statistics on the generator surrogates
and prints them next to the paper's values for the real SNAP graphs.
Node/edge counts differ by construction (the surrogates are laptop-scale);
the *shape* columns — symmetry, path length, clustering, power-law
exponent — are the ones the generators are matched on: the relative
ordering across datasets must agree with the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.report import Table
from repro.experiments.common import GraphScale, build_datasets
from repro.graph.stats import GraphStatistics, summarize


@dataclass(frozen=True)
class Table1Result:
    measured: List[GraphStatistics]
    paper: Dict[str, Dict[str, float]]


def run(scale: GraphScale = GraphScale()) -> Table1Result:
    datasets = build_datasets(scale.n, scale.seed)
    measured = [
        summarize(dataset, path_sample=min(100, scale.n), seed=scale.seed)
        for dataset in datasets
    ]
    paper = {dataset.name: dataset.paper_stats for dataset in datasets}
    return Table1Result(measured=measured, paper=paper)


def render(result: Table1Result) -> str:
    table = Table(
        "Table 1 - Summary description of datasets (measured vs paper)",
        [
            "dataset",
            "nodes",
            "edges",
            "symmetric",
            "avg path len",
            "clustering",
            "power-law",
        ],
    )
    for stats in result.measured:
        paper = result.paper[stats.name]
        table.add_row(
            stats.name,
            f"{stats.num_nodes:,}",
            f"{stats.num_edges:,}",
            f"{stats.symmetric_link_fraction:.1%}",
            f"{stats.average_path_length:.2f} ({paper['average_path_length']:.2f})",
            _with_paper(stats.clustering_coefficient, paper["clustering_coefficient"], 4),
            _with_paper(stats.powerlaw_coefficient, paper["powerlaw_coefficient"], 2),
        )
    table.add_footnote(
        "values in parentheses are the paper's (full-scale SNAP graphs); "
        "'nan' marks statistics the paper reports as unpublished"
    )
    return table.to_text()


def _with_paper(measured: float, paper: float, digits: int) -> str:
    if math.isnan(paper):
        return f"{measured:.{digits}f} (n/a)"
    return f"{measured:.{digits}f} ({paper:.{digits}f})"
