"""Figure 7: edge-cut percentage, lightweight repartitioner vs Metis.

Protocol (Section 5.3.1): Metis forms the initial partitioning on
unskewed traffic; the hotspot skew doubles the read weight of one
partition's users; the lightweight repartitioner rebalances from the
existing partitioning while Metis is re-run from scratch on the skewed
weights.  The paper finds the difference in edge-cut "too small (1% or
less) to be significant".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.report import Table, format_percent
from repro.experiments.common import GraphScale, SkewStudy, run_all_skew_studies


@dataclass(frozen=True)
class Fig7Result:
    studies: Tuple[SkewStudy, ...]


def run(scale: GraphScale = GraphScale()) -> Fig7Result:
    return Fig7Result(studies=run_all_skew_studies(scale))


def render(result: Fig7Result) -> str:
    table = Table(
        "Figure 7 - Percent edge-cut after the workload skew",
        ["dataset", "Metis", "Hermes", "initial", "Hermes - Metis"],
    )
    for study in result.studies:
        table.add_row(
            study.dataset,
            format_percent(study.metis_cut_fraction),
            format_percent(study.hermes_cut_fraction),
            format_percent(study.initial_cut_fraction),
            format_percent(study.hermes_cut_fraction - study.metis_cut_fraction),
        )
    table.add_footnote(
        "paper: Hermes within ~1% of Metis on all three datasets"
    )
    return table.to_text()
