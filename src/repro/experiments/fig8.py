"""Figure 8: migration volume — vertices moved and relationships changed.

Same runs as Figure 7.  The paper: "the lightweight repartitioner is able
to rebalance workload by moving 2% of the vertices and about 5% of the
relationships, while Metis migrates an order of magnitude more data."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.report import Table, format_percent
from repro.experiments.common import GraphScale, SkewStudy, run_all_skew_studies


@dataclass(frozen=True)
class Fig8Result:
    studies: Tuple[SkewStudy, ...]


def run(scale: GraphScale = GraphScale()) -> Fig8Result:
    return Fig8Result(studies=run_all_skew_studies(scale))


def render(result: Fig8Result) -> str:
    vertices = Table(
        "Figure 8a - Percent of vertices migrated",
        ["dataset", "Metis", "Hermes", "ratio (Metis/Hermes)"],
    )
    relationships = Table(
        "Figure 8b - Percent of relationships changed or migrated",
        ["dataset", "Metis", "Hermes", "ratio (Metis/Hermes)"],
    )
    for study in result.studies:
        hermes_v = study.hermes_migration.vertex_fraction
        metis_v = study.metis_migration.vertex_fraction
        hermes_r = study.hermes_migration.relationship_fraction
        metis_r = study.metis_migration.relationship_fraction
        vertices.add_row(
            study.dataset,
            format_percent(metis_v),
            format_percent(hermes_v),
            f"{metis_v / hermes_v:.1f}x" if hermes_v else "inf",
        )
        relationships.add_row(
            study.dataset,
            format_percent(metis_r),
            format_percent(hermes_r),
            f"{metis_r / hermes_r:.1f}x" if hermes_r else "inf",
        )
    vertices.add_footnote("paper: Hermes moves ~2% of vertices; Metis 10x+ more")
    relationships.add_footnote(
        "paper: Hermes changes ~5% of relationships; Metis an order of magnitude more"
    )
    return vertices.to_text() + "\n\n" + relationships.to_text()
