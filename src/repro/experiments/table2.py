"""Table 2: iterations until the lightweight repartitioner converges.

Same runs as Figure 11.  The paper reports 30-40 iterations for k=500
down to 10-13 for k=2000: "larger values of k result in slightly faster
convergence since they move more vertices per iteration."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.report import Table
from repro.experiments.common import (
    PAPER_K_VALUES,
    GraphScale,
    KSensitivityRun,
    run_k_sensitivity,
)

#: the paper's Table 2, for side-by-side rendering
PAPER_TABLE2 = {
    ("twitter", 500): 30,
    ("twitter", 1000): 17,
    ("twitter", 2000): 10,
    ("orkut", 500): 30,
    ("orkut", 1000): 17,
    ("orkut", 2000): 10,
    ("dblp", 500): 40,
    ("dblp", 1000): 13,
    ("dblp", 2000): 11,
}


@dataclass(frozen=True)
class Table2Result:
    runs: Tuple[KSensitivityRun, ...]


def run(scale: GraphScale = GraphScale()) -> Table2Result:
    return Table2Result(runs=run_k_sensitivity(scale))


def render(result: Table2Result) -> str:
    table = Table(
        "Table 2 - Iterations to convergence (measured (paper))",
        ["k (paper scale)", "twitter", "orkut", "dblp"],
    )
    indexed = {(entry.dataset, entry.paper_k): entry for entry in result.runs}
    for paper_k in PAPER_K_VALUES:
        cells = [f"k = {paper_k}"]
        for dataset in ("twitter", "orkut", "dblp"):
            entry = indexed[(dataset, paper_k)]
            paper_value = PAPER_TABLE2[(dataset, paper_k)]
            suffix = "" if entry.converged else " (hit cap)"
            cells.append(f"{entry.iterations} ({paper_value}){suffix}")
        table.add_row(*cells)
    table.add_footnote(
        "expected monotonicity: iterations decrease as k grows (paper trend)"
    )
    return table.to_text()
