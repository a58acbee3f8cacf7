"""Fault injection: traversal coverage and migration success under loss.

The paper's migration protocol (Section 3.2) is designed around partial
failure: a crash between the copy and remove steps must never corrupt the
database.  This experiment exercises that claim end to end.  For each
message-loss rate a fresh cluster (Metis initial placement) is attached
to a seeded :class:`~repro.cluster.faults.FaultPlan`, a fixed trace of
2-hop traversals is replayed, and then a forced rebalance is attempted a
bounded number of times.  Reported per rate:

* how many traversals came back partial, and the response coverage
  relative to the zero-fault run of the same trace;
* how many rebalance attempts were needed and whether one succeeded —
  every aborted attempt rolls the cluster back, so a later retry starts
  from the exact pre-migration state.

The zero-fault row doubles as a regression check: it must report full
coverage, no partial results and a first-attempt migration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.report import Table
from repro.cluster.faults import FaultPlan
from repro.cluster.hermes import HermesCluster
from repro.exceptions import MigrationAbortedError
from repro.experiments.common import (
    ClusterScale,
    build_datasets,
    hermes_config,
    metis_partitioner,
)
from repro.graph.generators import Dataset

LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.4)
TRAVERSAL_QUERIES = 40
MIGRATION_ATTEMPTS = 3


@dataclass(frozen=True)
class FaultCell:
    """One loss-rate datapoint."""

    loss_rate: float
    traversals: int
    partial_traversals: int
    response_vertices: int
    #: response vertices relative to the zero-fault run of the same trace
    coverage: float
    faults_injected: int
    migration_attempts: int
    migration_aborts: int
    migration_succeeded: bool
    vertices_moved: int


@dataclass(frozen=True)
class FaultsResult:
    dataset: str
    cells: Tuple[FaultCell, ...]


def run(scale: ClusterScale = ClusterScale()) -> FaultsResult:
    dataset = build_datasets(scale.n, scale.seed)[0]
    raw: List[dict] = [_run_rate(dataset, rate, scale) for rate in LOSS_RATES]
    baseline = raw[0]["response_vertices"] or 1
    cells = tuple(
        FaultCell(coverage=row["response_vertices"] / baseline, **row)
        for row in raw
    )
    return FaultsResult(dataset=dataset.name, cells=cells)


def _run_rate(dataset: Dataset, rate: float, scale: ClusterScale) -> dict:
    cluster = HermesCluster.from_graph(
        dataset.graph.copy(),
        num_servers=scale.num_servers,
        partitioner=metis_partitioner(scale.seed),
        repartitioner=hermes_config(dataset.graph.num_vertices, epsilon=scale.epsilon),
    )
    if rate:
        cluster.attach_faults(FaultPlan(seed=scale.seed, loss_rate=rate))
    # An installed hub is shared by every cluster of the sweep: count this
    # cluster's faults as a delta.
    injected_before = _faults_injected(cluster)

    rng = random.Random(scale.seed + 1)
    vertices = sorted(cluster.graph.vertices())
    partial = 0
    response_total = 0
    for _ in range(TRAVERSAL_QUERIES):
        result = cluster.traverse(rng.choice(vertices), hops=2)
        if result.partial:
            partial += 1
        response_total += len(result.response)

    attempts = 0
    aborts = 0
    succeeded = False
    moved = 0
    while attempts < MIGRATION_ATTEMPTS and not succeeded:
        attempts += 1
        try:
            outcome = cluster.rebalance(force=True)
        except MigrationAbortedError:
            aborts += 1
            continue
        succeeded = True
        if outcome is not None:
            moved = outcome[0].vertices_moved

    injected = _faults_injected(cluster) - injected_before
    return {
        "loss_rate": rate,
        "traversals": TRAVERSAL_QUERIES,
        "partial_traversals": partial,
        "response_vertices": response_total,
        "faults_injected": injected,
        "migration_attempts": attempts,
        "migration_aborts": aborts,
        "migration_succeeded": succeeded,
        "vertices_moved": moved,
    }


def _faults_injected(cluster: HermesCluster) -> int:
    return int(
        sum(
            cluster.telemetry.counter("faults_injected_total", kind=kind).value
            for kind in ("server_down", "message_loss", "timeout")
        )
    )


def render(result: FaultsResult) -> str:
    table = Table(
        f"Fault injection - loss rate vs coverage and migration ({result.dataset})",
        [
            "loss",
            "partial",
            "coverage",
            "faults",
            "migration",
            "moved",
        ],
    )
    for cell in result.cells:
        if cell.migration_succeeded:
            migration = f"ok ({cell.migration_attempts} att)"
        else:
            migration = f"FAILED ({cell.migration_attempts} att)"
        table.add_row(
            f"{cell.loss_rate:.0%}",
            f"{cell.partial_traversals}/{cell.traversals}",
            f"{cell.coverage:.1%}",
            str(cell.faults_injected),
            migration,
            str(cell.vertices_moved),
        )
    table.add_footnote(
        "every aborted migration rolls back to the pre-move state; "
        "retries start from scratch (idempotent)"
    )
    return table.to_text()
