"""Batched remote traversal: cost of aggregated vs per-entry messaging.

The paper's throughput mechanism is the local/remote traversal mix: every
cut edge turns a local step into a remote message round (Sections 1, 4).
A production driver amortizes that by shipping all frontier work bound
for one server as a single request per hop.  This experiment quantifies
the amortization on our simulator: a fixed trace of 2-hop traversals
runs on the cluster (one aggregated message per ``(src, dst)`` link per
depth, plus the location cache) under both a random hash placement (high
edge-cut, many remote steps) and the Metis-style initial placement (low
edge-cut).  The baseline is a *model* number, not a second run: what the
same trace would cost if every remote frontier entry paid its own round
trip, computed in closed form from the run's own counts —

    dispatch + remote_hops * (remote_hop_cost + remote_service_cost)
             + processed * local_visit_cost        (per query, zero faults)

with one 256-byte message per remote entry.

Reported per (placement, mode): total simulated cost, message and byte
counts, and the batched run's cost reduction against the per-entry model.
The gate (:func:`gate_failures`): per placement, the batched run costs no
more than the per-entry model.  ``BENCH_batching.json`` pins the numbers
(``hermes-experiments batching --check``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.report import Table
from repro.cluster.hermes import HermesCluster
from repro.experiments.common import (
    ClusterScale,
    build_datasets,
    hermes_config,
    metis_partitioner,
)
from repro.graph.generators import Dataset
from repro.partitioning.hashing import HashPartitioner

TRAVERSAL_QUERIES = 60
HOPS = 2
#: wire size of one single-entry hop message (``remote_hop``'s default)
PER_ENTRY_MESSAGE_BYTES = 256


@dataclass(frozen=True)
class BatchingCell:
    """One (placement, batching-mode) datapoint."""

    placement: str
    batched: bool
    traversals: int
    total_cost: float
    messages: int
    bytes_sent: int
    remote_hops: int
    response_vertices: int


@dataclass(frozen=True)
class BatchingResult:
    dataset: str
    cells: Tuple[BatchingCell, ...]
    #: 1 - batched / per-entry model cost, per placement
    cost_reduction: Dict[str, float]

    def pair(self, placement: str) -> Tuple[BatchingCell, BatchingCell]:
        """(per-entry model, batched run) cells for one placement."""
        model = next(
            c for c in self.cells if c.placement == placement and not c.batched
        )
        batched = next(
            c for c in self.cells if c.placement == placement and c.batched
        )
        return model, batched


PLACEMENTS = ("hash", "metis")


def run(scale: ClusterScale = ClusterScale()) -> BatchingResult:
    dataset = build_datasets(scale.n, scale.seed)[0]
    cells: List[BatchingCell] = []
    reductions: Dict[str, float] = {}
    for placement in PLACEMENTS:
        model, batched = _run_placement(dataset, placement, scale)
        cells.extend((model, batched))
        reductions[placement] = (
            1 - batched.total_cost / model.total_cost if model.total_cost else 0.0
        )
    return BatchingResult(
        dataset=dataset.name, cells=tuple(cells), cost_reduction=reductions
    )


def gate_failures(result: BatchingResult) -> List[str]:
    """The placements whose batched run costs more than the model."""
    failures = []
    for placement in PLACEMENTS:
        model, batched = result.pair(placement)
        if batched.total_cost > model.total_cost:
            failures.append(
                f"{placement}: batched cost {batched.total_cost} > "
                f"per-entry model {model.total_cost}"
            )
    return failures


def _partitioner(placement: str, seed: int):
    if placement == "hash":
        return HashPartitioner(salt=seed)
    return metis_partitioner(seed)


def _run_placement(
    dataset: Dataset, placement: str, scale: ClusterScale
) -> Tuple[BatchingCell, BatchingCell]:
    """Run the trace once; returns (per-entry model, batched run)."""
    cluster = HermesCluster.from_graph(
        dataset.graph.copy(),
        num_servers=scale.num_servers,
        partitioner=_partitioner(placement, scale.seed),
        repartitioner=hermes_config(
            dataset.graph.num_vertices, epsilon=scale.epsilon
        ),
    )
    config = cluster.network.config
    # Bulk-load traffic (one ghost shipment per cut edge) is on the
    # network counters before the trace starts; both rows include it.
    load_messages = cluster.network.stats.messages
    load_bytes = cluster.network.stats.bytes_sent
    rng = random.Random(scale.seed + 1)
    vertices = sorted(cluster.graph.vertices())
    total_cost = 0.0
    model_cost = 0.0
    remote = 0
    responses = 0
    for _ in range(TRAVERSAL_QUERIES):
        result = cluster.traverse(rng.choice(vertices), hops=HOPS)
        total_cost += result.cost
        model_cost += (
            config.client_dispatch_cost
            + result.remote_hops
            * (config.remote_hop_cost + config.remote_service_cost)
            + result.processed * config.local_visit_cost
        )
        remote += result.remote_hops
        responses += len(result.response)
    model = BatchingCell(
        placement=placement,
        batched=False,
        traversals=TRAVERSAL_QUERIES,
        total_cost=model_cost,
        messages=load_messages + remote,
        bytes_sent=load_bytes + remote * PER_ENTRY_MESSAGE_BYTES,
        remote_hops=remote,
        response_vertices=responses,
    )
    batched = BatchingCell(
        placement=placement,
        batched=True,
        traversals=TRAVERSAL_QUERIES,
        total_cost=total_cost,
        messages=cluster.network.stats.messages,
        bytes_sent=cluster.network.stats.bytes_sent,
        remote_hops=remote,
        response_vertices=responses,
    )
    return model, batched


def render(result: BatchingResult) -> str:
    table = Table(
        f"Batched remote traversal - aggregated messages vs per-entry model "
        f"({result.dataset}, {HOPS}-hop)",
        ["placement", "mode", "cost (s)", "messages", "bytes", "reduction"],
    )
    for placement in PLACEMENTS:
        for cell in result.pair(placement):
            reduction = (
                f"{result.cost_reduction[placement]:.1%}" if cell.batched else "-"
            )
            table.add_row(
                cell.placement,
                "batched" if cell.batched else "per-entry (model)",
                f"{cell.total_cost:.4f}",
                str(cell.messages),
                str(cell.bytes_sent),
                reduction,
            )
    table.add_footnote(
        "one run per placement; the per-entry row is the closed-form cost "
        "of the same trace at one message per remote frontier entry"
    )
    return table.to_text()
