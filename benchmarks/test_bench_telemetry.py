"""Telemetry overhead micro-benchmarks.

The null-hub fast path is a hard requirement: phase-1 repartitioning with
no telemetry sink attached must stay within a few percent of the
pre-telemetry baseline recorded in ``BENCH_repartitioner.json`` (the
recorded before/after overhead numbers live in ``BENCH_telemetry.json``
at the repo root).  The recording-hub variant is benchmarked alongside so
the cost of full capture is visible, not guessed.
"""

import json
import random
from pathlib import Path

import pytest

from repro.cluster.hermes import HermesCluster
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner
from repro.graph.generators import orkut_like
from repro.partitioning.hashing import HashPartitioner
from repro.telemetry import Telemetry

#: the BENCH_repartitioner.json acceptance workload
REFERENCE_N = 5000
REFERENCE_SEED = 42
#: its recorded outcome: iterations, edge cuts, moves
REFERENCE_OUTPUT = json.loads(
    (Path(__file__).parent.parent / "BENCH_repartitioner.json").read_text()
)["output_identity"]


@pytest.fixture(scope="module")
def reference_graph():
    return orkut_like(n=REFERENCE_N, seed=REFERENCE_SEED).graph


def run_phase1(graph, telemetry=None):
    partitioning = HashPartitioner(salt=REFERENCE_SEED).partition(graph, 8)
    config = RepartitionerConfig(max_iterations=50)
    return LightweightRepartitioner(config).run(
        graph, partitioning, telemetry=telemetry
    )


def test_bench_phase1_null_telemetry(benchmark, reference_graph):
    """Hot path with the default null hub — the <5% overhead budget."""
    result = benchmark.pedantic(
        run_phase1, args=(reference_graph,), rounds=3, iterations=1
    )
    # Output identity with the recorded reference run.
    assert result.iterations == REFERENCE_OUTPUT["iterations"]
    assert result.initial_edge_cut == REFERENCE_OUTPUT["initial_edge_cut"]
    assert result.final_edge_cut == REFERENCE_OUTPUT["final_edge_cut"]
    assert len(result.moves) == REFERENCE_OUTPUT["moves"]


def test_bench_phase1_recording_telemetry(benchmark, reference_graph):
    """Same workload with spans, events and iteration metrics captured."""

    def run_recorded():
        return run_phase1(reference_graph, telemetry=Telemetry(record=True))

    result = benchmark.pedantic(run_recorded, rounds=3, iterations=1)
    assert result.final_edge_cut == REFERENCE_OUTPUT["final_edge_cut"]


def test_bench_traversal_null_vs_instrumented(benchmark):
    """One-hop traversals on a cluster: the per-visit counters are the
    hottest instrument calls in the repo."""
    dataset = orkut_like(n=1000, seed=3)
    cluster = HermesCluster.from_graph(
        dataset.graph.copy(), num_servers=8, partitioner=HashPartitioner()
    )
    rng = random.Random(5)
    vertices = list(cluster.graph.vertices())

    benchmark(lambda: cluster.traverse(rng.choice(vertices), hops=1))
