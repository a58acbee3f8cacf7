"""The optimized candidate engine must not change *any* observable output.

``tests/core/fixtures/repartitioner_reference.json`` pins the full phase-1
output — every move and every per-iteration history row, including the
``repr()`` of the float imbalance — produced by the pre-optimization
implementation (full member-set scans, per-call ``sum()`` aggregates) on
three seeded orkut-like graphs.  The array engine (DESIGN.md §6) must
reproduce those outputs byte for byte on both graph substrates: it is a
pure reformulation of Algorithm 1/2, not an approximation.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.auxiliary import AuxiliaryData
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner
from repro.graph.compact import CompactGraph
from repro.graph.generators import orkut_like
from repro.partitioning.hashing import HashPartitioner

FIXTURE = Path(__file__).parent / "fixtures" / "repartitioner_reference.json"

with FIXTURE.open() as fh:
    CASES = json.load(fh)["cases"]


def case_id(case):
    """Names the fixture block a case is compared against (ids unchanged
    from when there were other blocks to run)."""
    return f"centralized-n{case['n']}-s{case['seed']}"


@pytest.mark.parametrize("case", CASES, ids=lambda c: "serial-" + case_id(c))
def test_matches_pinned_reference_output(case):
    dataset = orkut_like(n=case["n"], seed=case["seed"])
    graph = dataset.graph
    partitioning = HashPartitioner(salt=case["seed"]).partition(
        graph, case["partitions"]
    )
    config = RepartitionerConfig(k=case["k"], max_iterations=60)
    aux = AuxiliaryData.from_graph(graph, partitioning)
    result = LightweightRepartitioner(config).run(graph, partitioning, aux=aux)

    expected = case["centralized"]
    moves = sorted([v, s, t] for v, (s, t) in result.moves.items())
    history = [
        [h.iteration, h.migrations, h.edge_cut, repr(h.max_imbalance)]
        for h in result.history
    ]
    assert moves == expected["moves"]
    assert history == expected["history"]
    assert result.converged == expected["converged"]
    assert result.stalled == expected["stalled"]
    assert result.iterations == expected["iterations"]
    assert result.initial_edge_cut == expected["initial_edge_cut"]
    assert result.final_edge_cut == expected["final_edge_cut"]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_compact_substrate_matches_pinned_reference_output(case):
    """The CSR substrate reproduces the same pinned outputs byte for byte.

    The fixture was generated on dict-of-sets graphs; running the
    repartitioner on the CSR conversion of the same graph must hit the
    exact same moves and history — the read protocol fixes vertex order
    and per-vertex values, so the substrate cannot leak into the output.
    """
    dataset = orkut_like(n=case["n"], seed=case["seed"])
    graph = CompactGraph.from_social(dataset.graph)
    partitioning = HashPartitioner(salt=case["seed"]).partition(
        graph, case["partitions"]
    )
    config = RepartitionerConfig(k=case["k"], max_iterations=60)
    result = LightweightRepartitioner(config).run(graph, partitioning)

    expected = case["centralized"]
    moves = sorted([int(v), s, t] for v, (s, t) in result.moves.items())
    history = [
        [h.iteration, h.migrations, h.edge_cut, repr(h.max_imbalance)]
        for h in result.history
    ]
    assert moves == expected["moves"]
    assert history == expected["history"]
    assert result.converged == expected["converged"]
    assert result.stalled == expected["stalled"]
    assert result.iterations == expected["iterations"]
    assert result.initial_edge_cut == expected["initial_edge_cut"]
    assert result.final_edge_cut == expected["final_edge_cut"]
