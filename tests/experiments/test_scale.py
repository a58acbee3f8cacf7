"""Tests for the BENCH_scale experiment and its parity pin."""

import json
from pathlib import Path

from repro.experiments import scale
from repro.experiments.common import GraphScale

PARITY_FIXTURE = (
    Path(__file__).parent.parent / "core" / "fixtures" / "scale_parity_reference.json"
)


def test_run_point_small():
    point = scale.run_point(n=1500, num_partitions=4, seed=3)
    assert point.num_vertices == 1500
    assert point.num_edges > 1500
    assert point.build_seconds > 0
    assert point.ingest_edges_per_second > 0
    assert point.phase1_final_edge_cut <= point.phase1_initial_edge_cut
    assert point.sweep_edges_per_second > 0
    assert point.csr_bytes > 0
    assert point.peak_rss_bytes > 0


def test_memory_comparison_csr_is_fraction_of_dict():
    comparison = scale.compare_memory(n=3000, seed=5)
    # the acceptance gate at the real comparison point is 25%; at this
    # small n the gap is already far wider than that
    assert comparison.retained_ratio <= 0.25
    assert comparison.csr_retained_bytes < comparison.dict_retained_bytes
    assert comparison.csr_peak_bytes > 0


def test_parity_matches_pinned_digest():
    """Both substrates must reproduce the pinned phase-1 digest exactly.

    The fixture pins the sha256 of the full outcome (final assignment,
    moves, history with exact float reprs) at the BENCH_scale parity
    point; any substrate-dependent drift — iteration order, accumulation
    order, tie-breaks — shows up here as a digest change.
    """
    with PARITY_FIXTURE.open() as fh:
        pinned = json.load(fh)
    parity = scale.check_parity(
        n=pinned["n"], num_partitions=pinned["partitions"], seed=pinned["seed"]
    )
    assert parity.match
    assert parity.dict_digest == pinned["digest"]
    assert parity.csr_digest == pinned["digest"]


def test_run_and_render_and_json_payload():
    result = scale.run(GraphScale(n=1200, num_partitions=4, seed=9))
    text = scale.render(result)
    assert "BENCH_scale" in text
    assert "parity" in text
    payload = scale.to_json_payload(result)
    blob = json.loads(json.dumps(payload))  # must be JSON-serializable
    assert blob["points"][0]["n"] == 1200
    assert blob["parity"]["match"] is True
    assert blob["memory"]["retained_ratio"] < 1.0
    # Committed seconds say where they were measured.
    assert blob["clock"] == "wall"
    assert set(blob["machine"]) == {"nproc", "python", "numpy", "platform"}
