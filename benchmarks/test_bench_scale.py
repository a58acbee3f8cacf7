"""Benchmark: the CSR-substrate scale trajectory (BENCH_scale).

Runs a scaled-down trajectory by default (the full 100 K / 1 M run is
``hermes-experiments scale --check``, also in CI); scale up with
``HERMES_BENCH_SCALE_N``::

    HERMES_BENCH_SCALE_N=100000 pytest benchmarks/test_bench_scale.py --benchmark-only
"""

import os

from repro.experiments import scale


def _trajectory():
    top = int(os.environ.get("HERMES_BENCH_SCALE_N", "20000"))
    return [max(2000, top // 10), top]


def test_bench_scale(benchmark, record_table):
    sizes = _trajectory()
    result = benchmark.pedantic(
        scale.run_trajectory, args=(sizes,), rounds=1, iterations=1
    )
    record_table("scale", scale.render(result))

    assert [p.n for p in result.points] == sizes
    for point in result.points:
        assert point.num_vertices == point.n
        assert point.num_edges > point.n  # connected heavy-tailed graph
        assert point.phase1_final_edge_cut <= point.phase1_initial_edge_cut
        # CSR stays within a small constant per vertex/edge: int64 indptr
        # + float64 weights per vertex, one int32/int64 cell per direction.
        assert point.bytes_per_vertex < 120.0
        assert point.bytes_per_edge < 32.0
    # Acceptance gate: the retained CSR footprint is at most 25% of the
    # dict-of-sets footprint for the same graph (measured, not modeled).
    assert result.memory is not None
    assert result.memory.retained_ratio <= 0.25
    # Acceptance gate: phase-1 outcomes are byte-identical across substrates.
    assert result.parity.match
    assert not scale.gate_failures(result)

    benchmark.extra_info["ingest_eps"] = [
        round(p.ingest_edges_per_second) for p in result.points
    ]
    benchmark.extra_info["memory_ratio"] = round(result.memory.retained_ratio, 4)
