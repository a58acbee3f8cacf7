"""Benchmark: the event-queue scheduler (BENCH_concurrency gates).

Pins the acceptance gates against the committed ``BENCH_concurrency.json``
scale (n=800, 8 servers, seed 7): throughput scales with concurrent
clients out to 16, the forced online migration completes under mixed
traffic with zero coherence/clock/audit violations, and the online
rebalance lands on the serial rebalance's exact placement and edge-cut
at matched schedules.
"""

from repro.experiments import concurrency


def test_bench_concurrency(benchmark, cluster_scale, record_table):
    result = benchmark.pedantic(
        concurrency.run, args=(cluster_scale,), rounds=1, iterations=1
    )
    record_table("concurrency", concurrency.render(result))

    gates = result.gates
    points = {point.clients: point for point in result.scaling}

    # Scaling: more clients keep buying throughput out to 16, and the
    # curve is monotone up to that point (queueing, not collapse, after).
    assert gates["scaling_speedup_16"] >= gates["scaling_floor_16"]
    assert gates["saturation_ratio_32"] >= gates["saturation_floor_32"]
    rates = [points[c].ops_per_second for c in (1, 2, 4, 8, 16)]
    assert rates == sorted(rates), rates
    assert all(point.failed == 0 for point in result.scaling)

    # Online migration under mixed traffic: vertices actually moved and
    # every sweep (double-write window, event clock, full audit) is clean.
    migration = result.migration
    assert migration.vertices_moved > 0
    assert migration.writes > 0, "mixed trace must exercise the window"
    assert migration.coherence_violations == 0
    assert migration.monotonicity_violations == 0
    assert migration.audit_violations == 0

    # Matched schedules: online migration is invisible in the outcome.
    parity = result.parity
    assert parity.edge_cut_serial == parity.edge_cut_online
    assert parity.placement_match
    assert parity.vertices_moved_serial == parity.vertices_moved_online

    assert not concurrency.gate_failures(result)
    benchmark.extra_info["gates"] = {
        key: (round(value, 4) if isinstance(value, float) else value)
        for key, value in gates.items()
    }
