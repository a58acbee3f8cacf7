"""Benchmark: elastic membership (BENCH_elasticity gates).

Pins the acceptance gates against the committed ``BENCH_elasticity.json``
scale (n=800, 8 servers, seed 7): a scale-out join moves a small
fraction of the vertices a full re-hash would re-home, a drain under
live front-door traffic leaves zero primaries while goodput holds, and
crash-recovery replays every server's WAL into an image identical to
the pre-crash durable state with a clean invariant audit.
"""

from repro.experiments import elasticity


def test_bench_elasticity(benchmark, cluster_scale, record_table):
    result = benchmark.pedantic(
        elasticity.run, args=(cluster_scale,), rounds=1, iterations=1
    )
    record_table("elasticity", elasticity.render(result))

    gates = result.gates

    # Scale-out: the join fills the newcomer without re-homing the
    # cluster — a fraction of the full re-hash churn — and lands
    # balanced.
    scaleout = result.scaleout
    assert scaleout.reshard_moved > 0
    assert scaleout.full_rehash_moved > scaleout.reshard_moved
    assert gates["scaleout_moved_fraction"] <= gates["scaleout_fraction_ceiling"]

    # Drain under traffic: evacuation is complete and the front door
    # keeps serving at a healthy fraction of the pre-drain rate.
    drain = result.drain
    assert drain.primaries_left == 0
    assert drain.drain_moved > 0
    assert drain.completed_after > 0
    assert gates["drain_goodput_retention"] >= gates["drain_retention_floor"]

    # Crash-recovery: every episode rebuilt the durable image exactly
    # and the cluster audits clean afterwards.
    recovery = result.recovery
    assert recovery.episodes == result.num_servers
    assert recovery.mismatches == 0
    assert recovery.audit_violations == 0
    assert recovery.nodes_recovered > 0

    assert not elasticity.gate_failures(result)
    benchmark.extra_info["gates"] = {
        key: (round(value, 4) if isinstance(value, float) else value)
        for key, value in gates.items()
    }
