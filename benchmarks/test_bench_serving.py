"""Benchmark: the front-door serving layer (BENCH_serving gates).

Pins the acceptance gates against the committed ``BENCH_serving.json``
scale (n=800, 8 servers, seed 7): admission control holds the overload
tail and the happy path, replica routing offloads the hotspot, and the
staleness bound holds across the replica-lag sweep.
"""

from repro.experiments import serving
from repro.serving import SHEDDING


def test_bench_serving(benchmark, cluster_scale, record_table):
    result = benchmark.pedantic(
        serving.run, args=(cluster_scale,), rounds=1, iterations=1
    )
    record_table("serving", serving.render(result))

    gates = result.gates
    points = {point.label: point for point in result.overload}
    controlled_1x = points["1x admission"]
    controlled_3x = points["3x admission"]
    queueless_3x = points["3x queue-less"]

    # Overload: the tail is held at a bounded shed rate...
    assert (
        gates["p99_ratio_3x_vs_uncontested"] <= gates["p99_ratio_limit"]
    ), f"p99 ratio {gates['p99_ratio_3x_vs_uncontested']:.2f}"
    assert controlled_3x.shed_rate > 0.0
    assert controlled_3x.final_admission_state == SHEDDING
    # ...the queue-less stack pays for the same load with its tail...
    assert queueless_3x.p99_latency > 2 * controlled_3x.p99_latency
    # ...and admission control does not tax the uncontested path.
    assert gates["goodput_ratio_1x"] >= gates["goodput_ratio_floor"]
    assert controlled_1x.shed_rate < 0.05

    # Hotspot: replica routing offloads >=30% of reads off primaries
    # and shortens the tail relative to primary-only routing.
    hotspot = result.hotspot
    assert gates["hotspot_offload_fraction"] >= gates["hotspot_offload_floor"]
    assert hotspot.p99_with_replicas <= hotspot.p99_primary_only

    # Staleness sweep: every replica-served read within the bound, and
    # growing lag pushes reads back to primaries (offload falls).
    assert gates["staleness_bound_respected"]
    offloads = [point.offload_fraction for point in result.staleness]
    assert offloads[-1] < offloads[0]
    blocked = [point.stale_blocked for point in result.staleness]
    assert blocked[-1] > 0

    assert not serving.gate_failures(result)
    benchmark.extra_info["gates"] = {
        key: (round(value, 4) if isinstance(value, float) else value)
        for key, value in gates.items()
    }
