"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repo root is this file's ``benchmark_json()``
written out; ``test_smoke.py`` fails when the two drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: List[Tuple[str, str]] = [
    (
        "traverse_read",
        "n=1200, 8 servers, serial engine, no WAL: 10000 cluster.traverse calls, "
        "Zipf(1.1) starts, 90% 1-hop/10% 2-hop, then a serial rebalance; "
        "serving, concurrency and the WAL do nothing",
    ),
    (
        "serve_mixed",
        "n=1200, WAL on, engine behind the front door: 5000 submits (40% read, "
        "40% 1-hop, 20% writes) 0.1 simulated s apart, then an online rebalance; "
        "the production path, storage used for writes",
    ),
    (
        "rebalance_elastic",
        "n=1200, WAL on: 2000 hotspot reads, online rebalance under 2000 mixed ops "
        "from 8 clients, join+drain, 3 crash recoveries, 3000 reads after; the "
        "paper's contribution, serving idle",
    ),
    (
        "scale_phase1",
        "no cluster: 100000-vertex power-law stream -> CSR build (3 times), 18750 "
        "reads of 64 CSR rows, 12 phase-1 iterations on the array graph; core and graph "
        "at scale, cluster/storage/serving idle",
    ),
]

#: Printed by every workload; the driver gates these.  (name, unit,
#: better, bound) — bound is the share of the parent's median by which
#: the metric may worsen before a change counts as a regression.  Time
#: bounds sit at the contract's ceiling: after interference correction
#: the sizing box still spreads 5-15 % between runs (README, "Noise").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_p99_ms", "ms", "lower", 0.25),
    ("rebalance_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: End-to-end numbers only some workloads have.  The driver's contract
#: wants every gated metric from every workload and never zero, so these
#: are printed and compared by this harness (``run.py`` / ``compare``)
#: but are not in ``BENCHMARK.json``.  (name, unit, better, bound, workloads)
WORKLOAD_END_TO_END: List[Tuple[str, str, str, float, Tuple[str, ...]]] = [
    ("hop2_p50_ms", "ms", "lower", 0.25, ("traverse_read",)),
    ("hop2_p99_ms", "ms", "lower", 0.25, ("traverse_read",)),
    ("write_p50_ms", "ms", "lower", 0.25, ("serve_mixed",)),
    ("write_p99_ms", "ms", "lower", 0.25, ("serve_mixed",)),
    ("point_p50_ms", "ms", "lower", 0.25, ("serve_mixed",)),
    ("membership_s", "s", "lower", 0.25, ("rebalance_elastic",)),
    ("recover_s", "s", "lower", 0.25, ("rebalance_elastic",)),
    ("read_before_p50_ms", "ms", "lower", 0.25, ("rebalance_elastic",)),
    ("build_s", "s", "lower", 0.25, ("scale_phase1",)),
    ("phase1_iter_ms", "ms", "lower", 0.25, ("scale_phase1",)),
    (
        "failed_frac",
        "ratio",
        "lower",
        0.0,
        ("traverse_read", "serve_mixed", "rebalance_elastic"),
    ),
]

#: From the traced run.  ``_s`` is self time: span duration minus child
#: spans.  Zero where a workload does not touch the layer — that *is*
#: the prediction "no change here".
PER_LAYER: List[Tuple[str, str, str]] = [
    ("serving.submit_self_s", "s", "lower"),
    ("serving.route_s", "s", "lower"),
    ("serving.admit_s", "s", "lower"),
    ("serving.replica_sync_s", "s", "lower"),
    ("serving.replica_recomputes", "count", "lower"),
    ("serving.replica_recomputes_per_write", "count", "lower"),
    ("serving.shed", "count", "lower"),
    ("concurrency.step_self_s", "s", "lower"),
    ("concurrency.events", "count", "lower"),
    ("concurrency.coherence_sweep_ms_per_event", "ms", "lower"),
    ("cluster.traverse_self_s", "s", "lower"),
    ("cluster.network_s", "s", "lower"),
    ("cluster.network_calls", "count", "lower"),
    ("cluster.catalog_s", "s", "lower"),
    ("cluster.catalog_calls", "count", "lower"),
    ("cluster.write_self_s", "s", "lower"),
    ("cluster.load_s", "s", "lower"),
    ("cluster.migrate_self_s", "s", "lower"),
    ("cluster.migrate_steps", "count", "lower"),
    ("cluster.migrate_vertices", "count", "lower"),
    ("cluster.journal_s", "s", "lower"),
    ("cluster.journal_calls", "count", "lower"),
    ("cluster.join_s", "s", "lower"),
    ("cluster.drain_s", "s", "lower"),
    ("cluster.recover_self_s", "s", "lower"),
    ("cluster.recover_rebuild_s", "s", "lower"),
    ("storage.read_s", "s", "lower"),
    ("storage.read_calls", "count", "lower"),
    ("storage.write_s", "s", "lower"),
    ("storage.write_calls", "count", "lower"),
    ("storage.wal_s", "s", "lower"),
    ("storage.wal_bytes", "count", "lower"),
    ("storage.wal_flushes", "count", "lower"),
    ("storage.wal_bytes_per_write", "count", "lower"),
    ("storage.bytes_per_vertex", "count", "lower"),
    ("core.phase1_s", "s", "lower"),
    ("core.phase1_iterations", "count", "lower"),
    ("core.vertices_moved", "count", "lower"),
    ("core.edge_cut_initial", "count", "lower"),
    ("core.edge_cut_final", "count", "lower"),
    ("core.imbalance_final", "ratio", "lower"),
    ("core.aux_bootstrap_s", "s", "lower"),
    ("core.aux_update_s", "s", "lower"),
    ("core.aux_update_calls", "count", "lower"),
    ("graph.generate_s", "s", "lower"),
    ("graph.ingest_s", "s", "lower"),
    ("graph.finalize_s", "s", "lower"),
    ("graph.csr_bytes_per_edge", "count", "lower"),
    ("partitioning.hash_s", "s", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("telemetry.recording_overhead_frac", "ratio", "lower"),
    ("simtest.audit_s", "s", "lower"),
    ("simtest.validate_s", "s", "lower"),
    ("model.remote_hops", "count", "lower"),
    ("model.processed_vertices", "count", "lower"),
    ("model.sim_makespan_s", "s", "lower"),
    ("harness.timed_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.trace_overhead_frac", "ratio", "lower"),
    ("harness.spans", "count", "lower"),
    ("harness.attribution_error", "ratio", "lower"),
    ("harness.slowdown_median", "ratio", "lower"),
]

#: Orchestrating spans reported whole (span start to end) because their
#: self time says nothing; they overlap other groups and are not summed.
INCLUSIVE: Tuple[str, ...] = (
    "cluster.join",
    "cluster.drain",
    "cluster.recover_rebuild",
    "core.phase1",
    "core.aux_bootstrap",
)

#: Model outputs and counts that must repeat exactly at a fixed seed.
EXACT: Tuple[str, ...] = (
    "model.remote_hops",
    "model.processed_vertices",
    "model.sim_makespan_s",
    "core.phase1_iterations",
    "core.vertices_moved",
    "core.edge_cut_initial",
    "core.edge_cut_final",
    "failed_frac",
)

RUN_SECONDS = 10


def bounds() -> Dict[str, Tuple[str, float]]:
    """``name -> (better, bound)`` for every end-to-end metric."""
    table = {name: (better, bound) for name, _, better, bound in END_TO_END}
    table.update(
        {name: (better, bound) for name, _, better, bound, _ in WORKLOAD_END_TO_END}
    )
    return table


def units() -> Dict[str, str]:
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _, _, _ in WORKLOAD_END_TO_END})
    table.update({name: unit for name, unit, _ in PER_LAYER})
    return table


def benchmark_json() -> Dict[str, object]:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
