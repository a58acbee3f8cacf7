#!/usr/bin/env python3
"""hermes-e2e: the wall-clock benchmark.

    python3 benchmarks/e2e/run.py --workload traverse_read --seed 7 --seconds 10 --trace 0
        one workload, one run; the last line of stdout is the result object
    python3 benchmarks/e2e/run.py all [--seed 7] [--runs 1] [--out FILE]
        every workload, untraced then traced, every metric by name
    python3 benchmarks/e2e/run.py compare A.json B.json
        one row per (workload, end-to-end metric) of two ``all`` files

Each workload runs in a fresh subprocess (``HermesCluster._ids`` is
process-wide and VmHWM is per process) with ``PYTHONHASHSEED=0``.
See README.md next to this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 175

sys.path.insert(0, HERE)
import metrics as spec  # noqa: E402  (benchmark-local module, after the path fix)


# ----------------------------------------------------------------------
# Child: one workload, in-process
# ----------------------------------------------------------------------
def run_child(args: argparse.Namespace) -> int:
    import adapter
    from timing import percentile
    from workloads import ARRIVAL_GAP, WORKLOADS, Run, sizes_for

    os.makedirs(OUT, exist_ok=True)
    setup, timed, check = WORKLOADS[args.workload]
    sizes = sizes_for(args.scale, args.seconds)
    run = Run(args.seed, sizes, bool(args.trace))

    timeline = run.timeline
    timeline.start()
    try:
        setups = []
        state = None
        for _ in range(sizes["setups"]):
            state = None
            gc.collect()
            state = setup(run)
            setups.append(state.parts)
        gc.collect()
        gc.freeze()  # set-up garbage must not be rescanned inside latencies
        try:
            timed(run, state)
        finally:
            run.stop_tracing()
        check(run, state)
    finally:
        timeline.stop()

    def seconds(interval, raw: bool = False) -> float:
        return interval[1] - interval[0] if raw else timeline.corrected(*interval)

    def part_seconds(parts, names, raw: bool) -> float:
        return sum(seconds(parts[name], raw) for name in names)

    def phase_seconds(names, raw: bool) -> float:
        return part_seconds(run.phases, names, raw)

    log = state.log
    values: Dict[str, float] = {}
    raw_values: Dict[str, float] = {}
    samples: Dict[str, int] = {}

    def latencies(klass: str, source=log, **fractions: float) -> None:
        """``name=fraction`` percentiles of one operation class, in ms."""
        corrected = source.latencies(timeline, klass)
        raw = source.latencies(timeline, klass, raw=True)
        for name, fraction in fractions.items():
            values[name] = percentile(corrected, fraction) * 1e3
            raw_values[name] = percentile(raw, fraction) * 1e3
            samples[name] = len(corrected)

    def duration(name: str, compute) -> None:
        values[name] = compute(False)
        raw_values[name] = compute(True)

    duration("setup_s", lambda raw: statistics.median(part_seconds(p, p, raw) for p in setups))
    duration("ops_per_s", lambda raw: log.count / log.seconds(timeline, raw=raw))
    latencies("hop1", read_p50_ms=0.5, read_p99_ms=0.99)
    duration("rebalance_s", lambda raw: phase_seconds(("rebalance",), raw))
    values["peak_rss_mb"] = adapter.peak_rss_mb()
    if args.workload != "scale_phase1":
        values["failed_frac"] = run.failed / run.attempted
    if args.workload == "traverse_read":
        latencies("hop2", hop2_p50_ms=0.5, hop2_p99_ms=0.99)
    elif args.workload == "serve_mixed":
        latencies("write", write_p50_ms=0.5, write_p99_ms=0.99)
        latencies("point", point_p50_ms=0.5)
    elif args.workload == "rebalance_elastic":
        latencies("hop1", state.hotspot_log, read_before_p50_ms=0.5)
        duration("membership_s", lambda raw: phase_seconds(("join", "drain"), raw))
        duration(
            "recover_s", lambda raw: phase_seconds(("recover0", "recover1", "recover2"), raw)
        )
    else:
        build = ("graph.ingest", "graph.finalize")
        duration(
            "build_s", lambda raw: statistics.median(part_seconds(p, build, raw) for p in setups)
        )
        iterations = run.facts["core.phase1_iterations"]
        duration("phase1_iter_ms", lambda raw: phase_seconds(("rebalance",), raw) / iterations * 1e3)

    layer: Dict[str, float] = {}
    if run.tracer is not None:
        layer = per_layer_metrics(run, state, setups, args)

    correct = all(run.checks.values())
    units = spec.units()
    gated = layer if args.trace else {n: values[n] for n, _, _, _ in spec.END_TO_END}
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in gated.items()},
    }
    record = dict(result)
    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": int(args.trace),
            "machine": adapter.machine(),
            "sizes": sizes,
            "arrival_gap_simulated_s": ARRIVAL_GAP,
            "flush_policy": "one flushed WAL txn per logical mutation",
            "checks": run.checks,
            "end_to_end": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            "uncorrected": raw_values,
            "latency_samples": samples,
            "machine_speed": timeline.summary(),
            # every group's self time: these are what add up to harness.timed_s
            "layer_self_s": run.facts.get("layer_self_s", {}),
        }
    )
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(args.trace)} scale={args.scale}")
    for name, value in sorted((layer if args.trace else values).items()):
        count = f"  ({samples[name]} samples)" if name in samples else ""
        print(f"  {name:44s} {value:14.6g} {units[name]}{count}")
    speed = record["machine_speed"]
    print(f"  machine slowdown corrected for: median x{speed['slowdown_median']:.3f}, "
          f"max x{speed['slowdown_max']:.2f} ({speed['probes']} probes)")
    for name, ok in run.checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    if not correct:
        print("output checks failed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def per_layer_metrics(run, state, setups, args) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of a traced run (0 where the workload
    does not touch the layer)."""
    import adapter

    tracer = run.tracer
    timeline = run.timeline
    totals = tracer.aggregate(timeline, run.windows, spec.INCLUSIVE)
    by_name = totals["calls_by_name"]
    facts = run.facts
    layer = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    # ``layer.group`` of adapter.TRACE_TARGETS names its metrics.
    for suffix, table in (
        ("_s", totals["self_s"]), ("_calls", totals["calls"]), ("_s", totals["inclusive_s"]),
    ):
        for group, value in table.items():
            if group + suffix in layer:
                layer[group + suffix] = value
    facts["layer_self_s"] = dict(totals["self_s"], **{"harness": totals["harness_self_s"]})
    layer["serving.replica_recomputes"] = by_name.get("OneHopReplicator.placements", 0)
    writes = by_name.get("HermesCluster.add_vertex", 0) + by_name.get("HermesCluster.add_edge", 0)
    layer["serving.replica_recomputes_per_write"] = (
        layer["serving.replica_recomputes"] / writes if writes else 0.0
    )
    layer["concurrency.events"] = by_name.get("EventScheduler.step", 0)
    layer["cluster.migrate_steps"] = by_name.get("MigrationExecutor.migrate_steps", 0)
    layer["storage.wal_bytes"] = tracer.counters["wal_bytes"]
    layer["storage.wal_flushes"] = by_name.get("WriteAheadLog.flush", 0)
    layer["storage.wal_bytes_per_write"] = (
        layer["storage.wal_bytes"] / writes if writes else 0.0
    )

    # Set-up steps are named after the layer they exercise.
    for part in setups[0]:
        layer[part + "_s"] = statistics.median(
            timeline.corrected(*parts[part]) for parts in setups
        )
    if args.workload == "scale_phase1":
        layer["graph.csr_bytes_per_edge"] = adapter.csr_bytes_per_edge(state.graph)
    else:
        layer["storage.bytes_per_vertex"] = adapter.store_bytes_per_vertex(
            state.cluster, len(state.vertices)
        )
    # Facts and stopwatch intervals the workload filed under a metric's name.
    layer.update({name: value for name, value in facts.items() if name in layer})
    layer.update({name: timeline.corrected(*i) for name, i in run.intervals.items()})
    if "telemetry" in run.interval_lists:
        default, recording = (
            sum(timeline.corrected(*i) for i in side) for side in run.interval_lists["telemetry"]
        )
        layer["telemetry.recording_overhead_frac"] = (recording - default) / default
    if "coherence" in run.interval_lists:
        (off, off_events), (on, on_events) = run.interval_lists["coherence"]
        layer["concurrency.coherence_sweep_ms_per_event"] = (
            timeline.corrected(*on) / on_events - timeline.corrected(*off) / off_events
        ) * 1e3

    layer["harness.timed_s"] = totals["timed_s"]
    layer["harness.self_s"] = totals["harness_self_s"]
    layer["harness.spans"] = totals["spans"]
    layer["harness.attribution_error"] = totals["attribution_error"]
    layer["harness.slowdown_median"] = timeline.summary()["slowdown_median"]
    layer["harness.trace_overhead_frac"] = trace_overhead(run)
    run.checks["layer self times + harness residue = timed seconds within 2%"] = (
        totals["attribution_error"] <= 0.02
    )
    tracer.write_jsonl(os.path.join(OUT, f"trace-{args.workload}.jsonl"))
    return layer


def trace_overhead(run) -> float:
    """(traced - untraced) / untraced over the first stream's operation
    classes: its untraced first tenth against its traced remainder."""
    timeline = run.timeline
    traced_log = run.pilot_peer
    extra = base = 0.0
    for klass in run.pilot.classes:
        untraced = run.pilot.latencies(timeline, klass)
        traced = traced_log.latencies(timeline, klass)
        if untraced and traced:
            mean = statistics.fmean(untraced)
            extra += len(traced) * (statistics.fmean(traced) - mean)
            base += len(traced) * mean
    return extra / base if base else 0.0


# ----------------------------------------------------------------------
# Parent: spawn one child per workload
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: int, trace: int, scale: str) -> int:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"nothing to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale,
    ]
    try:
        completed = subprocess.run(command, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return completed.returncode


def run_all(args: argparse.Namespace) -> int:
    records: List[Dict[str, Any]] = []
    status = 0
    for offset in range(args.runs):
        seed = args.seed + offset
        for workload, _ in spec.WORKLOADS:
            for trace in (0, 1):
                code = spawn(workload, seed, args.seconds, trace, args.scale)
                status = status or code
                path = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")
                if code == 0:
                    with open(path, encoding="utf-8") as handle:
                        records.append(json.load(handle))
    out = args.out or os.path.join(OUT, "e2e-results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"schema": "hermes-e2e/1", "runs": records}, handle, indent=1, sort_keys=True)
    print(f"[{len(records)} run records written to {out}]")
    return status


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _series(path: str) -> Dict[Tuple[str, str], List[float]]:
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    series: Dict[Tuple[str, str], List[float]] = {}
    for record in runs:
        source = record["metrics"] if record["trace"] else record["end_to_end"]
        for name, entry in source.items():
            series.setdefault((record["workload"], name), []).append(entry["value"])
    return series


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    first, _, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    a1, a_med, a3 = _quartiles(a)
    b_med = statistics.median(b)
    if a_med == 0:
        return "regressed" if b_med > 0 else "unchanged"
    spread = (a3 - a1) / abs(a_med)
    worse = (b_med - a_med) / abs(a_med)
    if better == "higher":
        worse = -worse
    if spread > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > spread and -worse > 0.01:
        return "improved"
    return "unchanged"


def compare(args: argparse.Namespace) -> int:
    a, b = _series(args.a), _series(args.b)
    bounds = spec.bounds()
    print(f"{'workload':18s} {'metric':16s} {'A q1/med/q3':>34s} {'B q1/med/q3':>34s} "
          f"{'bound':>6s}  verdict")
    regressed = False
    for workload, _ in spec.WORKLOADS:
        for name, (better, bound) in bounds.items():
            key = (workload, name)
            if key not in a or key not in b:
                continue
            outcome = verdict(a[key], b[key], better, bound)
            regressed |= outcome == "regressed"
            fmt = lambda q: "/".join(f"{x:.5g}" for x in q)  # noqa: E731
            print(f"{workload:18s} {name:16s} {fmt(_quartiles(a[key])):>34s} "
                  f"{fmt(_quartiles(b[key])):>34s} {bound:6.2f}  {outcome}")
    for key in sorted(set(a) & set(b)):
        if key[1] in spec.EXACT:
            same = sorted(a[key]) == sorted(b[key])
            print(f"{key[0]:18s} {key[1]:34s} exact-repeat: {'identical' if same else 'DIFFERS'}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return compare(parser.parse_args(argv[1:]))
    if argv and argv[0] == "spec":
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    everything = bool(argv) and argv[0] == "all"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--runs", type=int, default=1, help="(all) seeds to run, from --seed up")
    parser.add_argument("--out", help="(all) combined result file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:] if everything else argv)
    if args.child:
        return run_child(args)
    if everything or args.workload is None:
        return run_all(args)
    return spawn(args.workload, args.seed, args.seconds, args.trace, args.scale)


if __name__ == "__main__":
    raise SystemExit(main())
