"""The four workloads: inputs, timed regions, output checks.

Every workload is three functions over a ``Run``:

* ``setup``  — generate the graph, place it, load it, pre-generate every
  operation the timed region will issue.  Runs several times per process
  (``setup_s`` is the median); the program only ever sees generated
  inputs and no generator runs inside a latency.
* ``timed``  — the measured region: single caller, closed loop (the
  library is synchronous: the next call is issued when the previous one
  returns).
* ``check``  — outside the timed region; any failed check fails the run.

Operation counts are calibrated so the timed region lasts about
``--seconds`` on the box the benchmark was sized on, and scale linearly
with it; the counts are a pure function of ``--seconds``, so the model
outputs repeat exactly at a fixed seed.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Callable, Dict, List, Optional, Tuple

import adapter
from timing import OpLog, Timeline, perf, run_stream
from tracing import Tracer

SERVERS = 8
#: The cluster workloads load one fixed data set; ``--seed`` drives the
#: placement salt and every trace.  A graph per seed made the degree
#: tail — and with it every p99 — a lottery (15-25 % between seeds),
#: which is input noise, not something a later change could be held to.
DATASET_SEED = 2015
#: simulated seconds between front-door arrivals: wide enough that the
#: seed build sheds nothing (replica-update backlog drains in between)
ARRIVAL_GAP = 0.1
#: responses checked against the benchmark's own BFS per traffic workload
RESPONSE_SAMPLES = 200
CLIENTS = 8
#: CSR rows fetched by one ``scale_phase1`` read: a frontier's worth.  A
#: single row takes 2 us, too close to the clock's own cost to time alone.
FRONTIER = 64

#: operation counts at ``--seconds 10``
FULL = {
    "n": 1200,
    "setups": 3,
    "warmup": 200,
    "traverse_ops": 10_000,
    "serve_ops": 5_000,
    "hotspot_ops": 2_000,
    "mixed_ops": 2_000,
    "after_ops": 3_000,
    "csr_n": 100_000,
    "csr_reads": 1_200_000,
    "phase1_iterations": 12,
    "telemetry_ops": 1_500,
    "sweep_n": 300,
}
SMOKE = {
    "n": 200,
    "setups": 1,
    "warmup": 10,
    "traverse_ops": 60,
    "serve_ops": 60,
    "hotspot_ops": 30,
    "mixed_ops": 40,
    "after_ops": 30,
    "csr_n": 3_000,
    "csr_reads": 200,
    "phase1_iterations": 3,
    "telemetry_ops": 40,
    "sweep_n": 100,
}
_SCALED = (
    "traverse_ops", "serve_ops", "hotspot_ops", "mixed_ops", "after_ops",
    "csr_reads", "phase1_iterations", "telemetry_ops",
)

Interval = Tuple[float, float]


def sizes_for(scale: str, seconds: int) -> Dict[str, int]:
    sizes = dict(SMOKE if scale == "smoke" else FULL)
    if scale != "smoke":
        for key in _SCALED:
            sizes[key] = max(2, sizes[key] * seconds // 10)
    return sizes


def timed_call(fn: Callable, *args) -> Tuple[Any, Interval]:
    start = perf()
    result = fn(*args)
    return result, (start, perf())


class Run:
    """Everything one workload process carries around."""

    def __init__(self, seed: int, sizes: Dict[str, int], trace: bool):
        self.seed = seed
        self.sizes = sizes
        self.timeline = Timeline()
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.tracing = False
        #: untraced first tenth of the first stream (traced runs only) and
        #: the traced remainder it is compared with
        self.pilot = OpLog()
        self.pilot_peer: Optional[OpLog] = None
        #: the intervals that make up the timed region, in order
        self.windows: List[Interval] = []
        #: one-shot phases of the timed region by name
        self.phases: Dict[str, Interval] = {}
        self.attempted = 0
        self.failed = 0
        #: per-layer metrics the workload knows outright, by metric name
        self.facts: Dict[str, Any] = {}
        #: untimed-region stopwatch readings, by the metric they become
        self.intervals: Dict[str, Interval] = {}
        #: raw material of the two mini-runs (telemetry hub, coherence sweep)
        self.interval_lists: Dict[str, Any] = {}
        self.checks: Dict[str, bool] = {}

    def one_shot(self, name: str, fn: Callable, *args):
        """A long single call of the timed region."""
        result, interval = timed_call(fn, *args)
        self.phases[name] = interval
        self.windows.append(interval)
        return result

    def stream(self, ops, execute, log: OpLog) -> None:
        """A closed-loop stream of the timed region.

        In a traced run the first tenth of the first stream runs before
        the wrappers are installed: the same operation mix, untraced, is
        what the trace overhead is measured against.
        """
        if self.tracer is not None and not self.tracing:
            cut = max(1, len(ops) // 10)
            self.failed += run_stream(ops[:cut], execute, self.pilot)
            self.pilot_peer = log
            self.start_tracing()
            ops = ops[cut:]
        self.failed += run_stream(ops, execute, log)
        self.windows.append(log.window())

    def start_tracing(self) -> None:
        tracer = self.tracer
        tracer.counters["wal_bytes"] = 0

        def count_wal_bytes(function, args, kwargs):
            before = adapter.wal_size(args[0])
            result = function(*args, **kwargs)
            tracer.counters["wal_bytes"] += adapter.wal_size(args[0]) - before
            return result

        tracer.install(adapter.TRACE_TARGETS, hooks={adapter.WAL_APPEND: count_wal_bytes})
        self.tracing = True

    def stop_tracing(self) -> None:
        if self.tracing:
            self.tracer.uninstall()
            self.tracing = False


# ----------------------------------------------------------------------
# Input generation helpers
# ----------------------------------------------------------------------
def _zipf_sampler(ranked: List[int], exponent: float, rng: random.Random):
    cumulative = list(accumulate(1.0 / rank**exponent for rank in range(1, len(ranked) + 1)))
    total = cumulative[-1]

    def draw() -> int:
        return ranked[bisect_left(cumulative, rng.random() * total)]

    return draw


def _stride_ranking(graph) -> List[int]:
    """Popularity ranking that walks the degree-sorted vertex list in
    golden-ratio strides.

    Zipf(1.1) puts half the traffic on ten vertices.  Ranked at random,
    their degrees — and with them every latency — are a lottery; ranked
    this way the hot vertices sit at spread-out degree quantiles (0.62,
    0.24, 0.85, 0.47, ...), so the hot set is as heavy as the graph is
    on average, whatever its size.
    """
    by_degree = adapter.vertices_by_degree(graph)
    n = len(by_degree)
    taken = [False] * n
    ranked = []
    for rank in range(1, n + 1):
        position = int((rank * 0.6180339887498949) % 1.0 * n)
        while taken[position]:
            position = (position + 1) % n
        taken[position] = True
        ranked.append(by_degree[position])
    return ranked


class Mirror:
    """The benchmark's own adjacency, the oracle for response checks."""

    def __init__(self, vertices, edges):
        self.adjacency: Dict[int, set] = {v: set() for v in vertices}
        for u, v in edges:
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)

    def apply(self, op: Tuple) -> None:
        if op[0] == "add_vertex":
            self.adjacency.setdefault(op[1], set())
        elif op[0] == "add_edge":
            self.adjacency[op[1]].add(op[2])
            self.adjacency[op[2]].add(op[1])

    def ball(self, start: int, hops: int) -> Tuple[int, ...]:
        seen = {start}
        frontier = [start]
        for _ in range(hops):
            reached = {w for v in frontier for w in self.adjacency[v]} - seen
            seen |= reached
            frontier = list(reached)
        return tuple(sorted(seen))


def _sample_indices(count: int, eligible: List[int], rng: random.Random) -> set:
    return set(rng.sample(eligible, min(count, len(eligible))))


# ----------------------------------------------------------------------
# Shared cluster set-up
# ----------------------------------------------------------------------
class ClusterState:
    def __init__(self):
        self.graph = None
        self.vertices: List[int] = []
        self.cluster = None
        self.engine = None
        self.frontend = None
        self.trace: Dict[str, Any] = {}
        #: set-up steps by the layer they exercise
        self.parts: Dict[str, Interval] = {}
        self.log: Optional[OpLog] = None


def _cluster_setup(
    run: Run,
    durability: bool,
    concurrent: bool,
    make_trace: Callable[[Run, ClusterState], Dict[str, Any]],
) -> ClusterState:
    state = ClusterState()
    parts = state.parts
    state.graph, parts["graph.generate"] = timed_call(
        adapter.generate_graph, run.sizes["n"], DATASET_SEED
    )
    placement, parts["partitioning.hash"] = timed_call(
        adapter.hash_placement, state.graph, SERVERS, run.seed
    )
    state.cluster = adapter.build_cluster(SERVERS, durability, concurrent)
    _, parts["cluster.load"] = timed_call(adapter.load, state.cluster, state.graph, placement)
    state.vertices = adapter.graph_vertices(state.graph)
    state.trace, parts["workloads.generate"] = timed_call(make_trace, run, state)
    return state


def _traversal_executor(cluster, results: List):
    """``execute`` for direct ``HermesCluster.traverse`` streams."""
    traverse = adapter.traverse

    def execute(op):
        try:
            results.append(traverse(cluster, op[1], op[2]))
        except adapter.OperationError:
            results.append(None)
            return "failed", False
        return ("hop1" if op[2] == 1 else "hop2"), True

    return execute


def _check_responses(
    run: Run, label: str, mirror: Mirror, sampled: List[Tuple[Tuple, Any]]
) -> None:
    ok = bool(sampled)
    for op, result in sampled:
        if result is None or adapter.response_of(result) != mirror.ball(op[1], op[2]):
            ok = False
    run.checks[f"{label}: {len(sampled)} sampled responses equal the mirror's BFS"] = ok


def _model_totals(results: List) -> Tuple[int, int]:
    remote = processed = 0
    for result in results:
        if result is not None:
            hops, visited = adapter.traversal_model(result)
            remote += hops
            processed += visited
    return remote, processed


def _validate(run: Run, cluster) -> None:
    start = perf()
    try:
        adapter.validate(cluster)
        run.checks["cluster.validate() passes"] = True
    except adapter.OperationError as error:
        run.checks[f"cluster.validate() passes ({error})"] = False
    run.intervals["simtest.validate_s"] = (start, perf())


def _record_rebalance(run: Run, result, physical: bool = True) -> None:
    run.facts["core.phase1_iterations"] = result.iterations
    run.facts["core.vertices_moved"] = result.vertices_moved
    if physical:
        run.facts["cluster.migrate_vertices"] = result.vertices_moved
    run.facts["core.edge_cut_initial"] = result.initial_edge_cut
    run.facts["core.edge_cut_final"] = result.final_edge_cut
    run.facts["core.imbalance_final"] = result.final_imbalance
    run.checks["rebalance lowers the edge cut"] = (
        result.final_edge_cut < result.initial_edge_cut
    )


# ----------------------------------------------------------------------
# traverse_read
# ----------------------------------------------------------------------
def _traverse_trace(run: Run, state: ClusterState) -> Dict[str, Any]:
    rng = random.Random(f"traverse_read/{run.seed}")
    draw = _zipf_sampler(_stride_ranking(state.graph), 1.1, rng)
    count = run.sizes["warmup"] + run.sizes["traverse_ops"]
    ops = [("traverse", draw(), 2 if rng.random() < 0.1 else 1) for _ in range(count)]
    return {
        "warmup": ops[: run.sizes["warmup"]],
        "ops": ops[run.sizes["warmup"] :],
        "samples": _sample_indices(
            RESPONSE_SAMPLES, list(range(run.sizes["traverse_ops"])), rng
        ),
    }


def traverse_read_setup(run: Run) -> ClusterState:
    return _cluster_setup(run, durability=False, concurrent=False, make_trace=_traverse_trace)


def traverse_read_timed(run: Run, state: ClusterState) -> None:
    cluster = state.cluster
    for op in state.trace["warmup"]:
        adapter.traverse(cluster, op[1], op[2])
    if run.tracer is not None:
        _telemetry_overhead_run(run, state)
    state.results = []
    state.log = OpLog()
    ops = state.trace["ops"]
    run.stream(ops, _traversal_executor(cluster, state.results), state.log)
    run.attempted += len(ops)
    _record_rebalance(run, run.one_shot("rebalance", adapter.rebalance_serial, cluster))
    run.stop_tracing()
    run.facts["model.remote_hops"], run.facts["model.processed_vertices"] = _model_totals(
        state.results
    )
    run.facts["model.sim_makespan_s"] = adapter.simulated_now(cluster)


def traverse_read_check(run: Run, state: ClusterState) -> None:
    mirror = Mirror(state.vertices, adapter.graph_edges(state.graph))
    ops = state.trace["ops"]
    sampled = [(ops[i], state.results[i]) for i in sorted(state.trace["samples"])]
    _check_responses(run, "traverse_read", mirror, sampled)
    _validate(run, state.cluster)


def _telemetry_overhead_run(run: Run, state: ClusterState) -> None:
    """Cost of a recording telemetry hub on the cluster read path: the
    same operations on two fresh clusters, default hub against
    ``Telemetry(record=True)``, in alternating blocks of 50 so both see
    the same machine.  Runs before the wrappers are installed."""
    placement = adapter.hash_placement(state.graph, SERVERS, run.seed)
    clusters = []
    for recording in (False, True):
        cluster = adapter.build_cluster(SERVERS, recording_telemetry=recording)
        adapter.load(cluster, state.graph, placement)
        clusters.append(cluster)
    ops = state.trace["ops"][: run.sizes["telemetry_ops"]]
    intervals: Tuple[List[Interval], List[Interval]] = ([], [])
    for offset in range(0, len(ops), 50):
        for which, cluster in enumerate(clusters):
            start = perf()
            for op in ops[offset : offset + 50]:
                adapter.traverse(cluster, op[1], op[2])
            intervals[which].append((start, perf()))
    run.interval_lists["telemetry"] = intervals


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def _serve_trace(run: Run, state: ClusterState) -> Dict[str, Any]:
    rng = random.Random(f"serve_mixed/{run.seed}")
    writes = adapter.WriteGenerator(state.graph, run.seed)
    vertices = state.vertices
    count = run.sizes["warmup"] + run.sizes["serve_ops"]
    ops = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.4:
            ops.append(("read", rng.choice(vertices)))
        elif kind < 0.8:
            ops.append(("traverse", rng.choice(vertices), 1))
        else:
            ops.append(writes.next_write())
    timed = ops[run.sizes["warmup"] :]
    traversals = [i for i, op in enumerate(timed) if op[0] == "traverse"]
    return {
        "warmup": ops[: run.sizes["warmup"]],
        "ops": timed,
        "samples": _sample_indices(RESPONSE_SAMPLES, traversals, rng),
    }


def serve_mixed_setup(run: Run) -> ClusterState:
    state = _cluster_setup(run, durability=True, concurrent=True, make_trace=_serve_trace)
    state.engine = adapter.attach_engine(state.cluster)
    state.frontend = adapter.attach_frontend(state.cluster, state.engine)
    return state


_SERVE_CLASS = {"read": "point", "traverse": "hop1", "add_vertex": "write", "add_edge": "write"}


def serve_mixed_timed(run: Run, state: ClusterState) -> None:
    frontend = state.frontend
    clock = [0.0]
    responses: List = []
    submit = adapter.submit

    def execute(op):
        clock[0] += ARRIVAL_GAP
        try:
            ok, response = submit(frontend, op, clock[0])
        except adapter.OperationError:
            ok, response = False, None
        responses.append(response)
        return _SERVE_CLASS[op[0]], ok

    for op in state.trace["warmup"]:
        execute(op)
    del responses[:]
    state.log = OpLog()
    ops = state.trace["ops"]
    run.stream(ops, execute, state.log)
    run.attempted += len(ops)
    state.responses = responses
    _record_rebalance(run, run.one_shot("rebalance", adapter.rebalance_frontdoor, frontend))
    run.stop_tracing()
    run.facts["serving.shed"] = adapter.shed_count(frontend)
    run.facts["model.sim_makespan_s"] = adapter.engine_makespan(state.engine)


def serve_mixed_check(run: Run, state: ClusterState) -> None:
    mirror = Mirror(state.vertices, adapter.graph_edges(state.graph))
    for op in state.trace["warmup"]:
        mirror.apply(op)
    wanted = state.trace["samples"]
    ok = bool(wanted)
    for index, op in enumerate(state.trace["ops"]):
        if index in wanted:
            response = state.responses[index]
            if response is None or tuple(response) != mirror.ball(op[1], op[2]):
                ok = False
        mirror.apply(op)
    run.checks[f"serve_mixed: {len(wanted)} sampled responses equal the mirror's BFS"] = ok
    run.checks["frontend.conservation() holds"] = adapter.conservation_holds(state.frontend)
    _validate(run, state.cluster)


# ----------------------------------------------------------------------
# rebalance_elastic
# ----------------------------------------------------------------------
def _elastic_trace(run: Run, state: ClusterState) -> Dict[str, Any]:
    rng = random.Random(f"rebalance_elastic/{run.seed}")
    vertices = state.vertices
    hot = adapter.primaries_on(state.cluster, 0)
    # Paper 5.3.1: vertices of one partition are picked three times as
    # often.  Redirecting a uniform pick to a uniform hot pick with
    # probability e = (m - 1)|hot| / (n - |hot|) gives exactly that.
    excess = min(1.0, 2.0 * len(hot) / (len(vertices) - len(hot)))

    def hotspot_start() -> int:
        start = rng.choice(vertices)
        return rng.choice(hot) if rng.random() < excess else start

    warmup = [("traverse", hotspot_start(), 1) for _ in range(run.sizes["warmup"])]
    hotspot = [("traverse", hotspot_start(), 1) for _ in range(run.sizes["hotspot_ops"])]
    writes = adapter.WriteGenerator(state.graph, run.seed, defer_vertices=True)
    mixed = [
        writes.next_write() if rng.random() < 0.2 else ("traverse", rng.choice(vertices), 1)
        for _ in range(run.sizes["mixed_ops"])
    ]
    after = [("traverse", rng.choice(vertices), 1) for _ in range(run.sizes["after_ops"])]
    half = RESPONSE_SAMPLES // 2
    return {
        "warmup": warmup,
        "hotspot": hotspot,
        "mixed": mixed,
        "after": after,
        "hotspot_samples": _sample_indices(half, list(range(len(hotspot))), rng),
        "after_samples": _sample_indices(half, list(range(len(after))), rng),
    }


def rebalance_elastic_setup(run: Run) -> ClusterState:
    return _cluster_setup(run, durability=True, concurrent=True, make_trace=_elastic_trace)


def rebalance_elastic_timed(run: Run, state: ClusterState) -> None:
    cluster = state.cluster
    trace = state.trace
    for op in trace["warmup"]:
        adapter.traverse(cluster, op[1], op[2])

    # (a) hotspot reads build the imbalance the rebalance will fix
    state.hotspot_results = []
    state.hotspot_log = OpLog()
    run.stream(
        trace["hotspot"], _traversal_executor(cluster, state.hotspot_results), state.hotspot_log
    )

    # (b) online rebalance interleaved with eight clients' mixed ops:
    # submit -> engine.run() returns
    engine = adapter.attach_engine(cluster)
    failures = [0]

    def rebalance_under_traffic():
        handle = adapter.submit_rebalance(engine)
        adapter.submit_clients(
            engine, [trace["mixed"][i::CLIENTS] for i in range(CLIENTS)], failures
        )
        adapter.engine_run(engine)
        return adapter.handle_outcome(handle)

    _record_rebalance(run, run.one_shot("rebalance", rebalance_under_traffic))
    run.failed += failures[0]
    run.facts["model.sim_makespan_s"] = adapter.engine_makespan(engine)

    # (c) scale out by one server, then drain server 0
    moved = run.one_shot("join", adapter.join_server, cluster)
    moved += run.one_shot("drain", adapter.drain_server, cluster, 0)
    run.facts["cluster.migrate_vertices"] += moved

    # (d) crash and recover three of the remaining servers
    exact = True
    survivors = adapter.active_servers(cluster)[:3]
    for index, server in enumerate(survivors):
        exact &= run.one_shot(f"recover{index}", adapter.crash_recover, cluster, server)
    run.checks["3 recovery episodes rebuild pre == post"] = exact and len(survivors) == 3

    # (e) reads on the repartitioned cluster: where the benefit shows
    state.after_results = []
    state.log = OpLog()
    run.stream(trace["after"], _traversal_executor(cluster, state.after_results), state.log)
    run.stop_tracing()
    run.attempted += len(trace["hotspot"]) + len(trace["mixed"]) + len(trace["after"])
    before, after = _model_totals(state.hotspot_results), _model_totals(state.after_results)
    run.facts["model.remote_hops"] = before[0] + after[0]
    run.facts["model.processed_vertices"] = before[1] + after[1]
    if run.tracer is not None:
        _coherence_sweep_run(run)


def _coherence_sweep_run(run: Run) -> None:
    """What the per-event double-write sweep costs: the same small
    online migration with the sweep off and on, up to 200 events each
    (its own mini-run, never part of an end-to-end number)."""
    graph = adapter.generate_graph(run.sizes["sweep_n"], DATASET_SEED)
    placement = adapter.hash_placement(graph, SERVERS, run.seed)
    measured = []
    for audited in (False, True):
        cluster = (
            adapter.build_audited_cluster(SERVERS)
            if audited
            else adapter.build_cluster(SERVERS, concurrent=True)
        )
        adapter.load(cluster, graph, placement)
        engine = adapter.attach_engine(cluster)
        adapter.submit_rebalance(engine)
        adapter.engine_step(engine)  # phase 1: no window open yet
        events = 0
        start = perf()
        while adapter.engine_pending(engine) and events < 200:
            adapter.engine_step(engine)
            events += 1
        measured.append(((start, perf()), max(1, events)))
    run.interval_lists["coherence"] = measured


def rebalance_elastic_check(run: Run, state: ClusterState) -> None:
    trace = state.trace
    mirror = Mirror(state.vertices, adapter.graph_edges(state.graph))
    sampled = [
        (trace["hotspot"][i], state.hotspot_results[i])
        for i in sorted(trace["hotspot_samples"])
    ]
    _check_responses(run, "rebalance_elastic before", mirror, sampled)
    for op in trace["mixed"]:
        mirror.apply(op)
    sampled = [
        (trace["after"][i], state.after_results[i]) for i in sorted(trace["after_samples"])
    ]
    _check_responses(run, "rebalance_elastic after", mirror, sampled)
    _validate(run, state.cluster)
    start = perf()
    violations = adapter.audit(state.cluster)
    run.intervals["simtest.audit_s"] = (start, perf())
    run.checks["InvariantAuditor().audit(cluster) == []"] = violations == []
    run.checks["drained server holds zero primaries"] = (
        adapter.primaries_on(state.cluster, 0) == []
    )


# ----------------------------------------------------------------------
# scale_phase1
# ----------------------------------------------------------------------
class CsrState:
    def __init__(self):
        self.batches = None
        self.graph = None
        self.placement = None
        self.reads: List[array] = []
        self.warmup = array("i")
        self.parts: Dict[str, Interval] = {}
        self.log: Optional[OpLog] = None
        self.result = None


def scale_phase1_setup(run: Run) -> CsrState:
    state = CsrState()
    parts = state.parts
    n = run.sizes["csr_n"]
    state.batches, parts["graph.generate"] = timed_call(adapter.edge_stream, n, run.seed)
    builder, parts["graph.ingest"] = timed_call(adapter.ingest, state.batches)
    state.graph, parts["graph.finalize"] = timed_call(adapter.finalize, builder)
    state.placement, parts["partitioning.hash"] = timed_call(
        adapter.hash_placement, state.graph, SERVERS, run.seed
    )

    def make_reads():
        rng = random.Random(f"scale_phase1/{run.seed}")
        count = run.sizes["warmup"] + run.sizes["csr_reads"]
        # a flat C array: 1.2 M boxed ints would add 40 MB to peak_rss_mb
        return array("i", rng.choices(range(n), k=count))

    reads, parts["workloads.generate"] = timed_call(make_reads)
    state.warmup = reads[: run.sizes["warmup"]]
    rows = reads[run.sizes["warmup"] :]
    state.reads = [rows[i : i + FRONTIER] for i in range(0, len(rows), FRONTIER)]
    return state


def scale_phase1_timed(run: Run, state: CsrState) -> None:
    graph = state.graph
    read = adapter.csr_read
    for vertex in state.warmup:
        read(graph, vertex)

    def execute(frontier):
        for vertex in frontier:
            read(graph, vertex)
        return "hop1", True

    state.log = OpLog()
    run.stream(state.reads, execute, state.log)
    state.result = run.one_shot(
        "rebalance", adapter.phase1, graph, state.placement, run.sizes["phase1_iterations"]
    )
    run.stop_tracing()
    run.attempted += len(state.reads) + state.result.iterations
    _record_rebalance(run, state.result, physical=False)


def scale_phase1_check(run: Run, state: CsrState) -> None:
    result = state.result
    n = state.graph.num_vertices
    # Snapshot-parallel selection lets every other partition send its
    # top-k to the same target within one stage, so at a capped
    # iteration count the bound is epsilon plus that overshoot.
    k = max(1, n // 100)
    ceiling = adapter.PHASE1_EPSILON + (SERVERS - 1) * k / (n / SERVERS)
    run.checks[f"final imbalance {result.final_imbalance:.3f} <= {ceiling:.2f}"] = (
        result.final_imbalance <= ceiling
    )
    rng = random.Random(f"scale_phase1/check/{run.seed}")
    ok = True
    for vertex in rng.sample(range(n), min(RESPONSE_SAMPLES, n)):
        expected = adapter.stream_neighbors(state.batches, vertex)
        neighbors, weights = adapter.csr_read(state.graph, vertex)
        if sorted(int(v) for v in neighbors) != expected or len(weights) != len(expected):
            ok = False
    run.checks["scale_phase1: sampled CSR rows equal the edge stream's neighbours"] = ok


WORKLOADS: Dict[str, Tuple[Callable, Callable, Callable]] = {
    "traverse_read": (traverse_read_setup, traverse_read_timed, traverse_read_check),
    "serve_mixed": (serve_mixed_setup, serve_mixed_timed, serve_mixed_check),
    "rebalance_elastic": (
        rebalance_elastic_setup, rebalance_elastic_timed, rebalance_elastic_check,
    ),
    "scale_phase1": (scale_phase1_setup, scale_phase1_timed, scale_phase1_check),
}
