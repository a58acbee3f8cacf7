"""BENCH_scale: million-vertex ingestion and phase-1 on the CSR substrate.

The paper's evaluation runs on graphs of 317 K - 11.3 M vertices; the other
experiments in this package rescale everything down to a few thousand
vertices so the dict-of-sets :class:`~repro.graph.adjacency.SocialGraph`
stays comfortable.  This experiment goes the other way: it drives the
array-backed :class:`~repro.graph.compact.CompactGraph` through the full
trajectory — streamed generation, CSR finalization, phase-1
repartitioning, and a traversal-style neighbor sweep — at 100 K and 1 M
vertices on one core, and records the numbers in ``BENCH_scale.json``.

Three claims are pinned per run:

* **throughput** — ingest and sweep edges/second plus build and phase-1
  wall-clock per scale point;
* **memory** — at the comparison point (n <= 200 K) both substrates are
  built from the same edge stream under tracemalloc and the footprints
  compared (acceptance: CSR retains <= 25% and peaks at <= 35% of
  dict-of-sets), alongside the process-lifetime peak RSS;
* **parity** — at n = 5000 the repartitioner runs on both substrates and
  final cut) is hashed; the digests must be byte-identical and, at the
  pinned point, equal :data:`PARITY_PIN` (which
  ``tests/core/fixtures/scale_parity_reference.json`` restates).

:func:`gate_failures` checks the memory and parity acceptance;
``hermes-experiments scale --n 100000 1000000 --out .`` rewrites
``BENCH_scale.json`` and ``hermes-experiments scale --check`` reproduces it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.memory import measure_memory, peak_rss_bytes
from repro.analysis.report import Table
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner, RepartitionResult
from repro.experiments.common import GraphScale
from repro.graph.adjacency import SocialGraph
from repro.graph.compact import CompactGraph, GraphBuilder
from repro.graph.generators import powerlaw_edge_stream
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner

#: dict-vs-CSR tracemalloc comparison only below this size (building the
#: dict-of-sets copy at 1 M vertices would dominate the whole run)
MEMORY_COMPARE_MAX_N = 200_000

#: the parity check's fixed size — large enough to exercise every phase-1
#: code path, small enough to run on both substrates in a few seconds
PARITY_N = 5_000

#: phase-1 iteration caps by scale: small points run to convergence, the
#: million-vertex point pins a fixed number of iterations (each iteration
#: costs ~3 s there; the claim is throughput, not convergence)
FULL_CONVERGENCE_MAX_N = 200_000
CAPPED_ITERATIONS = 8

#: acceptance ceilings of the CSR/dict tracemalloc ratios
RETAINED_RATIO_CEILING = 0.25
PEAK_RATIO_CEILING = 0.35

#: the parity point (n, partitions, seed) and the pinned sha256 of its
#: phase-1 outcome
PARITY_PIN = {
    "n": PARITY_N,
    "partitions": 8,
    "seed": 7,
    "digest": "85eb90a49613bb0fe5c08e3981032eed8996ffd2e9d4751d028e7fe12102f7ae",
}


def _phase1_config(n: int) -> RepartitionerConfig:
    iterations = 60 if n <= FULL_CONVERGENCE_MAX_N else CAPPED_ITERATIONS
    return RepartitionerConfig(
        epsilon=1.1, k=max(1, n // 100), max_iterations=iterations
    )


@dataclass(frozen=True)
class ScalePoint:
    """Measurements for one trajectory point."""

    n: int
    num_vertices: int
    num_edges: int
    #: streaming generation + builder buffering (before finalize)
    ingest_seconds: float
    ingest_edges_per_second: float
    #: builder finalize (dedup + CSR assembly)
    finalize_seconds: float
    #: ingest + finalize
    build_seconds: float
    csr_bytes: int
    bytes_per_vertex: float
    bytes_per_edge: float
    phase1_seconds: float
    phase1_iterations: int
    phase1_initial_edge_cut: int
    phase1_final_edge_cut: int
    #: vectorized weighted-neighbor sweep over every vertex
    sweep_seconds: float
    sweep_edges_per_second: float
    peak_rss_bytes: int


@dataclass(frozen=True)
class MemoryComparison:
    """Same edge stream built into both substrates under tracemalloc."""

    n: int
    dict_retained_bytes: int
    dict_peak_bytes: int
    csr_retained_bytes: int
    csr_peak_bytes: int

    @property
    def retained_ratio(self) -> float:
        if self.dict_retained_bytes == 0:
            return float("inf")
        return self.csr_retained_bytes / self.dict_retained_bytes

    @property
    def peak_ratio(self) -> float:
        if self.dict_peak_bytes == 0:
            return float("inf")
        return self.csr_peak_bytes / self.dict_peak_bytes


@dataclass(frozen=True)
class ParityCheck:
    """Digest of the phase-1 outcome on both substrates."""

    n: int
    dict_digest: str
    csr_digest: str

    @property
    def match(self) -> bool:
        return self.dict_digest == self.csr_digest


@dataclass(frozen=True)
class ScaleResult:
    points: Tuple[ScalePoint, ...]
    memory: Optional[MemoryComparison]
    parity: ParityCheck
    num_partitions: int
    seed: int


# ----------------------------------------------------------------------
# Build / run helpers
# ----------------------------------------------------------------------
def _stream_compact(
    n: int, seed: int, attach: int = 8
) -> Tuple[CompactGraph, float, float, int]:
    """Stream-generate a compact graph; return (graph, ingest_s, finalize_s,
    streamed_edge_count)."""
    started = time.perf_counter()
    builder = GraphBuilder()
    builder.ensure_vertex(0)
    streamed = 0
    for src, dst in powerlaw_edge_stream(n, attach=attach, seed=seed):
        builder.add_edge_batch(src, dst)
        streamed += len(src)
    ingest_seconds = time.perf_counter() - started
    started = time.perf_counter()
    graph = builder.finalize()
    finalize_seconds = time.perf_counter() - started
    return graph, ingest_seconds, finalize_seconds, streamed


def _stream_social(n: int, seed: int, attach: int = 8) -> SocialGraph:
    """The same edge stream materialized as a dict-of-sets graph."""
    graph = SocialGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
    for src, dst in powerlaw_edge_stream(n, attach=attach, seed=seed):
        for u, v in zip(src.tolist(), dst.tolist()):
            if u != v:
                graph.add_edge_if_absent(u, v)
    return graph


def _neighbor_sweep(graph: CompactGraph) -> Tuple[float, float]:
    """Weighted-neighbor aggregation over every vertex, straight off CSR.

    The traversal-style access pattern of the query layer (read every
    neighbor of every vertex, combine with a per-vertex value) expressed
    as two array passes: gather neighbor weights, then segment-sum per
    row.  Returns (seconds, edges_per_second).
    """
    indptr = graph.indptr
    nbr = graph.neighbor_indices
    weights = graph.weights_column
    started = time.perf_counter()
    gathered = weights[nbr]
    if len(nbr):
        starts = np.minimum(indptr[:-1], len(nbr) - 1)
        sums = np.add.reduceat(gathered, starts)
        sums[np.diff(indptr) == 0] = 0.0
    else:
        sums = np.zeros(graph.num_vertices, dtype=np.float64)
    checksum = float(sums.sum())  # forces materialization
    elapsed = time.perf_counter() - started
    assert checksum >= 0.0
    directed_edges = int(len(nbr))
    return elapsed, directed_edges / elapsed if elapsed > 0 else 0.0


def _run_phase1(
    graph, num_partitions: int, seed: int, config: RepartitionerConfig
) -> Tuple[RepartitionResult, Partitioning, float]:
    partitioning = HashPartitioner(salt=seed).partition(graph, num_partitions)
    started = time.perf_counter()
    result = LightweightRepartitioner(config).run(graph, partitioning)
    elapsed = time.perf_counter() - started
    return result, partitioning, elapsed


def run_point(n: int, num_partitions: int = 8, seed: int = 7) -> ScalePoint:
    """Measure one trajectory point on the CSR substrate."""
    graph, ingest_seconds, finalize_seconds, streamed = _stream_compact(n, seed)
    result, _, phase1_seconds = _run_phase1(
        graph, num_partitions, seed, _phase1_config(n)
    )
    sweep_seconds, sweep_rate = _neighbor_sweep(graph)
    csr_bytes = graph.memory_bytes()
    return ScalePoint(
        n=n,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        ingest_seconds=ingest_seconds,
        ingest_edges_per_second=streamed / ingest_seconds if ingest_seconds else 0.0,
        finalize_seconds=finalize_seconds,
        build_seconds=ingest_seconds + finalize_seconds,
        csr_bytes=csr_bytes,
        bytes_per_vertex=csr_bytes / max(1, graph.num_vertices),
        bytes_per_edge=csr_bytes / max(1, graph.num_edges),
        phase1_seconds=phase1_seconds,
        phase1_iterations=result.iterations,
        phase1_initial_edge_cut=result.initial_edge_cut,
        phase1_final_edge_cut=result.final_edge_cut,
        sweep_seconds=sweep_seconds,
        sweep_edges_per_second=sweep_rate,
        peak_rss_bytes=peak_rss_bytes(),
    )


def compare_memory(n: int, seed: int = 7) -> MemoryComparison:
    """Build both substrates from the same stream under tracemalloc."""
    _, dict_retained, dict_peak = measure_memory(lambda: _stream_social(n, seed))
    _, csr_retained, csr_peak = measure_memory(lambda: _stream_compact(n, seed))
    return MemoryComparison(
        n=n,
        dict_retained_bytes=dict_retained,
        dict_peak_bytes=dict_peak,
        csr_retained_bytes=csr_retained,
        csr_peak_bytes=csr_peak,
    )


def _outcome_digest(result: RepartitionResult, partitioning: Partitioning) -> str:
    """sha256 over the full phase-1 outcome, with exact float reprs.

    Everything order- or precision-sensitive is included: the final
    assignment, the move map, and the per-iteration history (imbalance via
    ``repr`` so any drift in float accumulation order shows up).
    """
    payload = {
        "assignment": sorted(
            (int(v), int(p)) for v, p in partitioning.items()
        ),
        "moves": sorted(
            (int(v), int(src), int(dst)) for v, (src, dst) in result.moves.items()
        ),
        "history": [
            (h.iteration, h.migrations, h.edge_cut, repr(h.max_imbalance))
            for h in result.history
        ],
        "initial_edge_cut": result.initial_edge_cut,
        "final_edge_cut": result.final_edge_cut,
        "iterations": result.iterations,
        "converged": result.converged,
        "stalled": result.stalled,
        "final_imbalance": repr(result.final_imbalance),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def check_parity(
    n: int = PARITY_N, num_partitions: int = 8, seed: int = 7
) -> ParityCheck:
    """Run phase 1 on both substrates over the same graph; digest both."""
    compact, _, _, _ = _stream_compact(n, seed)
    social = compact.to_social()
    config = _phase1_config(n)
    dict_result, dict_parts, _ = _run_phase1(social, num_partitions, seed, config)
    csr_result, csr_parts, _ = _run_phase1(compact, num_partitions, seed, config)
    return ParityCheck(
        n=n,
        dict_digest=_outcome_digest(dict_result, dict_parts),
        csr_digest=_outcome_digest(csr_result, csr_parts),
    )


def run_trajectory(
    sizes: Sequence[int],
    num_partitions: int = 8,
    seed: int = 7,
    parity_n: int = PARITY_N,
) -> ScaleResult:
    points = [run_point(n, num_partitions=num_partitions, seed=seed) for n in sizes]
    memory = None
    comparable = [n for n in sizes if n <= MEMORY_COMPARE_MAX_N]
    if comparable:
        memory = compare_memory(max(comparable), seed=seed)
    parity = check_parity(min(parity_n, PARITY_N), num_partitions, seed)
    return ScaleResult(
        points=tuple(points),
        memory=memory,
        parity=parity,
        num_partitions=num_partitions,
        seed=seed,
    )


def run(
    scale: GraphScale = GraphScale(), sizes: Optional[Sequence[int]] = None
) -> ScaleResult:
    """The trajectory over ``sizes`` (default: the single point ``scale.n``)."""
    sizes = list(sizes or [scale.n])
    return run_trajectory(
        sizes,
        num_partitions=scale.num_partitions,
        seed=scale.seed,
        parity_n=min(sizes),
    )


def gate_failures(result: ScaleResult) -> List[str]:
    """The acceptance gates ``result`` misses; empty when all pass."""
    parity = result.parity
    failures = []
    if not parity.match:
        failures.append("parity.match: dict and CSR phase-1 outcomes diverged")
    pinned = PARITY_PIN["digest"]
    pinned_point = (PARITY_PIN["n"], PARITY_PIN["partitions"], PARITY_PIN["seed"])
    if (parity.n, result.num_partitions, result.seed) == pinned_point and (
        parity.csr_digest != pinned
    ):
        failures.append(f"parity.csr_digest {parity.csr_digest} != pinned {pinned}")
    memory = result.memory
    if memory is not None and memory.retained_ratio > RETAINED_RATIO_CEILING:
        failures.append(
            f"memory.retained_ratio {memory.retained_ratio:.1%} > "
            f"{RETAINED_RATIO_CEILING:.0%}"
        )
    if memory is not None and memory.peak_ratio > PEAK_RATIO_CEILING:
        failures.append(
            f"memory.peak_ratio {memory.peak_ratio:.1%} > {PEAK_RATIO_CEILING:.0%}"
        )
    return failures


# ----------------------------------------------------------------------
# Rendering / serialization
# ----------------------------------------------------------------------
def _human_bytes(size: float) -> str:
    value = float(size)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:,.1f} {unit}"
        value /= 1024
    return f"{value:,.1f} GB"


def render(result: ScaleResult) -> str:
    table = Table(
        "BENCH_scale - CSR substrate trajectory "
        f"(partitions={result.num_partitions}, seed={result.seed})",
        [
            "n",
            "edges",
            "build s",
            "ingest e/s",
            "phase-1 s",
            "iters",
            "cut 0->f",
            "sweep e/s",
            "CSR bytes",
            "peak RSS",
        ],
    )
    for p in result.points:
        table.add_row(
            f"{p.n:,}",
            f"{p.num_edges:,}",
            f"{p.build_seconds:.2f}",
            f"{p.ingest_edges_per_second:,.0f}",
            f"{p.phase1_seconds:.2f}",
            str(p.phase1_iterations),
            f"{p.phase1_initial_edge_cut:,}->{p.phase1_final_edge_cut:,}",
            f"{p.sweep_edges_per_second:,.0f}",
            _human_bytes(p.csr_bytes),
            _human_bytes(p.peak_rss_bytes),
        )
    if result.memory is not None:
        mem = result.memory
        table.add_footnote(
            f"memory @ n={mem.n:,}: CSR retains {_human_bytes(mem.csr_retained_bytes)}"
            f" vs dict-of-sets {_human_bytes(mem.dict_retained_bytes)}"
            f" ({mem.retained_ratio:.1%}; acceptance <= 25%), build peak"
            f" {mem.peak_ratio:.1%} (acceptance <= 35%)"
        )
    table.add_footnote(
        f"parity @ n={result.parity.n:,}: dict and CSR phase-1 outcomes "
        + ("byte-identical" if result.parity.match else "DIVERGED")
        + f" (sha256 {result.parity.csr_digest[:16]}...)"
    )
    return table.to_text()
