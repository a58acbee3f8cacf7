"""Algorithm 2: the lightweight repartitioner's iterative first phase.

Each *iteration* runs two *stages*.  In stage 1 vertices may migrate only
from lower-ID partitions to higher-ID partitions; stage 2 allows only the
opposite direction.  Within a stage every partition independently (in the
real system: in parallel; here: against a common auxiliary-data snapshot)
selects its migration candidates via Algorithm 1, keeps the top-k by gain,
and logically migrates them — only auxiliary records move.  The phase ends
when an entire iteration selects no candidate; the resulting set of moves
is then handed to the physical-migration phase (:mod:`repro.core.migration`
and :mod:`repro.cluster.migration_executor`).

Phase 1 on arrays (DESIGN.md §6): a source partition's selection is one
pass over its members' rows of the count matrix — gain matrix, balance
and direction masks, a masked ``argmax`` per row — followed by the top-k
min-heap over the admissible vertices in ascending id order, and a stage's
chosen moves are applied as columns (one neighbour gather, one
:meth:`~repro.core.auxiliary.AuxiliaryData.apply_moves`; the partitioning
is written once, at the end).  The heap and the partition-weight updates
stay scalar on purpose: the heap's final array order is the order moves
apply in, and float weights accumulate in that order, so both are part
of the pinned outputs.
:func:`~repro.core.candidates.get_target_partition` is the scalar
statement of the same rules and the oracle the tests compare against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.auxiliary import AuxiliaryData
from repro.core.candidates import (
    STAGE_ANY_DIRECTION,
    STAGE_HIGH_TO_LOW,
    STAGE_LOW_TO_HIGH,
)
from repro.core.config import RepartitionerConfig
from repro.exceptions import PartitioningError
from repro.graph.compact import GraphRead
from repro.partitioning.base import Partitioning
from repro.telemetry import Telemetry


#: masks an inadmissible cell of an integer gain matrix (counters are int32)
_NO_INT_GAIN = np.iinfo(np.int32).min

_HEAP_BLOCK = 1024  #: admissible entries tested against the heap minimum at once


@dataclass(frozen=True)
class IterationStats:
    """Instrumentation for one iteration of the first phase."""

    iteration: int
    migrations: int
    edge_cut: int
    max_imbalance: float


@dataclass
class RepartitionResult:
    """Outcome of a full phase-1 run.

    ``moves`` maps each vertex that ended up on a new partition to its
    ``(original, final)`` partition pair — the input to physical migration.
    ``history`` records per-iteration stats (Table 2 / Figure 11 inputs).
    """

    converged: bool
    iterations: int
    initial_edge_cut: int
    final_edge_cut: int
    initial_imbalance: float
    final_imbalance: float
    moves: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    history: List[IterationStats] = field(default_factory=list)
    #: True when the run stopped on the plateau rule (edge-cut stable and
    #: balance valid) rather than on an empty candidate set
    stalled: bool = False

    @property
    def total_logical_migrations(self) -> int:
        """Logical moves performed, counting repeats of the same vertex."""
        return sum(stats.migrations for stats in self.history)

    @property
    def vertices_moved(self) -> int:
        """Vertices whose final partition differs from their original one."""
        return len(self.moves)


class LightweightRepartitioner:
    """The paper's dynamic repartitioner (Sections 3.1-3.3).

    The instance is stateless between runs; all mutable state lives in the
    :class:`AuxiliaryData` passed to :meth:`run`.

    Example
    -------
    >>> from repro.graph import orkut_like
    >>> from repro.partitioning import HashPartitioner
    >>> dataset = orkut_like(n=300, seed=1)
    >>> partitioning = HashPartitioner().partition(dataset.graph, 4)
    >>> result = LightweightRepartitioner().run(dataset.graph, partitioning)
    >>> result.final_edge_cut <= result.initial_edge_cut
    True
    """

    def __init__(self, config: Optional[RepartitionerConfig] = None):
        self.config = config or RepartitionerConfig()

    # ------------------------------------------------------------------
    def run(
        self,
        graph: GraphRead,
        partitioning: Partitioning,
        aux: Optional[AuxiliaryData] = None,
        on_iteration: Optional[Callable[[IterationStats], None]] = None,
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ) -> RepartitionResult:
        """Run phase 1 to convergence, mutating ``partitioning`` in place.

        Stages move only auxiliary records: ``partitioning`` holds every
        origin until the run ends (by an exception too) and then gets one
        ``move`` per vertex that ended elsewhere, in graph order — the
        state per-move writing left, up to the member sets' iteration order.
        Once the state repeats exactly, later iterations replay recorded
        stats instead of running stages; every output stays the full
        loop's (DESIGN.md §6).

        Parameters
        ----------
        graph:
            Used only for two things the hosting servers know locally:
            adjacency lists of migrating vertices (to forward counter
            updates) and initial bootstrap when ``aux`` is None.  The
            candidate selection itself reads nothing but ``aux``.
        aux:
            Pre-maintained auxiliary data; built from the graph when absent.
        on_iteration:
            Optional progress callback; it observes and must not change
            ``aux``.
        telemetry:
            Optional telemetry hub: per-iteration migration/edge-cut/
            imbalance series as events + gauges and a ``repartition.phase1``
            span tree.  Defaults to a fresh hub of its own.
        labels:
            Extra labels of those series: a cluster's ``cluster`` id.
        """
        if aux is None:
            aux = AuxiliaryData.from_graph(graph, partitioning)
        elif aux.num_partitions != partitioning.num_partitions:
            raise PartitioningError(
                "auxiliary data and partitioning disagree on partition count"
            )
        telemetry = telemetry or Telemetry()

        #: every vertex a stage moved (some may be back where they started)
        moved: Set[int] = set()
        result = RepartitionResult(
            converged=False,
            iterations=0,
            initial_edge_cut=aux.edge_cut(),
            final_edge_cut=0,
            initial_imbalance=aux.max_imbalance(),
            final_imbalance=0.0,
        )

        stages = (
            (STAGE_LOW_TO_HIGH, STAGE_HIGH_TO_LOW)
            if self.config.two_stage
            else (STAGE_ANY_DIRECTION,)
        )
        k = self.config.effective_k(graph.num_vertices)

        run_span = telemetry.span(
            "repartition.phase1",
            partitions=aux.num_partitions,
            k=k,
            initial_edge_cut=result.initial_edge_cut,
        )
        extra = labels or {}
        migrations_counter = telemetry.counter(
            "repartitioner_logical_migrations_total",
            "logical moves performed in phase 1 (repeats included)",
            **extra,
        )
        cut_gauge = telemetry.gauge(
            "repartitioner_edge_cut", "edge-cut after the latest iteration", **extra
        )
        imbalance_gauge = telemetry.gauge(
            "repartitioner_imbalance",
            "max imbalance after the latest iteration", **extra
        )
        replayed_counter = telemetry.counter(
            "repartitioner_replayed_iterations_total",
            "phase-1 iterations replayed from an exact limit cycle",
            **extra,
        )
        best_cut = result.initial_edge_cut
        best_cut_iteration = 0
        previous_cut = result.initial_edge_cut
        # Limit-cycle skip (DESIGN.md §4): the O(alpha) key of every state
        # so far, and the full state wherever a key came back.  Once two
        # full states are equal, ``period`` > 0 and iterations replay.
        keys = {(result.initial_edge_cut, *aux.partition_weights)}
        states: Dict[bytes, int] = {}
        period = cycle_end = 0
        try:
            for iteration in range(1, self.config.max_iterations + 1):
                iter_span = telemetry.span(
                    "repartition.iteration", iteration=iteration
                )
                if period:
                    stats = replace(
                        result.history[iteration - period - 1], iteration=iteration
                    )
                    migrations = stats.migrations
                    replayed_counter.inc()
                else:
                    migrations = 0
                    for stage in stages:
                        migrations += self._run_stage(graph, aux, stage, k, moved)
                    stats = IterationStats(
                        iteration=iteration,
                        migrations=migrations,
                        edge_cut=aux.edge_cut(),
                        max_imbalance=aux.max_imbalance(),
                    )
                result.history.append(stats)
                result.iterations = iteration
                migrations_counter.inc(migrations)
                cut_gauge.set(stats.edge_cut)
                imbalance_gauge.set(stats.max_imbalance)
                telemetry.event(
                    "repartition_iteration",
                    iteration=iteration,
                    migrations=migrations,
                    edge_cut=stats.edge_cut,
                    max_imbalance=stats.max_imbalance,
                    gain=previous_cut - stats.edge_cut,
                )
                previous_cut = stats.edge_cut
                iter_span.set_attribute("migrations", migrations)
                iter_span.set_attribute("edge_cut", stats.edge_cut)
                iter_span.finish()
                if on_iteration is not None:
                    on_iteration(stats)
                if migrations == 0:
                    result.converged = True
                    break
                if stats.edge_cut < best_cut:
                    best_cut = stats.edge_cut
                    best_cut_iteration = iteration
                if self._stalled(stats, iteration, best_cut_iteration):
                    result.stalled = True
                    break
                if not period:
                    key = (stats.edge_cut, *aux.partition_weights)
                    if key in keys:
                        state = aux.stage_state()
                        if state in states:
                            period, cycle_end = iteration - states[state], iteration
                        states[state] = iteration
                    keys.add(key)
        finally:
            if period:
                # Bring the state to the last bookkept iteration's: the
                # cycle's position there, reached by real stages.
                for _ in range((result.iterations - cycle_end) % period):
                    for stage in stages:
                        self._run_stage(graph, aux, stage, k, moved)
            # Once, in graph order: the order a rollback re-applies moves in.
            vertices = [vertex for vertex in graph.vertices() if vertex in moved]
            for vertex, final in zip(vertices, aux.partitions_of(vertices)):
                source = partitioning.partition_of(vertex)
                if final != source:
                    partitioning.move(vertex, final)
                    result.moves[vertex] = (source, final)

        result.final_edge_cut = aux.edge_cut()
        result.final_imbalance = aux.max_imbalance()
        run_span.set_attribute("iterations", result.iterations)
        run_span.set_attribute("final_edge_cut", result.final_edge_cut)
        run_span.set_attribute("converged", result.converged)
        if period:
            run_span.set_attribute("cycle_period", period)
            run_span.set_attribute("replayed_iterations", result.iterations - cycle_end)
        run_span.finish()
        return result

    def _stalled(
        self, stats: IterationStats, iteration: int, best_cut_iteration: int
    ) -> bool:
        """Plateau rule: balance is valid and the cut stopped improving.

        Guards against the balance-shed/cut-restore limit cycles that the
        snapshot-parallel per-stage selection can enter near the epsilon
        boundary (the paper bounds these only through small k).
        """
        if self.config.stall_iterations is None:
            return False
        if stats.max_imbalance > self.config.epsilon:
            return False
        return iteration - best_cut_iteration >= self.config.stall_iterations

    # ------------------------------------------------------------------
    def _run_stage(
        self,
        graph: GraphRead,
        aux: AuxiliaryData,
        stage: int,
        k: int,
        moved: Set[int],
    ) -> int:
        """One stage: per-partition selection, then apply all moves.

        Every partition evaluates its candidates against the same snapshot
        of the auxiliary data (matching the paper's parallel execution:
        "the algorithm does not know the target partition of other
        vertices"), selects its top-k by gain, and all chosen vertices then
        migrate logically as one batch, read as columns off the heap
        entries.  No move applies until selection finishes, so every
        source sees the same partition weights.  ``moved`` learns the
        batch once it has applied.
        """
        chosen = [
            entry
            for source in range(aux.num_partitions)
            for entry in self._select_candidates(aux, source, stage, k)
        ]
        if not chosen:
            return 0
        # Per-partition selection cannot pick the same vertex twice.
        _, _, vertices, targets = zip(*chosen)
        aux.apply_moves(vertices, targets, graph.neighbor_batch(vertices))
        moved.update(vertices)
        return len(chosen)

    def _select_candidates(
        self, aux: AuxiliaryData, source: int, stage: int, k: int
    ) -> List[Tuple[float, int, int, int]]:
        """Algorithm 2 lines 4-9 for one source partition.

        Returns the top-k heap of ``(gain, arrival, vertex, target)``
        entries by gain, in final array order: the stage's apply order.
        Algorithm 1 (reference: :func:`~repro.core.candidates.get_target_partition`)
        is evaluated for every member of ``source`` at once, reading only
        the source's own records and the alpha partition weights:

        * balance denominators — the plain average under uniform
          capacities, each partition's capacity-weighted target otherwise
          (a zero target, i.e. a draining server, is never admissible as a
          destination and skips the underload guard as a source);
        * gain matrix — count rows minus the own-partition column, blended
          with the heat overlay when ``workload_alpha`` > 0 (uniform
          capacities only);
        * mask — stage direction, destination stays under ``epsilon``, and
          unless the source is overloaded: a neighbor in the destination
          and strictly positive gain;
        * winner — masked ``argmax`` per row (first hit = lowest partition
          ID among equal gains, as in the reference's ascending scan).

        The float expressions repeat ``imbalance_factor``'s term for term,
        so the candidates are bit-identical to the scalar reference.
        """
        # The stage's direction rule is a column slice of the records.
        if stage == STAGE_LOW_TO_HIGH:
            low, high = source + 1, aux.num_partitions
        elif stage == STAGE_HIGH_TO_LOW:
            low, high = 0, source
        else:  # STAGE_ANY_DIRECTION (ablation only)
            low, high = 0, aux.num_partitions
        if low == high:
            return []
        epsilon = self.config.epsilon
        alpha = self.config.workload_alpha
        uniform = aux.uniform_capacity
        if uniform:
            denominators = [aux.average_weight()] * aux.num_partitions
        else:
            denominators = aux.balance_targets()
        overloaded = aux.is_overloaded(source, epsilon)
        records = aux.records_of(source)
        weights, counts = records.weights, records.counts

        toward = counts[:, low:high]
        own = counts[:, source, None]
        heated = uniform and alpha > 0.0 and aux.has_heat
        if heated:
            heat = records.heat
            gain = (1.0 - alpha) * (toward - own) + alpha * (
                heat[:, low:high] - heat[:, source, None]
            )
            no_gain = -np.inf
        else:
            gain = toward - own
            no_gain = _NO_INT_GAIN

        denominator = np.asarray(denominators[low:high])
        unbalanced = denominator == 0 if 0 in denominators[low:high] else None
        if unbalanced is not None:
            denominator = np.where(unbalanced, 1.0, denominator)
        admissible = (
            np.asarray(aux.partition_weights[low:high]) + weights[:, None]
        ) / denominator < epsilon
        if unbalanced is not None:
            # average == 0 (an all-zero-weight system) admits every target;
            # a zero capacity target admits none.
            admissible[:, unbalanced] = uniform
        if denominators[source] != 0:
            # Algorithm 1 line 2: moving v must not underload the source.
            underloads = (
                aux.partition_weights[source] - weights
            ) / denominators[source] < 2.0 - epsilon
            admissible &= ~underloads[:, None]
        if low <= source < high:
            admissible[:, source - low] = False
        if not overloaded:
            # Interior vertices and zero-gain moves are only for shedding.
            # (A positive count difference implies a neighbor in the target;
            # heat can be positive toward a partition without one.)
            admissible &= gain > 0
            if heated:
                admissible &= toward > 0
        if not admissible.any():
            return []

        gain = np.where(admissible, gain, no_gain)
        movable = admissible.any(axis=1).nonzero()[0]
        best = gain[movable].argmax(axis=1)

        # Min-heap of (gain, arrival, vertex, target) over the admissible
        # vertices in ascending id order.  The real heapq with
        # strict-greater replacement, not a sort: its final array order is
        # the order the stage applies moves in.  The minimum only rises, so
        # only block entries above its value at the block's start are boxed.
        gains = gain[movable, best]
        columns = (gains, np.arange(len(gains)), records.vertices[movable], best + low)

        def entries(at: np.ndarray):  # the heap tuples of the entries ``at``
            return zip(*(column[at].tolist() for column in columns))

        top_k: List[Tuple[float, int, int, int]] = []
        for entry in entries(columns[1][:k]):
            heapq.heappush(top_k, entry)
        for start in range(len(top_k), len(gains), _HEAP_BLOCK):
            block = gains[start : start + _HEAP_BLOCK]
            for entry in entries((block > top_k[0][0]).nonzero()[0] + start):
                if entry[0] > top_k[0][0]:
                    heapq.heapreplace(top_k, entry)
        return top_k
