"""Auxiliary data — the *only* state the lightweight repartitioner reads.

Per the paper (Sections 2.2 and 3.1) the auxiliary data consists of:

* for each hosted vertex ``v``, alpha integers: the number of neighbors of
  ``v`` in each of the alpha partitions;
* the aggregate weight of *all* partitions (every server knows the total
  weight of every other partition);
* each hosted vertex's own weight and current partition.

That is an array, and it is stored as one (DESIGN.md §6, "Phase 1 on
arrays"): row ``r`` of ``partition[r]`` / ``weight[r]`` /
``counts[r, alpha]`` (int32) is one vertex's record, with an optional
``heat[r, alpha]`` overlay of observed traffic.  The vertex-id -> row map
is the identity while ids are ``0..n-1`` (no per-vertex Python object
exists at all then) and a dict otherwise; rows grow by amortised
doubling, a new partition appends a column.

The data is maintained incrementally as user requests execute: adding an
edge increments two integers, reading a vertex bumps its weight, and a
logical migration re-points one record and shifts its neighbors'
counters (:meth:`AuxiliaryData.apply_moves` does that for a whole stage
in two scatter operations; the single-cell request paths go through
``memoryview``s of the columns).  Maintenance cost is proportional to the
rate of change of the graph, never to its size.  Everything derived —
boundary sets, external degree, edge-cut, imbalance — is computed from
the arrays on demand in one vectorised pass; nothing derived is stored.

Every public scalar is a Python ``int`` / ``float``; ``partition_weights``
and ``capacities`` are Python lists, because their float accumulation
order is part of the pinned outputs (DESIGN.md §6).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.exceptions import PartitioningError, VertexNotFoundError
from repro.graph.compact import CompactGraph, GraphRead
from repro.partitioning.base import Partitioning

#: ulp-scale heat residue below this is treated as zero when heat is dropped
_HEAT_EPSILON = 1e-12


def is_vertex_id(vertex: Any) -> bool:
    """Is ``vertex`` an integral vertex id?  Python and numpy integers
    are; bool, float and str are not (the rule :meth:`AuxiliaryData._locate`
    applies inline)."""
    return type(vertex) is int or isinstance(vertex, np.integer)


def is_weight(value: Any) -> bool:
    """Is ``value`` a finite non-negative number, as every vertex weight
    and server capacity must be?"""
    try:
        return 0.0 <= value < math.inf
    except TypeError:
        return False


def check_capacity(capacity: float) -> None:
    if not is_weight(capacity):
        raise PartitioningError(
            f"capacity must be a finite non-negative number, got {capacity}"
        )


def capacity_targets(total_weight: float, capacities: List[float]) -> List[float]:
    """Capacity-weighted balance target per partition.

    ``target_p = total_weight * cap_p / sum(cap)``.  An all-zero capacity
    vector yields all-zero targets (every non-empty partition reads as
    overloaded).
    """
    total_capacity = sum(capacities)
    if total_capacity <= 0.0:
        return [0.0] * len(capacities)
    return [
        total_weight * (capacity / total_capacity) for capacity in capacities
    ]


def weighted_imbalance(weight: float, target: float) -> float:
    """Imbalance of one partition against its capacity-weighted target.

    A zero-capacity partition (e.g. one being drained) has target 0: it
    is infinitely overloaded while it still holds weight and exactly
    balanced once empty, so the balancer sheds from it and never moves
    load toward it.
    """
    if target == 0.0:
        return 1.0 if weight == 0.0 else math.inf
    return weight / target


def _nonzero(cells: np.ndarray) -> dict:
    """Sparse ``{partition: value}`` view of one row of a per-partition matrix."""
    return {
        partition: value for partition, value in enumerate(cells.tolist()) if value
    }


class PartitionRecords(NamedTuple):
    """What one server hosts: its vertices' records, ascending vertex id.

    The arrays are copies (a stage's selection snapshot); row ``i`` of
    each belongs to ``vertices[i]``.
    """

    vertices: np.ndarray  #: int64 vertex ids
    weights: np.ndarray  #: float64
    counts: np.ndarray  #: int32 ``[m, alpha]`` neighbor counts
    heat: Optional[np.ndarray]  #: float64 ``[m, alpha]``, None when unheated


class AuxiliaryData:
    """The repartitioner's complete view of the system."""

    __slots__ = (
        "num_partitions",
        "partition_weights",
        "capacities",
        "_partition",
        "_weight",
        "_counts",
        "_partition_cell",
        "_weight_cell",
        "_count_cell",
        "_heat",
        "_edge_heat",
        "_rows",
        "_ids",
        "_free",
        "_used",
        "_live",
    )

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise PartitioningError("need at least one partition")
        self.num_partitions = num_partitions
        #: aggregate weight of each partition (known to every server)
        self.partition_weights: List[float] = [0.0] * num_partitions
        #: relative serving capacity per partition (1.0 = one standard
        #: server, the starting value); balance targets are weighted by
        #: this vector
        self.capacities: List[float] = [1.0] * num_partitions
        # partition: row -> partition, -1 for a free row; counts: dense and
        # C-contiguous, so ``reshape(-1)`` is a view.
        self._install(
            np.full(0, -1, dtype=np.int32),
            np.zeros(0, dtype=np.float64),
            np.zeros((0, num_partitions), dtype=np.int32),
        )
        #: heat[r, p] = sum of heat of r's edges whose other endpoint lives
        #: on p — the weighted analogue of the counters (None until attached)
        self._heat: Optional[np.ndarray] = None
        #: observed-traffic heat per canonical edge (None until attached)
        self._edge_heat: Optional[Dict[Tuple[int, int], float]] = None
        #: vertex id -> row; None while the map is the identity
        self._rows: Optional[Dict[int, int]] = None
        #: row -> vertex id; None while the map is the identity
        self._ids: Optional[np.ndarray] = None
        #: reusable rows below ``_used`` (mapped ids only; an identity-mapped
        #: vertex can only ever return to its own row)
        self._free: List[int] = []
        self._used = 0  # rows handed out so far (high-water mark)
        self._live = 0  # tracked vertices

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: GraphRead, partitioning: Partitioning
    ) -> "AuxiliaryData":
        """Bootstrap auxiliary data from a full graph + assignment.

        In the real system this state accretes from request execution; the
        simulator builds it in one pass when a cluster is loaded: the
        counter matrix is one ``bincount`` over ``(row, partition[col])``
        of the directed edge list, the weight vector one weighted
        ``bincount`` (which accumulates in vertex order, like the
        per-vertex loop it replaces).  Any read-protocol substrate works
        and yields identical phase-1 outputs; a CSR graph hands over its
        columns, anything else is read through the protocol.
        """
        aux = cls(partitioning.num_partitions)
        aux.bootstrap(graph, partitioning.partitions_of(graph.vertices()))
        return aux

    def bootstrap(self, graph: GraphRead, partitions: Sequence[int]) -> None:
        """Fill auxiliary data that tracks nothing yet and carries no heat
        (its capacities are kept) from a full graph and its partition
        column (``partitions[i]`` is the partition of the ``i``-th vertex
        in graph order) — the one pass of :meth:`from_graph`.  The rows,
        counters and partition weights are the ones :meth:`add_vertex`
        for every vertex in graph order and then :meth:`add_edge` for
        every edge leave; the columns are sized to the graph.  A column
        of the wrong length or a partition out of range raises
        :class:`PartitioningError` with nothing changed."""
        n = graph.num_vertices
        if isinstance(graph, CompactGraph):
            ids = graph.ids_column
            rows = None if ids is None else dict(zip(ids.tolist(), range(n)))
            # The directed edge list in row space: every edge both ways.
            heads = np.repeat(np.arange(n), np.diff(graph.indptr))
            self._bootstrap(
                ids, rows, graph.weights_column, partitions, heads, graph.neighbor_indices
            )
            return
        ids = np.fromiter(graph.vertices(), dtype=np.int64, count=n)
        weights = map(graph.weight_of, ids.tolist())
        self.bootstrap_columns(
            ids,
            np.fromiter(weights, dtype=np.float64, count=n),
            partitions,
            np.fromiter(chain.from_iterable(graph.edges()), dtype=np.int64),
        )

    def bootstrap_columns(
        self,
        ids: Sequence[int],
        weights: Sequence[float],
        partitions: Sequence[int],
        ends: Sequence[int],
    ) -> None:
        """:meth:`bootstrap` from columns instead of a graph: vertex ids,
        their weights and partitions (aligned, in row order), and
        ``ends``, every edge's two endpoint ids in turn (``u0, v0, u1,
        v1, ...``, each edge once)."""
        ids = np.asarray(ids, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        rows = None
        if np.array_equal(ids, np.arange(len(ids))):
            ids = None
        else:
            rows = dict(zip(ids.tolist(), range(len(ids))))
            ends = np.fromiter(
                map(rows.__getitem__, ends.tolist()), dtype=np.int64, count=len(ends)
            )
        # The directed edge list in row space: every edge both ways.
        heads = np.concatenate([ends[0::2], ends[1::2]])
        tails = np.concatenate([ends[1::2], ends[0::2]])
        self._bootstrap(ids, rows, weights, partitions, heads, tails)

    def _bootstrap(
        self,
        ids: Optional[np.ndarray],
        rows: Optional[Dict[int, int]],
        weights: Sequence[float],
        partitions: Sequence[int],
        heads: np.ndarray,
        tails: np.ndarray,
    ) -> None:
        """Check and install bootstrap columns: ``ids`` and ``rows`` are
        None for the identity map, ``heads``/``tails`` the directed edge
        list in row space."""
        if self._used or self._heat is not None:
            raise PartitioningError("bootstrap needs empty, unheated auxiliary data")
        n = len(weights)
        partition = np.asarray(partitions)
        if len(partition) != n:
            raise PartitioningError(f"{len(partition)} partitions for {n} vertices")
        if not n:
            return
        alpha = self.num_partitions
        if not (0 <= partition.min() and partition.max() < alpha):
            raise PartitioningError(f"partition out of range [0, {alpha})")
        partition = partition.astype(np.int32)
        weights = np.array(weights, dtype=np.float64)  # a copy aux owns
        cells = heads * alpha + partition[tails]
        counts = np.bincount(cells, minlength=n * alpha).astype(np.int32)
        self._install(partition, weights, counts.reshape(n, alpha))
        if ids is not None:
            self._ids = ids.astype(np.int64)
            self._rows = rows
        self._used = self._live = n
        self.partition_weights = np.bincount(
            partition, weights=weights, minlength=alpha
        ).tolist()

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def _install(
        self, partition: np.ndarray, weight: np.ndarray, counts: np.ndarray
    ) -> None:
        """Adopt (re)allocated columns and open cell views on them.

        Per-request upkeep (``add_popularity`` over every vertex a read
        returns, ``add_edge``, the id lookups) touches single cells, where
        indexing an ndarray costs ~3x a list access.  A ``memoryview`` of
        the same buffer reads and writes a cell as a Python scalar at
        close to list speed — without boxing the column.
        """
        self._partition, self._weight, self._counts = partition, weight, counts
        self._partition_cell = memoryview(partition)
        self._weight_cell = memoryview(weight)
        self._count_cell = memoryview(counts)

    def __getstate__(self) -> dict:
        # memoryviews can be neither copied nor pickled; they are re-opened.
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if not name.endswith("_cell")
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._install(self._partition, self._weight, self._counts)

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` rows (amortised doubling)."""
        capacity = len(self._partition)
        if rows <= capacity:
            return
        grown = max(rows, 2 * capacity, 16)

        def extend(column: np.ndarray, fill) -> np.ndarray:
            out = np.full((grown,) + column.shape[1:], fill, dtype=column.dtype)
            out[:capacity] = column
            return out

        self._install(
            extend(self._partition, -1),
            extend(self._weight, 0.0),
            extend(self._counts, 0),
        )
        if self._heat is not None:
            self._heat = extend(self._heat, 0.0)
        if self._ids is not None:
            self._ids = extend(self._ids, -1)

    # ------------------------------------------------------------------
    # Vertex id <-> row
    # ------------------------------------------------------------------
    def _locate(self, vertex: int) -> Tuple[int, int]:
        """``(row, partition)`` of a tracked integral vertex id
        (:func:`is_vertex_id`, inlined; one cell read)."""
        if type(vertex) is int or isinstance(vertex, np.integer):
            row = vertex if self._rows is None else self._rows.get(vertex, -1)
            if 0 <= row < self._used:
                partition = self._partition_cell[row]
                if partition >= 0:
                    return row, partition
        raise VertexNotFoundError(vertex)

    def _rows_of(self, vertices) -> np.ndarray:
        """Rows of a batch of tracked vertex ids (int64 array)."""
        ids = np.asarray(vertices)
        if len(ids) and ids.dtype.kind not in "iu":  # one check per batch
            raise VertexNotFoundError(ids[0].item())
        if self._rows is None:
            rows = ids.astype(np.int64)
            known = (rows >= 0) & (rows < self._used)
            if known.all() and self._live < self._used:  # free rows exist
                known = self._partition[rows] >= 0
            if not known.all():
                raise VertexNotFoundError(int(rows[~known][0]))
            return rows
        try:
            return np.fromiter(
                map(self._rows.__getitem__, ids.tolist()),
                dtype=np.int64,
                count=len(ids),
            )
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None

    def _ids_of(self, rows: np.ndarray) -> np.ndarray:
        return rows if self._ids is None else self._ids[rows]

    def _live_rows(self) -> np.ndarray:
        return (self._partition[: self._used] >= 0).nonzero()[0]

    def _by_vertex_id(self, rows: np.ndarray) -> np.ndarray:
        """Ascending rows re-ordered by ascending *vertex id*."""
        if self._ids is None:
            return rows
        return rows[np.argsort(self._ids[rows], kind="stable")]

    def _member_rows(self, partition: int) -> np.ndarray:
        """Rows hosted on ``partition``, in ascending vertex id order."""
        return self._by_vertex_id(
            (self._partition[: self._used] == partition).nonzero()[0]
        )

    def _claim_row(self, vertex: int) -> int:
        """A free row for a new vertex; grows the arrays when full."""
        if self._rows is None:
            if vertex == self._used:
                self._reserve(vertex + 1)
                self._used += 1
                return vertex
            if 0 <= vertex < self._used:
                if self._partition[vertex] >= 0:
                    raise PartitioningError(f"vertex {vertex} already tracked")
                return vertex
            # First id that does not extend 0..n-1: switch to an explicit map.
            live = self._live_rows().tolist()
            self._rows = dict(zip(live, live))
            self._ids = np.arange(len(self._partition), dtype=np.int64)
            self._free = sorted(set(range(self._used)) - self._rows.keys())
        if vertex in self._rows:
            raise PartitioningError(f"vertex {vertex} already tracked")
        if self._free:
            row = self._free.pop()
        else:
            row = self._used
            self._reserve(row + 1)
            self._used += 1
        self._rows[vertex] = row
        self._ids[row] = vertex
        return row

    # ------------------------------------------------------------------
    # Incremental maintenance (driven by user requests)
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: int, partition: int, weight: float) -> None:
        self._check_partition(partition)
        row = self._claim_row(vertex)
        self._partition_cell[row] = partition
        self._weight_cell[row] = weight
        self.partition_weights[partition] += weight
        self._live += 1

    def remove_vertex(self, vertex: int) -> None:
        row, partition = self._locate(vertex)
        if self._counts[row].any():
            raise PartitioningError(
                f"vertex {vertex} still has incident edges; remove them first"
            )
        self.partition_weights[partition] -= self._weight_cell[row]
        self._partition[row] = -1
        self._weight[row] = 0.0
        if self._heat is not None:
            self._heat[row] = 0.0
        if self._rows is not None:
            del self._rows[vertex]
            self._free.append(row)
        self._live -= 1

    def add_edge(self, u: int, v: int) -> None:
        """A new relationship: two integers get incremented (Section 3.1)."""
        row_u, partition_u = self._locate(u)
        row_v, partition_v = self._locate(v)
        counts = self._count_cell
        counts[row_u, partition_v] += 1
        counts[row_v, partition_u] += 1

    def remove_edge(self, u: int, v: int) -> None:
        row_u, partition_u = self._locate(u)
        row_v, partition_v = self._locate(v)
        counts = self._count_cell
        for row, partition, vertex in (
            (row_u, partition_v, u),
            (row_v, partition_u, v),
        ):
            if counts[row, partition] < 1:
                raise PartitioningError(
                    f"neighbor count of vertex {vertex} in partition "
                    f"{partition} would become negative"
                )
        counts[row_u, partition_v] -= 1
        counts[row_v, partition_u] -= 1
        if self._edge_heat:
            heat = self._edge_heat.pop((u, v) if u <= v else (v, u), 0.0)
            if heat:
                self._drop_heat(row_u, partition_v, heat)
                self._drop_heat(row_v, partition_u, heat)

    def add_weight(self, vertex: int, delta: float) -> None:
        """A read request increments the vertex's popularity weight."""
        # _locate, inlined: this runs for every vertex a traversal returns.
        row = vertex if self._rows is None else self._rows.get(vertex, -1)
        partition = self._partition_cell[row] if 0 <= row < self._used else -1
        if partition < 0:
            raise VertexNotFoundError(vertex)
        self._weight_cell[row] += delta
        self.partition_weights[partition] += delta

    def add_popularity(self, vertices: Iterable[int]) -> None:
        """``add_weight(vertex, 1.0)`` for each vertex a read returned, in
        order (partition weights are order-sensitive floats once
        :meth:`decay_weights` has run), in one call."""
        rows, used = self._rows, self._used
        partition_cell, weight_cell = self._partition_cell, self._weight_cell
        partition_weights = self.partition_weights
        for vertex in vertices:
            row = vertex if rows is None else rows.get(vertex, -1)
            partition = partition_cell[row] if 0 <= row < used else -1
            if partition < 0:
                raise VertexNotFoundError(vertex)
            weight_cell[row] += 1.0
            partition_weights[partition] += 1.0

    def set_weight(self, vertex: int, weight: float) -> None:
        self.add_weight(vertex, weight - self.weight_of(vertex))

    def decay_weights(self, factor: float, floor: float = 1.0) -> None:
        """Age popularity: multiply every weight by ``factor`` (0..1].

        Read-count weights grow without bound; real deployments age them
        so the balancer tracks *current* traffic rather than all-time
        totals.  ``floor`` keeps every vertex minimally weighted so empty
        partitions remain comparable.  Each vertex weight becomes
        ``max(floor, weight * factor)`` and each partition's aggregate is
        rebuilt as the sum of its members' decayed weights in ascending
        vertex order.
        """
        if not 0.0 < factor <= 1.0:
            raise PartitioningError(f"decay factor must be in (0, 1], got {factor}")
        rows = self._by_vertex_id(self._live_rows())
        decayed = np.maximum(floor, self._weight[rows] * factor)
        self._weight[rows] = decayed
        self.partition_weights[:] = np.bincount(
            self._partition[rows], weights=decayed, minlength=self.num_partitions
        ).tolist()

    # ------------------------------------------------------------------
    # Logical migration
    # ------------------------------------------------------------------
    def apply_move(self, vertex: int, target: int, neighbors: Iterable[int]) -> int:
        """Logically migrate ``vertex`` to ``target``; returns the source.

        Moving a vertex transfers its auxiliary record to the target and
        updates the counters of its neighbors (their "count in source"
        decrements, "count in target" increments) plus the two partition
        weights.  ``neighbors`` is the vertex's adjacency list, which the
        *source server* knows locally — the migration message carries the
        updates; no global state is consulted.  A batch of one: see
        :meth:`apply_moves` for validation and atomicity.
        """
        source = self.partition_of(vertex)
        if not isinstance(neighbors, np.ndarray):
            neighbors = np.array(list(neighbors))
        self.apply_moves([vertex], [target], (neighbors, [len(neighbors)]))
        return source

    def apply_moves(
        self,
        vertices: Sequence[int],
        targets: Sequence[int],
        neighbors: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Logically migrate a batch of vertices, all or nothing.

        ``neighbors`` is the adjacency pair ``(neighbor_ids, lengths)``
        of :meth:`~repro.graph.compact.GraphRead.neighbor_batch`.
        Equivalent to ``apply_move`` per vertex in batch order: the
        integer counters commute, so they move in two scatter operations
        for the whole batch, while the partition weights (and attached
        heat) are floats whose accumulation order is observable and stay
        a scalar loop in (batch, neighbor) order.  The batch is validated
        before anything changes — every id integral and tracked, every
        target in range, no vertex twice, every decremented counter >= 1
        — and a violation raises :class:`PartitioningError` /
        :class:`VertexNotFoundError` with the auxiliary data untouched.
        """
        neighbor_ids, lengths = neighbors
        lengths = np.asarray(lengths, dtype=np.int64)
        counted = lengths.sum() == len(neighbor_ids) and (lengths >= 0).all()
        if not (counted and len(vertices) == len(targets) == len(lengths)):
            raise PartitioningError("apply_moves arguments differ in length")
        alpha = self.num_partitions
        target_column = np.asarray(targets, dtype=np.int64)
        if len(target_column) and not (
            0 <= target_column.min() and target_column.max() < alpha
        ):
            raise PartitioningError(f"target partition out of range [0, {alpha})")
        rows = self._rows_of(vertices)
        if len(set(rows.tolist())) != len(rows):
            raise PartitioningError("a vertex may move only once per batch")
        source_column = self._partition[rows].astype(np.int64)
        moving = source_column != target_column
        if not moving.all():
            rows = rows[moving]
            source_column = source_column[moving]
            target_column = target_column[moving]
            neighbor_ids = np.asarray(neighbor_ids)[np.repeat(moving, lengths)]
            lengths = lengths[moving]
        if not len(rows):
            return
        neighbor_rows = self._rows_of(neighbor_ids)

        # Counter transfer: each neighbor's "count in source" decrements
        # and "count in target" increments.  Decrement first and look for
        # a negative cell — the only way to see a non-neighbor without a
        # sort — restoring the integers exactly before raising.
        cells = neighbor_rows * alpha
        counts = self._counts.reshape(-1)
        one = counts.dtype.type(1)  # a Python int would take ufunc.at's slow path
        decrement = cells + np.repeat(source_column, lengths)
        np.subtract.at(counts, decrement, one)
        if len(decrement) and counts[decrement].min() < 0:
            bad = int(np.flatnonzero(counts[decrement] < 0)[0])
            np.add.at(counts, decrement, one)
            raise PartitioningError(
                f"neighbor count of vertex {int(neighbor_ids[bad])} in "
                f"partition {int(decrement[bad] % alpha)} would become negative"
            )
        np.add.at(counts, cells + np.repeat(target_column, lengths), one)

        sources = source_column.tolist()
        targets = target_column.tolist()
        partition_weights = self.partition_weights
        for source, target, weight in zip(
            sources, targets, self._weight[rows].tolist()
        ):
            partition_weights[source] -= weight
            partition_weights[target] += weight
        self._partition[rows] = target_column

        if self._edge_heat:
            # The weighted counters move in lockstep with the integer
            # ones: each neighbor's heat toward the source partition
            # follows the vertex to the target, in (batch, neighbor) order.
            edge_heat = self._edge_heat
            neighbor_ids = np.asarray(neighbor_ids).tolist()
            neighbor_rows = neighbor_rows.tolist()
            start = 0
            for vertex, source, target, length in zip(
                self._ids_of(rows).tolist(), sources, targets, lengths.tolist()
            ):
                for i in range(start, start + length):
                    nbr = neighbor_ids[i]
                    heat = edge_heat.get(
                        (vertex, nbr) if vertex <= nbr else (nbr, vertex)
                    )
                    if heat:
                        self._drop_heat(neighbor_rows[i], source, heat)
                        self._heat[neighbor_rows[i], target] += heat
                start += length

    # ------------------------------------------------------------------
    # Workload heat (observed-traffic weighting for the gain function)
    # ------------------------------------------------------------------
    def attach_heat(self, edge_heat: Mapping[Tuple[int, int], float]) -> None:
        """Install observed-traffic edge heat for weighted gain.

        ``edge_heat`` maps (undirected) edges to non-negative heat —
        typically :meth:`~repro.workloads.model.WorkloadModel.normalized_edge_heat`.
        Keys are canonicalized, zero/negative heat and edges with an
        untracked endpoint are dropped.  Heat must describe *real* edges:
        the weighted selection only considers target partitions the
        vertex has neighbors in, so heat toward a partition with no
        counted neighbor is never read.  From here on :meth:`apply_moves`
        and :meth:`remove_edge` keep the weighted counters in lockstep
        with the integer ones; new edges start cold until re-attached.
        """
        canonical: Dict[Tuple[int, int], float] = {}
        for (u, v), heat in edge_heat.items():
            if heat <= 0.0 or u == v:
                continue
            if u > v:
                u, v = v, u
            if not (self._tracks(u) and self._tracks(v)):
                continue
            canonical[(u, v)] = canonical.get((u, v), 0.0) + heat
        alpha = self.num_partitions
        size = self._counts.size
        if canonical:
            # One weighted bincount over the (u-cell, v-cell) sequence
            # accumulates per cell in edge order, like a per-edge loop.
            u = self._rows_of([edge[0] for edge in canonical])
            v = self._rows_of([edge[1] for edge in canonical])
            cells = np.empty(2 * len(canonical), dtype=np.int64)
            cells[0::2] = u * alpha + self._partition[v]
            cells[1::2] = v * alpha + self._partition[u]
            values = np.fromiter(
                canonical.values(), dtype=np.float64, count=len(canonical)
            )
            heat_cells = np.bincount(
                cells, weights=np.repeat(values, 2), minlength=size
            )
        else:
            heat_cells = np.zeros(size, dtype=np.float64)
        self._edge_heat = canonical
        self._heat = heat_cells.reshape(self._counts.shape)

    def detach_heat(self) -> None:
        """Drop the heat overlay; gain falls back to pure edge counts."""
        self._edge_heat = None
        self._heat = None

    @property
    def has_heat(self) -> bool:
        """True when a non-empty heat overlay is attached."""
        return bool(self._edge_heat)

    def heat_counts(self, vertex: int) -> Dict[int, float]:
        """Sparse ``{partition: heat}`` — the weighted analogue of
        :meth:`neighbor_counts` (a fresh dict; empty when unheated)."""
        row, _ = self._locate(vertex)
        return {} if self._heat is None else _nonzero(self._heat[row])

    def _drop_heat(self, row: int, partition: int, heat: float) -> None:
        cells = self._heat[row]
        if not cells.any():
            return
        value = cells[partition] - heat
        # Exact cancellation is not guaranteed in floats; treat ulp-scale
        # residue as zero so phantom heat does not accumulate.
        cells[partition] = 0.0 if abs(value) < _HEAT_EPSILON else value

    # ------------------------------------------------------------------
    # Queries used by Algorithm 1
    # ------------------------------------------------------------------
    def _tracks(self, vertex: int) -> bool:
        try:
            self._locate(vertex)
        except VertexNotFoundError:
            return False
        return True

    def partition_of(self, vertex: int) -> int:
        return self._locate(vertex)[1]

    def partitions_of(self, vertices: Sequence[int]) -> List[int]:
        """:meth:`partition_of` for a batch, in batch order (one gather)."""
        return self._partition[self._rows_of(vertices)].tolist()

    def weight_of(self, vertex: int) -> float:
        return self._weight_cell[self._locate(vertex)[0]]

    def neighbor_count(self, vertex: int, partition: int) -> int:
        """``d_v(partition)``: how many neighbors of v live in partition."""
        self._check_partition(partition)
        return self._count_cell[self._locate(vertex)[0], partition]

    def neighbor_counts(self, vertex: int) -> Dict[int, int]:
        """Sparse ``{partition: count > 0}`` (a fresh dict)."""
        return _nonzero(self._counts[self._locate(vertex)[0]])

    def degree(self, vertex: int) -> int:
        return int(self._counts[self._locate(vertex)[0]].sum())

    def external_degree(self, vertex: int) -> int:
        """``d_ex(v)``: neighbors in partitions other than v's own."""
        row, partition = self._locate(vertex)
        counts = self._counts[row]
        return int(counts.sum() - counts[partition])

    def stage_state(self) -> bytes:
        """What a phase-1 stage reads and changes, as one ``bytes``: the
        placement column, the partition weights and the heat overlay.
        The counters follow from the placement (a stage moves them by
        fixed adjacency), so within one run equal values are equal
        states, bit for bit, and the stages after them are equal too."""
        used = self._used
        heat = b"" if self._heat is None else self._heat[:used].tobytes()
        weights = np.array(self.partition_weights, dtype=np.float64).tobytes()
        return self._partition[:used].tobytes() + weights + heat

    def records_of(self, partition: int) -> PartitionRecords:
        """The records ``partition``'s server hosts, ascending vertex id.

        This — plus the alpha partition weights — is everything a server
        reads to select its migration candidates (Algorithm 1 evaluated
        for the whole partition at once in
        :class:`~repro.core.repartitioner.LightweightRepartitioner`).
        """
        self._check_partition(partition)
        rows = self._member_rows(partition)
        return PartitionRecords(
            self._ids_of(rows),
            self._weight[rows],
            self._counts[rows],
            None if self._heat is None else self._heat[rows],
        )

    def vertices_in(self, partition: int) -> Set[int]:
        """The vertices hosted on ``partition`` (a fresh set)."""
        self._check_partition(partition)
        return set(self._ids_of(self._member_rows(partition)).tolist())

    def _external_degrees(self, rows: np.ndarray) -> np.ndarray:
        counts = self._counts[rows]
        own = counts[np.arange(len(rows)), self._partition[rows]]
        return counts.sum(axis=1) - own

    def boundary_vertices(self, partition: int) -> Set[int]:
        """Hosted vertices with >= 1 external neighbor (a fresh set).

        These are the only admissible migration candidates of a partition
        that is not overloaded: an interior vertex's gain toward every
        other partition is ``-d_v(home) <= 0``, which Algorithm 1 rejects
        unless the source may shed load at negative gain.
        """
        self._check_partition(partition)
        rows = self._member_rows(partition)
        boundary = rows[self._external_degrees(rows) > 0]
        return set(self._ids_of(boundary).tolist())

    def boundary_sizes(self) -> List[int]:
        rows = self._live_rows()
        boundary = rows[self._external_degrees(rows) > 0]
        return np.bincount(
            self._partition[boundary], minlength=self.num_partitions
        ).tolist()

    def vertices(self) -> Iterator[int]:
        return iter(self._ids_of(self._live_rows()).tolist())

    @property
    def num_vertices(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    # Capacity management (heterogeneous and elastic clusters)
    # ------------------------------------------------------------------
    @property
    def uniform_capacity(self) -> bool:
        """True while every partition has the default capacity 1.0 —
        balance queries then divide by the plain average weight (the
        historical expression, kept bit-identical) instead of the
        capacity-weighted target."""
        return self.capacities.count(1.0) == len(self.capacities)

    def capacity_of(self, partition: int) -> float:
        self._check_partition(partition)
        return self.capacities[partition]

    def set_capacity(self, partition: int, capacity: float) -> None:
        """Change one partition's relative capacity (0 = draining)."""
        self._check_partition(partition)
        check_capacity(capacity)
        self.capacities[partition] = capacity

    def add_partition(self, capacity: float = 1.0) -> int:
        """Grow the cluster by one (initially empty) partition.

        Returns the new partition's ID.  The counter matrix (and the heat
        overlay) gain a zero column: nobody has a neighbor there yet.
        """
        check_capacity(capacity)
        partition = self.num_partitions
        self.num_partitions += 1
        self.partition_weights.append(0.0)
        self.capacities.append(capacity)

        def widen(matrix: np.ndarray) -> np.ndarray:
            column = np.zeros((len(matrix), 1), dtype=matrix.dtype)
            return np.ascontiguousarray(np.hstack([matrix, column]))

        self._install(self._partition, self._weight, widen(self._counts))
        if self._heat is not None:
            self._heat = widen(self._heat)
        return partition

    def total_weight(self) -> float:
        return sum(self.partition_weights)

    def balance_targets(self) -> List[float]:
        """Capacity-weighted target weight per partition (fresh list)."""
        return capacity_targets(self.total_weight(), self.capacities)

    # ------------------------------------------------------------------
    # Balance queries (Algorithm 1 lines 2, 5 and 11)
    # ------------------------------------------------------------------
    def average_weight(self) -> float:
        # Python's left-to-right ``sum`` of the list: its rounding is part
        # of the pinned outputs (``np.sum`` adds pairwise).
        return sum(self.partition_weights) / self.num_partitions

    def imbalance_factor(self, partition: int, weight_delta: float = 0.0) -> float:
        """Ratio of (partition weight + delta) to its balance target.

        ``weight_delta`` expresses the hypotheticals of Algorithm 1:
        ``imbalance_factor(P - {v})`` passes ``-w(v)`` and
        ``imbalance_factor(P + {v})`` passes ``+w(v)``.  Total system
        weight — and hence every target — is unchanged by migrations.
        With uniform capacities the target is the plain average weight
        (the historical expression, kept byte-identical); otherwise it is
        the capacity-weighted share from :func:`capacity_targets`.
        """
        self._check_partition(partition)
        if self.uniform_capacity:
            average = self.average_weight()
            if average == 0:
                return 1.0
            return (self.partition_weights[partition] + weight_delta) / average
        return weighted_imbalance(
            self.partition_weights[partition] + weight_delta,
            self.balance_targets()[partition],
        )

    def is_overloaded(self, partition: int, epsilon: float) -> bool:
        return self.imbalance_factor(partition) > epsilon

    def is_underloaded(self, partition: int, epsilon: float) -> bool:
        return self.imbalance_factor(partition) < 2.0 - epsilon

    def max_imbalance(self) -> float:
        if self.uniform_capacity:
            average = self.average_weight()
            if average == 0:
                return 1.0
            return max(self.partition_weights) / average
        return max(
            weighted_imbalance(weight, target)
            for weight, target in zip(self.partition_weights, self.balance_targets())
        )

    # ------------------------------------------------------------------
    # Derived whole-system metrics (for instrumentation, not the algorithm)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Edges the counters describe: each is counted at both ends."""
        return int(self._counts[: self._used].sum()) // 2

    def edge_cut(self) -> int:
        """Edge-cut: ``sum d_ex(v) / 2`` as two reductions — every counter
        minus each live row's own-partition counter (a free row holds
        zero counts: :meth:`remove_vertex` requires it)."""
        rows = self._live_rows()
        own = self._counts[rows, self._partition[rows]]
        return int(self._counts[: self._used].sum() - own.sum()) // 2

    def memory_entries(self) -> Tuple[int, int]:
        """(non-zero counters, weight entries) — the information content.

        Theorem 2 bounds the amortized non-zero counters by
        ``n + Theta(alpha)``; the dense matrix trades those bytes for
        vectorised access (DESIGN.md §6 has the numbers).
        """
        return int(np.count_nonzero(self._counts)), self.num_partitions

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.num_partitions:
            raise PartitioningError(
                f"partition {partition} out of range [0, {self.num_partitions})"
            )
