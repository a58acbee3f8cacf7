"""Array-backed CSR graph substrate for million-vertex workloads.

:class:`~repro.graph.adjacency.SocialGraph`'s dict-of-sets adjacency is
convenient for the mutable simulator but memory- and cache-hostile at
scale: every neighbor is a boxed ``int`` object inside a per-vertex hash
table.  This module provides the compact counterpart the ROADMAP's
million-user target needs:

* :class:`CompactGraph` — an immutable Compressed Sparse Row (CSR)
  adjacency: one ``int64`` index array of length ``n + 1``, one
  ``int32``/``int64`` neighbor array of length ``2m`` whose rows are
  sorted (binary-search :meth:`~CompactGraph.has_edge` in O(log d),
  :meth:`~CompactGraph.neighbors_array` one slice copied out as ``intp``),
  and a parallel ``float64`` vertex-weight column.  ~12-16 bytes per vertex
  and ~8-16 bytes per undirected edge, versus hundreds for dict-of-sets.
* :class:`GraphBuilder` — a mutable ingestion buffer that accepts
  streamed edges (scalar or whole numpy batches), then finalizes to CSR
  with two in-place sorts of packed ``uint64`` pair keys (one to dedup,
  one to order the rows) and two bincounts, with the same silent dedup +
  self-loop-skip semantics as :meth:`SocialGraph.from_edges`.
* lossless converters in both directions
  (:meth:`CompactGraph.from_social` / :meth:`CompactGraph.to_social`).

Both representations implement the same **read protocol**
(:class:`GraphRead`): ``vertices() / num_vertices / num_edges /
neighbors_array(v) / neighbor_batch(vs) / degree(v) / weight_of(v) /
has_edge(u, v) / edges()``.  The multilevel partitioner, the
repartitioner, the streaming partitioners and the quality metrics are
written against this protocol, so they run on either substrate and —
because the protocol fixes vertex order and per-vertex values, not
container internals — produce identical outputs on both.

Vertex identity: external code always speaks *vertex IDs* (arbitrary
ints).  Internally vertices live at dense indices ``0..n-1``; when the
IDs are exactly ``0..n-1`` in order (the generators' and builders' common
case) the mapping is the identity, and a plain in-range ``int`` is its
own index with no check beyond its type and range.
"""

from __future__ import annotations

import math
import operator
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

try:
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

import numpy as np

from repro.exceptions import (
    DuplicateVertexError,
    GraphError,
    VertexNotFoundError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.adjacency import SocialGraph


@runtime_checkable
class GraphRead(Protocol):
    """The read surface shared by :class:`SocialGraph` and :class:`CompactGraph`.

    Anything consuming a graph read-only (partitioners, metrics, the
    auxiliary-data bootstrap, statistics) should accept this protocol
    rather than a concrete class.
    """

    @property
    def num_vertices(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def vertices(self) -> Iterator[int]: ...

    def neighbors_array(self, vertex: int) -> Sequence[int]: ...

    def neighbor_batch(self, vertices: Sequence) -> Tuple[np.ndarray, np.ndarray]: ...

    def degree(self, vertex: int) -> int: ...

    def weight_of(self, vertex: int) -> float: ...

    def has_edge(self, u: int, v: int) -> bool: ...

    def edges(self) -> Iterator[Tuple[int, int]]: ...


def _neighbor_dtype(num_vertices: int):
    """Smallest integer dtype that can index ``num_vertices`` vertices."""
    return np.int32 if num_vertices <= np.iinfo(np.int32).max else np.int64


def _vertex_id(vertex) -> int:
    """``vertex`` as a python int; non-integral IDs are a :class:`GraphError`."""
    try:
        return operator.index(vertex)
    except TypeError:
        raise GraphError(f"vertex IDs must be integers, got {vertex!r}") from None


def _checked_weight(weight) -> float:
    """``weight`` as a float; negative or non-finite is a :class:`GraphError`."""
    weight = float(weight)
    if not math.isfinite(weight) or weight < 0:
        raise GraphError(f"vertex weight must be finite and non-negative, got {weight}")
    return weight


def _intern(all_ids: np.ndarray) -> Tuple[int, Optional[np.ndarray], np.ndarray]:
    """``(n, ids, inverse)``: dense indices for a column of vertex IDs.

    When the IDs are exactly ``0..n-1`` — decided by one boolean presence
    column, built only when ``min == 0`` and ``max < len(all_ids)`` so its
    size is bounded by the input — ``ids`` is None and the column is its
    own inverse.  Otherwise ``ids`` is the sorted unique IDs and
    ``inverse`` maps every entry to its position there (the only path
    that serves gapped, negative or SNAP IDs).
    """
    if not len(all_ids):
        return 0, None, all_ids
    high = int(all_ids.max())
    if int(all_ids.min()) == 0 and high < len(all_ids):
        present = np.zeros(high + 1, dtype=bool)
        present[all_ids] = True
        if present.all():
            return high + 1, None, all_ids
    ids, inverse = np.unique(all_ids, return_inverse=True)
    return len(ids), ids, inverse


class CompactGraph:
    """Immutable CSR adjacency with a float vertex-weight column.

    Construct through :class:`GraphBuilder`, :meth:`from_social` or
    :meth:`from_edges`; the raw constructor takes already-validated
    arrays and is intended for internal use.

    Example
    -------
    >>> g = CompactGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 3)
    >>> list(g.neighbors_array(0))
    [1, 2]
    >>> g.has_edge(0, 2), g.has_edge(1, 3)
    (True, False)
    """

    __slots__ = ("_indptr", "_nbr", "_weights", "_ids", "_index")

    DEFAULT_WEIGHT = 1.0

    def __init__(
        self,
        indptr: np.ndarray,
        neighbors: np.ndarray,
        weights: np.ndarray,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        n = len(indptr) - 1
        if len(weights) != n:
            raise GraphError(
                f"weight column has {len(weights)} entries for {n} vertices"
            )
        if ids is not None and len(ids) != n:
            raise GraphError(f"id column has {len(ids)} entries for {n} vertices")
        self._indptr = indptr
        self._nbr = neighbors
        self._weights = weights
        #: index -> external vertex ID; None means the identity mapping
        self._ids = ids
        #: external vertex ID -> index, built lazily for non-identity graphs
        self._index: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        vertices: Optional[Iterable[int]] = None,
        default_weight: float = DEFAULT_WEIGHT,
    ) -> "CompactGraph":
        """CSR analogue of :meth:`SocialGraph.from_edges` (silent dedup)."""
        builder = GraphBuilder(default_weight=default_weight)
        if vertices is not None:
            for vertex in vertices:
                builder.ensure_vertex(vertex)
        for u, v in edges:
            builder.add_edge(u, v)
        return builder.finalize()

    @classmethod
    def from_social(cls, graph: "SocialGraph") -> "CompactGraph":
        """Lossless conversion preserving vertex order, weights and edges."""
        order = list(graph.vertices())
        n = len(order)
        identity = all(vertex == index for index, vertex in enumerate(order))
        index_of = (
            None if identity else {vertex: i for i, vertex in enumerate(order)}
        )
        weights = np.fromiter(
            (graph.weight(v) for v in order), dtype=np.float64, count=n
        )
        dtype = _neighbor_dtype(n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, vertex in enumerate(order):
            indptr[i + 1] = graph.degree(vertex)
        np.cumsum(indptr, out=indptr)
        nbr = np.empty(int(indptr[-1]), dtype=dtype)
        cursor = indptr[:-1].copy()
        for i, vertex in enumerate(order):
            row = graph.neighbors(vertex)
            if index_of is not None:
                row = [index_of[w] for w in row]
            row = np.sort(np.fromiter(row, dtype=dtype, count=len(row)))
            nbr[cursor[i] : cursor[i] + len(row)] = row
            cursor[i] += len(row)
        ids = None if identity else np.asarray(order, dtype=np.int64)
        return cls(indptr, nbr, weights, ids)

    def to_social(self) -> "SocialGraph":
        """Materialize back into a mutable dict-of-sets :class:`SocialGraph`."""
        from repro.graph.adjacency import SocialGraph

        graph = SocialGraph()
        for index in range(self.num_vertices):
            graph.add_vertex(self._id_of(index), weight=float(self._weights[index]))
        indptr = self._indptr
        nbr = self._nbr
        for index in range(self.num_vertices):
            u = self._id_of(index)
            for j in range(int(indptr[index]), int(indptr[index + 1])):
                other = int(nbr[j])
                if other > index:
                    graph.add_edge(u, self._id_of(other))
        return graph

    # ------------------------------------------------------------------
    # Identity / index mapping
    # ------------------------------------------------------------------
    def _id_of(self, index: int) -> int:
        return index if self._ids is None else int(self._ids[index])

    def _index_of(self, vertex: int) -> int:
        # A plain in-range int on an identity graph is its own index.
        if type(vertex) is int and self._ids is None and 0 <= vertex < len(self._weights):
            return vertex
        # A bool, float or string is no vertex id, even where it equals one.
        if type(vertex) is not int and not isinstance(vertex, np.integer):
            raise VertexNotFoundError(vertex)
        if self._ids is None:
            if 0 <= vertex < self.num_vertices:
                return int(vertex)
            raise VertexNotFoundError(vertex)
        if self._index is None:
            self._index = {int(v): i for i, v in enumerate(self._ids)}
        try:
            return self._index[int(vertex)]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    # ------------------------------------------------------------------
    # Read protocol
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self._nbr) // 2

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, vertex: int) -> bool:
        try:
            self._index_of(vertex)
        except VertexNotFoundError:
            return False
        return True

    def vertices(self) -> Iterator[int]:
        if self._ids is None:
            return iter(range(self.num_vertices))
        return iter(self._ids.tolist())

    def neighbors_array(self, vertex: int) -> np.ndarray:
        """The vertex's neighbor IDs as a sorted ``intp`` array of its own.

        For identity-mapped graphs the ``int32`` CSR row is copied out as
        ``intp``, so a consumer's gather (``weights_column[row]``) takes
        numpy's direct path instead of casting the index; otherwise IDs
        are materialized (``int64``) through the id column.
        """
        index = self._index_of(vertex)
        row = self._nbr[self._indptr[index] : self._indptr[index + 1]]
        if self._ids is None:
            return row.astype(np.intp)
        return self._ids[row]

    # The protocol's array accessor doubles as the plain accessor: the
    # returned ndarray iterates like any neighbor collection.
    neighbors = neighbors_array

    def neighbor_batch(self, vertices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, lengths)``, both ``int64``: the sorted rows of
        ``vertices`` concatenated, in one ``indptr`` gather, and their lengths."""
        ids = np.asarray(vertices)
        if len(ids) and ids.dtype.kind not in "iu":  # one check per batch
            raise VertexNotFoundError(ids[0].item())
        if self._ids is None:
            index = ids.astype(np.int64)
            outside = (index < 0) | (index >= self.num_vertices)
            if outside.any():
                raise VertexNotFoundError(int(index[outside][0]))
        else:
            index = np.fromiter(map(self._index_of, ids.tolist()), dtype=np.int64)
        starts = self._indptr[index]
        lengths = self._indptr[index + 1] - starts
        # Output slot j of row i reads CSR slot starts[i] + (j - offset[i]).
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        row = self._nbr[shift + np.arange(len(shift))]
        neighbor_ids = row.astype(np.int64) if self._ids is None else self._ids[row]
        return neighbor_ids, lengths

    def degree(self, vertex: int) -> int:
        index = self._index_of(vertex)
        return int(self._indptr[index + 1] - self._indptr[index])

    def weight_of(self, vertex: int) -> float:
        return float(self._weights[self._index_of(vertex)])

    # SocialGraph compatibility alias
    weight = weight_of

    def has_edge(self, u: int, v: int) -> bool:
        """Binary search in the sorted CSR row of ``u``: O(log d)."""
        try:
            iu = self._index_of(u)
            iv = self._index_of(v)
        except VertexNotFoundError:
            return False
        lo, hi = int(self._indptr[iu]), int(self._indptr[iu + 1])
        pos = lo + int(np.searchsorted(self._nbr[lo:hi], iv))
        return pos < hi and int(self._nbr[pos]) == iv

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once, in CSR row order."""
        indptr = self._indptr
        nbr = self._nbr
        for index in range(self.num_vertices):
            u = self._id_of(index)
            for j in range(int(indptr[index]), int(indptr[index + 1])):
                other = int(nbr[j])
                if other > index:
                    yield (u, self._id_of(other))

    # ------------------------------------------------------------------
    # Weights (the one mutable column)
    # ------------------------------------------------------------------
    def set_weight(self, vertex: int, weight: float) -> None:
        self._weights[self._index_of(vertex)] = _checked_weight(weight)

    def total_weight(self) -> float:
        return float(self._weights.sum())

    # ------------------------------------------------------------------
    # Raw columns (experiments / vectorized consumers)
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """CSR row index, ``int64[n + 1]`` (do not mutate)."""
        return self._indptr

    @property
    def neighbor_indices(self) -> np.ndarray:
        """CSR neighbor column in *index* space, rows sorted (do not mutate)."""
        return self._nbr

    @property
    def weights_column(self) -> np.ndarray:
        """``float64[n]`` vertex weights in index order."""
        return self._weights

    @property
    def ids_column(self) -> Optional[np.ndarray]:
        """``int64[n]`` index -> vertex ID, or None for the identity map."""
        return self._ids

    def index_of(self, vertex: int) -> int:
        """Dense index of a vertex ID (identity graphs: the ID itself)."""
        return self._index_of(vertex)

    def memory_bytes(self) -> int:
        """Exact bytes held by the CSR arrays (index + neighbors + weights)."""
        total = self._indptr.nbytes + self._nbr.nbytes + self._weights.nbytes
        if self._ids is not None:
            total += self._ids.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"CompactGraph(vertices={self.num_vertices}, edges={self.num_edges}, "
            f"bytes={self.memory_bytes()})"
        )


class GraphBuilder:
    """Mutable edge buffer that finalizes into a :class:`CompactGraph`.

    Designed for *streaming ingestion*: edges arrive one at a time
    (:meth:`add_edge`) or in whole numpy batches (:meth:`add_edge_batch`)
    and are only buffered — the CSR layout is built in a few vectorized
    passes at :meth:`finalize`.  Nothing here is ever a per-vertex python
    container, so peak memory stays proportional to the raw edge count.

    Semantics match :meth:`SocialGraph.from_edges`: self-loops are
    skipped, duplicate edges (in either orientation) are deduplicated
    silently, endpoints are added on demand with ``default_weight``.

    Vertex order of the finalized graph is **sorted by vertex ID** (for
    the common contiguous ``0..n-1`` ID space this equals insertion
    order and finalizes to the identity mapping).
    """

    __slots__ = (
        "_chunks_src",
        "_chunks_dst",
        "_pend_src",
        "_pend_dst",
        "_explicit",
        "_weights",
        "default_weight",
        "_finalized",
    )

    #: scalar add_edge calls are compacted into an int64 chunk this often,
    #: keeping the per-edge ingestion path free of unbounded boxed-int lists
    SCALAR_CHUNK = 1 << 16

    def __init__(self, default_weight: float = CompactGraph.DEFAULT_WEIGHT):
        self._chunks_src: list = []  # np.int64 array chunks
        self._chunks_dst: list = []
        self._pend_src: list = []  # scalars awaiting compaction
        self._pend_dst: list = []
        self._explicit: Dict[int, None] = {}  # ordered set of bare vertices
        self._weights: Dict[int, float] = {}
        self.default_weight = default_weight
        self._finalized = False

    def _check_open(self) -> None:
        if self._finalized:
            raise GraphError("GraphBuilder already finalized")

    def add_vertex(self, vertex: int, weight: Optional[float] = None) -> None:
        """Register an (possibly isolated) vertex, optionally with a weight."""
        self._check_open()
        vertex = _vertex_id(vertex)
        if vertex in self._explicit:
            raise DuplicateVertexError(vertex)
        self.ensure_vertex(vertex, weight)

    def ensure_vertex(self, vertex: int, weight: Optional[float] = None) -> None:
        """Like :meth:`add_vertex` but idempotent."""
        self._check_open()
        vertex = _vertex_id(vertex)
        if weight is not None:
            self._weights[vertex] = _checked_weight(weight)
        self._explicit[vertex] = None

    def set_weight(self, vertex: int, weight: float) -> None:
        self.ensure_vertex(vertex, _checked_weight(weight))

    def add_edge(self, u: int, v: int) -> None:
        """Buffer one undirected edge; endpoints are created on demand."""
        self._check_open()
        u, v = _vertex_id(u), _vertex_id(v)
        if u == v:
            return
        self._pend_src.append(u)
        self._pend_dst.append(v)
        if len(self._pend_src) >= self.SCALAR_CHUNK:
            self._compact_pending()

    def _compact_pending(self) -> None:
        if self._pend_src:
            self._chunks_src.append(np.asarray(self._pend_src, dtype=np.int64))
            self._chunks_dst.append(np.asarray(self._pend_dst, dtype=np.int64))
            self._pend_src = []
            self._pend_dst = []

    def add_edge_batch(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Buffer a whole batch of edges (the streaming-ingestion fast path).

        ``src``/``dst`` are equal-length integer arrays; self-loops are
        filtered vectorized, duplicates fall to finalize-time dedup.
        """
        self._check_open()
        src, dst = np.asarray(src), np.asarray(dst)
        if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
            raise GraphError(
                f"edge batch IDs must be integer arrays, got {src.dtype} and {dst.dtype}"
            )
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError(
                f"edge batch arrays must be equal-length 1-D, got "
                f"{src.shape} and {dst.shape}"
            )
        src = src.astype(np.int64, copy=False)
        dst = dst.astype(np.int64, copy=False)
        keep = src != dst
        if not keep.all():
            src, dst = src[keep], dst[keep]
        if len(src):
            self._chunks_src.append(src)
            self._chunks_dst.append(dst)

    @property
    def buffered_edges(self) -> int:
        """Edges buffered so far (before dedup)."""
        return sum(len(c) for c in self._chunks_src) + len(self._pend_src)

    # ------------------------------------------------------------------
    def finalize(self) -> CompactGraph:
        """Build the CSR graph with two in-place sorts of packed pair keys.

        1. **Intern**: every endpoint and explicit vertex becomes a dense
           index (:func:`_intern`; IDs that are exactly ``0..n-1`` are
           their own indices and finalize to the identity mapping).
        2. **Dedup**: each undirected pair packs into one ``uint64`` key
           ``lo * n + hi``; the keys are sorted in place and the first key
           of each run is kept.
        3. **Rows**: row lengths are ``bincount(lo) + bincount(hi)``; the
           kept keys and their reversals ``hi * n + lo`` are sorted in
           place, which groups them by row with each row's neighbors
           ascending, and ``key mod n`` is the neighbor column.

        Keys are unique and self-loops never reach the buffer, so the
        order is fully determined and equals a ``lexsort`` by (row,
        neighbor).  An in-place sort of the packed keys costs a small
        fraction of ``np.unique`` or ``lexsort`` over the same pairs
        (DESIGN.md §10).  Each temporary is dropped as soon as it is
        consumed, so on identity-mapped IDs the working set is about 26
        bytes per buffered edge.
        """
        self._check_open()
        self._finalized = True
        self._compact_pending()
        m = self.buffered_edges
        extra = np.fromiter(self._explicit, dtype=np.int64, count=len(self._explicit))
        all_ids = np.concatenate(self._chunks_src + self._chunks_dst + [extra])
        self._chunks_src = []
        self._chunks_dst = []
        n, ids, inverse = _intern(all_ids)
        del all_ids
        width = np.uint64(n)

        # Dedup: one packed key per buffered pair, sorted, first of each run.
        src, dst = inverse[:m], inverse[m : 2 * m]
        key = np.minimum(src, dst).view(np.uint64)
        key *= width
        key += np.maximum(src, dst, out=src).view(np.uint64)
        del inverse, src, dst
        key.sort()
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key = key[first]
        del first

        # Rows: both orientations of every pair, sorted as (row, neighbor).
        edges = len(key)
        both = np.empty(2 * edges, dtype=np.uint64)
        both[:edges] = key
        del key
        lo, hi = np.divmod(both[:edges], width, out=(None, both[edges:]))
        counts = np.bincount(lo.view(np.int64), minlength=n)
        counts += np.bincount(hi.view(np.int64), minlength=n)
        hi *= width
        hi += lo
        del lo, hi
        both.sort()
        nbr = np.remainder(both, width, out=both).astype(_neighbor_dtype(n))
        del both
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        weights = np.full(n, self.default_weight, dtype=np.float64)
        if self._weights:
            at = np.fromiter(self._weights, dtype=np.int64, count=len(self._weights))
            weights[at if ids is None else np.searchsorted(ids, at)] = list(
                self._weights.values()
            )
        return CompactGraph(indptr, nbr, weights, ids)
