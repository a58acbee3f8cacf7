"""Property tests: the two substrates are interchangeable.

Random graphs must round-trip losslessly between SocialGraph and
CompactGraph, and every consumer written against the read protocol
(streaming partitioners, quality metrics) must produce *identical*
outputs on both representations.  ``GraphBuilder.finalize`` must produce
the same arrays, dtypes included, as the ``np.unique`` + ``lexsort``
build it replaced, kept below as a test-local oracle.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import VertexNotFoundError
from repro.graph.adjacency import SocialGraph
from repro.graph.compact import CompactGraph, GraphBuilder, _neighbor_dtype
from repro.partitioning.base import Partitioning
from repro.partitioning.metrics import edge_cut, edge_cut_fraction, partition_weights
from repro.partitioning.streaming import FennelPartitioner, LinearDeterministicGreedy


@st.composite
def random_social_graph(draw):
    """A random small graph with weights; optionally non-contiguous IDs."""
    num_vertices = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    offset = draw(st.sampled_from([0, 0, 5, 1000]))
    stride = draw(st.sampled_from([1, 1, 3]))
    rng = random.Random(seed)
    graph = SocialGraph()
    ids = [offset + stride * i for i in range(num_vertices)]
    for vertex in ids:
        graph.add_vertex(vertex, weight=rng.choice([1.0, 2.0, 0.5]))
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if rng.random() < 0.2:
                graph.add_edge(u, v)
    return graph


def assert_same_graph(social: SocialGraph, compact: CompactGraph) -> None:
    assert compact.num_vertices == social.num_vertices
    assert compact.num_edges == social.num_edges
    assert list(compact.vertices()) == list(social.vertices())
    for vertex in social.vertices():
        assert compact.degree(vertex) == social.degree(vertex)
        assert compact.weight_of(vertex) == social.weight(vertex)
        assert sorted(int(w) for w in compact.neighbors_array(vertex)) == sorted(
            social.neighbors(vertex)
        )
    assert sorted(tuple(sorted(e)) for e in compact.edges()) == sorted(
        tuple(sorted(e)) for e in social.edges()
    )


@given(random_social_graph())
@settings(max_examples=60, deadline=None)
def test_round_trip_is_lossless(social):
    compact = CompactGraph.from_social(social)
    assert_same_graph(social, compact)
    back = compact.to_social()
    assert_same_graph(back, compact)
    # and a second hop changes nothing
    assert_same_graph(back, CompactGraph.from_social(back))


@given(random_social_graph())
@settings(max_examples=40, deadline=None)
def test_builder_from_edges_matches_social(social):
    vertices = list(social.vertices())
    compact = CompactGraph.from_edges(social.edges(), vertices=vertices)
    assert compact.num_vertices == social.num_vertices
    assert compact.num_edges == social.num_edges
    # builder order is sorted-by-ID, so compare per-vertex, not by order
    for vertex in vertices:
        assert sorted(int(w) for w in compact.neighbors_array(vertex)) == sorted(
            social.neighbors(vertex)
        )
        assert compact.has_edge(vertex, vertex) is False


@given(
    random_social_graph(),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_metrics_identical_on_both_substrates(social, num_partitions, seed):
    compact = CompactGraph.from_social(social)
    rng = random.Random(seed)
    partitioning = Partitioning(num_partitions)
    for vertex in social.vertices():
        partitioning.assign(vertex, rng.randrange(num_partitions))
    assert edge_cut(social, partitioning) == edge_cut(compact, partitioning)
    assert edge_cut_fraction(social, partitioning) == edge_cut_fraction(
        compact, partitioning
    )
    # identical accumulation order -> identical floats, not just isclose
    assert partition_weights(social, partitioning) == partition_weights(
        compact, partitioning
    )


@given(
    random_social_graph(),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_streaming_partitioners_identical_on_both_substrates(
    social, num_partitions, seed
):
    compact = CompactGraph.from_social(social)
    for make in (
        lambda: LinearDeterministicGreedy(seed=seed),
        lambda: FennelPartitioner(seed=seed),
    ):
        on_social = make().partition(social, num_partitions)
        on_compact = make().partition(compact, num_partitions)
        assert on_social.as_mapping() == on_compact.as_mapping()


# ----------------------------------------------------------------------
# The row contract: an intp copy of the sorted CSR row, fast path or not
# ----------------------------------------------------------------------
#: how a drawn start is spelled; the numpy ones take the checked path
START_TYPES = {"int": int, "int64": np.int64, "int32": np.int32}


@given(random_social_graph(), st.sampled_from(sorted(START_TYPES)), st.data())
@settings(max_examples=60, deadline=None)
def test_a_row_is_an_intp_copy_of_the_sorted_csr_slice(social, spelling, data):
    compact = CompactGraph.from_social(social)
    ids = compact.ids_column
    column = compact.neighbor_indices.copy()
    vertex = data.draw(st.sampled_from(list(social.vertices())))
    start = START_TYPES[spelling](vertex)
    index = compact.index_of(start)
    assert type(index) is int and index == compact.index_of(np.int64(vertex))
    lo, hi = compact.indptr[index], compact.indptr[index + 1]
    expected = column[lo:hi] if ids is None else ids[column[lo:hi]]

    row = compact.neighbors_array(start)
    assert row.dtype == np.intp
    assert row.tolist() == expected.tolist() == sorted(social.neighbors(vertex))
    row[:] = -1
    assert np.array_equal(compact.neighbor_indices, column)
    assert compact.neighbors_array(vertex).tolist() == expected.tolist()

    checked = np.int64(vertex)
    assert compact.degree(start) == compact.degree(checked) == len(expected)
    assert compact.weight_of(start) == compact.weight_of(checked) == social.weight(vertex)
    for other in social.vertices():
        assert compact.has_edge(start, other) == compact.has_edge(checked, other)
        assert compact.has_edge(start, other) == social.has_edge(vertex, other)


@given(random_social_graph(), st.data())
@settings(max_examples=40, deadline=None)
def test_a_start_that_is_no_vertex_id_is_refused_on_every_read(social, data):
    compact = CompactGraph.from_social(social)
    vertex = data.draw(st.sampled_from(list(social.vertices())))
    bad = data.draw(
        st.sampled_from(
            [
                True,
                False,
                float(vertex),
                str(vertex),
                -1,
                np.int64(-1),
                max(social.vertices()) + 1,
                np.int64(max(social.vertices()) + 1),
            ]
        )
    )
    for read in (
        compact.neighbors_array,
        compact.degree,
        compact.weight_of,
        compact.index_of,
    ):
        with pytest.raises(VertexNotFoundError):
            read(bad)
    assert compact.has_edge(bad, vertex) is False
    assert compact.has_edge(vertex, bad) is False


# ----------------------------------------------------------------------
# Differential: GraphBuilder.finalize against the np.unique/lexsort build
# ----------------------------------------------------------------------
def reference_finalize(src, dst, explicit, weights_by_id, default_weight):
    """The earlier finalize, kept as the oracle: ``np.unique`` interning,
    ``np.unique`` on the packed pair keys, ``lexsort`` for the rows.
    Returns ``(indptr, neighbors, weights, ids)``."""
    extra = np.asarray(list(explicit), dtype=np.int64)
    all_ids = np.concatenate([src, dst, extra])
    ids, inverse = np.unique(all_ids, return_inverse=True)
    n = len(ids)
    si = inverse[: len(src)]
    di = inverse[len(src) : 2 * len(src)]
    identity = bool(n == 0 or (int(ids[0]) == 0 and int(ids[-1]) == n - 1))

    lo = np.minimum(si, di)
    hi = np.maximum(si, di)
    if n:
        key = lo.astype(np.uint64) * np.uint64(n) + hi.astype(np.uint64)
        key = np.unique(key)
        lo = (key // np.uint64(n)).astype(np.int64)
        hi = (key % np.uint64(n)).astype(np.int64)

    dtype = _neighbor_dtype(n)
    heads = np.concatenate([lo, hi]).astype(dtype, copy=False)
    tails = np.concatenate([hi, lo]).astype(dtype, copy=False)
    counts = np.bincount(heads, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.lexsort((tails, heads))
    nbr = np.ascontiguousarray(tails[order])

    weights = np.full(n, default_weight, dtype=np.float64)
    if weights_by_id:
        if identity:
            for vertex, weight in weights_by_id.items():
                weights[vertex] = weight
        else:
            positions = {int(v): i for i, v in enumerate(ids)}
            for vertex, weight in weights_by_id.items():
                weights[positions[vertex]] = weight
    id_column = None if identity else ids.astype(np.int64, copy=False)
    return indptr, nbr, weights, id_column


#: vertex-ID spaces by name: k IDs each
ID_SPACES = {
    "dense": lambda k: list(range(k)),
    "gapped": lambda k: [i + i // 3 for i in range(k)],
    "negative": lambda k: [i - k // 2 for i in range(k)],
    "huge": lambda k: [2**40 + 7 * i for i in range(k)],
}


@st.composite
def builder_script(draw):
    """``(pairs, isolated, weighted, batched, default_weight)`` over one
    ID space, with self-loops and duplicates in both orientations."""
    space = draw(st.sampled_from(sorted(ID_SPACES)))
    ids = ID_SPACES[space](draw(st.integers(min_value=0, max_value=24)))
    pairs, isolated, weighted = [], [], []
    if ids:
        vertex = st.sampled_from(ids)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
        echo = draw(st.integers(min_value=0, max_value=len(pairs)))
        pairs += [(v, u) for u, v in pairs[:echo]]
        isolated = draw(st.lists(vertex, max_size=6))
        weight = st.floats(min_value=0.0, max_value=100.0)
        weighted = draw(st.lists(st.tuples(vertex, weight), max_size=6))
    batched = draw(st.booleans())
    default_weight = draw(st.sampled_from([1.0, 0.5, 3.25]))
    return pairs, isolated, weighted, batched, default_weight


def run_both(script):
    """Finalize the script through GraphBuilder and through the oracle."""
    pairs, isolated, weighted, batched, default_weight = script
    builder = GraphBuilder(default_weight=default_weight)
    for vertex in isolated:
        builder.ensure_vertex(vertex)
    for vertex, weight in weighted:
        builder.set_weight(vertex, weight)
    if batched:
        half = len(pairs) // 2
        for chunk in (pairs[:half], pairs[half:]):
            builder.add_edge_batch(
                np.array([u for u, _ in chunk], dtype=np.int64),
                np.array([v for _, v in chunk], dtype=np.int64),
            )
    else:
        for u, v in pairs:
            builder.add_edge(u, v)
    graph = builder.finalize()

    kept = [(u, v) for u, v in pairs if u != v]
    expected = reference_finalize(
        np.array([u for u, _ in kept], dtype=np.int64),
        np.array([v for _, v in kept], dtype=np.int64),
        dict.fromkeys(isolated + [vertex for vertex, _ in weighted]),
        dict(weighted),
        default_weight,
    )
    return graph, expected


def test_finalize_matches_unique_lexsort_reference():
    """Identical arrays and dtypes on every generated builder, and the
    generated builders reach both sides of the identity check: IDs that
    are exactly ``0..n-1``, and IDs that pass the range test but leave a
    gap (presence column built, then the ``np.unique`` path)."""
    seen = set()

    @given(builder_script())
    @example(([], [], [], False, 1.0))  # empty builder
    @example(([], [0, 1, 3], [(1, 2.0)], False, 1.0))  # vertices only
    @example(([(0, 2), (2, 0), (2, 2)], [], [], True, 1.0))  # presence gap
    @example(([(0, 1), (1, 0), (2, 2), (1, 2)], [3], [(0, 4.0)], False, 1.0))
    @settings(max_examples=200, deadline=None)
    def differential(script):
        graph, expected = run_both(script)
        actual = (
            graph.indptr,
            graph.neighbor_indices,
            graph.weights_column,
            graph.ids_column,
        )
        for got, want in zip(actual, expected):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        if not graph.num_vertices:
            return
        if graph.ids_column is None:
            seen.add("identity")
            return
        pairs, isolated, weighted, _, _ = script
        endpoints = [x for u, v in pairs if u != v for x in (u, v)]
        explicit = set(isolated) | {vertex for vertex, _ in weighted}
        ids = endpoints + list(explicit)
        if min(ids) == 0 and max(ids) < len(ids):
            seen.add("presence gap")

    differential()
    assert seen == {"identity", "presence gap"}
