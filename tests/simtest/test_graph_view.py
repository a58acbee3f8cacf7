"""Differential test: the cluster's graph view against the runner's reference.

``cluster.graph`` holds no adjacency of its own: it reads the catalog,
each home server's adjacency view and the auxiliary data.  The simtest
runner keeps the oracle — the scenario's input graph plus every write
the cluster reported done.  Under the seeded schedules of seeds 0-29,
serial and with membership churn forced, the view must describe exactly
the reference graph before the first step and after every step: the
vertices in order, each vertex's sorted neighbours (singly and as one
batch), ``has_edge`` on sampled present and absent pairs, the edge set
and count, and each weight equal to the auxiliary data's.
"""

import random

import pytest

from repro.simtest import ScenarioGenerator, ScenarioRunner, build_cluster, build_graph

SEEDS = range(30)
SAMPLES = 16


def assert_view_matches(cluster, reference, rng):
    view = cluster.graph
    vertices = list(view.vertices())
    assert vertices == list(reference.vertices())
    assert view.num_vertices == len(vertices)
    assert view.num_edges == reference.num_edges
    ids, lengths = view.neighbor_batch(vertices)
    start = 0
    for vertex, length in zip(vertices, lengths.tolist()):
        row = list(view.neighbors(vertex))
        assert ids[start : start + length].tolist() == row
        assert sorted(row) == sorted(reference.neighbors(vertex))
        assert view.degree(vertex) == length
        assert view.weight_of(vertex) == cluster.aux.weight_of(vertex)
        start += length
    edges = {frozenset(edge) for edge in view.edges()}
    assert len(edges) == reference.num_edges
    assert edges == {frozenset(edge) for edge in reference.edges()}
    present = sorted(tuple(sorted(edge)) for edge in edges)
    for u, v in rng.sample(present, min(SAMPLES, len(present))):
        assert view.has_edge(u, v) and view.has_edge(v, u)
    absent = 0
    while absent < SAMPLES and len(vertices) > 1:
        u, v = rng.sample(vertices, 2)
        if not reference.has_edge(u, v):
            assert not view.has_edge(u, v)
            absent += 1
    assert not view.has_edge(max(vertices, default=0) + 1, vertices[0])


@pytest.mark.parametrize("mode", ["serial", "elasticity"])
@pytest.mark.parametrize("seed", SEEDS)
def test_the_view_describes_the_reference_graph_after_every_step(seed, mode):
    if mode == "serial":
        spec, schedule = ScenarioGenerator(seed).generate(concurrency=False)
    else:
        spec, schedule = ScenarioGenerator(seed).generate(elasticity=True)
    runner = ScenarioRunner()
    cluster = build_cluster(spec)
    reference = build_graph(spec)
    rng = random.Random(seed)
    assert_view_matches(cluster, reference, rng)
    for step in schedule:
        runner._apply(cluster, step, reference)
        assert_view_matches(cluster, reference, rng)
