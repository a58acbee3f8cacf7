"""Micro-benchmarks of the performance-critical primitives.

Unlike the table/figure benches (single-shot experiment pipelines), these
are classic multi-round pytest benchmarks of the hot paths: auxiliary-data
maintenance, candidate selection, one repartitioner iteration,
record-store operations, a distributed traversal, and the durable write,
migration and recovery paths.
"""

import random

import pytest

from repro.cluster.hermes import HermesCluster
from repro.core.auxiliary import AuxiliaryData
from repro.core.candidates import STAGE_LOW_TO_HIGH, get_target_partition
from repro.core.config import RepartitionerConfig
from repro.core.migration import build_migration_plan
from repro.core.repartitioner import LightweightRepartitioner
from repro.graph.compact import GraphBuilder
from repro.graph.generators import (
    compact_powerlaw_graph,
    make_dataset,
    orkut_like,
    powerlaw_edge_stream,
)
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.storage.graph_store import GraphStore
from repro.storage.relationship_store import RelationshipRecord, RelationshipStore


@pytest.fixture(scope="module")
def dataset():
    return orkut_like(n=1000, seed=3)


@pytest.fixture(scope="module")
def partitioned(dataset):
    partitioning = HashPartitioner().partition(dataset.graph, 8)
    aux = AuxiliaryData.from_graph(dataset.graph, partitioning)
    return dataset.graph, partitioning, aux


def test_bench_aux_bootstrap(benchmark, dataset):
    partitioning = HashPartitioner().partition(dataset.graph, 8)
    benchmark(AuxiliaryData.from_graph, dataset.graph, partitioning)


def test_bench_candidate_selection(benchmark, partitioned):
    graph, _, aux = partitioned
    vertices = list(graph.vertices())[:200]

    def select():
        return sum(
            1
            for vertex in vertices
            if get_target_partition(aux, vertex, STAGE_LOW_TO_HIGH, 1.1)[0]
            is not None
        )

    benchmark(select)


def test_bench_selection_full_scan_reference(benchmark, partitioned):
    """Pre-optimization candidate selection: every hosted vertex of the
    source partition is evaluated through the reference Algorithm 1.
    Kept as the comparison baseline for the engine's selection below."""
    graph, _, aux = partitioned

    def select_full():
        total = 0
        average = aux.average_weight()
        for source in range(aux.num_partitions):
            for vertex in sorted(aux.vertices_in(source)):
                target, _ = get_target_partition(
                    aux, vertex, STAGE_LOW_TO_HIGH, 1.1, average
                )
                if target is not None:
                    total += 1
        return total

    benchmark(select_full)


def test_bench_selection_boundary_scan(benchmark, partitioned):
    """The engine's candidate selection: Algorithm 1 evaluated for each
    source partition at once over its rows of the count matrix."""
    graph, _, aux = partitioned
    config = RepartitionerConfig(k=10)
    repartitioner = LightweightRepartitioner(config)
    k = config.effective_k(graph.num_vertices)

    def select_boundary():
        total = 0
        for source in range(aux.num_partitions):
            total += len(
                repartitioner._select_candidates(aux, source, STAGE_LOW_TO_HIGH, k)
            )
        return total

    benchmark(select_boundary)


@pytest.fixture(scope="module")
def csr_20k():
    graph = compact_powerlaw_graph(20_000, seed=3)
    return graph, HashPartitioner(salt=3).partition(graph, 8)


def test_bench_finalize(benchmark):
    """CSR build from a buffered 20 000-vertex stream (160 K edges):
    interning, dedup and row ordering, two in-place key sorts."""
    batches = list(powerlaw_edge_stream(20_000, seed=3))

    def buffered():
        builder = GraphBuilder()
        builder.ensure_vertex(0)
        for src, dst in batches:
            builder.add_edge_batch(src, dst)
        return (builder,), {}

    graph = benchmark.pedantic(
        GraphBuilder.finalize, setup=buffered, rounds=10, iterations=1
    )
    assert graph.num_vertices == 20_000 and graph.ids_column is None


def test_bench_csr_row_read(benchmark, csr_20k):
    """One 64-vertex frontier on the 20 000-vertex CSR graph: each row
    read (an ``intp`` copy) and its neighbours' weights gathered."""
    graph, _ = csr_20k
    frontier = random.Random(3).sample(range(graph.num_vertices), 64)
    weights = graph.weights_column

    def read():
        return sum(len(weights[graph.neighbors_array(vertex)]) for vertex in frontier)

    assert benchmark(read) == sum(graph.degree(vertex) for vertex in frontier)


def test_bench_aux_bootstrap_csr(benchmark, csr_20k):
    """Auxiliary-data bootstrap from a 20 000-vertex CSR graph."""
    benchmark.pedantic(AuxiliaryData.from_graph, args=csr_20k, rounds=5, iterations=1)


def test_bench_phase1_stage(benchmark, csr_20k):
    """One stage at n=20 000: eight selections, then the chosen moves
    (k=200 per partition) gathered and applied to the auxiliary data."""
    graph, partitioning = csr_20k
    repartitioner = LightweightRepartitioner()

    def fresh():
        aux = AuxiliaryData.from_graph(graph, partitioning)
        return (graph, aux, STAGE_LOW_TO_HIGH, 200, set()), {}

    moved = benchmark.pedantic(
        repartitioner._run_stage, setup=fresh, rounds=5, iterations=1
    )
    assert moved > 1000


def test_bench_phase1_end_to_end(benchmark):
    """End-to-end phase-1 run at n=5000 / 8 partitions, seed 21, k=10,
    60 iterations.  Not BENCH_repartitioner.json's workload (seed 42, 50
    iterations, default k): that one is timed by
    ``test_bench_telemetry.py::test_bench_phase1_default_telemetry``."""
    dataset = orkut_like(n=5000, seed=21)
    graph = dataset.graph

    def phase1():
        partitioning = HashPartitioner(salt=21).partition(graph, 8)
        config = RepartitionerConfig(k=10, max_iterations=60)
        return LightweightRepartitioner(config).run(graph, partitioning)

    benchmark.pedantic(phase1, rounds=3, iterations=1)


def test_bench_logical_move(benchmark, partitioned):
    graph, _, aux = partitioned
    rng = random.Random(1)
    vertices = list(graph.vertices())

    def move():
        vertex = rng.choice(vertices)
        target = rng.randrange(8)
        aux.apply_move(vertex, target, graph.neighbors(vertex))

    benchmark(move)


def test_bench_repartitioner_iteration(benchmark, dataset):
    def one_iteration():
        partitioning = HashPartitioner().partition(dataset.graph, 8)
        config = RepartitionerConfig(k=10, max_iterations=1)
        return LightweightRepartitioner(config).run(dataset.graph, partitioning)

    benchmark.pedantic(one_iteration, rounds=3, iterations=1)


def test_bench_multilevel_partition(benchmark, dataset):
    partitioner = MultilevelPartitioner(seed=5)
    benchmark.pedantic(
        partitioner.partition, args=(dataset.graph, 8), rounds=3, iterations=1
    )


def test_bench_record_fields(benchmark):
    """One checked record access (``fields``: index probe, in-place
    unpack, in-use and id checks) at random over a 2 700-record
    relationship store — one server's share in the end-to-end benchmark —
    with ids striped over 8 servers, as a server allocates them."""
    store = RelationshipStore()
    rel_ids = list(range(0, 8 * 2700, 8))
    for rel_id in rel_ids:
        store.write(RelationshipRecord(rel_id=rel_id, src=rel_id, dst=rel_id + 1))
    rng = random.Random(3)

    assert benchmark(lambda: store.fields(rng.choice(rel_ids))) is not None


def star_store(degree=32):
    """Node 0 with ``degree`` neighbours, inside a 500-node store."""
    store = GraphStore()
    for i in range(500):
        store.create_node(i)
    for neighbor in range(1, degree + 1):
        store.create_relationship(store.allocate_rel_id(), 0, neighbor)
    return store


def test_bench_record_read(benchmark):
    """One record access: index probe + in-place decode."""
    store = star_store()
    rng = random.Random(6)
    benchmark(lambda: store.nodes.read(rng.randrange(500)))


def test_bench_is_available(benchmark):
    store = star_store()
    rng = random.Random(7)
    benchmark(lambda: store.is_available(rng.randrange(600)))


def test_bench_chain_walk(benchmark):
    """The adjacency list of a degree-32 node: 1 node + 32 relationship reads."""
    store = star_store(degree=32)
    assert len(benchmark(store.neighbor_entries, 0)) == 32


@pytest.mark.parametrize("expand", [False, True], ids=["check", "expand"])
def test_bench_frontier_read_cold(benchmark, expand):
    """One host's share of a depth in one pass, on a store that has
    answered nothing yet (a fresh one per round): 64 vertices of the star
    store (node 0 has 32 neighbours, nodes 1-32 one each, the rest none),
    one checked node access each, and a chain walk each when expanding."""
    answers = benchmark.pedantic(
        lambda store: store.read_frontier(range(64), expand),
        setup=lambda: ((star_store(degree=32),), {}),
        rounds=50,
        iterations=1,
    )
    assert sum(map(len, answers)) == (64 if expand else 0)


@pytest.mark.parametrize("expand", [False, True], ids=["check", "expand"])
def test_bench_frontier_read_warm(benchmark, expand):
    """The same share once the store has answered it: the adjacency view
    or the availability set answers every vertex, and a node access
    anywhere in the timed calls fails the bench."""
    store = star_store(degree=32)
    store.read_frontier(range(64), expand)

    def no_node_access(node_id):
        raise AssertionError(f"a warm read accessed node {node_id}'s record")

    store.nodes.fields = no_node_access
    answers = benchmark(store.read_frontier, range(64), expand)
    assert sum(map(len, answers)) == (64 if expand else 0)


def test_bench_create_relationship(benchmark):
    store = GraphStore()
    for i in range(500):
        store.create_node(i)
    rng = random.Random(4)
    seen = set()

    def insert_edge():
        while True:
            u, v = rng.randrange(500), rng.randrange(500)
            if u != v and (u, v) not in seen and (v, u) not in seen:
                break
        seen.add((u, v))
        store.create_relationship(store.allocate_rel_id(), u, v)

    benchmark(insert_edge)


def test_bench_cluster_load(benchmark):
    """Bulk load of a 1 200-vertex orkut-like graph onto 8 durable servers
    (the end-to-end benchmark's data set): the planning pass over the
    edges, one ``GraphStore.bulk_load`` per server, the mirror, the
    auxiliary-data bootstrap and the checkpoint."""
    graph = make_dataset("orkut", 1200, 2015).graph
    partitioning = HashPartitioner(salt=21).partition(graph, 8)

    def empty_cluster():
        return (HermesCluster(8, durability=True),), {}

    benchmark.pedantic(
        lambda cluster: cluster.load(graph, partitioning),
        setup=empty_cluster,
        rounds=5,
        iterations=1,
    )


def traversal_bench(benchmark, dataset, hops):
    cluster = HermesCluster.from_graph(
        dataset.graph.copy(), num_servers=8, partitioner=HashPartitioner()
    )
    rng = random.Random(5)
    vertices = list(cluster.graph.vertices())

    benchmark(lambda: cluster.traverse(rng.choice(vertices), hops=hops))


def test_bench_one_hop_traversal(benchmark, dataset):
    traversal_bench(benchmark, dataset, 1)


def test_bench_two_hop_traversal(benchmark, dataset):
    traversal_bench(benchmark, dataset, 2)


def hashed_cluster(dataset, durability=True):
    return HermesCluster.from_graph(
        dataset.graph.copy(),
        num_servers=8,
        partitioner=HashPartitioner(),
        durability=durability,
    )


def test_bench_durable_add_edge(benchmark, dataset):
    """One new edge on a durable cluster: the records, then one flushed
    log transaction per server written to."""
    cluster = hashed_cluster(dataset)
    rng = random.Random(8)
    vertices = sorted(cluster.graph.vertices())

    def add_edge():
        while True:
            u, v = rng.choice(vertices), rng.choice(vertices)
            if u != v and not cluster.graph.has_edge(u, v):
                break
        cluster.add_edge(u, v)

    benchmark(add_edge)


def test_bench_migrate_vertex(benchmark, dataset):
    """The same vertex moved on a cluster without a log: the store work
    of a copy (one ``import_node``) and a remove (one ``delete_node``)."""
    migrate_vertex_bench(benchmark, hashed_cluster(dataset, durability=False))


def test_bench_durable_migrate_vertex(benchmark, dataset):
    """One vertex moved on a durable cluster through the migration
    generator ``rebalance_steps`` delegates to: copy, barrier, remove,
    each step committed."""
    migrate_vertex_bench(benchmark, hashed_cluster(dataset))


def migrate_vertex_bench(benchmark, cluster):
    """The highest-degree vertex moved one server on, per round."""
    vertex = max(cluster.graph.vertices(), key=cluster.graph.degree)

    def migrate():
        source = cluster.catalog.lookup(vertex)
        target = (source + 1) % cluster.num_servers
        cluster.aux.apply_move(vertex, target, cluster.graph.neighbors(vertex))
        plan = build_migration_plan({vertex: (source, target)})
        assert [step.kind for step in cluster._executor.migrate_steps(plan)] == [
            "copy",
            "barrier",
            "remove",
        ]

    benchmark(migrate)


def test_bench_crash_recover_server(benchmark, dataset):
    """Crash and recover one server that committed 50 edges since its
    last checkpoint: the checkpoint pages, the frames redone into them,
    the indexes rebuilt by scan."""
    cluster = hashed_cluster(dataset)
    rng = random.Random(9)
    local = sorted(cluster.catalog.vertices_on(0))

    def churn():
        added = 0
        while added < 50:
            u, v = rng.choice(local), rng.choice(local)
            if u != v and not cluster.graph.has_edge(u, v):
                cluster.add_edge(u, v)
                added += 1
        return (0,), {}

    episode = benchmark.pedantic(
        cluster.crash_recover_server, setup=churn, rounds=20, iterations=1
    )
    assert episode["pre"] == episode["post"]
