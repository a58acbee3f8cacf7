"""The replica index is a view of the auxiliary data: what that means.

* **Outside a double-write window** the view equals the from-scratch
  :meth:`~repro.cluster.replication.OneHopReplicator.placements` of the
  catalog's partitioning after *every* kind of step that can change the
  graph or the placement — whoever ran it, and without anyone telling
  the index (hypothesis-driven random step sequences).
* **Inside a window** the view shows the plan's target placement, while
  the router keeps sending reads where the catalog says the data is.
* **After an abort** the view is the pre-rebalance placement again.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultPlan
from repro.cluster.hermes import HermesCluster
from repro.concurrency.engine import ConcurrentExecutor
from repro.core import RepartitionerConfig
from repro.exceptions import MigrationAbortedError
from repro.graph.generators import community_graph
from repro.partitioning import MultilevelPartitioner
from repro.partitioning.base import Partitioning
from repro.serving import ServingFrontend
from repro.serving.frontend import COMPLETED
from tests.conftest import (
    make_random_graph,
    migrate_moves,
    oracle_placements,
    view_placements,
)

#: every message is lost: any migration that ships a record aborts
TOTAL_LOSS = FaultPlan(loss_rate=1.0)

STEP_KINDS = (
    "add_vertex",
    "add_edge",
    "migrate",
    "join",
    "join_reshard",
    "drain",
    "aborted_rebalance",
)


def apply_step(cluster, frontend, kind, a, b):
    """One random step; ``a``/``b`` pick vertices and servers modulo
    whatever exists by now.  Steps that cannot apply are no-ops."""
    vertices = sorted(cluster.graph.vertices())
    active = cluster.active_servers()
    arrival = frontend.now + 1.0  # spaced out: admission never sheds
    if kind == "add_vertex":
        outcome = frontend.submit("add_vertex", max(vertices) + 1, now=arrival)
        assert outcome.status == COMPLETED
    elif kind == "add_edge":
        u, v = vertices[a % len(vertices)], vertices[b % len(vertices)]
        if u != v and not cluster.graph.has_edge(u, v):
            outcome = frontend.submit("add_edge", u, v, now=arrival)
            assert outcome.status == COMPLETED
    elif kind == "migrate":
        vertex = vertices[a % len(vertices)]
        source = cluster.catalog.lookup(vertex)
        target = active[b % len(active)]
        if target != source:
            migrate_moves(cluster, {vertex: (source, target)})
    elif kind in ("join", "join_reshard"):
        if cluster.num_servers < 6:
            cluster.add_server(reshard=kind == "join_reshard")
    elif kind == "drain":
        if len(active) > 1:
            cluster.drain_server(active[a % len(active)])
    else:
        cluster.attach_faults(TOTAL_LOSS)
        try:
            cluster.rebalance(force=True)
        except MigrationAbortedError:
            pass
        finally:
            cluster.attach_faults(None)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    steps=st.lists(
        st.tuples(
            st.sampled_from(STEP_KINDS),
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=40, deadline=None)
def test_view_equals_the_oracle_after_every_step(seed, steps):
    graph = make_random_graph(18, 30, seed=seed)
    placement = Partitioning.from_mapping(
        {v: (v * 7 + seed) % 3 for v in range(18)}, num_partitions=3
    )
    cluster = HermesCluster.from_graph(graph, num_servers=3, partitioning=placement)
    frontend = ServingFrontend(cluster)
    cluster.serving = frontend
    assert view_placements(frontend) == oracle_placements(cluster)
    for kind, a, b in steps:
        apply_step(cluster, frontend, kind, a, b)
        assert view_placements(frontend) == oracle_placements(cluster), kind
    cluster.validate()


class TestInsideAndAfterAWindow:
    def start(self):
        """A front door on an engine whose forced rebalance has run its
        first copy-step and no further."""
        cluster = HermesCluster.from_graph(
            community_graph(120, seed=31),
            num_servers=3,
            partitioner=MultilevelPartitioner(seed=31),
            repartitioner=RepartitionerConfig(epsilon=1.1, k=2),
        )
        for vertex in list(cluster.catalog.vertices_on(0)):
            cluster.aux.add_weight(vertex, 5.0)
        engine = ConcurrentExecutor(cluster)
        frontend = ServingFrontend(cluster)
        frontend.attach_engine(engine)
        cluster.serving = frontend
        before = view_placements(frontend)
        assert before == oracle_placements(cluster)
        handle = engine.submit_rebalance(force=True)
        # The task's first step (phase 1 + first copy) is ready at 0;
        # its second only once that copy has finished.
        engine.run_until(0.0)
        assert cluster._executor.window_open and not handle.done
        return cluster, engine, frontend, handle, before

    def test_in_window_view_is_the_target_placement(self):
        cluster, engine, frontend, handle, before = self.start()
        in_window = view_placements(frontend)
        # Phase 1 retargeted the auxiliary data; the catalog has not moved.
        assert in_window != before
        assert oracle_placements(cluster) == before
        # Reads still go where the catalog says the data is.
        for vertex in cluster.graph.vertices():
            decision = frontend.router.route_read(vertex, now=0.0)
            assert decision.primary == cluster.catalog.lookup(vertex)
            assert 0 <= decision.host < cluster.num_servers
        engine.run()
        assert handle.ok, handle.error
        assert handle.result[1].vertices_moved > 1
        # What the window showed is what the commit made true.
        assert in_window == oracle_placements(cluster) == view_placements(frontend)

    def test_post_abort_view_is_the_pre_rebalance_placement(self):
        cluster, engine, frontend, handle, before = self.start()
        assert view_placements(frontend) != before
        cluster.attach_faults(TOTAL_LOSS)
        engine.run()
        cluster.attach_faults(None)
        assert isinstance(handle.error, MigrationAbortedError)
        assert view_placements(frontend) == before == oracle_placements(cluster)
        cluster.validate()
