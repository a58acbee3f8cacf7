"""WorkloadModel: decay determinism and trace ingestion.

Property tests pin the heat model's arithmetic: decay is deterministic
and monotone (heat never grows between observations, total decayed heat
never exceeds the raw observed weight), and an offline trace replay
makes the observations the live engine makes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WorkloadError
from repro.workloads.model import WorkloadModel, edge_key
from repro.workloads.queries import InsertVertex, Traversal


# Observation streams: (u, v, weight, time-delta) tuples applied in order.
observations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    max_size=40,
)

half_lives = st.one_of(
    st.none(), st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
)


def apply_stream(model, stream):
    now = 0.0
    for u, v, weight, delta in stream:
        now += delta
        model.observe_edge(u, v, weight, now=now)
    return now


class TestEdgeKey:
    def test_canonical(self):
        assert edge_key(3, 7) == (3, 7)
        assert edge_key(7, 3) == (3, 7)
        assert edge_key(5, 5) == (5, 5)


class TestClock:
    def test_monotone(self):
        model = WorkloadModel()
        model.advance(2.0)
        with pytest.raises(WorkloadError):
            model.advance(1.0)

    def test_observe_advances(self):
        model = WorkloadModel()
        model.observe_edge(1, 2, now=3.5)
        assert model.now == 3.5

    def test_bad_half_life(self):
        with pytest.raises(WorkloadError):
            WorkloadModel(half_life=0.0)

    def test_negative_weight_rejected(self):
        model = WorkloadModel()
        with pytest.raises(WorkloadError):
            model.observe_edge(1, 2, weight=-1.0)


class TestDecay:
    def test_half_life_halves(self):
        model = WorkloadModel(half_life=2.0)
        model.observe_edge(1, 2, weight=8.0, now=0.0)
        assert model.edge_heat(1, 2, now=2.0) == pytest.approx(4.0)
        assert model.edge_heat(1, 2, now=4.0) == pytest.approx(2.0)
        assert model.edge_heat(1, 2, now=6.0) == pytest.approx(1.0)

    def test_no_half_life_no_decay(self):
        model = WorkloadModel(half_life=None)
        model.observe_edge(1, 2, weight=8.0, now=0.0)
        assert model.edge_heat(1, 2, now=1e9) == 8.0

    def test_directions_accumulate(self):
        model = WorkloadModel()
        model.observe_edge(1, 2, weight=1.0)
        model.observe_edge(2, 1, weight=2.0)
        assert model.edge_heat(1, 2) == pytest.approx(3.0)

    @given(stream=observations, half_life=half_lives)
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, stream, half_life):
        """Identical streams produce bit-identical models."""
        a = WorkloadModel(half_life=half_life)
        b = WorkloadModel(half_life=half_life)
        apply_stream(a, stream)
        apply_stream(b, stream)
        assert a.edge_heats() == b.edge_heats()
        assert a.observations == b.observations
        assert a.observed_weight == b.observed_weight

    @given(stream=observations, half_life=half_lives)
    @settings(max_examples=60, deadline=None)
    def test_heat_non_negative_and_conserved(self, stream, half_life):
        """Heat is never negative and decay only shrinks the total."""
        model = WorkloadModel(half_life=half_life)
        end = apply_stream(model, stream)
        heats = model.edge_heats()
        assert all(heat >= 0.0 for heat in heats.values())
        total = model.total_heat()
        assert total <= model.observed_weight + 1e-9
        # Reading further into the future only shrinks the total more.
        later = model.total_heat(now=end + 10.0)
        assert later <= total + 1e-12

    @given(
        weight=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        half_life=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        elapsed=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form(self, weight, half_life, elapsed):
        model = WorkloadModel(half_life=half_life)
        model.observe_edge(0, 1, weight=weight, now=0.0)
        expected = weight * 0.5 ** (elapsed / half_life)
        assert model.edge_heat(0, 1, now=elapsed) == pytest.approx(expected)


class TestTraceIngestion:
    @pytest.fixture
    def graph(self):
        from repro.graph.adjacency import SocialGraph

        g = SocialGraph()
        for v in range(6):
            g.add_vertex(v)
        # A path 0-1-2-3 plus a fan 1-4, 1-5.
        for u, v in [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5)]:
            g.add_edge(u, v)
        return g

    def test_one_hop_heats_incident_edges(self, graph):
        model = WorkloadModel()
        made = model.ingest_trace([Traversal(start=1, hops=1)], graph)
        assert made == 4  # edges (1,0), (1,2), (1,4), (1,5)
        assert model.edge_heat(1, 2) == 1.0
        assert model.edge_heat(2, 3) == 0.0

    def test_two_hops_reach_second_ring(self, graph):
        model = WorkloadModel()
        model.ingest_trace([Traversal(start=0, hops=2)], graph)
        # (0, 1) is crossed at depth 0 and again when 1 expands back.
        assert model.edge_heat(0, 1) == 2.0
        assert model.edge_heat(1, 2) == 1.0
        assert model.edge_heat(2, 3) == 0.0

    def test_non_traversals_skipped(self, graph):
        model = WorkloadModel()
        made = model.ingest_trace([InsertVertex(vertex=99)], graph)
        assert made == 0
        assert model.num_edges == 0

    def test_missing_start_tolerated(self, graph):
        model = WorkloadModel()
        made = model.ingest_trace([Traversal(start=777, hops=2)], graph)
        assert made == 0

    def test_matches_live_engine_observations(self):
        """Offline trace replay equals the live engine's edge observations."""
        import random

        from repro.cluster.hermes import HermesCluster
        from repro.graph.adjacency import SocialGraph

        rng = random.Random(17)
        g = SocialGraph()
        for v in range(60):
            g.add_vertex(v)
        while g.num_edges < 150:
            u, v = rng.sample(range(60), 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
        cluster = HermesCluster.from_graph(g, 3)
        live = WorkloadModel()
        cluster.attach_workload_model(live)
        ops = [
            Traversal(start=rng.randrange(60), hops=rng.choice([1, 2]))
            for _ in range(40)
        ]
        for op in ops:
            cluster.traverse(op.start, op.hops)
        offline = WorkloadModel()
        offline.ingest_trace(ops, g)
        assert offline.edge_heats() == pytest.approx(live.edge_heats())
        assert offline.observations == live.observations


class TestNormalization:
    def test_mean_heated_edge_is_one(self):
        model = WorkloadModel()
        model.observe_edge(0, 1, weight=1.0)
        model.observe_edge(1, 2, weight=3.0)
        normalized = model.normalized_edge_heat()
        assert math.isclose(
            sum(normalized.values()) / len(normalized), 1.0, rel_tol=1e-12
        )
        # Relative ordering preserved.
        assert normalized[(1, 2)] == pytest.approx(3 * normalized[(0, 1)])

    def test_empty_model(self):
        assert WorkloadModel().normalized_edge_heat() == {}
