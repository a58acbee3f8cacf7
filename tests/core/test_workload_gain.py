"""Workload-aware gain: alpha=0 byte-identity and weighted selection.

The blended gain path must be *purely additive*: with
``workload_alpha=0`` (the default) the repartitioner's output is pinned
byte for byte against ``fixtures/repartitioner_reference.json`` — the
same fixture the optimization-equivalence tests use — even when edge
heat is attached to the auxiliary data.  With alpha > 0 the array
selection must agree with the :func:`get_target_partition` reference.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.auxiliary import AuxiliaryData
from repro.core.candidates import STAGE_HIGH_TO_LOW, STAGE_LOW_TO_HIGH, get_target_partition
from repro.core.config import RepartitionerConfig
from repro.core.gain import gain, weighted_gain
from repro.core.repartitioner import LightweightRepartitioner
from repro.exceptions import PartitioningError
from repro.graph.generators import orkut_like
from repro.partitioning.hashing import HashPartitioner

FIXTURE = Path(__file__).parent / "fixtures" / "repartitioner_reference.json"

with FIXTURE.open() as fh:
    CASES = json.load(fh)["cases"]


def synthetic_heat(graph, seed):
    """Deterministic positive heat on every edge of the graph."""
    rng = random.Random(seed)
    return {
        (u, v) if u <= v else (v, u): rng.random() * 3.0 + 0.1
        for u, v in graph.edges()
    }


class TestConfigKnob:
    def test_default_is_zero(self):
        assert RepartitionerConfig().workload_alpha == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.5, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(PartitioningError):
            RepartitionerConfig(workload_alpha=bad)

    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, ok):
        assert RepartitionerConfig(workload_alpha=ok).workload_alpha == ok


class TestWeightedGainFunction:
    @pytest.fixture
    def heated_aux(self):
        dataset = orkut_like(n=120, seed=3)
        partitioning = HashPartitioner().partition(dataset.graph, 3)
        aux = AuxiliaryData.from_graph(dataset.graph, partitioning)
        aux.attach_heat(synthetic_heat(dataset.graph, 3))
        return dataset.graph, aux

    def test_alpha_zero_is_static_gain(self, heated_aux):
        graph, aux = heated_aux
        for vertex in list(graph.vertices())[:30]:
            source = aux.partition_of(vertex)
            for target in range(aux.num_partitions):
                if target == source:
                    continue
                blended = weighted_gain(aux, vertex, source, target, 0.0)
                assert blended == gain(aux, vertex, source, target)
                assert isinstance(blended, int)

    def test_alpha_one_is_pure_heat(self, heated_aux):
        graph, aux = heated_aux
        for vertex in list(graph.vertices())[:30]:
            source = aux.partition_of(vertex)
            heat = aux.heat_counts(vertex)
            for target in range(aux.num_partitions):
                if target == source:
                    continue
                expected = heat.get(target, 0.0) - heat.get(source, 0.0)
                assert weighted_gain(aux, vertex, source, target, 1.0) == pytest.approx(
                    expected
                )

    def test_blend_interpolates(self, heated_aux):
        graph, aux = heated_aux
        vertex = next(iter(graph.vertices()))
        source = aux.partition_of(vertex)
        target = (source + 1) % aux.num_partitions
        static = gain(aux, vertex, source, target)
        pure = weighted_gain(aux, vertex, source, target, 1.0)
        mid = weighted_gain(aux, vertex, source, target, 0.5)
        assert mid == pytest.approx(0.5 * static + 0.5 * pure)


@pytest.mark.parametrize(
    "case", CASES, ids=lambda c: f"centralized-n{c['n']}-s{c['seed']}"
)
def test_alpha_zero_with_heat_matches_pinned_reference(case):
    """alpha=0 stays byte-identical to the fixture even with heat attached.

    Attaching heat only maintains extra (never-read) weighted counters;
    the selection arithmetic — integer gains, float balance tests,
    tie-breaks — must be exactly the historical static path.
    """
    dataset = orkut_like(n=case["n"], seed=case["seed"])
    graph = dataset.graph
    partitioning = HashPartitioner(salt=case["seed"]).partition(
        graph, case["partitions"]
    )
    config = RepartitionerConfig(k=case["k"], max_iterations=60, workload_alpha=0.0)
    aux = AuxiliaryData.from_graph(graph, partitioning)
    aux.attach_heat(synthetic_heat(graph, case["seed"]))
    result = LightweightRepartitioner(config).run(graph, partitioning, aux=aux)

    expected = case["centralized"]  # the fixture block pinned for this engine
    moves = sorted([v, s, t] for v, (s, t) in result.moves.items())
    history = [
        [h.iteration, h.migrations, h.edge_cut, repr(h.max_imbalance)]
        for h in result.history
    ]
    assert moves == expected["moves"]
    assert history == expected["history"]
    assert result.converged == expected["converged"]
    assert result.stalled == expected["stalled"]
    assert result.iterations == expected["iterations"]
    assert result.initial_edge_cut == expected["initial_edge_cut"]
    assert result.final_edge_cut == expected["final_edge_cut"]


class TestWeightedSelection:
    @pytest.fixture
    def setup(self):
        dataset = orkut_like(n=250, seed=7)
        return dataset.graph, synthetic_heat(dataset.graph, 7)

    def _run(self, graph, heat, alpha):
        partitioning = HashPartitioner().partition(graph, 4)
        aux = AuxiliaryData.from_graph(graph, partitioning)
        aux.attach_heat(heat)
        config = RepartitionerConfig(workload_alpha=alpha)
        return LightweightRepartitioner(config).run(graph, partitioning, aux=aux)

    def test_balance_still_enforced(self, setup):
        graph, heat = setup
        result = self._run(graph, heat, 1.0)
        assert result.final_imbalance <= 1.1 + 1e-9

    def test_inlined_selection_matches_reference(self, setup):
        """The array selection's blended gain equals get_target_partition."""
        graph, heat = setup
        partitioning = HashPartitioner().partition(graph, 4)
        aux = AuxiliaryData.from_graph(graph, partitioning)
        aux.attach_heat(heat)
        alpha = 0.7
        repartitioner = LightweightRepartitioner(
            RepartitionerConfig(workload_alpha=alpha)
        )
        for stage in (STAGE_LOW_TO_HIGH, STAGE_HIGH_TO_LOW):
            for source in range(4):
                selected = repartitioner._select_candidates(
                    aux, source, stage, 10**9
                )
                average = aux.average_weight()
                overloaded = (
                    aux.partition_weights[source] / average > 1.1
                    if average
                    else False
                )
                expected = {}
                for vertex in aux.vertices_in(source):
                    target, vertex_gain = get_target_partition(
                        aux, vertex, stage, 1.1, average, overloaded, alpha=alpha
                    )
                    if target is not None:
                        expected[vertex] = (target, vertex_gain)
                got = {v: (target, gain) for gain, _, v, target in selected}
                assert got == expected

    def test_pure_heat_moves_hot_endpoints_together(self):
        """alpha=1 on a heat-only signal co-locates a hot edge's endpoints.

        Two vertices on different partitions share the only heated edge;
        static gain is indifferent (symmetric graph) but the heat gain
        pulls one endpoint to the other.
        """
        from repro.graph.adjacency import SocialGraph

        graph = SocialGraph()
        # Two 4-cliques bridged by one (hot) edge.
        for v in range(8):
            graph.add_vertex(v)
        for base in (0, 4):
            for i in range(base, base + 4):
                for j in range(i + 1, base + 4):
                    graph.add_edge(i, j)
        graph.add_edge(3, 4)
        from repro.partitioning.base import Partitioning

        partitioning = Partitioning(2)
        for v in range(4):
            partitioning.assign(v, 0)
        for v in range(4, 8):
            partitioning.assign(v, 1)
        aux = AuxiliaryData.from_graph(graph, partitioning)
        aux.attach_heat({(3, 4): 100.0})
        config = RepartitionerConfig(workload_alpha=1.0, k=1, epsilon=1.4)
        result = LightweightRepartitioner(config).run(graph, partitioning, aux=aux)
        # The hot edge must end internal: 3 and 4 on the same partition.
        assert partitioning.partition_of(3) == partitioning.partition_of(4)
        assert result.total_logical_migrations >= 1
