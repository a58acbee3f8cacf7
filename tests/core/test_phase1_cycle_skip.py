"""Phase 1 skips an exact limit cycle with every output unchanged.

Once the state a stage reads and changes (``AuxiliaryData.stage_state``:
placement column, partition weights, heat overlay) comes back exactly,
the iterations from there repeat, so ``run`` replays their recorded
``IterationStats`` through the same bookkeeping and runs only the real
iterations that bring the state to the last bookkept one (DESIGN.md §4).

The oracle is the same run with the skip off, by a test-side override:
``stage_state`` returns a fresh value on every call, so no two states
ever compare equal and every iteration runs its stages.  Both runs must
leave the same result (history ``repr``s included), the same auxiliary
bytes, the same partitioning and the same telemetry but for the skip's
own two span attributes and counter; the skipping run must call
``_run_stage`` fewer than ``2 × iterations`` times.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.auxiliary import AuxiliaryData
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner
from repro.experiments.ablations import oscillation_graph
from repro.graph.generators import make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.telemetry import Telemetry
from tests.core.test_phase1_columns_differential import observed, observed_aux

SKIP_ATTRIBUTES = ("cycle_period", "replayed_iterations")
REPLAYED = "repartitioner_replayed_iterations_total"


class Stop(Exception):
    """Raised by an ``on_iteration`` callback part-way through a run."""


def phase1(graph, partitioning, config, monkeypatch, skip=True, on_iteration=None):
    """One run on a copy of ``partitioning``: what it left behind, its
    ``_run_stage`` calls and its recording telemetry hub."""
    partitioning = partitioning.copy()
    aux = AuxiliaryData.from_graph(graph, partitioning)
    telemetry = Telemetry(record=True)
    calls = [0]
    run_stage = LightweightRepartitioner._run_stage

    def counting(*args):
        calls[0] += 1
        return run_stage(*args)

    with monkeypatch.context() as patch:
        patch.setattr(LightweightRepartitioner, "_run_stage", counting)
        if not skip:
            fresh = itertools.count()
            patch.setattr(
                AuxiliaryData, "stage_state", lambda aux: b"%d" % next(fresh)
            )
        result = None
        try:
            result = LightweightRepartitioner(config).run(
                graph,
                partitioning,
                aux=aux,
                on_iteration=on_iteration,
                telemetry=telemetry,
            )
        except Stop:
            pass
    left = {
        "result": None if result is None else observed(result, partitioning, aux),
        "aux": observed_aux(aux),
        "mapping": list(partitioning.as_mapping().items()),
    }
    return left, calls[0], telemetry


def spans(telemetry):
    """Finished spans without the skip's own attributes."""
    return [
        dict(
            span,
            attrs={
                key: value
                for key, value in span["attrs"].items()
                if key not in SKIP_ATTRIBUTES
            },
        )
        for span in telemetry.tracer.spans
    ]


def metrics(telemetry):
    return [r for r in telemetry.registry.snapshot() if r["name"] != REPLAYED]


def run_span(telemetry):
    (span,) = [s for s in telemetry.tracer.spans if s["name"] == "repartition.phase1"]
    return span


def assert_skip_is_exact(graph, partitioning, config, monkeypatch):
    """Both runs leave the same everything; returns the skipping run's
    ``(left, stage calls, telemetry)``."""
    got, calls, telemetry = phase1(graph, partitioning, config, monkeypatch)
    expected, full_calls, full = phase1(
        graph, partitioning, config, monkeypatch, skip=False
    )
    assert got == expected
    assert spans(telemetry) == spans(full)
    assert telemetry.events == full.events
    assert metrics(telemetry) == metrics(full)
    stages = 2 if config.two_stage else 1
    iterations = got["result"]["flags"][2]
    assert full_calls == stages * iterations
    return got, calls, telemetry


def twitter_epsilon_sweep_case():
    """The ``ablations`` epsilon sweep's twitter run at epsilon 1.30."""
    graph = make_dataset("twitter", 500, seed=7).graph
    partitioning = HashPartitioner(salt=7).partition(graph, 8)
    config = RepartitionerConfig(epsilon=1.3, k=max(1, graph.num_vertices // 100))
    return graph, partitioning, config


class TestFixedPoint:
    def test_a_capped_run_replays_its_fixed_point(self, monkeypatch):
        """It caps at 100 iterations (the ablation table's row) and its
        state repeats by iteration 14."""
        graph, partitioning, config = twitter_epsilon_sweep_case()
        got, calls, telemetry = assert_skip_is_exact(
            graph, partitioning, config, monkeypatch
        )
        assert got["result"]["flags"][:3] == (False, False, 100)
        # Iterations 13 and 14 end in the same state: 14 is snapshotted
        # on its repeated key, 15 confirms, 16-100 replay.
        attrs = run_span(telemetry)["attrs"]
        assert (attrs["cycle_period"], attrs["replayed_iterations"]) == (1, 85)
        assert telemetry.registry.value(REPLAYED) == 85
        assert calls == 2 * 15 < 2 * 100


def swap_case(max_iterations=20):
    """Figure 2's oscillation: single-stage migration swaps the two
    groups every iteration, a cycle of period 2."""
    graph, partitioning = oscillation_graph()
    config = RepartitionerConfig(
        epsilon=1.9,
        k=6,
        two_stage=False,
        max_iterations=max_iterations,
        stall_iterations=None,
    )
    return graph, partitioning, config


class TestPeriodicCycle:
    def test_the_single_stage_swap_replays_its_two_cycle(self, monkeypatch):
        got, calls, telemetry = assert_skip_is_exact(*swap_case(), monkeypatch)
        assert got["result"]["flags"][2] == 20
        attrs = run_span(telemetry)["attrs"]
        assert attrs["cycle_period"] == 2
        assert calls < 20
        assert telemetry.registry.value(REPLAYED) == attrs["replayed_iterations"]

    @pytest.mark.parametrize("max_iterations", range(5, 12))
    def test_every_cap_ends_on_the_cycle_position(self, max_iterations, monkeypatch):
        """An odd or even cap ends on a different side of the swap: the
        catch-up iterations run ``(T - i) mod p`` real stages."""
        _, calls, telemetry = assert_skip_is_exact(
            *swap_case(max_iterations), monkeypatch
        )
        # States 2 and 4 are equal: replay from iteration 5 on.
        attrs = run_span(telemetry)["attrs"]
        assert attrs["replayed_iterations"] == max_iterations - 4
        assert calls == 4 + (max_iterations - 4) % 2


class TestCallbackRaises:
    @pytest.mark.parametrize(
        "case, stop_at",
        [(twitter_epsilon_sweep_case, at) for at in (2, 3, 20, 21, 57, 100)]
        + [(swap_case, at) for at in (3, 5, 6, 9, 20)],
    )
    def test_a_raising_callback_leaves_what_the_full_loop_leaves(
        self, case, stop_at, monkeypatch
    ):
        """The catch-up iterations run in ``finally``: a callback that
        raises during the replay leaves the state of its iteration."""
        graph, partitioning, config = case()

        def stop(stats):
            if stats.iteration == stop_at:
                raise Stop

        runs = [
            phase1(graph, partitioning, config, monkeypatch, skip, on_iteration=stop)
            for skip in (True, False)
        ]
        (got, calls, telemetry), (expected, _, full) = runs
        assert got["result"] is None
        assert got == expected
        assert spans(telemetry) == spans(full)
        assert metrics(telemetry) == metrics(full)
        if stop_at > 5:
            assert calls < (2 if config.two_stage else 1) * stop_at
