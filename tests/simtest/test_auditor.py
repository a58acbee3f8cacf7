"""The auditor catches deliberate corruption; schedules shrink and replay.

These tests close the loop the harness exists for: inject a violation
through the test-only ``corrupt`` step, watch the auditor name it,
minimize the failing schedule with the shrinker, persist a replay
artifact, and reproduce the violation from that artifact with the
one-command entry point (in-process and as a real subprocess).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cluster.hermes import HermesCluster
from repro.exceptions import InvariantViolationError
from repro.graph.generators import orkut_like
from repro.partitioning.hashing import HashPartitioner
from repro.simtest import (
    CORRUPT_MODES,
    InvariantAuditor,
    ScenarioGenerator,
    ScenarioRunner,
    Step,
    build_cluster,
    load_artifact,
    replay_artifact,
    reproduces,
    shrink_schedule,
    write_artifact,
)
from repro.telemetry import Telemetry
from repro.workloads.model import WorkloadModel

#: which invariant each corruption mode must trip
EXPECTED_INVARIANT = {
    "catalog_drift": "catalog-store-membership",
    "ghost_flip": "one-primary-per-edge",
    "drop_record": "one-primary-per-edge",
    "cache_poison": "location-cache-coherence",
    "journal_leak": "undo-journal-closed",
    "stats_skew": "telemetry-conservation",
    "heat_skew": "workload-model-conservation",
    "queue_skew": "queue-conservation",
    "tenant_skew": "queue-conservation",
    "stale_serve": "replica-staleness-bound",
    "event_skew": "event-clock-monotonic",
    "window_leak": "double-write-coherence",
    "phantom_primary": "drain-completeness",
    "stale_recovery": "recovery-fidelity",
    "lost_commit": "recovery-fidelity",
    "stale_view": "adjacency-view-coherence",
    "stale_available": "adjacency-view-coherence",
}


def corrupted_schedule(seed=7, mode="catalog_drift", at=12):
    # lost_commit needs a durable cluster: force the elasticity draw.
    elasticity = True if mode == "lost_commit" else None
    spec, schedule = ScenarioGenerator(seed).generate(elasticity=elasticity)
    return spec, schedule[:at] + [Step("corrupt", {"mode": mode})] + schedule[at:]


def first_violations_without_reference(spec, schedule):
    """Apply the schedule step by step, auditing with no reference graph
    (as the wall-clock benchmark audits); the first violations found."""
    runner, auditor = ScenarioRunner(), InvariantAuditor()
    cluster = build_cluster(spec)
    for step in schedule:
        runner._apply(cluster, step)
        violations = auditor.audit(cluster)
        if violations:
            return violations
    return []


class TestAuditor:
    def test_healthy_cluster_audits_clean(self):
        spec, _ = ScenarioGenerator(3).generate()
        cluster = build_cluster(spec)
        assert InvariantAuditor().audit(cluster) == []

    def test_check_raises_with_violation_list(self):
        spec, _ = ScenarioGenerator(3).generate()
        cluster = build_cluster(spec)
        cluster.network.link_bytes[0][1] += 1
        with pytest.raises(InvariantViolationError) as info:
            InvariantAuditor().check(cluster)
        assert info.value.violations
        assert info.value.violations[0].invariant == "telemetry-conservation"

    @pytest.mark.parametrize("mode", CORRUPT_MODES)
    def test_every_corruption_mode_is_caught(self, mode):
        spec, schedule = corrupted_schedule(mode=mode)
        outcome = ScenarioRunner().run(spec, schedule)
        assert not outcome.ok
        assert any(
            v.invariant == EXPECTED_INVARIANT[mode] for v in outcome.violations
        ), outcome.summary()

    @pytest.mark.parametrize("mode", CORRUPT_MODES)
    def test_every_corruption_mode_is_caught_without_a_reference(self, mode):
        """Audited with no reference graph (as the wall-clock benchmark
        audits), the graph-level invariants compare the stores with the
        cluster's own view, and each mode is still named by the same
        invariant."""
        spec, schedule = corrupted_schedule(mode=mode)
        violations = first_violations_without_reference(spec, schedule)
        assert any(v.invariant == EXPECTED_INVARIANT[mode] for v in violations), [
            str(v) for v in violations
        ]

    def test_a_lost_commit_trips_recovery_fidelity_alone(self):
        """The recovered store still serves what the catalog says; only
        the replayed content is missing a committed write."""
        spec, schedule = corrupted_schedule(mode="lost_commit")
        outcome = ScenarioRunner().run(spec, schedule)
        assert {v.invariant for v in outcome.violations} == {"recovery-fidelity"}

    def test_a_tenant_skew_trips_only_the_per_tenant_sum(self):
        """The queue's own books still balance; only the per-tenant
        admitted series, counted on their own path, disagree with them."""
        spec, schedule = corrupted_schedule(mode="tenant_skew")
        violations = first_violations_without_reference(spec, schedule)
        assert violations
        assert all(
            v.invariant == "queue-conservation"
            and v.detail.startswith("per-tenant admitted")
            for v in violations
        ), [str(v) for v in violations]

    def test_a_stale_view_entry_trips_adjacency_view_coherence_alone(self):
        """The reordered chain still holds the same records with the same
        content; only the view entry that skipped its invalidation is
        wrong."""
        spec, schedule = corrupted_schedule(mode="stale_view")
        outcome = ScenarioRunner().run(spec, schedule)
        assert {v.invariant for v in outcome.violations} == {
            "adjacency-view-coherence"
        }

    def test_a_stale_availability_answer_trips_adjacency_view_coherence_alone(
        self,
    ):
        """The spare node's records are gone again, so the stores, the
        catalog and the graph all agree; only the availability set still
        answers for it."""
        spec, schedule = corrupted_schedule(mode="stale_available")
        outcome = ScenarioRunner().run(spec, schedule)
        assert {v.invariant for v in outcome.violations} == {
            "adjacency-view-coherence"
        }
        assert all("availability set" in v.detail for v in outcome.violations)

    @pytest.mark.parametrize("with_reference", [True, False])
    def test_a_skewed_link_trips_telemetry_conservation_alone(self, with_reference):
        """One link of the ledger drifts from the registry: the stores,
        the caches and the model's link totals (it folds the ledger in)
        are all still right, with or without a reference graph."""
        spec, schedule = corrupted_schedule(mode="stats_skew")
        if with_reference:
            violations = ScenarioRunner().run(spec, schedule).violations
        else:
            violations = first_violations_without_reference(spec, schedule)
        assert violations
        assert {v.invariant for v in violations} == {"telemetry-conservation"}


def traversed_model_cluster(telemetry=None, seed=0):
    """An orkut-like cluster of 200 vertices on 4 servers with a workload
    model attached and 20 one-hop traversals observed."""
    graph = orkut_like(n=200, seed=seed).graph
    cluster = HermesCluster.from_graph(
        graph, num_servers=4, partitioner=HashPartitioner(), telemetry=telemetry
    )
    cluster.attach_workload_model(WorkloadModel())
    traverse_some(cluster)
    return cluster


def traverse_some(cluster, count=20):
    vertices = sorted(cluster.graph.vertices())
    for start in vertices[:count]:
        cluster.traverse(start, 1)


def model_violations(cluster):
    return [
        v
        for v in InvariantAuditor().audit(cluster)
        if v.invariant == "workload-model-conservation"
    ]


class TestWorkloadModelAudit:
    def test_a_model_attached_after_traffic_audits_clean(self):
        """The engine counted the first model's observations; a second,
        fresh model is held to the counter's growth since it came."""
        cluster = traversed_model_cluster()
        cluster.attach_workload_model(WorkloadModel())
        traverse_some(cluster)
        assert cluster.workload_model.observations > 0
        assert model_violations(cluster) == []

    def test_clusters_sharing_a_hub_each_audit_clean(self):
        hub = Telemetry()
        first = traversed_model_cluster(hub, seed=1)
        second = traversed_model_cluster(hub, seed=2)
        assert model_violations(first) == []
        assert model_violations(second) == []


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        assert ScenarioGenerator(42).generate() == ScenarioGenerator(42).generate()

    def test_same_schedule_same_outcome(self):
        spec, schedule = ScenarioGenerator(11).generate()
        first = ScenarioRunner().run(spec, schedule)
        second = ScenarioRunner().run(spec, schedule)
        assert first.statuses == second.statuses
        assert first.ok and second.ok

    def test_spec_and_steps_round_trip_json(self):
        spec, schedule = ScenarioGenerator(5).generate()
        from repro.simtest import ScenarioSpec, schedule_from_dicts, schedule_to_dicts

        blob = json.dumps(
            {"spec": spec.to_dict(), "schedule": schedule_to_dicts(schedule)}
        )
        data = json.loads(blob)
        assert ScenarioSpec.from_dict(data["spec"]) == spec
        assert schedule_from_dicts(data["schedule"]) == schedule
        # Replay artifacts written before the per-entry traversal mode
        # was deleted carry its spec key; they must still load.
        stale = dict(data["spec"], batch_remote_hops=False)
        assert ScenarioSpec.from_dict(stale) == spec


class TestShrinkAndReplay:
    def test_shrinks_below_ten_steps_and_replays(self, tmp_path):
        spec, schedule = corrupted_schedule(seed=7, mode="catalog_drift")
        outcome = ScenarioRunner().run(spec, schedule)
        assert not outcome.ok
        invariant = outcome.violations[0].invariant

        small = shrink_schedule(spec, schedule, invariant=invariant)
        assert len(small) <= 10
        assert reproduces(spec, small, invariant)

        final = ScenarioRunner().run(spec, small)
        path = tmp_path / "artifact.json"
        write_artifact(str(path), spec, small, final)
        data = load_artifact(str(path))
        assert data["violation"]["invariant"] == invariant

        replayed = replay_artifact(str(path))
        assert not replayed.ok
        assert any(v.invariant == invariant for v in replayed.violations)

    def test_one_command_replay_subprocess(self, tmp_path):
        spec, schedule = corrupted_schedule(seed=9, mode="ghost_flip", at=5)
        invariant = EXPECTED_INVARIANT["ghost_flip"]
        small = shrink_schedule(spec, schedule, invariant=invariant)
        final = ScenarioRunner().run(spec, small)
        path = tmp_path / "artifact.json"
        write_artifact(str(path), spec, small, final)

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.simtest.replay", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "violation reproduced" in proc.stdout

    def test_shrink_rejects_passing_schedule(self):
        spec, schedule = ScenarioGenerator(1).generate()
        with pytest.raises(ValueError):
            shrink_schedule(spec, schedule)
