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

from repro.exceptions import InvariantViolationError
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

#: which invariant each corruption mode must trip
EXPECTED_INVARIANT = {
    "catalog_drift": "catalog-store-membership",
    "ghost_flip": "one-primary-per-edge",
    "drop_record": "one-primary-per-edge",
    "cache_poison": "location-cache-coherence",
    "journal_leak": "undo-journal-closed",
    "stats_skew": "telemetry-conservation",
    "queue_skew": "queue-conservation",
    "stale_serve": "replica-staleness-bound",
    "event_skew": "event-clock-monotonic",
    "window_leak": "double-write-coherence",
    "phantom_primary": "drain-completeness",
    "stale_recovery": "recovery-fidelity",
    "lost_commit": "recovery-fidelity",
}


def corrupted_schedule(seed=7, mode="catalog_drift", at=12):
    # lost_commit needs a durable cluster: force the elasticity draw.
    elasticity = True if mode == "lost_commit" else None
    spec, schedule = ScenarioGenerator(seed).generate(elasticity=elasticity)
    return spec, schedule[:at] + [Step("corrupt", {"mode": mode})] + schedule[at:]


class TestAuditor:
    def test_healthy_cluster_audits_clean(self):
        spec, _ = ScenarioGenerator(3).generate()
        cluster = build_cluster(spec)
        assert InvariantAuditor().audit(cluster) == []

    def test_check_raises_with_violation_list(self):
        spec, _ = ScenarioGenerator(3).generate()
        cluster = build_cluster(spec)
        cluster.network.stats.bytes_sent += 1
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
