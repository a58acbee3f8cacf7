"""Admission controller: state machine, hysteresis, and hard guards."""

import pytest

from repro.exceptions import OverloadShedError, QueueFullError
from repro.serving import ACCEPTING, SHEDDING, THROTTLED, AdmissionController, Priority
from repro.serving.config import ServingConfig


@pytest.fixture
def config():
    return ServingConfig(
        max_queue_depth=4,
        max_queue_delay=1e-3,
        throttle_utilization=0.6,
        shed_utilization=0.9,
    )


@pytest.fixture
def controller(config):
    return AdmissionController(config)


class TestStateMachine:
    def test_starts_accepting(self, controller):
        assert controller.state == ACCEPTING
        assert controller.floor == Priority.BATCH

    def test_escalates_one_threshold(self, controller):
        assert controller.observe(0.7) == THROTTLED
        assert controller.floor == Priority.NORMAL

    def test_flash_crowd_jumps_straight_to_shedding(self, controller):
        assert controller.observe(1.5) == SHEDDING
        assert controller.floor == Priority.INTERACTIVE

    def test_deescalates_one_state_per_observation(self, controller):
        controller.observe(1.5)
        # Still above resume: stays put even though below shed threshold.
        assert controller.observe(0.5) == SHEDDING
        # Below resume: one step down per observation, not a jump.
        assert controller.observe(0.1) == THROTTLED
        assert controller.observe(0.1) == ACCEPTING

    def test_hysteresis_does_not_oscillate_at_threshold(self, controller):
        controller.observe(0.65)
        assert controller.state == THROTTLED
        # Dipping just below the escalation threshold (but above resume)
        # must not flip the state back.
        assert controller.observe(0.55) == THROTTLED
        assert controller.observe(0.59) == THROTTLED


class TestGuards:
    def test_queue_full_rejects_any_priority(self, controller):
        with pytest.raises(QueueFullError) as info:
            controller.admit(Priority.INTERACTIVE, wait=0, depth=4)
        assert info.value.reason == "queue_full"

    def test_priority_floor_sheds_below_class(self, controller):
        controller.observe(0.7)  # THROTTLED: floor NORMAL
        with pytest.raises(OverloadShedError) as info:
            controller.admit(Priority.BATCH, wait=0, depth=0)
        assert info.value.reason == "overload_shed"
        assert info.value.state == THROTTLED
        # NORMAL and above still pass.
        controller.admit(Priority.NORMAL, wait=0, depth=0)
        controller.admit(Priority.INTERACTIVE, wait=0, depth=0)

    def test_latency_guard_sheds_regardless_of_class(self, controller):
        with pytest.raises(OverloadShedError):
            controller.admit(Priority.INTERACTIVE, wait=2_000_000, depth=0)

    def test_accepting_admits_everything_within_bounds(self, controller):
        for priority in Priority:
            controller.admit(priority, wait=500_000, depth=1)
