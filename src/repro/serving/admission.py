"""Admission control: the serving layer's overload state machine.

The controller watches one scalar signal — *utilization*, defined as the
hottest server's backlog (simulated seconds of queued work) divided by
the configured queueing-delay budget — and moves through three states:

``ACCEPTING``  →  ``THROTTLED``  →  ``SHEDDING``

* ``ACCEPTING`` — admit every priority class;
* ``THROTTLED`` (utilization ≥ ``throttle_utilization``) — shed BATCH;
* ``SHEDDING`` (utilization ≥ ``shed_utilization``) — shed BATCH and
  NORMAL, admit only INTERACTIVE.

Escalation is immediate (a flash crowd can jump ACCEPTING → SHEDDING in
one observation); de-escalation steps down one state per observation and
only once utilization has fallen below ``resume_utilization`` — the
hysteresis that keeps the controller from oscillating across a single
threshold.

Independent of the state machine, every operation is subject to two
hard guards: the bounded queue depth, and the per-operation latency
guard (an operation whose target server's backlog already exceeds
``max_queue_delay`` is shed regardless of class — admitting it could
only blow the latency bound it exists to protect).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, Optional

from repro.exceptions import OverloadShedError, QueueFullError
from repro.serving.config import ServingConfig
from repro.telemetry import Telemetry


class Priority(IntEnum):
    """Priority classes, ordered: higher values survive overload longer."""

    BATCH = 0
    NORMAL = 1
    INTERACTIVE = 2

    @classmethod
    def from_name(cls, name: str) -> "Priority":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown priority {name!r}") from None


#: admission states, in escalation order
ACCEPTING = "accepting"
THROTTLED = "throttled"
SHEDDING = "shedding"

_STATES = (ACCEPTING, THROTTLED, SHEDDING)

#: lowest priority class admitted in each state
_FLOOR = {
    ACCEPTING: Priority.BATCH,
    THROTTLED: Priority.NORMAL,
    SHEDDING: Priority.INTERACTIVE,
}


class AdmissionController:
    """Utilization-driven state machine with hysteresis."""

    def __init__(
        self,
        config: ServingConfig,
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self.config = config
        self.state = ACCEPTING
        telemetry = telemetry or Telemetry()
        extra = labels or {}
        self._transitions = {
            state: telemetry.counter(
                "serving_admission_transitions_total",
                "admission state machine transitions",
                to=state, **extra,
            )
            for state in _STATES
        }
        self._state_gauge = telemetry.gauge(
            "serving_admission_state",
            "current admission state (0=accepting, 1=throttled, 2=shedding)",
            **extra,
        )

    # ------------------------------------------------------------------
    def observe(self, utilization: float) -> str:
        """Feed one utilization observation; returns the (new) state."""
        target = self._target_state(utilization)
        current_index = _STATES.index(self.state)
        target_index = _STATES.index(target)
        if target_index > current_index:
            # Escalate immediately to wherever utilization points.
            new_state = target
        elif (
            target_index < current_index
            and utilization < self.config.resume_utilization
        ):
            # De-escalate one state per observation (hysteresis).
            new_state = _STATES[current_index - 1]
        else:
            new_state = self.state
        if new_state != self.state:
            self.state = new_state
            self._transitions[new_state].inc()
        self._state_gauge.set(float(_STATES.index(self.state)))
        return self.state

    def _target_state(self, utilization: float) -> str:
        if utilization >= self.config.shed_utilization:
            return SHEDDING
        if utilization >= self.config.throttle_utilization:
            return THROTTLED
        return ACCEPTING

    @property
    def floor(self) -> Priority:
        """Lowest priority class the current state admits."""
        return _FLOOR[self.state]

    # ------------------------------------------------------------------
    def admit(self, priority: Priority, wait: float, depth: int) -> None:
        """Admit or raise a typed rejection for one operation.

        ``wait`` is the queueing delay the operation would incur on its
        target server; ``depth`` is the queue's current logical depth.
        """
        if depth >= self.config.max_queue_depth:
            raise QueueFullError(depth, self.config.max_queue_depth)
        if priority < self.floor:
            raise OverloadShedError(
                f"priority {priority.name} shed in state {self.state}",
                state=self.state,
                wait=wait,
            )
        if wait > self.config.max_queue_delay:
            raise OverloadShedError(
                f"backlog {wait * 1e3:.2f} ms exceeds queue-delay bound "
                f"{self.config.max_queue_delay * 1e3:.2f} ms",
                state=self.state,
                wait=wait,
            )
