"""Repartitioning trigger: detect when load imbalance exceeds epsilon.

Per the paper's running example (Section 2.2), repartitioning triggers
when some partition's imbalance factor — its aggregate weight over the
average partition weight — leaves the acceptable band
``(2 - epsilon, epsilon)``.  Each server can evaluate this locally since
the auxiliary data includes every partition's aggregate weight.

Every check is recorded into the attached telemetry hub (a counter split
by outcome plus, when recording, a ``trigger_decision`` event carrying
the offending partitions), so trigger behaviour is reconstructable from
the exported event log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.auxiliary import AuxiliaryData
from repro.exceptions import PartitioningError
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class TriggerDecision:
    """Outcome of a trigger check, with the partitions that caused it."""

    should_repartition: bool
    overloaded: List[int]
    underloaded: List[int]
    max_imbalance: float


class ImbalanceTrigger:
    """Fires when any partition is overloaded or underloaded."""

    _CHECKS_HELP = "trigger evaluations"

    def __init__(
        self,
        epsilon: float = 1.1,
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        if not 1.0 < epsilon < 2.0:
            raise PartitioningError(f"epsilon must be in (1, 2), got {epsilon}")
        self.epsilon = epsilon
        telemetry = telemetry or Telemetry()
        self.telemetry = telemetry
        # Both series pass the family help string: whichever is created
        # first must not leave the family undocumented.
        self._fired = telemetry.counter(
            "trigger_checks_total", self._CHECKS_HELP, outcome="fired", **(labels or {})
        )
        self._held = telemetry.counter(
            "trigger_checks_total", self._CHECKS_HELP, outcome="held", **(labels or {})
        )

    def check(self, aux: AuxiliaryData) -> TriggerDecision:
        overloaded = [
            p for p in range(aux.num_partitions) if aux.is_overloaded(p, self.epsilon)
        ]
        underloaded = [
            p for p in range(aux.num_partitions) if aux.is_underloaded(p, self.epsilon)
        ]
        decision = TriggerDecision(
            should_repartition=bool(overloaded or underloaded),
            overloaded=overloaded,
            underloaded=underloaded,
            max_imbalance=aux.max_imbalance(),
        )
        (self._fired if decision.should_repartition else self._held).inc()
        self.telemetry.event(
            "trigger_decision",
            should_repartition=decision.should_repartition,
            overloaded=overloaded,
            underloaded=underloaded,
            max_imbalance=decision.max_imbalance,
            epsilon=self.epsilon,
        )
        return decision
