"""Algorithm 1: choosing the target partition for a migration candidate.

A vertex ``v`` hosted on source partition ``P_s`` is a candidate for
migration to ``P_t`` iff all of the following hold (Section 3.1):

1. the stage's one-way rule allows ``P_s -> P_t`` (stage 1: lower ID to
   higher ID; stage 2: the opposite) — this prevents oscillation;
2. moving ``v`` does not underload ``P_s`` (weight would fall below
   ``(2 - epsilon) * average``) nor overload ``P_t`` (weight would reach
   ``epsilon * average``);
3. either ``P_s`` is overloaded (off-loading moves with zero or negative
   gain are then acceptable) or the gain is strictly positive.

Among admissible targets the one with maximum gain wins.

This module is the readable, one-vertex-at-a-time statement of the
algorithm and the oracle the tests hold the vectorised engine to:
:class:`~repro.core.repartitioner.LightweightRepartitioner` evaluates the
same rules for a whole source partition at once over the count matrix
(DESIGN.md §6) and must return exactly what :func:`get_target_partition`
returns per member.  When a source is *not* overloaded, only targets the
vertex actually has neighbors in can beat the strictly-positive-gain bar,
so the scan iterates the vertex's non-zero counters (ascending partition
ID, the same tie-break order as the dense scan) instead of all alpha
partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.auxiliary import AuxiliaryData, weighted_imbalance

#: Stage constants: stage 1 moves lower ID -> higher ID, stage 2 the reverse.
STAGE_LOW_TO_HIGH = 1
STAGE_HIGH_TO_LOW = 2
#: Ablation pseudo-stage allowing both directions at once (Figure 2 pathology).
STAGE_ANY_DIRECTION = 0


@dataclass(frozen=True)
class MigrationCandidate:
    """A vertex selected for logical migration, with its target and gain."""

    vertex: int
    source: int
    target: int
    #: static runs carry the integer edge-cut gain; workload-aware runs
    #: (workload_alpha > 0) carry the blended float gain
    gain: float

    def __lt__(self, other: "MigrationCandidate") -> bool:
        # Orders by gain so candidate lists can be heap-sorted directly.
        return self.gain < other.gain


def direction_allows(stage: int, source: int, target: int) -> bool:
    """The one-way migration rule for a stage."""
    if stage == STAGE_LOW_TO_HIGH:
        return target > source
    if stage == STAGE_HIGH_TO_LOW:
        return target < source
    return target != source  # STAGE_ANY_DIRECTION (ablation only)


def get_target_partition(
    aux: AuxiliaryData,
    vertex: int,
    stage: int,
    epsilon: float,
    average: Optional[float] = None,
    overloaded: Optional[bool] = None,
    alpha: float = 0.0,
    targets: Optional[Sequence[float]] = None,
) -> Tuple[Optional[int], float]:
    """Paper Algorithm 1: returns ``(target, gain)``; target None if no move.

    Only auxiliary data is consulted: the vertex's per-partition neighbor
    counts, its weight, and the aggregate partition weights.

    ``average`` and ``overloaded`` let a per-stage caller freeze the
    (migration-invariant) average weight and the source's overload status
    instead of re-deriving them per vertex; when omitted they are computed
    from ``aux``.

    ``targets`` switches the balance tests from the plain average to
    capacity-weighted targets (:meth:`AuxiliaryData.balance_targets`): a
    partition's weight is compared against *its own* target, a
    zero-target partition (a draining server) is never an admissible
    destination, and as a source it skips the underload guard — it must
    shed everything.

    ``alpha`` > 0 blends observed-traffic heat into the gain:
    ``(1 - alpha) * (d_t - d_s) + alpha * (h_t - h_s)``.  Heat only
    exists toward partitions the vertex has real neighbors in (it is
    learned from traversed edges), so the non-zero-counter scan below
    still covers every target a non-overloaded source could admit, and
    at alpha == 0 the arithmetic — integer gains included — is exactly
    the static path.
    """
    source = aux.partition_of(vertex)
    weight = aux.weight_of(vertex)
    partition_weights = aux.partition_weights
    if targets is None and average is None:
        average = aux.average_weight()

    def factor(partition: int, delta: float) -> float:
        """Imbalance of ``partition`` after its weight changes by ``delta``;
        the expressions mirror ``AuxiliaryData.imbalance_factor`` term for
        term so frozen denominators yield bit-identical floats."""
        if targets is not None:
            return weighted_imbalance(
                partition_weights[partition] + delta, targets[partition]
            )
        if average == 0:
            return 1.0
        return (partition_weights[partition] + delta) / average

    # Line 2: moving v away must not underload the source (a draining
    # source has no floor to respect).
    draining = targets is not None and targets[source] == 0.0
    if not draining and factor(source, -weight) < 2.0 - epsilon:
        return None, 0

    # Lines 4-6: an overloaded source may shed vertices at negative gain;
    # otherwise only strictly positive gains are considered.  Algorithm 1
    # literally writes ``maxGain = -1``, but the prose is explicit that an
    # overloaded partition should "consider all vertices as candidates for
    # migration to any other partition as long as they do not cause an
    # overload" — and the balance-convergence argument (Section 3.3.2)
    # needs that: in highly clustered graphs every vertex of an overloaded
    # partition can have strictly negative gain.  We follow the prose and
    # treat the overloaded bound as unbounded below; the top-k selection
    # still prefers the least-damaging (maximum-gain) vertices.
    if overloaded is None:
        overloaded = factor(source, 0.0) > epsilon

    counts = aux.neighbor_counts(vertex)
    d_source = counts.get(source, 0)
    if alpha:
        heat = aux.heat_counts(vertex)
        h_source = heat.get(source, 0.0)

    # Lines 7-13: scan admissible targets, keep the maximum-gain one.  A
    # non-overloaded source needs gain > 0, which only partitions present
    # in the sparse counters can supply; an overloaded source admits
    # negative gain, so every partition stays in play.
    target: Optional[int] = None
    max_gain: float = 0
    if overloaded:
        max_gain = float("-inf")
        candidates = range(aux.num_partitions)
    else:
        candidates = sorted(counts)
    for candidate in candidates:
        if candidate == source:
            continue
        if not direction_allows(stage, source, candidate):
            continue
        if alpha:
            candidate_gain = (1.0 - alpha) * (
                counts.get(candidate, 0) - d_source
            ) + alpha * (heat.get(candidate, 0.0) - h_source)
        else:
            candidate_gain = counts.get(candidate, 0) - d_source
        if candidate_gain <= max_gain:
            continue  # cheap reject before the balance check
        if targets is not None and targets[candidate] == 0.0:
            continue
        if factor(candidate, weight) < epsilon:
            target = candidate
            max_gain = candidate_gain

    if target is None:
        return None, 0
    return target, max_gain
