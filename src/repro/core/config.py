"""Configuration for the lightweight repartitioner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import PartitioningError


#: the fraction of n that k defaults to when it is not given
K_FRACTION = 0.01


@dataclass(frozen=True)
class RepartitionerConfig:
    """Tuning knobs of the lightweight repartitioner (paper Section 3).

    Attributes
    ----------
    epsilon:
        Maximum allowed imbalance factor (1 < epsilon < 2).  A partition is
        *overloaded* when its weight exceeds ``epsilon`` times the average
        and *underloaded* below ``2 - epsilon`` times the average.  The
        paper's (and Hermes') default is 1.1, i.e. loads must stay within
        (0.9, 1.1) of the average.
    k:
        Maximum number of vertices each partition logically migrates per
        stage (Algorithm 2's top-k).  ``None`` derives it from the graph:
        ``k = max(1, int(K_FRACTION * n))`` — the paper sets k to "a
        small, fixed fraction of n".
    max_iterations:
        Safety bound on phase-1 iterations.  The paper observes convergence
        in < 50 iterations on million-vertex graphs.
    two_stage:
        The paper's oscillation-avoidance rule: each iteration runs a
        lower-ID -> higher-ID stage then a higher-ID -> lower-ID stage.
        Setting this False enables the single-stage ablation in which both
        directions are allowed simultaneously (Figure 2's pathology).
    stall_iterations:
        Plateau cut-off: stop when the edge-cut has not improved for this
        many iterations *while the partitioning is balance-valid*.  The
        parallel per-stage selection can admit balance-shedding /
        cut-restoring limit cycles near the epsilon boundary (the paper
        controls these only through small k); the plateau rule turns such
        cycles into a stable stop.  ``None`` disables it (used by the
        oscillation ablation).
    workload_alpha:
        Blend factor between static edge-cut gain and observed-traffic
        gain: candidate gain becomes ``(1 - alpha) * (d_t - d_s) +
        alpha * (h_t - h_s)`` where ``h`` is the attached edge heat (see
        :meth:`~repro.core.auxiliary.AuxiliaryData.attach_heat`).  At the
        default 0.0 the repartitioner takes the classic static path —
        bit-for-bit identical to runs without any heat attached.  At 1.0
        selection is driven purely by observed traversal traffic.
    """

    epsilon: float = 1.1
    k: Optional[int] = None
    max_iterations: int = 100
    two_stage: bool = True
    stall_iterations: Optional[int] = 8
    workload_alpha: float = 0.0

    def __post_init__(self) -> None:
        if not 1.0 < self.epsilon < 2.0:
            raise PartitioningError(
                f"epsilon must be in the open interval (1, 2), got {self.epsilon}"
            )
        if self.k is not None and self.k < 1:
            raise PartitioningError(f"k must be >= 1, got {self.k}")
        if self.max_iterations < 1:
            raise PartitioningError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.stall_iterations is not None and self.stall_iterations < 1:
            raise PartitioningError(
                f"stall_iterations must be >= 1 or None, got {self.stall_iterations}"
            )
        if not 0.0 <= self.workload_alpha <= 1.0:
            raise PartitioningError(
                f"workload_alpha must be in [0, 1], got {self.workload_alpha}"
            )

    def effective_k(self, num_vertices: int) -> int:
        """The per-partition, per-stage migration cap for an n-vertex graph."""
        if self.k is not None:
            return self.k
        return max(1, int(K_FRACTION * num_vertices))
