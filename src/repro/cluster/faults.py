"""Deterministic fault injection and retry for the cluster simulator.

The paper's two-step copy/remove migration protocol (Section 3.2) exists
precisely because servers fail: a crash between the copy and remove steps
must never corrupt the database, only waste the copied replicas.  This
module provides the machinery to exercise those failure scenarios
deterministically:

* :class:`FaultPlan` — a pure-data, seeded description of the faults to
  inject: per-server crash/restart windows in simulated time, a default
  per-message loss rate, per-link loss overrides and a response-timeout
  rate.  The same plan against the same operation sequence always injects
  the same faults;
* :class:`FaultInjector` — the runtime consulted by
  :class:`~repro.cluster.network.SimulatedNetwork` on every
  ``remote_hop``/``transfer`` and by :class:`~repro.cluster.server.HermesServer`
  on request dispatch.  It owns the seeded RNG, tracks in-flight
  simulated time (so long operations can cross crash-window boundaries)
  and counts every injected fault into the telemetry hub;
* :class:`RetryPolicy` — bounded exponential backoff.  Backoff pauses are
  charged as *simulated* time: they accumulate into the caller's cost
  accounting and advance the injector's in-flight clock, so a retry can
  outlive a crash window.  Windows, pauses and costs are integer ns.

With no plan attached (the default everywhere) none of this code runs:
the zero-fault path is behaviorally identical to a build without this
module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.exceptions import (
    FaultInjectedError,
    MessageLossError,
    NetworkTimeoutError,
    PartitioningError,
    ServerDownError,
)
from repro.telemetry import Telemetry

T = TypeVar("T")


@dataclass(frozen=True)
class CrashWindow:
    """One server outage: down at ``start``, restarted at ``end`` (ns).

    The simulated server loses no data across the window (the paper's
    protocol tolerates mid-migration crashes precisely because restarted
    servers come back with their stores intact).
    """

    server: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise PartitioningError(
                f"crash window end {self.end} must be after start {self.start}"
            )

    def covers(self, now: int) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic description of the faults to inject.

    ``loss_rate`` applies to every directed link unless ``link_loss``
    overrides that pair; ``timeout_rate`` models a delivered message whose
    response never arrives (indistinguishable from loss to the sender,
    but counted separately).  All probabilities are evaluated against one
    RNG seeded with ``seed``, so a fixed plan and operation sequence
    reproduce the exact same fault schedule.
    """

    seed: int = 0
    loss_rate: float = 0.0
    timeout_rate: float = 0.0
    crash_windows: Tuple[CrashWindow, ...] = ()
    link_loss: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for rate in (self.loss_rate, self.timeout_rate, *self.link_loss.values()):
            if not 0.0 <= rate <= 1.0:
                raise PartitioningError(f"fault rate {rate} not in [0, 1]")

    def down_at(self, server: int, now: int) -> bool:
        """Is ``server`` inside one of its crash windows at ``now``?"""
        return any(
            window.server == server and window.covers(now)
            for window in self.crash_windows
        )

    def loss_for(self, src: int, dst: int) -> float:
        return self.link_loss.get((src, dst), self.loss_rate)

    def to_dict(self) -> Dict[str, object]:
        """Pure-JSON representation, for simtest replay artifacts."""
        return {
            "seed": self.seed,
            "loss_rate": self.loss_rate,
            "timeout_rate": self.timeout_rate,
            "crash_windows": [
                {"server": w.server, "start": w.start, "end": w.end}
                for w in self.crash_windows
            ],
            "link_loss": [
                [src, dst, rate] for (src, dst), rate in sorted(self.link_loss.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (tuple keys survive the round trip)."""
        return cls(
            seed=int(data.get("seed", 0)),
            loss_rate=float(data.get("loss_rate", 0.0)),
            timeout_rate=float(data.get("timeout_rate", 0.0)),
            crash_windows=tuple(
                CrashWindow(
                    server=int(w["server"]),
                    start=int(w["start"]),
                    end=int(w["end"]),
                )
                for w in data.get("crash_windows", [])
            ),
            link_loss={
                (int(src), int(dst)): float(rate)
                for src, dst, rate in data.get("link_loss", [])
            },
        )


class FaultInjector:
    """Runtime fault oracle shared by the network, servers and retriers.

    Time resolution: the injector's view of "now" is the cluster clock
    plus the simulated time accrued *inside* the current operation
    (network charges, fault timeouts, retry backoff).  The cluster resets
    the in-flight component whenever it folds an operation's cost into
    its own clock, so a migration long enough to span a crash window sees
    the server come back up mid-operation.
    """

    def __init__(
        self,
        plan: FaultPlan,
        clock: Optional[Callable[[], int]] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.clock = clock or (lambda: 0)
        self.inflight = 0
        telemetry = telemetry or Telemetry()
        self.telemetry = telemetry
        self._injected = {
            kind: telemetry.counter(
                "faults_injected_total", "faults injected into the cluster",
                kind=kind,
            )
            for kind in ("server_down", "message_loss", "timeout")
        }

    # ------------------------------------------------------------------
    # Simulated-time bookkeeping
    # ------------------------------------------------------------------
    def now(self) -> int:
        return self.clock() + self.inflight

    def advance(self, ns: int) -> None:
        """Charge in-flight simulated time (network ops, retry backoff)."""
        self.inflight += ns

    def reset(self) -> None:
        """Called when the cluster folds an operation's cost into its clock."""
        self.inflight = 0

    # ------------------------------------------------------------------
    # Fault checks
    # ------------------------------------------------------------------
    def is_down(self, server: int) -> bool:
        return self.plan.down_at(server, self.now())

    def check_server(self, server: int, cost: int = 0) -> None:
        """Raise :class:`ServerDownError` if ``server`` is crashed."""
        if self.is_down(server):
            self._injected["server_down"].inc()
            self.advance(cost)
            raise ServerDownError(server, cost=cost)

    def check_message(self, src: int, dst: int, cost: int = 0) -> None:
        """Decide the fate of one ``src -> dst`` message.

        Raises :class:`ServerDownError` when the destination is crashed,
        :class:`MessageLossError`/:class:`NetworkTimeoutError` on a loss
        or timeout draw.  ``cost`` is the sender-side timeout charged for
        the wasted attempt; it is added to the in-flight clock before the
        raise so retries see time move forward.
        """
        self.check_server(dst, cost=cost)
        loss = self.plan.loss_for(src, dst)
        if loss and self.rng.random() < loss:
            self._injected["message_loss"].inc()
            self.advance(cost)
            raise MessageLossError(src, dst, cost=cost)
        if self.plan.timeout_rate and self.rng.random() < self.plan.timeout_rate:
            self._injected["timeout"].inc()
            self.advance(cost)
            raise NetworkTimeoutError(src, dst, cost=cost)


class RetryPolicy:
    """Bounded exponential backoff over injected faults.

    ``call`` runs an operation that may raise
    :class:`~repro.exceptions.FaultInjectedError`; every failed attempt
    charges its wasted timeout plus a backoff pause, both in simulated
    nanoseconds.  After ``MAX_ATTEMPTS`` failures the last exception is
    re-raised with its ``cost`` updated to the *cumulative* simulated
    time the whole retry loop consumed.
    """

    MAX_ATTEMPTS = 4
    BASE_BACKOFF = 2_000_000
    MULTIPLIER = 2
    MAX_BACKOFF = 100_000_000

    @classmethod
    def backoff(cls, attempt: int) -> int:
        """Pause after the ``attempt``-th failure (1-based)."""
        return min(cls.BASE_BACKOFF * cls.MULTIPLIER ** (attempt - 1), cls.MAX_BACKOFF)

    @classmethod
    def call(
        cls,
        op: Callable[[], T],
        injector: Optional[FaultInjector] = None,
        on_retry: Optional[Callable[[FaultInjectedError, int], None]] = None,
    ) -> Tuple[T, int]:
        """Run ``op`` with retries; returns ``(result, wasted)``.

        ``wasted`` covers failed attempts and backoff pauses but
        not the successful attempt's own cost (the op returns that).
        """
        wasted = 0
        for attempt in range(1, cls.MAX_ATTEMPTS + 1):
            try:
                return op(), wasted
            except FaultInjectedError as exc:
                wasted += exc.cost
                if attempt == cls.MAX_ATTEMPTS:
                    exc.cost = wasted
                    raise
                pause = cls.backoff(attempt)
                wasted += pause
                if injector is not None:
                    injector.advance(pause)
                if on_retry is not None:
                    on_retry(exc, pause)
        raise AssertionError("unreachable")  # pragma: no cover
