"""ConcurrentExecutor: runs cluster operations as interleaved tasks.

The bridge between the cluster facade and the
:class:`~repro.concurrency.scheduler.EventScheduler`: each operation
(traversal, read, write, rebalance) becomes a task generator that
performs one slice of real cluster work per resumption and yields the
:class:`~repro.concurrency.scheduler.Work` that slice consumed.
Traversals pause between frontier depths, online migrations between
copy-steps, so queries genuinely observe (and are observed by)
migrations in flight.

Two guarantees the executor layers on top of the raw scheduler:

* **clock parity** — the cluster's generators do the work and yield
  costs; the executor, as their consumer, folds every step's cost into
  the cluster clock via ``cluster._advance`` — the serial drivers charge
  the same total in one piece;
* **window auditing** — with
  :attr:`~repro.concurrency.config.ConcurrencyConfig.
  check_window_coherence` on, every dispatched event is followed by a
  sweep of the windowed vertices it could have changed (a copy-step's
  vertex, a mirrored write's endpoints) and the barrier step by a sweep
  of the whole window; any violation is collected in
  :attr:`coherence_violations` (the simtest auditor fails the run if it
  is non-empty).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.durability import commit_all
from repro.concurrency.scheduler import EventScheduler, TaskHandle, Work
from repro.exceptions import MigrationAbortedError, WorkloadError
from repro.workloads.queries import (
    InsertEdge,
    InsertVertex,
    Operation,
    ReadVertex,
    Traversal,
)


class ConcurrentExecutor:
    """Drives a HermesCluster through the event scheduler."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.config = cluster.concurrency
        self.scheduler = EventScheduler(cluster.num_servers)
        #: double-write-window problems found by the per-event sweep
        self.coherence_violations: List[str] = []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        task: Generator[Work, None, Any],
        at: float = 0.0,
        label: str = "",
    ) -> TaskHandle:
        return self.scheduler.spawn(task, at=at, label=label)

    def submit_operation(
        self, operation: Operation, at: float = 0.0
    ) -> TaskHandle:
        return self.submit(
            self.operation_task(operation),
            at=at,
            label=type(operation).__name__,
        )

    def submit_rebalance(self, force: bool = False, at: float = 0.0) -> TaskHandle:
        return self.submit(self.rebalance_task(force=force), at=at, label="rebalance")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[TaskHandle]:
        """One scheduler event, its log transactions committed, + the
        double-write coherence sweep of the windowed vertices that event
        could have changed."""
        handle = self.scheduler.step()
        commit_all(self.cluster.servers)
        if (
            handle is not None
            and self.config.check_window_coherence
            and self.cluster._executor.window_open
        ):
            for problem in self.cluster._executor.sweep_window_changes():
                self.coherence_violations.append(
                    f"after event {len(self.scheduler.records)} "
                    f"({handle.label or 'task'} #{handle.task_id}): {problem}"
                )
        return handle

    def run(self) -> float:
        """Drain every submitted task; returns the event-timeline makespan."""
        while self.scheduler.pending:
            self.step()
        return self.scheduler.now

    def run_until(self, deadline: float) -> None:
        """Dispatch every event ready at or before ``deadline`` (the
        serving front door drains in-flight work up to each arrival)."""
        self.scheduler.run_until(deadline, step=self.step)

    # ------------------------------------------------------------------
    # Task builders
    # ------------------------------------------------------------------
    def operation_task(
        self, operation: Operation
    ) -> Generator[Work, None, Tuple[Any, float]]:
        """An operation as a task; returns ``(outcome, simulated_cost)``."""
        if isinstance(operation, Traversal):
            return self.traverse_task(operation.start, operation.hops)
        if isinstance(operation, ReadVertex):
            return self._sampled_task(
                lambda: self.cluster.read_vertex(operation.vertex), "read"
            )
        if isinstance(operation, InsertVertex):
            return self._sampled_task(
                lambda: (
                    None,
                    self.cluster.add_vertex(
                        operation.vertex,
                        weight=operation.weight,
                        properties=operation.properties,
                    ),
                ),
                "insert_vertex",
            )
        if isinstance(operation, InsertEdge):
            return self._sampled_task(
                lambda: (
                    None,
                    self.cluster.add_edge(
                        operation.u, operation.v, properties=operation.properties
                    ),
                ),
                "insert_edge",
            )
        raise WorkloadError(f"unknown operation type: {operation!r}")

    def traverse_task(
        self, start: int, hops: int
    ) -> Generator[Work, None, Tuple[Any, float]]:
        """A k-hop traversal paused between frontier depths.

        Each resumption runs one depth against the *current* cluster
        state — a migration that commits between depths is visible to the
        next depth (the frontier re-resolves through the location cache).
        Weight tracking happens at completion, as in the serial path.
        """
        cluster = self.cluster
        steps = cluster._engine.traverse_steps(start, hops)
        result = None
        while True:
            try:
                step = next(steps)
            except StopIteration as stop:
                result = stop.value
                break
            cluster._advance(step.cost)
            demands = tuple(sorted(step.busy.items()))
            occupied = sum(step.busy.values())
            yield Work(
                demands=demands,
                latency=max(0.0, step.cost - occupied),
                kind=f"traversal-{step.kind}",
            )
        cluster.add_popularity(result.response)
        return result, result.cost

    def _sampled_task(
        self, call: Callable[[], Tuple[Any, float]], kind: str
    ) -> Generator[Work, None, Tuple[Any, float]]:
        """A single-step operation; server occupancy is measured as the
        per-server ``busy_seconds`` delta across the call (post-paid),
        the rest of the cost is client-perceived latency."""
        before: Dict[int, float] = {
            server.server_id: server.busy_seconds
            for server in self.cluster.servers
        }
        outcome, cost = call()
        demands = []
        for server in self.cluster.servers:
            delta = server.busy_seconds - before.get(
                server.server_id, server.busy_seconds
            )
            if delta > 0.0:
                demands.append((server.server_id, delta))
        occupied = sum(busy for _, busy in demands)
        yield Work(
            demands=tuple(demands),
            latency=max(0.0, cost - occupied),
            kind=kind,
        )
        return outcome, cost

    def rebalance_task(
        self, force: bool = False
    ) -> Generator[Work, None, Optional[Tuple[Any, Any]]]:
        """A rebalance as a task.

        The physical migration streams through
        :meth:`~repro.cluster.hermes.HermesCluster.rebalance_steps` —
        queries run between copy-steps while the double-write window
        covers copied vertices.
        """
        cluster = self.cluster
        steps = cluster.rebalance_steps(force=force)
        advanced = 0.0
        try:
            while True:
                try:
                    step = next(steps)
                except StopIteration as stop:
                    return stop.value
                cluster._advance(step.cost)
                advanced += step.cost
                yield Work(
                    demands=tuple((server, step.cost) for server in step.servers),
                    latency=0.0,
                    kind=f"migration-{step.kind}",
                )
        except MigrationAbortedError as exc:
            # Per-step costs were folded into the clock as they ran; the
            # abort's wasted timeout/backoff is the only remainder.
            cluster._advance(max(0.0, exc.report.total_cost - advanced))
            raise

    # ------------------------------------------------------------------
    # Auditor hooks
    # ------------------------------------------------------------------
    def monotonicity_violations(self) -> List[str]:
        return self.scheduler.monotonicity_violations()

    def failures(self) -> List[TaskHandle]:
        """Handles of tasks that ended with an error."""
        return [
            handle
            for handle in self.scheduler.handles.values()
            if handle.done and handle.error is not None
        ]
