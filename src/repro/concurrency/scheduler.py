"""Per-server event-queue scheduler on the simulated clock.

The serial simulator runs every operation to completion before the next
one starts, so a traversal can never observe a half-finished migration
and a migration never competes with queries for server time.  This
module replaces that with a discrete-event scheduler:

* every operation (and every online migration) is a **task** — a Python
  generator that performs one *step* of real cluster work per
  resumption (one traversal depth, one read, one write, one migration
  copy-step) and yields a :class:`Work` describing the simulated
  resources that step consumed;
* each server drains its own FIFO of timestamped events: a step that
  occupies a server starts no earlier than the server's previous event
  finished, so queries queue behind migration copy-steps and behind
  each other exactly as they would on a real single-threaded server
  loop;
* the scheduler always resumes the task with the earliest ready time
  (ties broken by spawn order), which makes the interleaving — and
  therefore every cluster state the steps produce — fully
  deterministic.

Two timelines coexist, following the precedent set by the serving
layer's arrival clock: the **cluster clock** keeps accumulating each
operation's execution cost exactly as in serial mode (fault windows,
weight decay and the workload model are unaffected), while the
scheduler's **event timeline** decides the order in which steps execute
and how long the whole workload takes end to end (the makespan that
throughput curves divide by).

Every dispatched event is recorded (server, start, finish, kind, task),
which is what the simtest auditor's ``event-clock-monotonic`` invariant
sweeps: per server, event starts and finishes must be non-decreasing
and the server's free-at bookkeeping must equal its last recorded
finish.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.network import seconds
from repro.exceptions import HermesError


@dataclass(frozen=True)
class Work:
    """One task step's simulated resource demand.

    ``demands`` lists ``(server, busy)`` occupancy charges; each server
    serves them FIFO.  ``latency`` is additional client-perceived time
    (wire round trips, dispatch) that does not occupy any server.  Both
    are integer nanoseconds.  The step's finish time is the later of its
    server work finishing and its latency elapsing.
    """

    demands: Tuple[Tuple[int, int], ...] = ()
    latency: int = 0
    kind: str = "step"


@dataclass(frozen=True)
class EventRecord:
    """One dispatched event on one server (the auditable log entry)."""

    seq: int
    task: int
    server: int
    kind: str
    start: int
    finish: int


@dataclass
class TaskHandle:
    """Introspection handle for one spawned task."""

    task_id: int
    label: str
    #: generator's return value once finished (StopIteration payload)
    result: Any = None
    #: the error that ended the task, if it raised instead of returning
    error: Optional[BaseException] = None
    #: event-timeline instant the last step finished
    finish: int = 0
    done: bool = False
    steps: int = 0

    @property
    def ok(self) -> bool:
        return self.done and self.error is None


Task = Generator[Work, None, Any]


class EventScheduler:
    """Deterministic per-server FIFO event scheduler."""

    def __init__(self, num_servers: int):
        #: per-server event timeline: when the server's queue drains;
        #: a server that joins later gets its lane on its first demand
        self.server_free: List[int] = [0] * num_servers
        #: every dispatched event, in global dispatch order
        self.records: List[EventRecord] = []
        #: ready-queue of runnable tasks: (ready_time, spawn_seq, task_id)
        self._ready: List[Tuple[int, int, int]] = []
        self._tasks: Dict[int, Task] = {}
        self.handles: Dict[int, TaskHandle] = {}
        self._next_task = 0
        self._next_event = 0
        #: largest event finish dispatched so far (the makespan so far)
        self.now_ns = 0

    @property
    def now(self) -> float:
        """The makespan so far, in seconds."""
        return seconds(self.now_ns)

    # ------------------------------------------------------------------
    def spawn(self, task: Task, at: int = 0, label: str = "") -> TaskHandle:
        """Register a task; its first step becomes runnable at ``at``."""
        task_id = self._next_task
        self._next_task += 1
        handle = TaskHandle(task_id=task_id, label=label)
        self._tasks[task_id] = task
        self.handles[task_id] = handle
        heapq.heappush(self._ready, (at, task_id, task_id))
        return handle

    @property
    def pending(self) -> int:
        """Tasks that still have steps to run."""
        return len(self._ready)

    # ------------------------------------------------------------------
    def step(self) -> Optional[TaskHandle]:
        """Dispatch the earliest-ready task's next step.

        Returns the task's handle (finished or not), or None when no
        task is runnable.  Grows the server timelines, the event log and
        ``now_ns``; the resumed generator performs its cluster mutations
        synchronously inside this call.
        """
        if not self._ready:
            return None
        ready, _, task_id = heapq.heappop(self._ready)
        task = self._tasks[task_id]
        handle = self.handles[task_id]
        try:
            work = task.send(None)
        except (StopIteration, HermesError) as end:
            # A task that dies mid-flight (e.g. an aborted online
            # migration) ends cleanly: the error is recorded on the
            # handle and the remaining tasks keep running.
            if isinstance(end, StopIteration):
                handle.result = end.value
            else:
                handle.error = end
            handle.finish = max(handle.finish, ready)
            handle.done = True
            del self._tasks[task_id]
            self.now_ns = max(self.now_ns, handle.finish)
            return handle

        handle.steps += 1
        finish = ready + work.latency
        for server, busy in work.demands:
            if server >= len(self.server_free):
                # A server that joined after this scheduler was built:
                # its lane is free from time zero (it has no history).
                self.server_free.extend(
                    [0] * (server + 1 - len(self.server_free))
                )
            start = max(ready, self.server_free[server])
            end = start + busy
            self.server_free[server] = end
            self.records.append(
                EventRecord(
                    seq=self._next_event,
                    task=task_id,
                    server=server,
                    kind=work.kind,
                    start=start,
                    finish=end,
                )
            )
            self._next_event += 1
            finish = max(finish, end)
        handle.finish = finish
        self.now_ns = max(self.now_ns, finish)
        heapq.heappush(self._ready, (finish, task_id, task_id))
        return handle

    def run(self) -> int:
        """Drain every task; returns the makespan (largest event finish)."""
        while self._ready:
            self.step()
        return self.now_ns

    def run_until(
        self, deadline: int, step: Optional[Callable[[], Any]] = None
    ) -> None:
        """Dispatch every step whose ready time is at or before
        ``deadline`` — the hook the serving front door uses to execute
        pending events (migration copy-steps, replica-update
        deliveries) that precede a new arrival.  ``step`` replaces
        :meth:`step` as the per-event dispatcher (the executor wraps it
        with its coherence sweep)."""
        dispatch = step or self.step
        while self._ready and self._ready[0][0] <= deadline:
            dispatch()

    # ------------------------------------------------------------------
    # Introspection (auditor hooks)
    # ------------------------------------------------------------------
    def per_server_records(self) -> List[List[EventRecord]]:
        """The event log split per server, in dispatch order."""
        lanes: List[List[EventRecord]] = [[] for _ in self.server_free]
        for record in self.records:
            lanes[record.server].append(record)
        return lanes

    def monotonicity_violations(self) -> List[str]:
        """Event-clock monotonicity sweep over the recorded timeline.

        Per server the FIFO drain must never run backwards: successive
        event starts and finishes are non-decreasing, no event finishes
        before it starts, and the server's ``free_at`` bookkeeping equals
        its last recorded finish.
        """
        problems: List[str] = []
        for server, lane in enumerate(self.per_server_records()):
            last_start = last_finish = 0
            for record in lane:
                if record.finish < record.start:
                    problems.append(
                        f"server {server} event #{record.seq} finishes at "
                        f"{record.finish} before its start {record.start}"
                    )
                if record.start < last_start or record.finish < last_finish:
                    problems.append(
                        f"server {server} event #{record.seq} runs backwards "
                        f"(start {record.start} after {last_start}, finish "
                        f"{record.finish} after {last_finish})"
                    )
                last_start, last_finish = record.start, record.finish
            if lane and self.server_free[server] != last_finish:
                problems.append(
                    f"server {server} free-at {self.server_free[server]} != "
                    f"last recorded finish {last_finish}"
                )
        return problems
