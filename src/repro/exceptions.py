"""Exception hierarchy for the Hermes reproduction.

Every error raised by this library derives from :class:`HermesError` so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish subsystem-specific conditions.
"""

from __future__ import annotations


class HermesError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(HermesError):
    """Base class for errors from the in-memory graph substrate."""


class VertexNotFoundError(GraphError, KeyError):
    """A referenced vertex does not exist in the graph."""

    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex!r} does not exist")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """A referenced edge does not exist in the graph."""

    def __init__(self, u: int, v: int):
        super().__init__(f"edge ({u!r}, {v!r}) does not exist")
        self.u = u
        self.v = v


class DuplicateVertexError(GraphError, ValueError):
    """An attempt was made to add a vertex that already exists."""

    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex!r} already exists")
        self.vertex = vertex


class PartitioningError(HermesError):
    """Base class for partitioning-related errors."""


class InvalidPartitionError(PartitioningError, ValueError):
    """A partition index is out of range or otherwise invalid."""


class StorageError(HermesError):
    """Base class for storage-engine errors."""


class RecordNotFoundError(StorageError, KeyError):
    """A record ID was not found in its store."""


class RecordDeletedError(StorageError):
    """A record exists but has been deleted (tombstoned)."""


class PageError(StorageError):
    """A page-level I/O or bounds failure."""


class StoreCorruptionError(StorageError):
    """Persisted store bytes failed an integrity check on open."""


class VertexUnavailableError(HermesError):
    """The vertex is in the *unavailable* state of the migration remove step.

    Queries referencing such a vertex execute as if the vertex is not part
    of the local vertex set (paper Section 3.2).
    """


class ClusterError(HermesError):
    """Base class for distributed-cluster errors."""


class FaultInjectedError(ClusterError):
    """Base class for failures produced by the fault-injection layer.

    ``cost`` is the simulated time the failed operation wasted (timeouts
    spent waiting, retransmissions, retry backoff); callers charge it to
    their cost accounting even though the operation did not succeed.
    """

    def __init__(self, message: str, cost: float = 0.0):
        super().__init__(message)
        self.cost = cost


class ServerDownError(FaultInjectedError):
    """The addressed server is inside a crash window and unreachable."""

    def __init__(self, server: int, cost: float = 0.0):
        super().__init__(f"server {server} is down", cost=cost)
        self.server = server


class MessageLossError(FaultInjectedError):
    """A network message was dropped; the sender timed out waiting."""

    def __init__(self, src: int, dst: int, cost: float = 0.0):
        super().__init__(f"message {src} -> {dst} was lost", cost=cost)
        self.src = src
        self.dst = dst


class NetworkTimeoutError(FaultInjectedError):
    """A message was delivered but its response timed out."""

    def __init__(self, src: int, dst: int, cost: float = 0.0):
        super().__init__(f"message {src} -> {dst} timed out", cost=cost)
        self.src = src
        self.dst = dst


class MigrationAbortedError(ClusterError):
    """A physical migration failed and was rolled back.

    The cluster is byte-identical to its pre-migration state; ``report``
    carries the cost of the aborted attempt (the simulated time is spent
    even though no records moved) and ``cause`` the original failure.
    The same plan can be retried once the fault clears.
    """

    def __init__(self, cause: Exception, report):
        super().__init__(f"migration aborted and rolled back: {cause}")
        self.cause = cause
        self.report = report


class MigrationInFlightError(ClusterError):
    """Another migration is still in flight; only one runs at a time.

    Raised before the refused call's first side effect, so the cluster
    is exactly as it was: ``entry`` names the refused call and
    ``holder`` the migration that owns the slot (from its phase 1
    through its last remove step).  Retry once the holder has finished.
    """

    def __init__(self, entry: str, holder: str):
        super().__init__(f"{entry} refused: {holder} is still migrating")
        self.entry = entry
        self.holder = holder


class CatalogError(ClusterError):
    """The vertex -> partition catalog has no entry for a vertex."""


class WorkloadError(HermesError):
    """A workload/trace specification is invalid."""


class InvariantViolationError(HermesError):
    """The simtest auditor found cluster state violating an invariant.

    ``violations`` is the full list of
    :class:`~repro.simtest.invariants.InvariantViolation` records the
    audit produced (the message shows the first one).
    """

    def __init__(self, violations):
        first = violations[0] if violations else None
        super().__init__(
            f"{len(violations)} invariant violation(s): {first}"
        )
        self.violations = list(violations)


class TelemetryError(HermesError):
    """Misuse of the telemetry subsystem (metric kind clash, bad buckets)."""


class ServingError(HermesError):
    """Base class for front-door serving-layer errors."""


class AdmissionRejectedError(ServingError):
    """Base class for typed load-shed rejections from the serving layer.

    Every concrete rejection carries a machine-readable ``reason`` slug
    used as the telemetry label and in the queue's conservation
    accounting (``serving_shed_total{reason=...}``).
    """

    reason = "rejected"


class QueueFullError(AdmissionRejectedError):
    """The query queue was at its bounded depth."""

    reason = "queue_full"

    def __init__(self, depth: int, max_depth: int):
        super().__init__(f"queue depth {depth} at bound {max_depth}")
        self.depth = depth
        self.max_depth = max_depth


class OverloadShedError(AdmissionRejectedError):
    """Admission control shed the operation to protect latency.

    Raised both for priority-class shedding (the controller's state
    machine floors out the operation's class) and for the per-operation
    latency guard (the target server's backlog would blow the queueing
    delay bound even for an admitted class).
    """

    reason = "overload_shed"

    def __init__(self, message: str, state: str, wait: float = 0.0):
        super().__init__(message)
        self.state = state
        self.wait = wait
