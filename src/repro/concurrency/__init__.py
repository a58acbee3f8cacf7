"""Concurrent execution engine (per-server event queues).

The paper runs its throughput experiments with 32 clients submitting
concurrently while Hermes repartitions online; this package gives the
simulator the same execution model.  See
:class:`~repro.concurrency.config.ConcurrencyConfig` for the engine's
knobs, :class:`~repro.concurrency.scheduler.EventScheduler` for the
deterministic per-server FIFO event timeline, and
:class:`~repro.concurrency.engine.ConcurrentExecutor` for the task
builders that slice traversals, writes and online migrations into
interleavable steps.

``ConcurrentExecutor`` is intentionally *not* imported here: the engine
module is imported lazily by its consumers so that
``repro.cluster.hermes`` can import :class:`ConcurrencyConfig` without a
cycle.
"""

from repro.concurrency.config import ConcurrencyConfig
from repro.concurrency.scheduler import (
    EventRecord,
    EventScheduler,
    TaskHandle,
    Work,
)

__all__ = [
    "ConcurrencyConfig",
    "EventRecord",
    "EventScheduler",
    "TaskHandle",
    "Work",
]
