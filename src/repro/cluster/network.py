"""Simulated peer-to-peer network with a latency cost model.

Hermes servers are "connected in a peer-to-peer fashion" (Figure 6); an
edge-cut shifts a local traversal step into a remote traversal, "thereby
incurring significant network latency" (Section 1).  The simulation
charges every operation a cost in simulated seconds:

* a local vertex visit costs ``local_visit_cost`` (an in-memory/page-cache
  record read plus processing);
* following an edge whose endpoint lives on another server costs an extra
  ``remote_hop_cost`` (a request/response round on the LAN);
* bulk record transfers during migration cost
  ``transfer_base_cost + bytes * transfer_byte_cost``.

Defaults approximate the paper's testbed (1Gb Ethernet: ~0.5 ms per
round-trip including serialization; tens of microseconds per local record
visit).  The *absolute* throughput numbers are not meaningful — the
relative performance of partitioners, which is driven by the
local/remote mix, is.

Besides the legacy :class:`NetworkStats` counters (kept as the source of
truth for aggregate messages/bytes and per-link totals), the network
mirrors everything into an attached :class:`~repro.telemetry.Telemetry`
hub: ``network_messages_total``/``network_bytes_total`` counters labelled
per kind (hop/transfer) and hop/transfer latency histograms.  With the
default null hub all of that is a handful of no-op calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.faults import FaultInjector
from repro.exceptions import ClusterError, FaultInjectedError
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.registry import DEFAULT_SIZE_BUCKETS

#: histogram buckets for frontier entries per batched hop message
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class NetworkConfig:
    """Latency model in simulated seconds."""

    local_visit_cost: float = 20e-6
    remote_hop_cost: float = 500e-6
    #: CPU consumed on EACH endpoint server to service one remote hop
    #: (serialization, syscalls, RPC dispatch) — this is the "network IO"
    #: load that edge-cuts impose on servers, distinct from wire latency.
    remote_service_cost: float = 50e-6
    transfer_base_cost: float = 500e-6
    transfer_byte_cost: float = 8e-9  # ~1 Gb/s payload bandwidth
    client_dispatch_cost: float = 100e-6  # client -> cluster round trip
    #: sender-side wait before a lost/unanswered message is declared dead
    #: (a few RTTs, as a TCP-ish retransmission timeout would be)
    fault_timeout_cost: float = 2e-3
    #: Traversal frontier work bound for one server rides a single
    #: request per (src, dst) link per depth; this is the marginal cost
    #: of one extra frontier entry riding that already-paid round trip
    #: (serialization of one vertex id + one response row)
    batch_entry_cost: float = 25e-6
    #: wire framing of one batched request (header, routing, checksums)
    batch_base_bytes: int = 128
    #: payload bytes per frontier entry in a batched request/response
    batch_entry_bytes: int = 64


@dataclass
class LinkStats:
    """Traffic on one directed server pair."""

    messages: int = 0
    bytes: int = 0


@dataclass
class NetworkStats:
    """Message/byte counters kept per server pair.

    Send-side (``record``) and receive-side (``deliver``) accounting are
    deliberately separate code paths: the network charges the sender when
    it puts a message on the wire and the receiver when the message
    arrives.  In a correct simulation every delivered message is counted
    exactly once on each side — the conservation invariant
    (bytes-sent == bytes-received per link) that the simtest auditor
    checks between schedule steps.  A message dropped by fault injection
    is counted on neither side.
    """

    messages: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    per_link: Dict[Tuple[int, int], LinkStats] = field(default_factory=dict)
    received_per_link: Dict[Tuple[int, int], LinkStats] = field(default_factory=dict)

    def record(self, src: int, dst: int, size: int) -> None:
        self.messages += 1
        self.bytes_sent += size
        link = self.per_link.get((src, dst))
        if link is None:
            link = self.per_link[(src, dst)] = LinkStats()
        link.messages += 1
        link.bytes += size

    def deliver(self, src: int, dst: int, size: int) -> None:
        """Receive-side counterpart of :meth:`record`."""
        self.messages_received += 1
        self.bytes_received += size
        link = self.received_per_link.get((src, dst))
        if link is None:
            link = self.received_per_link[(src, dst)] = LinkStats()
        link.messages += 1
        link.bytes += size

    def top_links(
        self, n: int, by: str = "bytes"
    ) -> List[Tuple[Tuple[int, int], LinkStats]]:
        """The ``n`` busiest links, by ``bytes`` (default) or ``messages``."""
        if by not in ("bytes", "messages"):
            raise ValueError(f"by must be 'bytes' or 'messages', got {by!r}")
        # Descending by traffic, ties in ascending link order (reverse=True
        # on the whole tuple would flip the tie order too).
        ranked = sorted(
            self.per_link.items(),
            key=lambda item: (-getattr(item[1], by), item[0]),
        )
        return ranked[:n]


class SimulatedNetwork:
    """Cost accounting for inter-server communication."""

    def __init__(
        self,
        num_servers: int,
        config: Optional[NetworkConfig] = None,
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        if num_servers < 1:
            raise ClusterError("need at least one server")
        self.num_servers = num_servers
        self.config = config if config is not None else NetworkConfig()
        self.stats = NetworkStats()
        self.fault_injector: Optional[FaultInjector] = None
        self._labels = dict(labels or {})
        self.attach_telemetry(telemetry or NULL_TELEMETRY)

    def attach_faults(self, injector: Optional[FaultInjector]) -> None:
        """Install (or with None, remove) the fault-injection oracle."""
        self.fault_injector = injector

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """(Re)bind the metric instruments against ``telemetry``."""
        self.telemetry = telemetry
        extra = self._labels
        # Per-link gauges are quadratic in servers, so they are only
        # materialized at export time via the hub's flush hooks.
        telemetry.on_flush(self.export_link_metrics)
        self._hop_messages = telemetry.counter(
            "network_messages_total", "messages sent between servers",
            kind="hop", **extra,
        )
        self._transfer_messages = telemetry.counter(
            "network_messages_total", kind="transfer", **extra
        )
        self._hop_bytes = telemetry.counter(
            "network_bytes_total", "payload bytes sent between servers",
            kind="hop", **extra,
        )
        self._transfer_bytes = telemetry.counter(
            "network_bytes_total", kind="transfer", **extra
        )
        self._hop_latency = telemetry.histogram(
            "network_hop_seconds", "simulated latency of one remote hop", **extra
        )
        self._transfer_latency = telemetry.histogram(
            "network_transfer_seconds",
            "simulated latency of one bulk transfer",
            **extra,
        )
        self._transfer_sizes = telemetry.histogram(
            "network_transfer_bytes",
            "payload size of one bulk transfer",
            buckets=DEFAULT_SIZE_BUCKETS,
            **extra,
        )
        self._batch_sizes = telemetry.histogram(
            "network_batch_entries",
            "frontier entries aggregated into one batched hop",
            buckets=BATCH_SIZE_BUCKETS,
            **extra,
        )

    def add_server(self) -> int:
        """Admit one more endpoint; returns its id.  Stats dicts grow
        lazily, so widening the id range is all a join needs."""
        server = self.num_servers
        self.num_servers += 1
        return server

    def _check(self, server: int) -> None:
        if not 0 <= server < self.num_servers:
            raise ClusterError(
                f"server {server} out of range [0, {self.num_servers})"
            )

    def local_visit(self) -> float:
        """Cost of processing one vertex on its own server."""
        return self.config.local_visit_cost

    def remote_hop(self, src: int, dst: int, size: int = 256) -> float:
        """Cost of one remote traversal step ``src -> dst``.

        With a fault injector attached this may raise a
        :class:`~repro.exceptions.FaultInjectedError` instead — the
        message never arrived and only the sender's timeout was spent.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0.0
        if self.fault_injector is not None:
            self.fault_injector.check_message(
                src, dst, cost=self.config.fault_timeout_cost
            )
        self.stats.record(src, dst, size)
        cost = self.config.remote_hop_cost
        self._hop_messages.inc()
        self._hop_bytes.inc(size)
        self._hop_latency.observe(cost)
        self.stats.deliver(src, dst, size)
        if self.fault_injector is not None:
            self.fault_injector.advance(cost)
        return cost

    def batched_hop(self, src: int, dst: int, count: int) -> float:
        """Cost of one aggregated traversal message carrying ``count``
        frontier entries ``src -> dst``.

        The round trip is paid once per message — ``remote_hop_cost``
        plus a per-entry marginal cost — and the payload grows with the
        batch size.  Fault injection applies once per message, not once
        per entry: a lost batch times out exactly like a lost single hop
        and the whole batch is retried together.
        """
        self._check(src)
        self._check(dst)
        if src == dst or count <= 0:
            return 0.0
        if self.fault_injector is not None:
            self.fault_injector.check_message(
                src, dst, cost=self.config.fault_timeout_cost
            )
        size = self.config.batch_base_bytes + count * self.config.batch_entry_bytes
        self.stats.record(src, dst, size)
        cost = self.config.remote_hop_cost + count * self.config.batch_entry_cost
        self._hop_messages.inc()
        self._hop_bytes.inc(size)
        self._hop_latency.observe(cost)
        self._batch_sizes.observe(count)
        self.stats.deliver(src, dst, size)
        if self.fault_injector is not None:
            self.fault_injector.advance(cost)
        return cost

    def transfer(self, src: int, dst: int, size: int) -> float:
        """Cost of a bulk record transfer (migration copy step).

        Subject to the same fault injection as :meth:`remote_hop`.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0.0
        if self.fault_injector is not None:
            self.fault_injector.check_message(
                src, dst, cost=self.config.fault_timeout_cost
            )
        self.stats.record(src, dst, size)
        cost = self.config.transfer_base_cost + size * self.config.transfer_byte_cost
        self._transfer_messages.inc()
        self._transfer_bytes.inc(size)
        self._transfer_latency.observe(cost)
        self._transfer_sizes.observe(size)
        self.stats.deliver(src, dst, size)
        if self.fault_injector is not None:
            self.fault_injector.advance(cost)
        return cost

    def export_link_metrics(self) -> None:
        """Snapshot per-link traffic into the registry as labelled gauges.

        Links are a quadratic label space, so they are materialized once
        at export time rather than on every message.
        """
        for (src, dst), link in self.stats.per_link.items():
            self.telemetry.gauge(
                "network_link_messages", "messages on one directed link",
                src=src, dst=dst, **self._labels,
            ).set(link.messages)
            self.telemetry.gauge(
                "network_link_bytes", "payload bytes on one directed link",
                src=src, dst=dst, **self._labels,
            ).set(link.bytes)

    def broadcast(self, src: int, size: int = 64) -> float:
        """Cost of a synchronization message to every other server.

        Under fault injection every destination is attempted: a per-link
        fault charges its timeout and the loop moves on, so one dead link
        cannot abandon the remaining destinations or drop the cost already
        charged.  If any destination failed, the first fault is re-raised
        with ``cost`` set to the *whole* broadcast's simulated time —
        retrying callers re-broadcast to everyone (idempotent).
        """
        self._check(src)
        cost = 0.0
        first_fault: Optional[FaultInjectedError] = None
        for dst in range(self.num_servers):
            if dst == src:
                continue
            try:
                cost += self.remote_hop(src, dst, size)
            except FaultInjectedError as exc:
                cost += exc.cost
                if first_fault is None:
                    first_fault = exc
        if first_fault is not None:
            first_fault.cost = cost
            raise first_fault
        return cost
