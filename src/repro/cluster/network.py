"""Simulated peer-to-peer network and the price table of simulated time.

Hermes servers are "connected in a peer-to-peer fashion" (Figure 6); an
edge-cut shifts a local traversal step into a remote traversal, "thereby
incurring significant network latency" (Section 1).  Every engine counts
its work and charges ``count * price`` from the table below, in integer
nanoseconds, so a simulated time is exact in any order of additions:

* a local vertex visit costs :data:`LOCAL_VISIT` (an in-memory/page-cache
  record read plus processing);
* following an edge whose endpoint lives on another server costs an extra
  :data:`REMOTE_HOP` (a request/response round on the LAN);
* bulk record transfers during migration cost
  ``TRANSFER_BASE + bytes * TRANSFER_BYTE``.

The prices approximate the paper's testbed (1Gb Ethernet: ~0.5 ms per
round-trip including serialization; tens of microseconds per local
record visit).  The *absolute* throughput numbers are not meaningful — the
relative performance of partitioners, which is driven by the
local/remote mix, is.  Seconds appear only where a time is reported.

Traffic is counted once, on the send side, in a per-link ledger of ints
that :class:`NetworkStats` views.  An attached
:class:`~repro.telemetry.Telemetry` hub counts it again, independently —
``network_messages_total``/``network_bytes_total`` per kind (hop/transfer)
and size histograms (wire latency follows from them and the prices) — so
``telemetry/conservation.py`` can check one against the other; a
traversal depth charges the hub once for all its messages (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.faults import FaultInjector
from repro.exceptions import ClusterError, FaultInjectedError
from repro.telemetry import Telemetry
from repro.telemetry.registry import DEFAULT_SIZE_BUCKETS

#: histogram buckets for frontier entries per batched hop message
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


# The price table, in integer nanoseconds of simulated time.
LOCAL_VISIT = 20_000
REMOTE_HOP = 500_000
#: CPU consumed on EACH endpoint server to service one remote hop
#: (serialization, syscalls, RPC dispatch) — this is the "network IO"
#: load that edge-cuts impose on servers, distinct from wire latency.
REMOTE_SERVICE = 50_000
TRANSFER_BASE = 500_000
TRANSFER_BYTE = 8  # ~1 Gb/s payload bandwidth
CLIENT_DISPATCH = 100_000  # client -> cluster round trip
#: sender-side wait before a lost/unanswered message is declared dead
#: (a few RTTs, as a TCP-ish retransmission timeout would be)
FAULT_TIMEOUT = 2_000_000
#: Traversal frontier work bound for one server rides a single
#: request per (src, dst) link per depth; this is the marginal cost
#: of one extra frontier entry riding that already-paid round trip
#: (serialization of one vertex id + one response row)
BATCH_ENTRY = 25_000
#: wire framing of one batched request (header, routing, checksums)
BATCH_BASE_BYTES = 128
#: payload bytes per frontier entry in a batched request/response
BATCH_ENTRY_BYTES = 64

def seconds(ns: int) -> float:
    """A simulated time in seconds, for reports."""
    return ns / 1e9


def nanoseconds(time: float) -> int:
    """A time given in seconds as simulated integer nanoseconds."""
    return round(time * 1e9)


@dataclass(frozen=True)
class LinkStats:
    """Traffic on one directed server pair."""

    messages: int = 0
    bytes: int = 0


class NetworkStats:
    """Read-only view of a network's send-side ledger.

    The sender is charged when it puts a message on the wire; a message
    dropped by fault injection is charged nowhere.  Aggregates are sums
    over the per-link ledger, so they cannot disagree with it.
    """

    __slots__ = ("_network",)

    def __init__(self, network: "SimulatedNetwork"):
        self._network = network

    def __eq__(self, other: object) -> bool:
        """Two views are equal when their ledgers hold the same traffic."""
        if not isinstance(other, NetworkStats):
            return NotImplemented
        return self.per_link == other.per_link

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"NetworkStats(per_link={self.per_link!r})"

    @property
    def messages(self) -> int:
        return sum(map(sum, self._network.link_messages))

    @property
    def bytes_sent(self) -> int:
        return sum(map(sum, self._network.link_bytes))

    @property
    def per_link(self) -> Dict[Tuple[int, int], LinkStats]:
        """Every link that carried a message, in ascending link order."""
        network = self._network
        return {
            (src, dst): LinkStats(messages, network.link_bytes[src][dst])
            for src, row in enumerate(network.link_messages)
            for dst, messages in enumerate(row)
            if messages
        }

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
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        if num_servers < 1:
            raise ClusterError("need at least one server")
        self.num_servers = num_servers
        #: the one ledger of wire traffic: messages and payload bytes sent
        #: on each directed link, ``[src][dst]``
        self.link_messages = [[0] * num_servers for _ in range(num_servers)]
        self.link_bytes = [[0] * num_servers for _ in range(num_servers)]
        self.stats = NetworkStats(self)
        self.fault_injector: Optional[FaultInjector] = None
        self._labels = dict(labels or {})
        telemetry = telemetry or Telemetry()
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

    def attach_faults(self, injector: Optional[FaultInjector]) -> None:
        """Install (or with None, remove) the fault-injection oracle."""
        self.fault_injector = injector

    def add_server(self) -> int:
        """Admit one more endpoint; returns its id.  The ledger grows a
        row and a column for it."""
        server = self.num_servers
        self.num_servers += 1
        for ledger in (self.link_messages, self.link_bytes):
            ledger.append([0] * server)
            for row in ledger:
                row.append(0)
        return server

    def _check(self, server: int) -> None:
        if not 0 <= server < self.num_servers:
            raise ClusterError(
                f"server {server} out of range [0, {self.num_servers})"
            )

    def local_visit(self) -> int:
        """Cost of processing one vertex on its own server."""
        return LOCAL_VISIT

    def _send(self, src: int, dst: int, size: int, cost: int) -> None:
        """Put one message on the wire: its fate is decided first, so a
        faulted message raises before the ledger is charged."""
        injector = self.fault_injector
        if injector is not None:
            injector.check_message(src, dst, cost=FAULT_TIMEOUT)
        self.link_messages[src][dst] += 1
        self.link_bytes[src][dst] += size
        if injector is not None:
            injector.advance(cost)

    def remote_hop(self, src: int, dst: int, size: int = 256) -> int:
        """Cost of one remote traversal step ``src -> dst``.

        With a fault injector attached this may raise a
        :class:`~repro.exceptions.FaultInjectedError` instead — the
        message never arrived and only the sender's timeout was spent.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        self._send(src, dst, size, REMOTE_HOP)
        self._hop_messages.inc()
        self._hop_bytes.inc(size)
        return REMOTE_HOP

    def remote_hops(self, links: Dict[Tuple[int, int], int], size: int = 256) -> None:
        """``count`` fault-free :meth:`remote_hop` calls per ``(src, dst)``
        link of two servers, charged once per link: ledger and series end
        where the single hops leave them."""
        for (src, dst), count in links.items():
            self.link_messages[src][dst] += count
            self.link_bytes[src][dst] += count * size
        hops = sum(links.values())
        self._hop_messages.inc(hops)
        self._hop_bytes.inc(hops * size)

    def batched_hop(self, src: int, dst: int, count: int) -> int:
        """:meth:`batched_hops` of one link ``src -> dst`` carrying ``count``
        entries; returns its cost, free when it is a server to itself or
        carries nothing."""
        self._check(src)
        self._check(dst)
        if src == dst or count <= 0:
            return 0
        self.batched_hops({(src, dst): count})
        return REMOTE_HOP + count * BATCH_ENTRY

    def batched_hops(self, links: Dict[Tuple[int, int], int]) -> None:
        """One aggregated message per ``(src, dst)`` link of two different
        servers, carrying that link's (positive) count of frontier
        entries.

        A message costs :data:`REMOTE_HOP` once plus
        :data:`BATCH_ENTRY` per entry, and its payload grows with the
        batch.  Faults apply per message, in link order: a lost batch
        raises like a lost single hop, the messages before it staying
        charged; a fault-free network charges its ledger in place.  The
        registry is charged once per call — counters by their integer
        totals, the batch sizes in message order.
        """
        counts: List[int] = []
        link_messages, link_bytes = self.link_messages, self.link_bytes
        try:
            for (src, dst), count in links.items():
                size = BATCH_BASE_BYTES + count * BATCH_ENTRY_BYTES
                if self.fault_injector is not None:
                    self._send(src, dst, size, REMOTE_HOP + count * BATCH_ENTRY)
                else:
                    link_messages[src][dst] += 1
                    link_bytes[src][dst] += size
                counts.append(count)
        finally:
            if counts:
                self._hop_messages.inc(len(counts))
                self._hop_bytes.inc(
                    len(counts) * BATCH_BASE_BYTES + sum(counts) * BATCH_ENTRY_BYTES
                )
                self._batch_sizes.observe_many(counts)

    def transfer(self, src: int, dst: int, size: int) -> int:
        """Cost of a bulk record transfer (migration copy step).

        Subject to the same fault injection as :meth:`remote_hop`.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        cost = TRANSFER_BASE + size * TRANSFER_BYTE
        self._send(src, dst, size, cost)
        self._transfer_messages.inc()
        self._transfer_bytes.inc(size)
        self._transfer_sizes.observe(size)
        return cost

    def transfers(
        self, src: int, dsts: Sequence[int], size: int
    ) -> List[Tuple[int, int]]:
        """:meth:`transfer` from ``src`` to each of ``dsts`` in order, as
        counts; returns ``(dst, cost)`` of each that arrived.  Faults apply
        per message, as in :meth:`batched_hops`, but a lost message is
        skipped, not raised.  The registry is charged once, by totals."""
        cost = TRANSFER_BASE + size * TRANSFER_BYTE
        arrived = []
        for dst in dsts:
            try:
                if dst != src:  # a server sends itself nothing
                    self._send(src, dst, size, cost)
            except FaultInjectedError:
                continue
            arrived.append((dst, 0 if dst == src else cost))
        sent = sum(1 for dst, _ in arrived if dst != src)
        self._transfer_messages.inc(sent)
        self._transfer_bytes.inc(sent * size)
        self._transfer_sizes.observe_many([size] * sent)
        return arrived

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

    def broadcast(self, src: int, size: int = 64) -> int:
        """Cost of a synchronization message to every other server.

        Under fault injection every destination is attempted: a per-link
        fault charges its timeout and the loop moves on, so one dead link
        cannot abandon the remaining destinations or drop the cost already
        charged.  If any destination failed, the first fault is re-raised
        with ``cost`` set to the *whole* broadcast's simulated time —
        retrying callers re-broadcast to everyone (idempotent).
        """
        self._check(src)
        cost = 0
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
