"""Conservation query over the network's wire accounting.

The network counts wire traffic once, in a send-side per-link ledger of
ints (``SimulatedNetwork.link_messages`` / ``link_bytes``, viewed by
:class:`~repro.cluster.network.NetworkStats`); the telemetry registry's
per-kind ``network_messages_total`` / ``network_bytes_total`` counters
count it again by their own increments.  In a correct run the two agree
exactly, a faulted message charged to neither.  The simtest auditor runs
this query between schedule steps; a disagreement means an accounting
path dropped or double-counted traffic.
"""

from __future__ import annotations

from typing import List


def registry_conservation_violations(telemetry, network) -> List[str]:
    """Check a network's per-link ledger against the registry.

    Returns human-readable violation strings (empty when conserved): a
    link holding a negative count or a server's traffic to itself (never
    charged), and the ledger's aggregates — summed over its links —
    differing from ``network_messages_total`` / ``network_bytes_total``
    summed over the kinds for this network's labels.
    """
    problems: List[str] = []
    ledger = zip(network.link_messages, network.link_bytes)
    for src, (messages, sizes) in enumerate(ledger):
        for dst, (count, size) in enumerate(zip(messages, sizes)):
            if count < 0 or size < 0:
                problems.append(
                    f"link {(src, dst)} holds messages={count} bytes={size}"
                )
            elif src == dst and (count or size):
                problems.append(f"server {src} charged traffic to itself")
    registry = telemetry.registry
    labels = dict(getattr(network, "_labels", {}))
    metric_messages = registry.total("network_messages_total", **labels)
    metric_bytes = registry.total("network_bytes_total", **labels)
    if int(metric_messages) != network.stats.messages:
        problems.append(
            f"registry network_messages_total={int(metric_messages)}"
            f" != ledger messages={network.stats.messages}"
        )
    if int(metric_bytes) != network.stats.bytes_sent:
        problems.append(
            f"registry network_bytes_total={int(metric_bytes)}"
            f" != ledger bytes={network.stats.bytes_sent}"
        )
    return problems
