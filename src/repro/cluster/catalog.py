"""Vertex -> server catalog (the cluster's placement directory).

"To submit a query the client would first lookup the vertex for the
starting point of the query, then send the traversal query to the server
hosting the initial vertex" (Section 4).  The catalog is that lookup
service; migration updates it between the copy and remove steps so that
queries route to the new replica before the original disappears.

:class:`LocationCache` layers per-server cached views over the catalog
for the traversal hot path.  A migration commit updates the entries of
the *participating* servers (they learn the new home as part of the
copy/remove protocol); every other server keeps whatever it last saw.  A
stale entry is harmless — the old host forwards the request to the new
one for one extra hop, the forwarding result is cached, and the next
lookup from that server is fresh.  This is the classic
directory-hint design: commits stay cheap (no cluster-wide invalidation
broadcast) and the forwarding charge is paid only by servers that
actually touch a moved vertex.
Each view also keeps a :class:`HopPlan` per vertex its server expanded,
built by an expansion's one ``resolve_from``, served while its array is
the store's, dropped by every mutator that may change an entry under it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.exceptions import CatalogError
from repro.partitioning.base import Partitioning
from repro.telemetry import Telemetry


class Catalog:
    """Thin ownership wrapper around a :class:`Partitioning`."""

    def __init__(self, num_servers: int):
        self._placement = Partitioning(num_servers)

    @classmethod
    def from_partitioning(cls, partitioning: Partitioning) -> "Catalog":
        catalog = cls(partitioning.num_partitions)
        catalog._placement = partitioning.copy()
        return catalog

    @property
    def num_servers(self) -> int:
        return self._placement.num_partitions

    def lookup(self, vertex: int) -> int:
        """Which server hosts this vertex?"""
        server = self._placement.get(vertex)
        if server is None:
            raise CatalogError(f"vertex {vertex} is not in the catalog")
        return server

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._placement

    def __len__(self) -> int:
        return self._placement.num_vertices

    def register(self, vertex: int, server: int) -> None:
        self._placement.assign(vertex, server)

    def register_columns(self, vertices: Sequence[int], servers: Sequence[int]) -> None:
        """:meth:`register` each ``vertices[i]`` on ``servers[i]``, in
        order, into an empty catalog — in one step."""
        self._placement = Partitioning.from_columns(vertices, servers, self.num_servers)

    def move(self, vertex: int, server: int) -> int:
        """Re-home a vertex; returns its previous server."""
        return self._placement.move(vertex, server)

    def unregister(self, vertex: int) -> int:
        return self._placement.remove(vertex)

    def vertices_on(self, server: int) -> Set[int]:
        return self._placement.vertices_in(server)

    def vertices(self) -> Iterator[int]:
        return iter(self._placement.as_mapping())

    def sizes(self) -> list:
        return self._placement.sizes()

    def add_server(self) -> int:
        """Grow the directory by one (empty) server; returns its id."""
        return self._placement.add_partition()

    def snapshot(self) -> Partitioning:
        """An independent copy of the current placement."""
        return self._placement.copy()

    def as_mapping(self) -> Dict[int, int]:
        return self._placement.as_mapping()


class HopPlan(NamedTuple):
    """A server's expansion of a vertex: it believes ``neighbors[i]`` (the
    store's view array) lives on ``hosts[i]``; ``groups`` and ``counts``
    hold the neighbours per host, in first-seen host order.  Read only."""

    neighbors: Sequence[int]
    hosts: List[int]
    groups: Dict[int, List[int]]
    counts: Dict[int, int]


def hop_plan(neighbors: Sequence[int], hosts: List[int]) -> HopPlan:
    """The plan of ``neighbors`` believed on ``hosts`` (aligned)."""
    groups: Dict[int, List[int]] = {}
    for neighbor, host in zip(neighbors, hosts):
        group = groups.get(host)
        if group is None:
            groups[host] = [neighbor]
        else:
            group.append(neighbor)
    counts = {host: len(group) for host, group in groups.items()}
    return HopPlan(neighbors, hosts, groups, counts)


class LocationCache:
    """Per-server cached vertex locations layered over a :class:`Catalog`.

    Each server keeps a plain ``{vertex: host}`` dict — the hot-path
    lookup during frontier expansion is one dict probe instead of a
    catalog round trip.  Entries are learned on miss (from the
    authoritative catalog), corrected on a stale hit (after the traversal
    engine pays the forwarding hop), and updated eagerly only on the
    servers that participate in a migration commit.
    """

    def __init__(
        self,
        catalog: Catalog,
        num_servers: int,
        telemetry: Optional[Telemetry] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self.catalog = catalog
        self.num_servers = num_servers
        self._entries: List[Dict[int, int]] = [{} for _ in range(num_servers)]
        self._plans: List[Dict[int, HopPlan]] = [{} for _ in range(num_servers)]
        telemetry = telemetry or Telemetry()
        extra = labels or {}
        self._hits = telemetry.counter(
            "location_cache_hits_total", "vertex locations served from cache",
            **extra,
        )
        self._misses = telemetry.counter(
            "location_cache_misses_total",
            "vertex locations fetched from the catalog",
            **extra,
        )
        self._stale = telemetry.counter(
            "location_cache_stale_hits_total",
            "cached locations that pointed at a pre-migration host",
            **extra,
        )
        self._invalidations = telemetry.counter(
            "location_cache_invalidations_total",
            "cache entries refreshed by migration commits",
            **extra,
        )

    def lookup_from(self, server: int, vertex: int) -> int:
        """Where does ``server`` believe ``vertex`` lives?

        A hit returns the cached (possibly stale) host; a miss consults
        the catalog and caches its answer (an unknown vertex raises, uncounted).
        """
        entries = self._entries[server]
        cached = entries.get(vertex)
        if cached is not None:
            self._hits.inc()
            return cached
        host = entries[vertex] = self.catalog.lookup(vertex)
        self._misses.inc()
        return host

    def resolve_from(
        self, server: int, vertices: Sequence[int]
    ) -> Tuple[List[int], int]:
        """:meth:`lookup_from` for a whole adjacency list, uncounted: where
        ``server`` believes each of ``vertices`` lives, and how many of
        them missed (the caller charges :meth:`count_resolved`)."""
        entries = self._entries[server]
        try:  # warm: every location cached, one pass in C
            return list(map(entries.__getitem__, vertices)), 0
        except KeyError:
            pass
        lookup = self.catalog.lookup
        hosts = []
        misses = 0
        for vertex in vertices:
            host = entries.get(vertex)
            if host is None:
                misses += 1
                host = entries[vertex] = lookup(vertex)
            hosts.append(host)
        return hosts, misses

    def plan_from(
        self, server: int, vertex: int, neighbors: Sequence[int]
    ) -> Tuple[HopPlan, int]:
        """``server``'s plan of ``vertex`` (view array ``neighbors``) and its
        misses, uncounted as in :meth:`resolve_from`: the kept plan while it
        holds that array, else one that call builds."""
        plans = self._plans[server]
        plan = plans.get(vertex)
        if plan is not None and plan.neighbors is neighbors:
            return plan, 0
        hosts, misses = self.resolve_from(server, neighbors)
        plan = plans[vertex] = hop_plan(neighbors, hosts)
        return plan, misses

    def count_resolved(self, resolved: int, misses: int) -> None:
        """Count ``resolved`` locations, ``misses`` of them from the
        catalog: whole numbers, so one bump counts what one per vertex did."""
        self._hits.inc(resolved - misses)
        self._misses.inc(misses)

    def learn(self, server: int, vertex: int, host: int) -> None:
        """Record the location ``server`` just resolved via forwarding."""
        self._stale.inc()
        self._entries[server][vertex] = host
        self._plans[server].clear()

    def on_moved(self, vertex: int, source: int, target: int) -> None:
        """A migration commit re-homed ``vertex``: the participating
        servers learn the new location synchronously; everyone else keeps
        a stale entry that resolves via forwarding on next use."""
        self._entries[source][vertex] = target
        self._entries[target][vertex] = target
        self._plans[source].clear()
        self._plans[target].clear()
        self._invalidations.inc()

    def on_removed(self, vertex: int) -> None:
        """Drop ``vertex`` from every per-server view (vertex deleted)."""
        for entries, plans in zip(self._entries, self._plans):
            entries.pop(vertex, None)
            plans.clear()

    def add_server(self) -> None:
        """Grow the cache with an (empty) view for a joining server."""
        self._entries.append({})
        self._plans.append({})
        self.num_servers += 1

    def purge_host(self, host: int) -> None:
        """Drop every entry pointing at ``host`` plus that server's own
        view — a detached server must appear in no location cache, and a
        hint aimed at it could never be resolved by forwarding."""
        for entries in self._entries:
            stale = [vertex for vertex, cached in entries.items() if cached == host]
            for vertex in stale:
                del entries[vertex]
        self._entries[host].clear()
        for plans in self._plans:
            plans.clear()

    def entries_on(self, server: int) -> Dict[int, int]:
        """Snapshot of one server's cached view (tests/introspection)."""
        return dict(self._entries[server])

    def plans_on(self, server: int) -> Dict[int, HopPlan]:
        """Snapshot of one server's hop plans (tests/introspection)."""
        return dict(self._plans[server])

    def all_entries(self) -> Iterator[Tuple[int, int, int]]:
        """Every cached ``(server, vertex, believed_host)`` triple.

        Introspection hook for the simtest auditor: each entry must be
        either correct or resolvable via one forwarding hop.
        """
        for server, entries in enumerate(self._entries):
            for vertex, host in entries.items():
                yield server, vertex, host
