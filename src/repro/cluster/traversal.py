"""Distributed k-hop traversal execution (paper Sections 4 and 5.1).

"To submit a query the client would first lookup the vertex for the
starting point of the query, then send the traversal query to the server
hosting the initial vertex. ... If the information is not local to the
server, remote traversals are executed using the links between servers."

The engine expands the traversal frontier hop by hop.  Every expanded
vertex is a *processed* visit (the paper's throughput unit); expanding a
vertex hosted on a different server than the one currently executing the
step costs a remote traversal.  2-hop traversals re-process vertices
reachable along multiple paths — only distinct vertices enter the
response, which is why the paper's response/processed ratio drops to
~0.39/0.28 for 2-hop queries (Section 5.3.2).

Remote traversal work is **batched**: at each depth the frontier entries
bound for one server are aggregated into a single request per
``(src, dst)`` link — one ``REMOTE_HOP`` round trip plus a small
per-entry marginal cost, the way a production driver amortizes cut edges
(and the traversal-locality lever TAPER and the Neo4j partitioning
evaluations optimize for).  Vertex locations come from a per-server
:class:`~repro.cluster.catalog.LocationCache` instead of a catalog call
per step; a stale entry (the vertex migrated and this server was not a
migration participant) resolves via a forwarding hop charged to the
query, after which the cache entry is corrected.

A depth is **charged once per link and once per host** (DESIGN.md §9):
the frontier is a list of segments, each an expanded vertex's hop plan
(its neighbours grouped by believed host, kept by the location cache),
so links and visits are per-host counts merged in frontier order; the
messages go out in one network call, and each count is charged times its
integer nanosecond price (:mod:`repro.cluster.network`) once.

With a recording telemetry hub each query produces a ``traversal`` span
with one ``hop`` child span per frontier depth (sized by the simulated
cost that depth charged), plus aggregate counters and a per-query cost
histogram; without recording the span calls return ``NULL_SPAN``
and only the counters count.

Under fault injection (a :class:`~repro.cluster.faults.FaultPlan`
attached to the network) the engine degrades gracefully instead of
raising: a remote message that still fails after bounded retries marks
the destination server as a *failed partition* for the rest of the
query, every frontier entry hosted there — remote *and* same-host — is
skipped, and the result carries the servers it could not reach in
``failed_partitions`` — a partial response, exactly what a production
client would get from a cluster with a crashed replica-less server.
Retries and timeouts apply once per aggregated message, not once per
frontier entry.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, Generator, List, NamedTuple, Optional, Set, Tuple

from repro.cluster.catalog import Catalog, HopPlan, LocationCache, hop_plan
from repro.cluster.faults import RetryPolicy
from repro.cluster.network import (
    BATCH_ENTRY,
    CLIENT_DISPATCH,
    FAULT_TIMEOUT,
    LOCAL_VISIT,
    REMOTE_HOP,
    REMOTE_SERVICE,
    SimulatedNetwork,
    seconds,
)
from repro.cluster.server import HermesServer
from repro.core.auxiliary import is_vertex_id
from repro.exceptions import (
    CatalogError,
    ClusterError,
    FaultInjectedError,
    ServerDownError,
)
from repro.telemetry import Telemetry


#: Frontier entries ``(plan.neighbors[i], plan.hosts[i], from_host)``, as
#: the server ``from_host`` expanded them: ``(from_host, plan)``.
Segment = Tuple[int, HopPlan]


class TraversalResult(NamedTuple):
    """Outcome and cost accounting of one traversal query."""

    start: int
    hops: int
    #: vertices in the response (distinct, excluding unavailable ones)
    response: Tuple[int, ...]
    #: total vertices processed, counting repeats along multiple paths
    processed: int
    #: traversal steps that crossed servers (frontier entries, not
    #: messages — batching changes the message count, not this)
    remote_hops: int
    #: simulated execution time of the query, in integer nanoseconds
    cost: int
    #: servers that could not be reached; when non-empty the response is
    #: partial (their vertices are missing, not absent from the graph)
    failed_partitions: Tuple[int, ...] = ()

    @property
    def partial(self) -> bool:
        return bool(self.failed_partitions)

    @property
    def response_processed_ratio(self) -> float:
        if self.processed == 0:
            return 0.0
        return len(self.response) / self.processed


class DepthStep(NamedTuple):
    """One resumable slice of a traversal (dispatch or one frontier depth).

    Yielded by :meth:`TraversalEngine.traverse_steps` after the slice's
    cluster work has executed.  ``cost`` is the simulated client-perceived
    time (ns) the slice added; ``busy`` maps server id to the busy ns the
    slice charged that server — the occupancy the concurrent scheduler
    queues on each server's event lane.  Read ``busy``, never modify it.
    """

    kind: str  # "dispatch" | "hop"
    cost: int
    busy: Dict[int, int]
    depth: int
    frontier: int


def check_start(vertex: int) -> None:
    """Reject a query start that is not a vertex id (a Python or numpy
    integer, never a bool, float, str or None) before it is looked up."""
    if not is_vertex_id(vertex):
        raise ClusterError(f"vertex ids must be integers, got {vertex!r}")


def check_hops(hops: int) -> None:
    """Reject a traversal depth that is not a non-negative integer, by the
    rule vertex ids follow (a Python or numpy integer, never a bool)."""
    if not is_vertex_id(hops) or hops < 0:
        raise ClusterError(f"hops must be a non-negative integer, got {hops!r}")


class _QueryState:
    """Mutable accounting of one query, threaded through its depths."""

    __slots__ = (
        "cost",
        "processed",
        "remote",
        "response",
        "failed",
        "visited",
        "hops",
        "serviced",
    )

    def __init__(self, cost: int, hops: int):
        self.cost = cost
        self.processed = 0
        self.remote = 0
        self.response: Set[int] = set()
        #: servers this query gave up on (down or unreachable after retries)
        self.failed: Set[int] = set()
        self.visited: Set[int] = set()
        self.hops = hops
        #: remote messages each server sent or received this depth
        self.serviced: List[int] = []


class TraversalEngine:
    """Executes k-hop traversals over the servers through the catalog."""

    def __init__(
        self,
        servers: List[HermesServer],
        catalog: Catalog,
        network: SimulatedNetwork,
        telemetry: Optional[Telemetry] = None,
        location_cache: Optional[LocationCache] = None,
        labels: Optional[Dict[str, object]] = None,
    ):
        self.servers = servers
        self.catalog = catalog
        self.network = network
        #: optional WorkloadModel fed one observation per frontier
        #: expansion (set via HermesCluster.attach_workload_model)
        self.workload_model = None
        #: bumped by :meth:`note_topology_change` when a migration commit
        #: re-homes vertices; in-flight traversals re-resolve their cached
        #: frontier hosts when they observe a new epoch (serial traversals
        #: never do — nothing commits between their depths)
        self.topology_epoch = 0
        telemetry = telemetry or Telemetry()
        self.telemetry = telemetry
        #: every traversal series carries these (the owning cluster)
        self._labels = labels = labels or {}
        self._traversals = telemetry.counter(
            "traversals_total", "traversal queries executed", **labels
        )
        self._processed = telemetry.counter(
            "traversal_processed_total", "vertices processed in traversals", **labels
        )
        self._remote = telemetry.counter(
            "traversal_remote_hops_total", "traversal steps across servers", **labels
        )
        self._cost_hist = telemetry.histogram(
            "traversal_cost_seconds",
            "simulated execution time of one traversal",
            **labels,
        )
        # The workload-model audit reads this series per cluster.
        self._model_observations = telemetry.counter(
            "workload_model_observations_total",
            "edge observations fed to the attached workload model",
            **labels,
        )
        # Standalone engines get a private cache; a cluster passes the
        # shared instance the migration executor invalidates through.
        self.location_cache = location_cache or LocationCache(
            catalog, len(servers), telemetry=self.telemetry
        )

    def traverse(self, start: int, hops: int) -> TraversalResult:
        """Run a ``hops``-hop traversal from ``start`` to completion.

        Drives :meth:`traverse_steps` without pausing between depths —
        the serial execution model.
        """
        steps = self.traverse_steps(start, hops)
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value

    def note_topology_change(self) -> None:
        """A migration commit re-homed vertices: any traversal paused
        between depths must re-resolve its frontier before expanding
        it (its cached hosts may now point at old primaries)."""
        self.topology_epoch += 1

    def traverse_steps(
        self, start: int, hops: int
    ) -> Generator[DepthStep, None, TraversalResult]:
        """Run a ``hops``-hop traversal as a resumable task.

        The query is dispatched to the server hosting ``start``; each
        frontier vertex is expanded on its hosting server, and stepping to
        a vertex hosted elsewhere is charged as a remote traversal (one
        aggregated message per ``(src, dst)`` link per depth).

        Yields one :class:`DepthStep` for the client dispatch and one per
        frontier depth, after that slice's work has executed — the
        concurrent scheduler interleaves other operations (and online
        migration copy-steps) between resumptions.  If a migration
        committed while the task was paused, the frontier is re-resolved
        through the location cache before the next depth runs, so the
        traversal never charges forwarding costs against a host it could
        already know is stale.
        """
        # Before anything is charged, looked up or traced.
        check_start(start)
        check_hops(hops)
        home = self.catalog.lookup(start)
        injector = self.network.fault_injector
        state = _QueryState(CLIENT_DISPATCH, hops)
        span = self.telemetry.span("traversal", start=start, hops=hops)
        # Frontier entries are (vertex, host, discovered_from_host): when
        # the traversal follows an edge whose endpoints live on different
        # servers, that step is a remote traversal — the per-cut-edge cost
        # that makes edge-cut the dominant performance factor (Section 1).
        root = HopPlan((start,), [home], {home: [start]}, {home: 1})
        frontier: List[Segment] = [(home, root)]
        entries = 1
        if injector is not None and injector.is_down(home):
            # The dispatch to the home server times out: the client gets
            # an empty partial result rather than an exception.
            state.cost += FAULT_TIMEOUT
            state.failed.add(home)
            frontier = []
        else:
            # Client dispatch happens before the first hop: push the
            # causal cursor so depth spans line up after it.
            span.advance(seconds(CLIENT_DISPATCH))
        epoch = self.topology_epoch
        yield DepthStep("dispatch", state.cost, {}, -1, 0)

        for depth in range(hops + 1):
            if not frontier:
                break
            if self.topology_epoch != epoch:
                # A migration committed while this task was paused: the
                # frontier's cached hosts may be stale.  Re-resolve
                # through the location cache (participants already know
                # the new homes) instead of paying forwarding charges.
                frontier = self._refresh_frontier(frontier)
                epoch = self.topology_epoch
            depth_span = self.telemetry.span("hop", depth=depth, frontier=entries)
            cost_before = state.cost
            next_frontier, next_entries, busy = self._run_depth(frontier, depth, state)
            spent = state.cost - cost_before
            depth_span.finish(duration=seconds(spent))
            yield DepthStep("hop", spent, busy, depth, entries)
            frontier, entries = next_frontier, next_entries

        self._traversals.inc()
        self._processed.inc(state.processed)
        self._remote.inc(state.remote)
        cost = seconds(state.cost)
        self._cost_hist.observe(cost)
        span.set_attribute("processed", state.processed)
        span.set_attribute("remote_hops", state.remote)
        span.set_attribute("response", len(state.response))
        if state.failed:
            self.telemetry.counter(
                "traversals_partial_total",
                "traversals that returned partial results",
                **self._labels,
            ).inc()
            span.set_attribute("failed_partitions", sorted(state.failed))
        span.finish(duration=cost)

        response, failed = tuple(sorted(state.response)), tuple(sorted(state.failed))
        return TraversalResult(
            start, hops, response, state.processed, state.remote, state.cost, failed
        )

    def _refresh_frontier(self, frontier: List[Segment]) -> List[Segment]:
        """Re-resolve every frontier entry's host after a topology change.

        Consults the discovering server's location cache (fresh for
        migration participants, self-correcting otherwise).  Entries
        whose vertex left the catalog entirely keep their stale host and
        degrade through the normal unavailable-vertex path.
        """
        refreshed: List[Segment] = []
        for from_host, plan in frontier:
            hosts = []
            for vertex, host in zip(plan.neighbors, plan.hosts):
                try:
                    host = self.location_cache.lookup_from(from_host, vertex)
                except CatalogError:
                    pass
                hosts.append(host)
            refreshed.append((from_host, hop_plan(plan.neighbors, hosts)))
        return refreshed

    # ------------------------------------------------------------------
    # Per-depth execution
    # ------------------------------------------------------------------
    def _run_depth(
        self, frontier: List[Segment], depth: int, state: _QueryState
    ) -> Tuple[List[Segment], int, Dict[int, int]]:
        """Ship the frontier, read it, charge it per link and host.

        Each link pays one round trip (plus per-entry marginals), as a real
        driver ships the frontier ahead of processing the responses; links
        and visits are the plans' per-host counts, merged in frontier
        order.  A final depth with no failed host asks whether each share
        is available and, if all are, keeps those visits.  Otherwise the
        entries are walked in frontier order, as one can change what later
        ones see (a ``None`` answer forwards, a forward can fail its host,
        an expansion can find its host down).  Returns the next frontier,
        its number of entries and the busy time charged per server.
        """
        servers = self.servers
        failed = state.failed
        visits = [0] * len(servers)
        state.serviced = [0] * len(servers)
        # Remote entries per directed link, in first-seen order.
        links: Dict[Tuple[int, int], int] = {}
        for from_host, plan in frontier:
            for host, count in plan.counts.items():
                if host not in failed:
                    visits[host] += count
                    if host != from_host:
                        link = (from_host, host)
                        links[link] = links.get(link, 0) + count
        if links:
            self._ship(links, state)

        expand = depth < state.hops
        shares = None if expand or failed else self._shares(frontier)
        next_frontier: List[Segment] = []
        resolved = 0
        if shares is not None:
            state.response.update(*shares)
        else:
            # Each entry read from its host, reusing the answers above.
            entries = chain.from_iterable(
                zip(plan.neighbors, plan.hosts, repeat(from_host))
                for from_host, plan in frontier
            )
            visits = [0] * len(servers)
            visited = state.visited
            model = self.workload_model
            observed = misses = 0
            for vertex, host, from_host in entries:
                if host in failed:
                    # Unreachable this query — same-host entries included: a
                    # server that crashed mid-depth serves nothing further.
                    continue
                store = servers[host].store
                if expand:
                    neighbors = store.adjacency.get(vertex)
                else:
                    neighbors = () if vertex in store.available else None
                if neighbors is None:
                    (neighbors,) = store.read_frontier((vertex,), expand)
                if neighbors is None:
                    # Unavailable (mid-migration), missing or absent here:
                    # not in the local vertex set (Section 3.2).  The cached
                    # location may be stale (vertex migrated since this
                    # server last looked it up): forward and retry once.
                    host = self._forward_stale(vertex, host, from_host, state)
                    if host is None:
                        continue
                    (neighbors,) = servers[host].store.read_frontier(
                        (vertex,), expand and vertex not in visited
                    )
                    if neighbors is None:
                        continue
                visits[host] += 1
                state.response.add(vertex)
                # Keep multiplicity: a vertex reachable along several paths is
                # processed once per path (the paper's 2-hop ratio effect), but
                # expanded only once so work stays polynomial.
                if not expand or vertex in visited:
                    continue
                visited.add(vertex)
                try:
                    servers[host].check_up()
                except ServerDownError:
                    # The host crashed mid-query (a window opened while this
                    # frontier was in flight): its vertices stay in the
                    # response, its expansions are lost.
                    failed.add(host)
                    continue
                if model is not None and neighbors:
                    # Every frontier expansion follows edge (vertex, neighbor):
                    # that is the per-edge traffic the heat model accumulates.
                    for neighbor in neighbors:
                        model.observe_edge(vertex, neighbor)
                    observed += len(neighbors)
                plan, missed = self.location_cache.plan_from(host, vertex, neighbors)
                resolved += len(neighbors)
                misses += missed
                if neighbors:
                    next_frontier.append((host, plan))
            if observed:
                self._model_observations.inc(observed)
            if resolved:
                self.location_cache.count_resolved(resolved, misses)

        processed = sum(visits)
        state.processed += processed
        state.cost += processed * LOCAL_VISIT
        charged = {}
        for host, (count, messages) in enumerate(zip(visits, state.serviced)):
            busy = count * LOCAL_VISIT + messages * REMOTE_SERVICE
            if busy:
                server = servers[host]
                server.busy_counter.value += busy
                if count:
                    server.visits_counter.inc(count)
                charged[host] = busy
        return next_frontier, resolved, charged

    def _shares(self, frontier: List[Segment]) -> Optional[List[List[int]]]:
        """A final depth's shares if every entry is available on its host,
        else None.  A share its store's availability set covers answers at
        once; only a share holding an unknown id asks the store."""
        servers = self.servers
        available = [server.store.available for server in servers]
        shares: List[List[int]] = []
        for _, plan in frontier:
            for host, share in plan.groups.items():
                if not available[host].issuperset(share) and None in (
                    servers[host].store.read_frontier(share, False)
                ):
                    return None
                shares.append(share)
        return shares

    def _ship(self, links: Dict[Tuple[int, int], int], state: _QueryState) -> None:
        """Send a depth's messages in link order: the query pays each
        message's cost, then its RPC dispatch, and both endpoints pay the
        dispatch in busy time — the batching win on server CPU, not just
        wire.  A fault-free network takes the messages in one call; under
        a fault plan each is sent and retried on its own, and a failed one
        gives up on its destination for the rest of the query.
        """
        network = self.network
        serviced = state.serviced
        if network.fault_injector is None:
            network.batched_hops(links)
            entries = sum(links.values())
            state.cost += (
                len(links) * (REMOTE_HOP + REMOTE_SERVICE) + entries * BATCH_ENTRY
            )
            state.remote += entries
            for src, dst in links:
                serviced[src] += 1
                serviced[dst] += 1
            return
        for (src, dst), count in links.items():
            if dst in state.failed:
                # A message from another source already gave up on dst.
                continue
            try:
                state.cost += self._retried(self.network.batched_hop, src, dst, count)
            except FaultInjectedError as exc:
                state.cost += exc.cost
                state.failed.add(dst)
                continue
            state.cost += REMOTE_SERVICE
            state.remote += count
            serviced[src] += 1
            serviced[dst] += 1

    def _forward_stale(
        self,
        vertex: int,
        host: int,
        from_host: int,
        state: _QueryState,
    ) -> Optional[int]:
        """Resolve a possibly-stale location hint via a forwarding hop.

        Returns the vertex's actual host after charging the old host's
        forward, or None when the vertex is genuinely unavailable (not in
        the catalog, mid-migration on its real host, or its real host is
        unreachable this query).  The querying server's cache entry is
        corrected so it pays the forward only once.
        """
        try:
            actual = self.catalog.lookup(vertex)
        except CatalogError:
            return None
        if actual == host or actual in state.failed:
            return None
        try:
            state.cost += self._retried(self.network.remote_hop, host, actual)
        except FaultInjectedError as exc:
            state.cost += exc.cost
            state.failed.add(actual)
            return None
        state.remote += 1
        state.serviced[host] += 1
        state.serviced[actual] += 1
        state.cost += REMOTE_SERVICE
        self.location_cache.learn(from_host, vertex, actual)
        return actual

    # ------------------------------------------------------------------
    # Fault-degradation helpers
    # ------------------------------------------------------------------
    def _retried(self, send, *args) -> int:
        """``send(*args)``, one message retried as a unit under the
        :class:`RetryPolicy`; the total simulated cost, wasted included."""
        cost, wasted = RetryPolicy.call(
            lambda: send(*args),
            injector=self.network.fault_injector,
            on_retry=self._on_retry,
        )
        return cost + wasted

    def _on_retry(self, exc: FaultInjectedError, pause: int) -> None:
        self.telemetry.counter(
            "traversal_retries_total",
            "traversal hop retries after faults",
            **self._labels,
        ).inc()
