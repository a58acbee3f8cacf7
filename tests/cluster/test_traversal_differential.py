"""Differential test: the per-link, per-host depth against the per-entry depth.

``TraversalEngine._run_depth`` carries its frontier as segments of hop
plans (each expanded vertex's neighbours grouped by believed host, kept
by the location cache), ships it in one network call and charges the
depth per link and per host, counts times prices (DESIGN.md §9).  The
depth it replaced visited one entry at a time — ``is_available``, a
busy-counter increment per entry, ``neighbor_entries``, one
``lookup_from`` per neighbour — and is kept here, test-local, as the
reference: it takes the segments apart into entries and hands back a
segment per entry, so it keeps no plan, and a plan that outlives a write
or a cache change shows up as a difference.  Twin clusters, one running
each, are driven through the same hypothesis-drawn sequence: traversals
of 0–3 hops, physical migrations between them (stale location hints on
the non-participants), edge writes (between two vertices, a repeat edge
when they are neighbours already; a new vertex with an edge), a
migration or an edge committing *between two depths* of a paused
traversal, popularity decays, a fault plan whose crash window opens
mid-query and whose links lose messages, a workload model attached.  The reference
also adds popularity one ``add_weight(vertex, 1.0)`` at a time.  Every
observable must be equal: each result, the per-server busy time of each
depth of a paused traversal, each server's visits and busy time, the
location caches, the network's per-link ledger, every registry series,
the clock (all counts and integer-nanosecond charges), the fault RNG's
position, the model's observation sequence and every vertex and
partition weight bit for bit — after a decay, none of them whole
numbers.  A second property holds a fault-free traversal's charges to
their counts times the prices of ``repro.cluster.network``.  Tier-1
draws 150 sequences; ``--hypothesis-profile sweep`` draws 2 000.
"""

from __future__ import annotations

import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.catalog import hop_plan
from repro.cluster.faults import CrashWindow, FaultPlan
from repro.cluster.network import (
    BATCH_ENTRY,
    CLIENT_DISPATCH,
    LOCAL_VISIT,
    REMOTE_HOP,
    REMOTE_SERVICE,
)
from repro.core.auxiliary import AuxiliaryData
from repro.exceptions import FaultInjectedError, ServerDownError
from repro.graph.adjacency import SocialGraph
from tests.conftest import (
    build_placed_cluster,
    make_random_graph,
    migrate_moves,
    telemetry_snapshot,
)

SERVERS = 4
VERTICES = 24


def per_entry_run_depth(self, frontier, depth, state):
    """The depth as it ran before the bulk read: one entry at a time."""
    groups = {}
    for vertex, host, from_host in frontier:
        if host != from_host and host not in state.failed:
            groups[(from_host, host)] = groups.get((from_host, host), 0) + 1
    for (src, dst), count in groups.items():
        if dst in state.failed:
            continue
        try:
            state.cost += self._retried(self.network.batched_hop, src, dst, count)
        except FaultInjectedError as exc:
            state.cost += exc.cost
            state.failed.add(dst)
            continue
        state.remote += count
        self.servers[src].busy_counter.inc(REMOTE_SERVICE)
        self.servers[dst].busy_counter.inc(REMOTE_SERVICE)
        state.cost += REMOTE_SERVICE
    next_frontier = []

    def process(vertex, host):
        executing = self.servers[host]
        if not executing.store.is_available(vertex):
            return False
        state.processed += 1
        executing.visits_counter.inc()
        executing.busy_counter.inc(LOCAL_VISIT)
        state.cost += LOCAL_VISIT
        state.response.add(vertex)
        if depth == state.hops or vertex in state.visited:
            return True
        state.visited.add(vertex)
        try:
            executing.check_up()
        except ServerDownError:
            state.failed.add(host)
            return True
        entries = executing.store.neighbor_entries(vertex)
        if self.workload_model is not None and entries:
            for entry in entries:
                self.workload_model.observe_edge(vertex, entry.neighbor)
            self._model_observations.inc(len(entries))
        for entry in entries:
            believed = self.location_cache.lookup_from(host, entry.neighbor)
            next_frontier.append((entry.neighbor, believed, host))
        return True

    for vertex, host, from_host in frontier:
        if host in state.failed:
            continue
        if not process(vertex, host):
            resolved = self._forward_stale(vertex, host, from_host, state)
            if resolved is not None:
                process(vertex, resolved)
    return next_frontier


class ServiceCharges:
    """``state.serviced`` as the reference's forwards see it: each
    serviced message lands on its host's busy counter at once."""

    def __init__(self, servers):
        self.servers = servers

    def __getitem__(self, host):
        return 0

    def __setitem__(self, host, count):
        self.servers[host].busy_counter.inc(count * REMOTE_SERVICE)


def reference_run_depth(self, frontier, depth, state):
    """The reference bound as ``_run_depth``: it takes the frontier's
    segments apart into ``(vertex, host, from_host)`` entries and hands
    each next entry back as a segment of its own, so it keeps no plan;
    the busy time a depth returns is read off the counters before and
    after it."""
    before = [server.busy_counter.value for server in self.servers]
    state.serviced = ServiceCharges(self.servers)
    entries = [
        (vertex, host, from_host)
        for from_host, plan in frontier
        for vertex, host in zip(plan.neighbors, plan.hosts)
    ]
    next_entries = per_entry_run_depth(self, entries, depth, state)
    busy = {}
    for server_id, server_before in enumerate(before):
        delta = self.servers[server_id].busy_counter.value - server_before
        if delta > 0:
            busy[server_id] = delta
    next_frontier = [
        (from_host, hop_plan((vertex,), [host]))
        for vertex, host, from_host in next_entries
    ]
    return next_frontier, len(next_frontier), busy


class PerVertexPopularity(AuxiliaryData):
    """Popularity as it was added before: one ``add_weight`` per vertex."""

    __slots__ = ()

    def add_popularity(self, vertices):
        for vertex in vertices:
            self.add_weight(vertex, 1.0)


def bind_reference(cluster):
    cluster._engine._run_depth = types.MethodType(
        reference_run_depth, cluster._engine
    )
    cluster.aux.__class__ = PerVertexPopularity


class RecordingModel:
    """The two hooks the engine and the cluster call on a workload model."""

    def __init__(self):
        self.observed = []

    def advance(self, now):
        pass

    def observe_edge(self, u, v):
        self.observed.append((u, v))


def add_repeat_edge(cluster, u, v):
    """A second record between two neighbours, which ``add_edge``
    refuses: the same vertex twice in one adjacency list, so twice in
    one depth.  Its id comes from ``u``'s server, as ``add_edge``'s does."""
    host_u, host_v = cluster.catalog.lookup(u), cluster.catalog.lookup(v)
    rel_id = cluster.servers[host_u].store.allocate_rel_id()
    cluster.servers[host_u].store.create_relationship(rel_id, u, v)
    if host_v != host_u:
        cluster.servers[host_v].store.create_relationship(rel_id, u, v, ghost=True)
    # Counted like any record: a migration re-points the auxiliary
    # data along the adjacency the stores list.
    cluster.aux.add_edge(u, v)


def build_twin(reference, graph_seed, placement_salt, multi_edges):
    graph = make_random_graph(VERTICES, 2 * VERTICES, seed=graph_seed)
    placement = {v: (v * 7 + placement_salt) % SERVERS for v in graph.vertices()}
    cluster = build_placed_cluster(graph, placement, num_servers=SERVERS)
    for u, v in multi_edges:
        add_repeat_edge(cluster, u, v)
    if reference:
        bind_reference(cluster)
    model = RecordingModel()
    cluster.attach_workload_model(model)
    return cluster, model


def result_key(result):
    return (
        result.start, result.hops, result.response, result.processed,
        result.remote_hops, result.cost, result.failed_partitions,
    )


def moves_for(cluster, vertices, shift):
    """``{vertex: (source, target)}`` re-homing each vertex ``shift`` servers on."""
    moves = {}
    for vertex in vertices:
        source = cluster.catalog.lookup(vertex)
        moves[vertex] = (source, (source + shift) % SERVERS)
    return moves


def migrate(cluster, vertices, shift, plan):
    """A fault-free physical migration (the plan is re-attached after, its
    RNG re-seeded — on both twins alike)."""
    cluster.attach_faults(None)
    migrate_moves(cluster, moves_for(cluster, vertices, shift))
    cluster.attach_faults(plan)


def write(cluster, step, plan):
    """A fault-free write: an edge between two vertices (a repeat edge
    when they are neighbours already) or a new vertex with an edge (the
    plan is re-attached after, its RNG re-seeded — on both twins alike)."""
    cluster.attach_faults(None)
    if step[0] == "add_edge":
        u, v = step[1], step[2]
        if cluster.graph.has_edge(u, v):
            add_repeat_edge(cluster, u, v)
        else:
            cluster.add_edge(u, v)
    else:
        vertex = max(cluster.catalog.vertices()) + 1
        cluster.add_vertex(vertex)
        cluster.add_edge(vertex, step[1])
    cluster.attach_faults(plan)


def run_step(cluster, step, plan):
    kind = step[0]
    if kind == "traverse":
        return result_key(cluster.traverse(step[1], step[2]))
    if kind == "migrate":
        migrate(cluster, step[1], step[2], plan)
        return None
    if kind == "decay":
        cluster.decay_weights(step[1], floor=step[2])
        return None
    if kind in ("add_edge", "add_vertex"):
        write(cluster, step, plan)
        return None
    # A traversal paused after its first depth while a migration commits
    # or an edge is written.
    _, start, hops, between = step
    steps = cluster._engine.traverse_steps(start, hops)
    charged = []
    try:
        charged.append(step_key(next(steps)))  # dispatch
        charged.append(step_key(next(steps)))  # depth 0
        if between[0] == "add_edge":
            write(cluster, between, plan)
        else:
            migrate(cluster, between[1], between[2], plan)
        while True:
            charged.append(step_key(next(steps)))
    except StopIteration as stop:
        cluster._advance(stop.value.cost)
        cluster.aux.add_popularity(stop.value.response)
        return result_key(stop.value), charged


def step_key(step):
    return (
        step.kind, step.cost, step.depth, step.frontier, list(step.busy.items()),
    )


def observables(cluster, model):
    return {
        "servers": [
            (server.visits_counter.value, server.busy_counter.value)
            for server in cluster.servers
        ],
        "caches": sorted(cluster.location_cache.all_entries()),
        "network": (cluster.network.link_messages, cluster.network.link_bytes),
        "telemetry": telemetry_snapshot(cluster),
        "clock": cluster.now_ns,
        "fault_rng": cluster.faults.rng.getstate() if cluster.faults else None,
        "observed": model.observed,
        "weights": weights(cluster),
    }


def weights(cluster):
    aux = cluster.aux
    return (
        [repr(aux.weight_of(vertex)) for vertex in sorted(aux.vertices())],
        [repr(weight) for weight in aux.partition_weights],
    )


vertices = st.integers(0, VERTICES - 1)
vertex_sets = st.lists(vertices, min_size=1, max_size=4, unique=True)
shifts = st.integers(1, SERVERS - 1)
migrations = st.tuples(st.just("migrate"), vertex_sets, shifts)
#: between two existing vertices: a repeat edge when they are neighbours
new_edges = st.tuples(st.just("add_edge"), vertices, vertices).filter(
    lambda step: step[1] != step[2]
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("traverse"), vertices, st.integers(0, 3)),
        migrations,
        new_edges,
        st.tuples(st.just("add_vertex"), vertices),
        st.tuples(
            st.just("interleave"),
            vertices,
            st.integers(1, 3),
            st.one_of(migrations, new_edges),
        ),
        st.tuples(
            st.just("decay"), st.sampled_from([0.37, 0.9, 1e-3]), st.sampled_from([1.0, 1e-4])
        ),
    ),
    min_size=1,
    max_size=10,
)
#: simulated ns: a 2-hop query costs a few milliseconds, so windows
#: this short open and close inside single queries of a ten-step run
crash_windows = st.lists(
    st.builds(
        lambda server, start, length: CrashWindow(server, start, start + length),
        st.integers(0, SERVERS - 1),
        st.integers(0, 50_000_000),
        st.integers(100_000, 20_000_000),
    ),
    max_size=3,
)
plans = st.one_of(
    st.none(),
    st.builds(
        lambda seed, windows, link, rate: FaultPlan(
            seed=seed, crash_windows=tuple(windows), link_loss={link: rate}
        ),
        st.integers(0, 99),
        crash_windows,
        st.tuples(st.integers(0, SERVERS - 1), st.integers(0, SERVERS - 1)),
        st.sampled_from([0.0, 0.3, 1.0]),
    ),
)


@given(
    graph_seed=st.integers(0, 5),
    placement_salt=st.integers(0, SERVERS - 1),
    multi_edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(12, VERTICES - 1)),
        max_size=3, unique=True,
    ),
    plan=plans,
    sequence=steps,
)
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_bulk_depth_equals_per_entry_depth(
    graph_seed, placement_salt, multi_edges, plan, sequence
):
    changed, changed_model = build_twin(False, graph_seed, placement_salt, multi_edges)
    reference, reference_model = build_twin(True, graph_seed, placement_salt, multi_edges)
    for cluster in (changed, reference):
        cluster.attach_faults(plan)
    for step in sequence:
        assert run_step(changed, step, plan) == run_step(reference, step, plan)
    assert observables(changed, changed_model) == observables(
        reference, reference_model
    )


def charges(cluster):
    """What a traversal's charges are counted from: each server's visits
    and busy time, the ledger, and the entries batched hops carried."""
    network = cluster.network
    return (
        [server.visits_counter.value for server in cluster.servers],
        [server.busy_counter.value for server in cluster.servers],
        [row[:] for row in network.link_messages],
        cluster.telemetry.registry.histogram(
            "network_batch_entries", cluster=cluster.cluster_id
        ).sum,
    )


@given(
    graph_seed=st.integers(0, 5),
    placement_salt=st.integers(0, SERVERS - 1),
    multi_edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(12, VERTICES - 1)),
        max_size=3, unique=True,
    ),
    sequence=steps,
)
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_drawn_traversal_cost_is_counts_times_prices(
    graph_seed, placement_salt, multi_edges, sequence
):
    """Fault-free, a traversal costs its dispatch, a visit per processed
    vertex and per message a round trip, its entries' marginals and its
    RPC dispatch — ``dispatch + processed * visit + messages * hop +
    entries * entry + messages * service`` in integer ns, forwarding hops
    included as messages without entries; and each server is busy a
    visit per vertex it processed plus a dispatch per message it sent or
    received.  Migrations and decays between the traversals leave stale
    location hints behind, so some depths forward."""
    cluster, _ = build_twin(False, graph_seed, placement_salt, multi_edges)
    for step in sequence:
        if step[0] == "interleave":
            step = ("traverse", step[1], step[2])
        if step[0] != "traverse":
            run_step(cluster, step, None)
            continue
        visits, busy, links, entries = charges(cluster)
        result = cluster.traverse(step[1], step[2])
        visits_after, busy_after, links_after, entries_after = charges(cluster)
        sent = [
            [after - before for before, after in zip(row, row_after)]
            for row, row_after in zip(links, links_after)
        ]
        messages = sum(map(sum, sent))
        assert result.cost == (
            CLIENT_DISPATCH
            + result.processed * LOCAL_VISIT
            + messages * REMOTE_HOP
            + int(entries_after - entries) * BATCH_ENTRY
            + messages * REMOTE_SERVICE
        )
        assert sum(visits_after) - sum(visits) == result.processed
        for server in range(SERVERS):
            serviced = sum(sent[server]) + sum(row[server] for row in sent)
            assert busy_after[server] - busy[server] == (
                (visits_after[server] - visits[server]) * LOCAL_VISIT
                + serviced * REMOTE_SERVICE
            )


def test_popularity_after_a_decay_equals_per_vertex_add_weight():
    """Decayed weights are not whole numbers, so adding 1.0 per returned
    vertex in another grouping would move their last bits: a partition
    weight decayed to a tenth crosses several binades as one 2-hop adds
    to it, and each crossing rounds.  Later crossings can round such a
    difference away again, so the weights are compared after every query."""
    trajectories = []
    for is_reference in (False, True):
        cluster, _ = build_twin(is_reference, 2, 1, [])
        trajectory = []
        for factor, floor in [(0.37, 1.0), (1e-3, 1e-4)] * 2:
            cluster.decay_weights(factor, floor=floor)
            for start in range(VERTICES):
                cluster.traverse(start, 2)
                trajectory.append(weights(cluster))
        trajectories.append(trajectory)
    assert type(cluster.aux) is PerVertexPopularity
    assert trajectories[0] == trajectories[1]


def test_crash_window_opening_mid_query_is_accounted_identically():
    """Deterministic witness of the liveness rule: a host that dies after
    the depth's messages were delivered keeps its vertices in the
    response and loses its expansions — per expansion, in frontier order."""
    outcomes = []
    for is_reference in (False, True):
        cluster, model = build_twin(is_reference, 1, 0, [])
        start = max(range(VERTICES), key=cluster.graph.degree)
        home = cluster.catalog.lookup(start)
        # The first remote host the start's adjacency list reaches gets
        # depth 1's first message; the injector's clock only moves on
        # network charges, so a window opening just after time zero opens
        # right behind that delivery.
        victim = next(
            cluster.catalog.lookup(v)
            for v in cluster.servers[home].store.neighbors(start)
            if cluster.catalog.lookup(v) != home
        )
        cluster.attach_faults(
            FaultPlan(crash_windows=(CrashWindow(victim, 1, 10**9),))
        )
        result = cluster.traverse(start, 2)
        outcomes.append((result_key(result), observables(cluster, model)))
        assert result.failed_partitions == (victim,)
        assert any(cluster.catalog.lookup(v) == victim for v in result.response)
    assert outcomes[0] == outcomes[1]


def test_host_dying_behind_a_stale_forward_loses_only_its_later_expansions():
    """Inside the accounting loop the injector's clock moves only on a
    stale forward, so that is the one place a host's liveness can change
    mid-depth: liveness is checked per expansion, in frontier order, not
    once per host per depth.  Depth 1 here is ``[x on H, y behind a stale
    hint, z on H]`` and H's window opens during y's forwarding hop: x is
    expanded, z is processed but its expansion is lost."""
    home, dying, old_home, new_home = 0, 1, 2, 3
    x, y, z = 3, 2, 1
    outcomes = []
    for is_reference in (False, True):
        graph = SocialGraph.from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (3, 5)])
        placement = {0: home, x: dying, z: dying, y: old_home, 4: home, 5: home}
        cluster = build_placed_cluster(graph, placement, num_servers=SERVERS)
        if is_reference:
            bind_reference(cluster)
        assert cluster.servers[home].store.neighbors(0) == [x, y, z]
        cluster.traverse(0, 1)  # the home server caches y -> old_home
        migrate_moves(cluster, {y: (old_home, new_home)})  # ... now stale

        delivered = (  # depth 1's two messages: home->dying (x, z), home->old_home (y)
            2 * REMOTE_HOP + 3 * BATCH_ENTRY
        )
        opens = cluster.now_ns + delivered + REMOTE_HOP // 2
        cluster.attach_faults(
            FaultPlan(crash_windows=(CrashWindow(dying, opens, opens + 10**9),))
        )
        result = cluster.traverse(0, 2)
        assert result.failed_partitions == (dying,)
        assert {x, y, z, 5} <= set(result.response)  # x was expanded
        assert 4 not in result.response  # z was not
        outcomes.append(
            (result_key(result), observables(cluster, RecordingModel()))
        )
    assert outcomes[0] == outcomes[1]


def test_failed_forward_at_the_final_depth_skips_later_entries_on_its_host():
    """At the final depth a ``None`` answer takes the in-order walk: the
    final depth here is ``[x on H, y behind a stale hint, z on H]`` and
    y's forward to H is lost on every retry, so H fails there — x, ahead
    of y in frontier order, is still processed; z, behind it, is skipped."""
    home, new_home, old_home = 0, 1, 2
    x, y, z = 3, 2, 1
    outcomes = []
    for is_reference in (False, True):
        graph = SocialGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        placement = {0: home, x: new_home, z: new_home, y: old_home}
        cluster = build_placed_cluster(graph, placement, num_servers=SERVERS)
        if is_reference:
            bind_reference(cluster)
        assert cluster.servers[home].store.neighbors(0) == [x, y, z]
        cluster.traverse(0, 1)  # the home server caches y -> old_home
        migrate_moves(cluster, {y: (old_home, new_home)})  # ... now stale
        cluster.attach_faults(
            FaultPlan(seed=3, link_loss={(old_home, new_home): 1.0})
        )
        visits_before = cluster.servers[new_home].visits_counter.value
        result = cluster.traverse(0, 1)
        assert result.failed_partitions == (new_home,)
        assert x in result.response
        assert y not in result.response and z not in result.response
        assert cluster.servers[new_home].visits_counter.value == visits_before + 1  # x alone
        outcomes.append(
            (result_key(result), observables(cluster, RecordingModel()))
        )
    assert outcomes[0] == outcomes[1]
