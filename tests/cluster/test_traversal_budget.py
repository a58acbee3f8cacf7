"""Count guard for the traversal data plane (no timing).

A traversal depth merges its frontier's hop plans, ships it in one
network call and charges the depth per link and per host (DESIGN.md §9)
— so the Python-level calls a traversal makes are bounded per *processed
entry*, the location cache resolves neighbours once per *expanded
vertex* and only while no plan of it is kept, never once per neighbour,
and the telemetry registry is charged per depth and host, never per
entry or per message.  Counted with ``sys.setprofile``, the way
``tests/core/test_phase1_budget.py`` counts calls into the auxiliary
data: a regression into per-entry calls (a record object per access, a
cache lookup per neighbour, an ``expand`` per entry) fails here as a
count, on any machine.  A warm 1-hop's calls are bounded outright, since
they are the query's fixed cost, and popularity enters the auxiliary
data once per query.

Measured on the first 1 000 operations of ``traverse_read``'s stream
(n=1200, 8 servers, Zipf starts, 90 % 1-hop): 23.5 calls per processed
entry and 62 calls into ``cluster/catalog.py`` per traversal before the
depth was split, 11.9 and 10.5 after.  Charging the depth per link and
per host took it from 6.5 calls per processed entry and 209 registry
instrument calls per traversal to 2.9 and 19.2; on the cluster below a
1-hop traversal went from 5.8 calls per processed entry to 3.3 and a
2-hop from 2.8 to 0.6.  Cutting the fixed cost (one read per host at the
final depth, popularity in one call, the steps and the result as named
tuples) took a warm 1-hop on ``traverse_read``'s first 500 1-hop
operations from 105 calls to 80, and on the cluster below from 70–118
(one ``add_weight`` per response vertex) to 58–64.  Keeping hop plans
took the warm 1-hop there from 60–66 calls to 60–62, and the busiest
vertex's 1- and 2-hop from 66 and 185 calls to 62 and 179 (1.27 and
0.18 per processed entry).
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.cluster import catalog
from repro.core import auxiliary
from repro.graph.generators import orkut_like
from repro.partitioning.hashing import HashPartitioner
from repro.telemetry import registry
from tests.conftest import build_placed_cluster

#: Python-level calls allowed per processed frontier entry (the depth's
#: fixed costs — spans, link accounting, the result — included)
CALLS_PER_ENTRY = 4
#: Python-level calls allowed per warm 1-hop traversal, whatever its
#: response: 64 with all four servers in it
CALLS_PER_WARM_HOP = 66

SERVERS = 4
#: registry instrument calls per depth: the network's message and byte
#: counters and its batch-size histogram, the location cache's hits and
#: misses
DEPTH_SERIES = 5
#: per query: traversals, processed, remote hops, the cost histogram
QUERY_SERIES = 4
INSTRUMENT_CALLS = ("inc", "observe", "observe_many", "set")


def placed_cluster():
    graph = orkut_like(n=200, seed=7).graph
    placement = HashPartitioner(salt=7).partition(graph, SERVERS).as_mapping()
    return graph, build_placed_cluster(graph, placement, num_servers=SERVERS)


def count_calls(fn, *args, module=catalog):
    """``(result, total, by_name)``: Python-level calls made while
    ``fn(*args)`` runs, and those into ``module`` by name."""
    source = module.__file__
    total = 0
    by_name: Counter = Counter()

    def profiler(frame, event, _arg):
        nonlocal total
        if event == "call":
            total += 1
            if frame.f_code.co_filename == source:
                by_name[frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, total, by_name


def busiest_vertex(graph):
    return max(sorted(graph.vertices()), key=graph.degree)


def test_calls_per_processed_entry_are_bounded():
    graph, cluster = placed_cluster()
    start = busiest_vertex(graph)
    cluster.traverse(start, 2)  # a running cluster: location caches warm
    for hops in (1, 2):
        result, total, _ = count_calls(cluster.traverse, start, hops)
        assert result.processed > 20 * hops  # the traversal did real work
        assert total <= CALLS_PER_ENTRY * result.processed, (
            hops, total, result.processed,
        )


def test_a_warm_one_hop_makes_a_fixed_number_of_calls():
    graph, cluster = placed_cluster()
    starts = sorted(graph.vertices())
    for start in starts:
        cluster.traverse(start, 1)
    for start in starts:
        _, total, _ = count_calls(cluster.traverse, start, 1)
        assert total <= CALLS_PER_WARM_HOP, (start, total)


def test_popularity_enters_the_auxiliary_data_once_per_query():
    graph, cluster = placed_cluster()
    start = busiest_vertex(graph)
    for hops in (1, 2):
        result, _, calls = count_calls(cluster.traverse, start, hops, module=auxiliary)
        assert len(result.response) > 20 * hops
        assert calls["add_popularity"] == 1 and calls["add_weight"] == 0


def test_location_cache_is_entered_once_per_expanded_vertex():
    """An expansion resolves its vertex's neighbours once and keeps them
    as its server's hop plan: a cold query enters ``resolve_from`` once
    per expanded vertex, the same query again not at all, and after a
    write only for the vertices whose chains the write changed."""
    graph, cluster = placed_cluster()
    start = busiest_vertex(graph)
    neighbors = set(graph.neighbors(start))

    _, _, cold = count_calls(cluster.traverse, start, 2)
    assert cold["resolve_from"] == 1 + len(neighbors)
    assert cold["lookup_from"] == 0

    # Warm, the catalog itself is consulted for the dispatch alone, each
    # expanded vertex's plan is taken as kept, and the cache's counters
    # are charged once per expanding depth.
    _, _, warm = count_calls(cluster.traverse, start, 2)
    assert warm == {
        "plan_from": 1 + len(neighbors), "count_resolved": 2, "lookup": 1,
    }

    # A new edge changes the start's chain and the new neighbour's: a
    # 1-hop re-plans the start alone, a 2-hop the new neighbour too.
    stranger = min(set(graph.vertices()) - neighbors - {start})
    cluster.add_edge(start, stranger)
    _, _, one_hop = count_calls(cluster.traverse, start, 1)
    assert one_hop["resolve_from"] == 1
    _, _, two_hop = count_calls(cluster.traverse, start, 2)
    assert two_hop["resolve_from"] == 1


def test_registry_is_charged_per_depth_and_host_not_per_entry():
    """Each depth charges a host's visits once and the network's series
    once, whatever its entries and messages: the bound is in servers and
    depths alone, so it holds however many entries a depth carries."""
    graph, cluster = placed_cluster()
    start = busiest_vertex(graph)
    cluster.traverse(start, 2)
    for hops in (1, 2):
        messages = cluster.network.stats.messages
        result, _, calls = count_calls(
            cluster.traverse, start, hops, module=registry
        )
        messages = cluster.network.stats.messages - messages
        charged = sum(calls[name] for name in INSTRUMENT_CALLS)
        depths = hops + 1
        assert charged <= depths * (SERVERS + DEPTH_SERIES) + QUERY_SERIES
        assert result.processed > 20 * hops and messages >= SERVERS - 1
