"""Friend-of-friend recommendations — the paper's 2-hop analytics use case.

"We conduct 2-hop experiments since they are representative operations
used for recommendations, e.g., friend, events or ad recommendations in
social networks" (Section 5.3.2).

Two layers are shown:

1. a **local** walk over one server's store: the friends it hosts are
   expanded, and their friends are ranked by the number of common
   friends;
2. the **distributed 2-hop traversal** over the whole cluster, with the
   response/processed ratio the paper analyzes (vertices visited along
   several paths are processed once per path).

Run with::

    python examples/recommendations.py
"""

from collections import Counter

from repro.cluster import HermesCluster
from repro.cluster.network import seconds
from repro.graph import orkut_like
from repro.partitioning import MultilevelPartitioner


def local_recommendations(store, user, limit=5):
    """Rank non-friends by common-friend count, walking only the friends
    this server hosts (a remote friend is a ghost here: not available)."""
    friends = store.neighbors(user)
    counts = Counter()
    for friend in friends:
        if friend == user or not store.is_available(friend):
            continue
        for candidate in store.neighbors(friend):
            if (
                candidate != user
                and candidate not in friends
                and store.is_available(candidate)
            ):
                counts[candidate] += 1  # one per common-friend path
    return counts.most_common(limit)


def main() -> None:
    dataset = orkut_like(n=600, seed=13)
    cluster = HermesCluster.from_graph(
        dataset.graph,
        num_servers=4,
        partitioner=MultilevelPartitioner(seed=13),
    )
    print(f"loaded: {cluster}")

    # Pick a well-connected user and the server hosting them.
    user = max(cluster.graph.vertices(), key=cluster.graph.degree)
    home = cluster.catalog.lookup(user)
    store = cluster.servers[home].store
    print(f"user {user} (degree {cluster.graph.degree(user)}) on server {home}")

    # 1. Local walk: recommendations from same-server friends.
    recs = local_recommendations(store, user)
    print("local friend-of-friend recommendations (candidate, common friends):")
    for candidate, common in recs:
        print(f"  user {candidate}: {common} common friends")

    # 2. Distributed 2-hop: full-network recommendations with cost
    #    accounting (this is the Figure 9 2-hop workload).
    result = cluster.traverse(user, hops=2)
    print(
        f"distributed 2-hop: {result.processed:,} vertices processed, "
        f"{len(result.response):,} distinct "
        f"(ratio {result.response_processed_ratio:.2f}), "
        f"{result.remote_hops} remote hops, "
        f"{seconds(result.cost) * 1000:.1f} ms simulated"
    )


if __name__ == "__main__":
    main()
