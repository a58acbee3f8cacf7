"""Serial mode is pinned, bit for bit, per seed.

Every seeded simtest scenario generated serial
(``generate(concurrency=False)``: each operation's generator is drained
before the next one starts) must reproduce the exact per-step
statuses, clock, edge-cut, placement digest and network counters pinned
in ``tests/simtest/fixtures/serial_reference.json`` for seeds 0-29.  The
clock is pinned as integer nanoseconds.  The fixture was last
regenerated when simulated time became integer nanoseconds: every
status, cut, imbalance, placement digest and traffic count came out
unchanged, and each clock moved by at most 3.3e-15 relative to the float
seconds it replaced.  Regenerating is deliberately manual so a
drift cannot silently re-baseline::

    seeds = {}
    for seed in range(30):
        spec, schedule = ScenarioGenerator(seed).generate(
            concurrency=False, elasticity=False
        )
        entry = digest(spec, schedule)
        del entry["spec"]["concurrency"], entry["spec"]["elasticity"]
        seeds[str(seed)] = entry
    json.dump({"seeds": seeds}, open(FIXTURE, "w"), indent=1, sort_keys=True)

The flip side is covered too: forcing ``concurrency=True`` on the same
seeds must produce interleaved schedules that hold every invariant in
the extended catalog (the original eleven plus ``event-clock-monotonic``
and ``double-write-coherence``).
"""

import hashlib
import json
import os

import pytest

from repro.simtest import ScenarioGenerator, ScenarioRunner
from repro.simtest.scenario import build_cluster

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "serial_reference.json"
)

with open(FIXTURE) as fh:
    REFERENCE = json.load(fh)["seeds"]


def digest(spec, schedule):
    """The fixture's digest recipe, byte for byte.

    Statuses come from ``runner._apply`` per step with no interleaved
    audits (audits do not mutate the cluster, but the reference was
    recorded without them, so the replay matches exactly).  The clock is
    an int and the imbalance is ``repr``'d: parity means the same bits,
    not approximately equal.
    """
    runner = ScenarioRunner()
    cluster = build_cluster(spec)
    statuses = [runner._apply(cluster, step) for step in schedule]
    catalog_sha = hashlib.sha256(
        json.dumps(sorted(cluster.catalog.as_mapping().items())).encode()
    ).hexdigest()
    return {
        "spec": spec.to_dict(),
        "statuses": statuses,
        "now": cluster.now_ns,
        "edge_cut": cluster.edge_cut(),
        "imbalance": repr(cluster.imbalance()),
        "vertices": cluster.graph.num_vertices,
        "edges": cluster.graph.num_edges,
        "catalog_sha": catalog_sha,
        "net_messages": cluster.network.stats.messages,
        "net_bytes": cluster.network.stats.bytes_sent,
    }


@pytest.mark.parametrize("seed", sorted(int(s) for s in REFERENCE))
def test_serial_mode_is_byte_identical_to_reference(seed):
    spec, schedule = ScenarioGenerator(seed).generate(
        concurrency=False, elasticity=False
    )
    assert spec.concurrency is False
    assert spec.elasticity is False
    observed = digest(spec, schedule)
    expected = dict(REFERENCE[str(seed)])
    # The fixture does not record the ``concurrency`` and ``elasticity``
    # spec keys; serial mode must agree on every key the fixture pins,
    # and those two must be False.
    observed_spec = observed.pop("spec")
    expected_spec = dict(expected.pop("spec"))
    assert observed_spec.pop("concurrency") is False
    assert observed_spec.pop("elasticity") is False
    assert observed_spec == expected_spec
    assert observed == expected


def test_reference_covers_thirty_seeds():
    assert sorted(int(s) for s in REFERENCE) == list(range(30))


@pytest.mark.parametrize("seed", range(0, 30, 3))
def test_forced_interleaving_preserves_every_invariant(seed):
    spec, schedule = ScenarioGenerator(seed).generate(concurrency=True)
    assert spec.concurrency is True
    outcome = ScenarioRunner().run(spec, schedule)
    assert outcome.ok, outcome.summary()


@pytest.mark.parametrize("seed", range(0, 30, 3))
def test_forced_elasticity_preserves_every_invariant(seed):
    """Membership churn (joins, drains, crash-recoveries) woven into the
    schedule must leave the extended invariant catalog — including
    ``drain-completeness`` and ``recovery-fidelity`` — intact."""
    spec, schedule = ScenarioGenerator(seed).generate(elasticity=True)
    assert spec.elasticity is True
    outcome = ScenarioRunner().run(spec, schedule)
    assert outcome.ok, outcome.summary()


def test_forced_elasticity_actually_churns_membership():
    """The elasticity override must weave real membership steps into the
    schedules — and across the seed range all three kinds must appear —
    otherwise the invariant sweep above is vacuous."""
    kinds = set()
    for seed in range(30):
        spec, schedule = ScenarioGenerator(seed).generate(elasticity=True)
        elastic = [
            step.kind
            for step in schedule
            if step.kind in ("add_server", "drain_server", "crash_recover")
        ]
        assert elastic, f"seed {seed} wove no membership steps"
        kinds.update(elastic)
    assert kinds == {"add_server", "drain_server", "crash_recover"}


def test_forced_interleaving_actually_interleaves():
    """The concurrency override must change the execution shape — plain
    schedules gain interleave steps (serving ones keep serve steps and
    go event-driven) — otherwise the invariant sweep above is vacuous."""
    interleaved = 0
    serving = 0
    migrations_under_traffic = 0
    for seed in range(30):
        spec, schedule = ScenarioGenerator(seed).generate(concurrency=True)
        kinds = {step.kind for step in schedule}
        if spec.serving:
            serving += 1
            assert "serve" in kinds
        else:
            assert "interleave" in kinds
            interleaved += 1
        # Migration-under-traffic: an interleave step that absorbed an
        # adjacent rebalance runs the online migration amid its ops.
        migrations_under_traffic += any(
            step.kind == "interleave" and "rebalance" in step.args
            for step in schedule
        )
    assert interleaved > 0 and serving > 0
    assert migrations_under_traffic > 0
