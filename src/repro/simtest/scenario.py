"""Seeded scenario generation for deterministic simulation testing.

A *scenario* is pure data: a :class:`ScenarioSpec` describing how to
build a cluster (graph size, server count, placement salt, repartitioner
knobs) plus a :class:`Step` schedule of operations to run against it —
mixed read/write workload, weight decay, forced and trigger-driven
``rebalance()`` calls, and fault-plan attach/clear episodes with
crash/loss/timeout windows.  Both halves serialize to JSON, which is
what makes a failing run replayable from an artifact file: the same
``seed`` always regenerates the same spec and schedule, and the same
spec + schedule always reproduce the same cluster states
(FoundationDB-style deterministic simulation, scaled to this simulator).

Scenarios may additionally exercise the front-door serving layer
(:class:`~repro.serving.frontend.ServingFrontend`): when
``spec.serving`` is true the workload steps are wrapped as ``serve``
steps carrying a client id, a priority class and a Poisson-ish
inter-arrival gap, and the auditor extends its sweep with the
queue-conservation and replica-staleness invariants.  The serving
decision and the serve-step decorations are drawn from a *separate*
seeded stream (``("hermes-serving", seed)``), so the base spec and
schedule for a given seed are byte-identical to what pre-serving
versions of the harness generated — old replay artifacts (which lack
the ``serving`` key) load and reproduce unchanged.

The generator never emits ``corrupt`` steps — those are the test-only
hook the acceptance tests use to prove the auditor catches violations —
but the runner understands them so corrupted schedules shrink and replay
exactly like organic ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.cluster.hermes import HermesCluster
from repro.cluster.network import nanoseconds
from repro.core.config import RepartitionerConfig
from repro.graph.adjacency import SocialGraph
from repro.partitioning.hashing import HashPartitioner

#: step kinds the generator draws from (weights roughly mirror a social
#: read-heavy workload with ongoing growth and periodic maintenance)
READ_KINDS = ("traverse", "read")
WRITE_KINDS = ("add_edge", "add_vertex")
MAINTENANCE_KINDS = ("rebalance", "decay")

#: workload kinds that route through the front door in serving scenarios
FRONT_DOOR_KINDS = READ_KINDS + WRITE_KINDS

#: priority names serve steps draw from (the overload experiment's mix:
#: mostly NORMAL, with BATCH and INTERACTIVE tails)
_SERVE_PRIORITIES = (
    "batch", "normal", "normal", "normal", "interactive",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to rebuild a scenario's cluster, as pure data."""

    seed: int
    num_servers: int = 3
    num_vertices: int = 40
    num_edges: int = 100
    placement_salt: int = 0
    epsilon: float = 1.2
    k: int = 2
    #: route the workload through a ServingFrontend (serve steps) and
    #: audit the serving-layer invariants
    serving: bool = False
    #: run through the per-server event scheduler: workload stretches
    #: become ``interleave`` steps (or, with serving, the front door goes
    #: event-driven), rebalances migrate online, and the auditor adds the
    #: event-clock and double-write invariants
    concurrency: bool = False
    #: weave elastic-membership steps (add_server / drain_server /
    #: crash_recover) into the schedule, build the cluster with
    #: durability journals, and audit the drain-completeness and
    #: recovery-fidelity invariants
    elasticity: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "num_servers": self.num_servers,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "placement_salt": self.placement_salt,
            "epsilon": self.epsilon,
            "k": self.k,
            "serving": self.serving,
            "concurrency": self.concurrency,
            "elasticity": self.elasticity,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        # Keys this spec no longer has (``batch_remote_hops`` in older
        # replay artifacts) are ignored, so those artifacts still load.
        return cls(
            seed=int(data["seed"]),
            num_servers=int(data["num_servers"]),
            num_vertices=int(data["num_vertices"]),
            num_edges=int(data["num_edges"]),
            placement_salt=int(data["placement_salt"]),
            epsilon=float(data["epsilon"]),
            k=int(data["k"]),
            # Absent from pre-serving artifacts: default off so they
            # load and replay unchanged.
            serving=bool(data.get("serving", False)),
            # Same contract for pre-concurrency artifacts.
            concurrency=bool(data.get("concurrency", False)),
            # And for pre-elasticity artifacts.
            elasticity=bool(data.get("elasticity", False)),
        )


@dataclass(frozen=True)
class Step:
    """One schedule entry: an operation kind plus its JSON-able args."""

    kind: str
    args: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "args": dict(self.args)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Step":
        return cls(kind=str(data["kind"]), args=dict(data.get("args", {})))


Schedule = List[Step]


def build_graph(spec: ScenarioSpec) -> SocialGraph:
    """The spec's deterministic Erdos-Renyi-ish social graph."""
    rng = random.Random(spec.seed)
    graph = SocialGraph()
    for vertex in range(spec.num_vertices):
        graph.add_vertex(vertex, weight=1.0)
    attempts = 0
    while graph.num_edges < spec.num_edges and attempts < 50 * spec.num_edges:
        attempts += 1
        u = rng.randrange(spec.num_vertices)
        v = rng.randrange(spec.num_vertices)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def build_cluster(spec: ScenarioSpec) -> HermesCluster:
    """A loaded cluster in the spec's exact initial state.

    Serving specs come back with a :class:`ServingFrontend` attached as
    ``cluster.serving`` — the runner dispatches ``serve`` steps through
    it and the auditor checks the serving invariants whenever the
    attribute is present.
    """
    graph = build_graph(spec)
    placement = HashPartitioner(salt=spec.placement_salt).partition(
        graph, spec.num_servers
    )
    cluster = HermesCluster.from_graph(
        graph,
        num_servers=spec.num_servers,
        partitioning=placement,
        repartitioner=RepartitionerConfig(epsilon=spec.epsilon, k=spec.k),
        durability=spec.elasticity,
    )
    if spec.serving:
        from repro.serving.frontend import ServingFrontend

        cluster.serving = ServingFrontend(cluster)
        if spec.concurrency:
            # Event-driven front door: one engine lives for the whole
            # schedule — arrivals drain preceding events, writes ship
            # replica updates as delivery events, rebalances migrate
            # online.  The auditor sweeps it via _concurrent_engine.
            from repro.concurrency.engine import ConcurrentExecutor

            engine = ConcurrentExecutor(cluster)
            cluster._concurrent_engine = engine
            cluster.serving.attach_engine(engine)
    # Passive traffic observer: costs, schedules and results are
    # untouched, but every scenario now exercises the workload-model
    # conservation invariant (heat >= 0, decay-bounded, counter match).
    from repro.workloads.model import WorkloadModel

    cluster.attach_workload_model(WorkloadModel(half_life=0.05))
    return cluster


class ScenarioGenerator:
    """Composes random schedules of workload, faults and rebalances.

    One generator instance produces one ``(spec, schedule)`` pair,
    entirely determined by ``seed`` — re-instantiating with the same seed
    regenerates byte-identical output.
    """

    def __init__(self, seed: int, num_steps: Optional[int] = None):
        self.seed = seed
        self._num_steps = num_steps

    def generate(
        self,
        concurrency: Optional[bool] = None,
        elasticity: Optional[bool] = None,
    ) -> Tuple[ScenarioSpec, Schedule]:
        """Generate this seed's ``(spec, schedule)``.

        ``concurrency`` overrides the seeded concurrency decision:
        ``False`` forces the serial harness (the byte-identical parity
        suite uses this to compare against pre-concurrency fixtures),
        ``True`` forces the event scheduler, ``None`` (default) draws
        from the ``("hermes-concurrency", seed)`` stream.  ``elasticity``
        does the same for the membership-churn decision, drawn last from
        ``("hermes-elasticity", seed)``.  The base spec and schedule are
        drawn first, from their own streams, so they are byte-identical
        per seed in every mode.
        """
        rng = random.Random(("hermes-simtest", self.seed).__repr__())
        num_vertices = rng.randint(28, 56)
        num_servers = rng.randint(2, 4)
        num_edges = int(num_vertices * rng.uniform(1.8, 3.0))
        placement_salt = rng.randrange(10_000)
        # This draw used to pick the per-entry traversal mode; it is
        # still consumed so every seed keeps the schedule it always had
        # (TESTING.md seed references, shrunk replay artifacts).
        rng.random()
        spec = ScenarioSpec(
            seed=self.seed,
            num_servers=num_servers,
            num_vertices=num_vertices,
            num_edges=num_edges,
            placement_salt=placement_salt,
            epsilon=round(rng.uniform(1.05, 1.4), 3),
            k=2,
        )
        schedule = self._schedule(spec, rng)
        # The serving decision and every serve-step decoration draw from
        # their own stream so the base spec/schedule above stay
        # byte-identical per seed whether or not serving exists.
        serving_rng = random.Random(("hermes-serving", self.seed).__repr__())
        if serving_rng.random() < 0.5:
            spec = replace(spec, serving=True)
            schedule = self._serving_schedule(schedule, serving_rng)
        # Concurrency draws from its own stream too, after the serving
        # decision, so serial and serving schedules per seed stay
        # byte-identical to what pre-concurrency harnesses generated.
        concurrency_rng = random.Random(
            ("hermes-concurrency", self.seed).__repr__()
        )
        drawn = concurrency_rng.random() < 0.5
        enabled = drawn if concurrency is None else concurrency
        if enabled:
            spec = replace(spec, concurrency=True)
            if not spec.serving:
                # Serving schedules keep their serve steps (the attached
                # engine makes the front door event-driven); plain
                # schedules group workload stretches into interleave
                # steps that run through the scheduler, absorbing an
                # adjacent rebalance so migration runs under traffic.
                schedule = self._interleave_schedule(schedule, concurrency_rng)
        # Elasticity draws last, from its own stream, so every earlier
        # mode combination per seed is byte-identical to what
        # pre-elasticity harnesses generated.
        elasticity_rng = random.Random(
            ("hermes-elasticity", self.seed).__repr__()
        )
        drawn_elastic = elasticity_rng.random() < 0.5
        elastic_enabled = drawn_elastic if elasticity is None else elasticity
        if elastic_enabled:
            spec = replace(spec, elasticity=True)
            schedule = self._elasticity_schedule(spec, schedule, elasticity_rng)
        return spec, schedule

    # ------------------------------------------------------------------
    def _schedule(self, spec: ScenarioSpec, rng: random.Random) -> Schedule:
        # The generator tracks its own model of the evolving vertex/edge
        # population so every emitted step is valid *if* all prior writes
        # succeed; the runner skips steps invalidated by degraded writes.
        graph = build_graph(spec)
        vertices = sorted(graph.vertices())
        edges = {tuple(sorted(edge)) for edge in graph.edges()}
        next_vertex = spec.num_vertices
        faults_active = False
        clear_in = 0  # steps until the pending clear_faults fires

        num_steps = self._num_steps or rng.randint(32, 52)
        schedule: Schedule = []
        while len(schedule) < num_steps:
            if faults_active and clear_in <= 0:
                schedule.append(Step("clear_faults"))
                faults_active = False
                continue
            if faults_active:
                clear_in -= 1
            draw = rng.random()
            if draw < 0.40:
                schedule.append(
                    Step(
                        "traverse",
                        {
                            "start": rng.choice(vertices),
                            "hops": rng.choice([1, 1, 2, 2, 3]),
                        },
                    )
                )
            elif draw < 0.52:
                schedule.append(Step("read", {"vertex": rng.choice(vertices)}))
            elif draw < 0.64:
                step = self._add_edge_step(rng, vertices, edges)
                if step is not None:
                    schedule.append(step)
            elif draw < 0.70:
                schedule.append(
                    Step("add_vertex", {"vertex": next_vertex})
                )
                vertices.append(next_vertex)
                next_vertex += 1
            elif draw < 0.82:
                schedule.append(
                    Step("rebalance", {"force": rng.random() < 0.7})
                )
            elif draw < 0.88:
                schedule.append(
                    Step("decay", {"factor": round(rng.uniform(0.3, 0.8), 3)})
                )
            elif not faults_active:
                schedule.append(
                    Step("attach_faults", {"plan": self._fault_plan(spec, rng)})
                )
                faults_active = True
                clear_in = rng.randint(3, 8)
        return schedule

    def _serving_schedule(
        self, schedule: Schedule, rng: random.Random
    ) -> Schedule:
        """Wrap every workload step as a front-door ``serve`` step.

        Maintenance and fault steps pass through untouched.  Each serve
        step gains a client id (4 tenants, so accounting attribution is
        exercised), a priority class drawn from the overload
        experiment's mix, and an inter-arrival ``gap`` in simulated
        seconds on the serving clock.  Arrivals are bursty: most gaps
        are several operations wide (backlogs drain, the state machine
        de-escalates), but ~30% are sub-lag flash-crowd gaps, which is
        what drives genuine queueing, shedding episodes, and replica
        reads inside the staleness window.
        """
        converted: Schedule = []
        for step in schedule:
            if step.kind not in FRONT_DOOR_KINDS:
                converted.append(step)
                continue
            if rng.random() < 0.3:
                gap = rng.uniform(0.0, 0.0005)
            else:
                gap = rng.uniform(0.001, 0.008)
            converted.append(
                Step(
                    "serve",
                    {
                        "op": step.kind,
                        "args": dict(step.args),
                        "client": f"client-{rng.randrange(4)}",
                        "priority": rng.choice(_SERVE_PRIORITIES),
                        "gap": round(gap, 6),
                    },
                )
            )
        return converted

    def _interleave_schedule(
        self, schedule: Schedule, rng: random.Random
    ) -> Schedule:
        """Group workload stretches into concurrent ``interleave`` steps.

        Consecutive runs of plain workload steps become one
        ``interleave`` step carrying the original op dicts (in order)
        plus a client count — the runner fans them out round-robin over
        that many client tasks on the event scheduler.  A ``rebalance``
        immediately following a group of two or more ops is absorbed
        into the group, so the online migration runs *while* those ops
        are in flight — the interleaving the serial harness can never
        produce.  Maintenance and fault steps pass through and act as
        barriers (the scheduler drains between steps).
        """
        converted: Schedule = []
        group: List[Step] = []

        def flush(rebalance: Optional[Step] = None) -> None:
            absorbed = rebalance is not None and len(group) >= 2
            if len(group) >= 2:
                args: Dict[str, object] = {
                    "ops": [step.to_dict() for step in group],
                    "clients": rng.choice([2, 3, 4, 6, 8]),
                }
                if absorbed:
                    args["rebalance"] = {
                        "force": bool(rebalance.args.get("force", False))
                    }
                converted.append(Step("interleave", args))
            else:
                converted.extend(group)
            group.clear()
            if rebalance is not None and not absorbed:
                converted.append(rebalance)

        for step in schedule:
            if step.kind in FRONT_DOOR_KINDS:
                group.append(step)
            elif step.kind == "rebalance":
                flush(rebalance=step)
            else:
                flush()
                converted.append(step)
        flush()
        return converted

    def _elasticity_schedule(
        self, spec: ScenarioSpec, schedule: Schedule, rng: random.Random
    ) -> Schedule:
        """Weave membership churn into an already-built schedule.

        The generator tracks the active-server set so every emitted step
        is valid if all prior steps succeed: drains keep at least two
        servers active, crash-recover episodes target servers still in
        the cluster.  Steps are inserted at random schedule positions —
        membership changes land mid-traffic, including inside fault
        windows (a drain aborted by an injected fault must roll back).
        """
        active = set(range(spec.num_servers))
        next_server = spec.num_servers
        events: List[Step] = []
        for _ in range(rng.randint(2, 4)):
            draw = rng.random()
            if draw < 0.45:
                events.append(
                    Step(
                        "add_server",
                        {
                            "capacity": rng.choice([0.5, 1.0, 1.0, 2.0]),
                            "reshard": rng.random() < 0.8,
                        },
                    )
                )
                active.add(next_server)
                next_server += 1
            elif draw < 0.70 and len(active) >= 3:
                server = rng.choice(sorted(active))
                active.discard(server)
                events.append(Step("drain_server", {"server": server}))
            else:
                events.append(
                    Step("crash_recover", {"server": rng.choice(sorted(active))})
                )
        converted = list(schedule)
        # Positions are drawn independently but assigned to the events in
        # sorted order, so their causal order survives the weave — a
        # drain or crash never precedes the join that created its target.
        # Inserting rear-first keeps earlier positions stable (and puts
        # the earlier event first when two positions collide).
        positions = sorted(rng.randrange(len(converted) + 1) for _ in events)
        for event, position in reversed(list(zip(events, positions))):
            converted.insert(position, event)
        return converted

    def _add_edge_step(
        self,
        rng: random.Random,
        vertices: List[int],
        edges: set,
    ) -> Optional[Step]:
        for _ in range(20):
            u, v = rng.choice(vertices), rng.choice(vertices)
            key = (min(u, v), max(u, v))
            if u != v and key not in edges:
                edges.add(key)
                return Step("add_edge", {"u": u, "v": v})
        return None

    def _fault_plan(
        self, spec: ScenarioSpec, rng: random.Random
    ) -> Dict[str, object]:
        """A random fault episode, already in FaultPlan.to_dict form.

        Crash windows sit in absolute simulated time (integer ns) on the
        same scale the workload's costs accumulate on (sub-millisecond
        operations, tens of milliseconds per schedule), so windows
        genuinely cross in-flight operations some of the time.
        """
        windows = []
        for _ in range(rng.randint(0, 2)):
            start = nanoseconds(rng.uniform(0.0, 0.03))
            windows.append(
                {
                    "server": rng.randrange(spec.num_servers),
                    "start": start,
                    "end": start + nanoseconds(rng.uniform(0.002, 0.02)),
                }
            )
        return {
            "seed": rng.randrange(10_000),
            "loss_rate": round(rng.uniform(0.0, 0.35), 3),
            "timeout_rate": round(rng.uniform(0.0, 0.1), 3),
            "crash_windows": windows,
            "link_loss": [],
        }


def schedule_to_dicts(schedule: Schedule) -> List[Dict[str, object]]:
    return [step.to_dict() for step in schedule]


def schedule_from_dicts(data: List[Dict[str, object]]) -> Schedule:
    return [Step.from_dict(entry) for entry in data]
