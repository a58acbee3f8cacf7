"""CLI: regenerate the paper's tables and figures, and check the committed ones.

Usage::

    hermes-experiments all                       # print every table/figure
    hermes-experiments fig9 --n 1200 --servers 16
    hermes-experiments batching --out .          # (re)write BENCH_batching.json
    hermes-experiments concurrency --check       # reproduce the committed file
    hermes-experiments fig7 --telemetry-out telemetry.jsonl

(``python -m repro.experiments`` is the same command.)

``--out DIR`` writes each experiment's result as ``DIR/BENCH_<name>.json``:
its result dataclass as JSON plus ``gates_pass`` (experiments with
gates), ``clock`` (``simulated`` cost-model seconds or ``wall``),
``args`` (what it ran at) and, on the wall clock, ``machine``.

``--check`` re-runs each experiment at the ``args`` of its committed
``BENCH_<name>.json`` in the current directory and fails, naming each
path, on any differing, missing or extra field — except the fields a
``wall`` experiment measures on the machine (seconds, rates, RSS,
tracemalloc bytes, ``machine``) — and on any failing gate.  Without
``--check`` a failing gate still fails the run.

``--telemetry-out`` installs a recording telemetry hub for the run and
dumps the full JSONL log (metrics, spans, events) afterwards.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry as telemetry_pkg
from repro.experiments import (
    ablations,
    baselines,
    batching,
    concurrency,
    elasticity,
    faults,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    memory,
    scale as scale_experiment,
    serving,
    spar,
    table1,
    table2,
    workload,
)
from repro.experiments.common import ClusterScale, GraphScale


@dataclass(frozen=True)
class Experiment:
    """One registered experiment."""

    module: ModuleType
    #: what ``run`` takes: a ``GraphScale``, a ``ClusterScale``, or a
    #: ``GraphScale`` plus the ``sizes`` of a trajectory (``--n`` list)
    scale: str
    #: whether ``BENCH_<name>.json`` at the repo root holds its result
    committed: bool = False
    #: ``simulated`` (cost-model seconds) or ``wall`` (measured here)
    clock: str = "simulated"


#: every experiment, in the order ``all`` runs them
REGISTRY: Dict[str, Experiment] = {
    "table1": Experiment(table1, "graph"),
    "fig7": Experiment(fig7, "graph"),
    "fig8": Experiment(fig8, "graph"),
    "fig9": Experiment(fig9, "cluster"),
    "fig10": Experiment(fig10, "cluster"),
    "fig11": Experiment(fig11, "graph"),
    "table2": Experiment(table2, "graph"),
    "memory": Experiment(memory, "graph"),
    "ablations": Experiment(ablations, "graph"),
    "baselines": Experiment(baselines, "graph"),
    "spar": Experiment(spar, "graph"),
    "faults": Experiment(faults, "cluster", committed=True),
    "batching": Experiment(batching, "cluster", committed=True),
    "concurrency": Experiment(concurrency, "cluster", committed=True),
    "elasticity": Experiment(elasticity, "cluster", committed=True),
    "scale": Experiment(scale_experiment, "trajectory", committed=True, clock="wall"),
    "serving": Experiment(serving, "cluster", committed=True),
    "workload": Experiment(workload, "cluster", committed=True),
}

#: leaves of a ``wall`` payload measured on the machine, which ``--check``
#: lets differ: seconds, rates, RSS, tracemalloc bytes and their ratios
WALL_FIELDS = re.compile(
    r"(seconds|_per_second|rss_bytes|(retained|peak)_(bytes|ratio))$|^/machine/"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermes-experiments",
        description="Regenerate the Hermes (EDBT 2015) evaluation tables/figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"all, or any of: {', '.join(REGISTRY)}",
    )
    parser.add_argument(
        "--n", type=int, nargs="+", help="graph size (scale takes a trajectory)"
    )
    parser.add_argument("--servers", type=int, help="partition/server count")
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--out", metavar="DIR", help="write each result as DIR/BENCH_<name>.json"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-run at the args of the committed BENCH_<name>.json; "
        "fail on any differing field or failing gate",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="record telemetry during the run and write the JSONL log here",
    )
    return parser


def resolve_args(name: str, flags: argparse.Namespace) -> Dict[str, Any]:
    """The arguments ``name`` runs at: the flags given, else its defaults."""
    entry = REGISTRY[name]
    defaults = ClusterScale() if entry.scale == "cluster" else GraphScale()
    servers = (
        defaults.num_servers if entry.scale == "cluster" else defaults.num_partitions
    )
    sizes = flags.n or [defaults.n]
    return {
        "n": sizes if entry.scale == "trajectory" else sizes[0],
        "servers": servers if flags.servers is None else flags.servers,
        "seed": defaults.seed if flags.seed is None else flags.seed,
    }


def run_experiment(name: str, args: Dict[str, Any]):
    entry = REGISTRY[name]
    if entry.scale == "cluster":
        return entry.module.run(
            ClusterScale(n=args["n"], num_servers=args["servers"], seed=args["seed"])
        )
    if entry.scale == "graph":
        return entry.module.run(
            GraphScale(n=args["n"], num_partitions=args["servers"], seed=args["seed"])
        )
    scale = GraphScale(num_partitions=args["servers"], seed=args["seed"])
    return entry.module.run(scale, sizes=args["n"])


def jsonable(value: Any) -> Any:
    """A result object as JSON types: dataclasses become objects with
    their fields, then their properties."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {
            field.name: jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        for name, attribute in vars(type(value)).items():
            if isinstance(attribute, property):
                out[name] = jsonable(getattr(value, name))
        return out
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def bench_payload(
    name: str, result, args: Dict[str, Any], failures: Optional[List[str]]
) -> Dict[str, Any]:
    """What ``BENCH_<name>.json`` holds for ``result``; ``failures`` is
    None for an experiment without gates."""
    entry = REGISTRY[name]
    payload = jsonable(result)
    if failures is not None:
        payload["gates_pass"] = not failures
    payload["clock"] = entry.clock
    payload["args"] = args
    if entry.clock == "wall":
        payload["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        }
    return payload


def flatten(value: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    """``(path, leaf)`` pairs of a JSON document, paths like ``/a/0/b``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, f"{path}/{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from flatten(item, f"{path}/{index}")
    else:
        yield path, value


def _differs(old: Any, new: Any) -> bool:
    # NaN, the one value unequal to itself, reproduces as NaN.
    return old != new and not (old != old and new != new)


def check(committed: Dict[str, Any], fresh: Dict[str, Any], clock: str) -> List[str]:
    """Every way ``fresh`` fails to reproduce ``committed``, one per path."""
    old, new = dict(flatten(committed)), dict(flatten(fresh))
    problems = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            problems.append(f"{path}: committed {old[path]!r}, now missing")
        elif path not in old:
            problems.append(f"{path}: not committed, now {new[path]!r}")
        elif _differs(old[path], new[path]) and not (
            clock == "wall" and WALL_FIELDS.search(path)
        ):
            problems.append(f"{path}: committed {old[path]!r}, now {new[path]!r}")
    return problems


def main(argv=None) -> int:
    parser = build_parser()
    flags = parser.parse_args(argv)
    names = list(REGISTRY) if "all" in flags.experiments else flags.experiments
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        # Non-zero exit so scripted callers notice the typo.
        return 2
    scale_flags = (flags.n, flags.servers, flags.seed)
    if flags.check and any(flag is not None for flag in scale_flags):
        parser.error("--check runs at the args its committed file records")
    if flags.check and not all(REGISTRY[name].committed for name in names):
        parser.error("--check needs experiments with a committed BENCH file")
    if flags.n and len(flags.n) > 1 and any(
        REGISTRY[name].scale != "trajectory" for name in names
    ):
        parser.error("only a trajectory experiment (scale) takes several --n")

    hub = None
    if flags.telemetry_out:
        hub = telemetry_pkg.Telemetry(record=True)
        telemetry_pkg.install(hub)
    failed = False
    try:
        for name in names:
            entry = REGISTRY[name]
            bench = f"BENCH_{name}.json"
            committed = None
            if flags.check:
                with open(bench, encoding="utf-8") as handle:
                    committed = json.load(handle)
                args = committed["args"]
            else:
                args = resolve_args(name, flags)
            started = time.perf_counter()
            result = run_experiment(name, args)
            elapsed = time.perf_counter() - started
            print(entry.module.render(result))
            print(f"[{name} completed in {elapsed:.1f}s]")
            gates = getattr(entry.module, "gate_failures", None)
            failures = gates(result) if gates is not None else None
            payload = bench_payload(name, result, args, failures)
            problems = [f"gate fails: {failure}" for failure in failures or []]
            if committed is not None:
                problems = check(committed, payload, entry.clock) + problems
            for problem in problems:
                print(f"[{name}] {problem}")
            if flags.check and not problems:
                print(f"[{name} reproduces {bench}]")
            failed = failed or bool(problems)
            if flags.out:
                path = os.path.join(flags.out, bench)
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=2)
                    handle.write("\n")
                print(f"[{name} written to {path}]")
            print()
    finally:
        if hub is not None:
            telemetry_pkg.install(None)

    if hub is not None:
        lines = telemetry_pkg.export_jsonl(
            hub, flags.telemetry_out, meta={"experiments": names}
        )
        print(f"[telemetry log ({lines} lines) written to {flags.telemetry_out}]")
        print()
        print(telemetry_pkg.summary_text(hub))
    return 1 if failed else 0
