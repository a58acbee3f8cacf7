"""The experiment registry and ``--check``, the step that holds every
committed ``BENCH_<name>.json`` to a fresh run."""

import copy
import importlib
import json
import pkgutil
from dataclasses import replace
from pathlib import Path

import pytest

import repro.experiments
from repro.experiments import runner
from repro.experiments.runner import REGISTRY, WALL_FIELDS, check, flatten

REPO_ROOT = Path(__file__).resolve().parents[2]


def _experiment_modules():
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        if hasattr(module, "run") and hasattr(module, "render"):
            yield info.name, module


class TestRegistry:
    def test_every_experiment_module_is_registered_and_documented(self):
        names = [name for name, _ in _experiment_modules()]
        assert "elasticity" in names
        for name, module in _experiment_modules():
            assert REGISTRY[name].module is module, name
            assert f"``{name}``" in repro.experiments.__doc__, name
        assert sorted(REGISTRY) == sorted(names)

    @pytest.mark.parametrize(
        "name", [name for name, entry in REGISTRY.items() if entry.committed]
    )
    def test_committed_file_matches_its_entry(self, name):
        entry = REGISTRY[name]
        committed = json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
        assert committed["clock"] == entry.clock
        assert set(committed["args"]) == {"n", "servers", "seed"}
        if hasattr(entry.module, "gate_failures"):
            assert committed["gates_pass"] is True
        else:
            assert "gates_pass" not in committed


SIMULATED = {
    "n": 800,
    "cells": [{"cost": 2.7618, "messages": 9301}],
    "phase1_seconds": 0.5,
    "gates": {"floor": 0.3},
    "gates_pass": True,
    "clock": "simulated",
    "args": {"n": 800, "servers": 8, "seed": 7},
}


class TestCheck:
    def test_an_identical_payload_passes(self):
        assert check(SIMULATED, copy.deepcopy(SIMULATED), "simulated") == []

    def test_a_perturbed_simulated_field_fails_naming_its_path(self):
        fresh = copy.deepcopy(SIMULATED)
        fresh["cells"][0]["cost"] = 2.7619
        # On the simulated clock a field named like a wall one is a model
        # output too.
        fresh["phase1_seconds"] = 0.6
        assert check(SIMULATED, fresh, "simulated") == [
            "/cells/0/cost: committed 2.7618, now 2.7619",
            "/phase1_seconds: committed 0.5, now 0.6",
        ]

    def test_perturbed_wall_fields_of_a_wall_payload_pass(self):
        committed = json.loads((REPO_ROOT / "BENCH_scale.json").read_text())
        fresh = copy.deepcopy(committed)
        for point in fresh["points"]:
            for field in (
                "ingest_seconds",
                "ingest_edges_per_second",
                "finalize_seconds",
                "build_seconds",
                "phase1_seconds",
                "sweep_seconds",
                "sweep_edges_per_second",
                "peak_rss_bytes",
            ):
                point[field] *= 2
        for field in (
            "dict_retained_bytes",
            "dict_peak_bytes",
            "csr_retained_bytes",
            "csr_peak_bytes",
            "retained_ratio",
            "peak_ratio",
        ):
            fresh["memory"][field] += 1
        fresh["machine"] = {key: "elsewhere" for key in fresh["machine"]}
        assert check(committed, fresh, "wall") == []
        # Everything else of a wall payload is still held exactly.
        fresh["points"][0]["csr_bytes"] += 8
        fresh["parity"]["csr_digest"] = "0"
        assert check(committed, fresh, "wall") == [
            f"/parity/csr_digest: committed {committed['parity']['csr_digest']!r}"
            ", now '0'",
            f"/points/0/csr_bytes: committed {committed['points'][0]['csr_bytes']}"
            f", now {committed['points'][0]['csr_bytes'] + 8}",
        ]

    def test_wall_fields_are_the_measured_ones(self):
        wall = {
            path
            for path, _ in flatten(
                json.loads((REPO_ROOT / "BENCH_scale.json").read_text())
            )
            if WALL_FIELDS.search(path)
        }
        assert "/memory/csr_retained_bytes" in wall
        assert "/machine/platform" in wall
        assert not {
            "/points/0/csr_bytes",
            "/points/0/bytes_per_edge",
            "/points/0/phase1_final_edge_cut",
            "/parity/csr_digest",
            "/clock",
        } & wall

    def test_a_missing_or_extra_field_fails(self):
        fresh = copy.deepcopy(SIMULATED)
        del fresh["gates"]["floor"]
        fresh["cells"].append({"cost": 1.0})
        assert check(SIMULATED, fresh, "wall") == [
            "/cells/1/cost: not committed, now 1.0",
            "/gates/floor: committed 0.3, now missing",
        ]

    def test_a_failing_gate_fails(self):
        fresh = dict(SIMULATED, gates_pass=False)
        assert check(SIMULATED, fresh, "wall") == [
            "/gates_pass: committed True, now False"
        ]


class TestCheckCommand:
    """``--check`` end to end on a tiny experiment given a committed file."""

    @pytest.fixture
    def committed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(
            REGISTRY, "table1", replace(REGISTRY["table1"], committed=True)
        )
        monkeypatch.chdir(tmp_path)
        assert runner.main(["table1", "--n", "150", "--out", "."]) == 0
        capsys.readouterr()
        return tmp_path / "BENCH_table1.json"

    def test_reproduces_then_names_a_moved_number(self, committed, capsys):
        assert runner.main(["table1", "--check"]) == 0
        assert "[table1 reproduces BENCH_table1.json]" in capsys.readouterr().out
        payload = json.loads(committed.read_text())
        payload["measured"][0]["num_edges"] += 1
        committed.write_text(json.dumps(payload))
        assert runner.main(["table1", "--check"]) == 1
        assert "[table1] /measured/0/num_edges: committed 1285, now 1284" in (
            capsys.readouterr().out
        )

    def test_a_failing_gate_fails_once_per_gate(
        self, committed, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            runner.table1, "gate_failures", lambda result: ["a", "b"], raising=False
        )
        # Without --check the gate alone fails the run.
        assert runner.main(["table1", "--n", "150"]) == 1
        assert capsys.readouterr().out.count("gate fails:") == 2
        payload = json.loads(committed.read_text())
        payload["gates_pass"] = True
        committed.write_text(json.dumps(payload))
        assert runner.main(["table1", "--check"]) == 1
        out = capsys.readouterr().out
        assert "[table1] gate fails: a" in out and "[table1] gate fails: b" in out
        assert "[table1] /gates_pass: committed True, now False" in out

    def test_refuses_scale_flags(self, committed):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["table1", "--check", "--n", "200"])
        assert excinfo.value.code == 2

    def test_refuses_an_experiment_without_a_committed_file(self):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["fig7", "--check"])
        assert excinfo.value.code == 2
