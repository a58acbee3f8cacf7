"""Smoke test of the e2e benchmark (not part of tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs every workload once untraced and once traced at ``--scale smoke``
(n=200, tens of operations, about 20 s in total) and asserts that every
named metric is emitted with its unit, every output check passes, and
``BENCHMARK.json`` still says what ``metrics.py`` says.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics as spec  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "11", "--seconds", "10", "--trace", str(trace), "--scale", "smoke",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", [name for name, _ in spec.WORKLOADS])
def test_end_to_end_metrics(workload):
    result = _run(workload, trace=0)
    expected = {name: unit for name, unit, _, _ in spec.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    with open(os.path.join(HERE, "out", f"{workload}-seed11-trace0.json")) as handle:
        record = json.load(handle)
    assert all(record["checks"].values()), record["checks"]
    assert {"nproc", "python", "numpy", "platform"} <= set(record["machine"])
    own = {
        name: unit
        for name, unit, _, _, workloads in spec.WORKLOAD_END_TO_END
        if workload in workloads
    }
    reported = {n: m["unit"] for n, m in record["end_to_end"].items()}
    assert own.items() <= reported.items()
    latencies = [n for n in reported if "_p50_" in n or "_p99_" in n]
    assert all(record["latency_samples"][n] > 0 for n in latencies)


@pytest.mark.parametrize("workload", [name for name, _ in spec.WORKLOADS])
def test_per_layer_metrics(workload):
    result = _run(workload, trace=1)
    expected = {name: unit for name, unit, _ in spec.PER_LAYER}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert result["metrics"]["harness.attribution_error"]["value"] <= 0.02
    assert result["metrics"]["harness.spans"]["value"] > 0


def test_benchmark_json_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()
