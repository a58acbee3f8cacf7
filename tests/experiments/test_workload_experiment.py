"""Small-scale tests for the workload experiment (BENCH_workload).

The acceptance gates are calibrated for the default benchmark scale
(n=800, 8 servers); at this tiny scale we assert the A/B protocol's
structure and the invariants that hold at any scale — matched arms,
sane reductions, gate wiring — not the pinned ratios.
"""

import json

import pytest

from repro.experiments import workload
from repro.experiments.common import ClusterScale

TINY = ClusterScale(n=200, num_servers=4, seed=11)


@pytest.fixture(scope="module")
def result():
    return workload.run(TINY, ops=120)


class TestProtocol:
    def test_all_traces_compared(self, result):
        assert [cell.trace for cell in result.cells] == [
            "uniform",
            "hotspot",
            "two_hop",
        ]
        for cell in result.cells:
            assert cell.observe_queries == 120
            assert cell.eval_queries == 120

    def test_arms_are_matched(self, result):
        for cell in result.cells:
            assert cell.plain.workload_alpha == 0.0
            assert cell.aware.workload_alpha == workload.WORKLOAD_ALPHA
            # Both arms rebalanced and served the eval trace.
            for arm in (cell.plain, cell.aware):
                assert arm.vertices_moved > 0
                assert arm.eval_cost > 0.0
                assert arm.eval_remote_hops > 0
                assert arm.eval_messages > 0
                assert arm.eval_bytes > 0

    def test_only_aware_arm_carries_a_model(self, result):
        for cell in result.cells:
            assert cell.plain.model_observations == 0
            assert cell.plain.model_edges == 0
            assert cell.aware.model_observations > 0
            assert cell.aware.model_edges > 0

    def test_reductions_consistent_with_arms(self, result):
        for cell in result.cells:
            assert cell.cost_reduction == pytest.approx(
                1.0 - cell.aware.eval_cost / cell.plain.eval_cost
            )
            assert cell.remote_hop_reduction == pytest.approx(
                1.0 - cell.aware.eval_remote_hops / cell.plain.eval_remote_hops
            )
            assert cell.imbalance_gap == pytest.approx(
                cell.aware.final_imbalance - cell.plain.final_imbalance
            )

    def test_traces_deterministic_in_seed(self):
        from repro.experiments.common import build_datasets

        dataset = build_datasets(TINY.n, TINY.seed)[0]
        first = workload.build_traces(dataset, TINY, 50)
        second = workload.build_traces(dataset, TINY, 50)
        assert first == second
        for observe_ops, eval_ops in first.values():
            assert observe_ops != eval_ops  # held-out eval phase


class TestOutputs:
    def test_gates_present(self, result):
        assert set(result.gates) >= {
            "hotspot_remote_hop_reduction",
            "hotspot_reduction_floor",
            "hotspot_cost_reduction",
            "hotspot_imbalance_gap",
            "imbalance_gap_limit",
            "two_hop_remote_hop_reduction",
        }
        assert result.gates["hotspot_reduction_floor"] == pytest.approx(0.15)

    def test_render(self, result):
        text = workload.render(result)
        assert "BENCH_workload" in text
        assert "hotspot" in text
        assert "PASS" in text or "FAIL" in text

    def test_json_payload_roundtrips(self, result):
        from repro.experiments.runner import bench_payload

        failures = workload.gate_failures(result)
        payload = bench_payload("workload", result, {"n": TINY.n}, failures)
        decoded = json.loads(json.dumps(payload))
        assert decoded["n"] == TINY.n
        assert decoded["gates_pass"] == (not failures)
        assert len(decoded["cells"]) == 3
        assert decoded["workload_alpha"] == workload.WORKLOAD_ALPHA


class TestRunnerIntegration:
    def test_registered_with_cluster_scale(self):
        from repro.experiments.runner import REGISTRY

        entry = REGISTRY["workload"]
        assert entry.module is workload
        assert entry.scale == "cluster"
        assert (entry.committed, entry.clock) == (True, "simulated")
