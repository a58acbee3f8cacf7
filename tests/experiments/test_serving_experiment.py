"""Small-scale tests for the serving experiment (BENCH_serving).

The acceptance gates are calibrated for the default benchmark scale
(n=800, 8 servers); at this tiny scale we assert structure and the
qualitative behaviors that hold at any scale, not the pinned ratios.
"""

import json

import pytest

from repro.experiments import serving
from repro.experiments.common import ClusterScale

TINY = ClusterScale(n=200, num_servers=4, seed=11)


@pytest.fixture(scope="module")
def result():
    return serving.run(TINY, ops=240)


class TestOverload:
    def test_load_points_complete(self, result):
        labels = [point.label for point in result.overload]
        assert labels == [
            "1x admission",
            "1x queue-less",
            "3x admission",
            "3x queue-less",
        ]
        for point in result.overload:
            assert point.offered > 0
            assert point.completed + point.shed <= point.offered
            assert 0.0 <= point.shed_rate <= 1.0
            assert sum(point.shed_by_reason.values()) == point.shed

    def test_queueless_never_sheds(self, result):
        for point in result.overload:
            if not point.admission:
                assert point.shed == 0
                assert point.final_admission_state == "accepting"

    def test_admission_sheds_under_3x_overload(self, result):
        controlled_3x = next(
            p for p in result.overload if p.label == "3x admission"
        )
        assert controlled_3x.shed > 0
        assert controlled_3x.p99_latency > 0.0

    def test_admission_bounds_p99_vs_queueless(self, result):
        indexed = {p.label: p for p in result.overload}
        assert (
            indexed["3x admission"].p99_latency
            <= indexed["3x queue-less"].p99_latency
        )


class TestHotspot:
    def test_replicas_absorb_hot_reads(self, result):
        hotspot = result.hotspot
        assert hotspot.total_reads > 0
        assert 0 < hotspot.replica_served <= hotspot.total_reads
        assert hotspot.offload_fraction == pytest.approx(
            hotspot.replica_served / hotspot.total_reads
        )

    def test_replicas_do_not_hurt_tail_latency(self, result):
        assert result.hotspot.p99_with_replicas <= result.hotspot.p99_primary_only


class TestStaleness:
    def test_sweep_covers_lags_and_respects_bound(self, result):
        lags = [point.replica_lag for point in result.staleness]
        assert lags == sorted(lags)
        assert len(lags) >= 3
        for point in result.staleness:
            assert point.bound_respected
            assert point.max_served_staleness <= point.max_staleness + 1e-12

    def test_higher_lag_blocks_more_reads(self, result):
        blocked = [point.stale_blocked for point in result.staleness]
        assert blocked[-1] >= blocked[0]


class TestOutputs:
    def test_gates_present(self, result):
        assert set(result.gates) >= {
            "p99_ratio_3x_vs_uncontested",
            "p99_ratio_limit",
            "goodput_ratio_1x",
            "goodput_ratio_floor",
            "shed_rate_3x",
            "hotspot_offload_fraction",
            "hotspot_offload_floor",
            "staleness_bound_respected",
        }

    def test_render(self, result):
        text = serving.render(result)
        assert "BENCH_serving" in text
        assert "3x admission" in text
        assert "hotspot" in text.lower()

    def test_json_payload_roundtrips(self, result):
        from repro.experiments.runner import bench_payload

        failures = serving.gate_failures(result)
        payload = bench_payload("serving", result, {"n": TINY.n}, failures)
        decoded = json.loads(json.dumps(payload))
        assert decoded["n"] == TINY.n
        assert decoded["gates_pass"] == (not failures)
        assert len(decoded["overload"]) == 4


class TestRunnerIntegration:
    def test_registered_with_cluster_scale(self):
        from repro.experiments.runner import REGISTRY

        entry = REGISTRY["serving"]
        assert entry.module is serving
        assert entry.scale == "cluster"
        assert (entry.committed, entry.clock) == (True, "simulated")
