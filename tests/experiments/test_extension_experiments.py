"""Tiny-scale tests for the extension experiments (baselines, spar)."""

import pytest

from repro.experiments import baselines, spar
from repro.experiments.common import GraphScale

TINY = GraphScale(n=250, num_partitions=4, seed=12)


class TestBaselines:
    @pytest.fixture(scope="class")
    def result(self):
        return baselines.run(TINY)

    def test_grid_complete(self, result):
        strategies = {cell.strategy for cell in result.cells}
        assert strategies == {"hash", "LDG", "Fennel", "JA-BE-JA", "Metis-like"}
        assert len(result.cells) == 3 * 5

    def test_structure_aware_beats_hash(self, result):
        indexed = {(c.dataset, c.strategy): c for c in result.cells}
        for dataset in ("orkut", "twitter", "dblp"):
            hash_cut = indexed[(dataset, "hash")].initial_cut
            for strategy in ("LDG", "Fennel", "JA-BE-JA", "Metis-like"):
                assert indexed[(dataset, strategy)].initial_cut < hash_cut

    def test_repartitioner_restores_weight_balance(self, result):
        for cell in result.cells:
            assert cell.refined_imbalance <= 1.2

    def test_render(self, result):
        text = baselines.render(result)
        assert "JA-BE-JA" in text
        assert "Fennel" in text


class TestSpar:
    @pytest.fixture(scope="class")
    def result(self):
        return spar.run(TINY)

    def test_cells(self, result):
        assert len(result.cells) == 3
        for cell in result.cells:
            assert cell.replication.one_hop_local_fraction == 1.0
            assert cell.replication.replication_factor >= 1.0
            assert 0.0 < cell.replication.two_hop_local_fraction <= 1.0

    def test_replication_tracks_cut(self, result):
        by_cut = sorted(result.cells, key=lambda c: c.edge_cut_fraction)
        factors = [c.replication.replication_factor for c in by_cut]
        assert factors == sorted(factors)

    def test_render(self, result):
        text = spar.render(result)
        assert "SPAR" in text
        assert "replication factor" in text


class TestRunnerIncludesExtensions:
    def test_registered(self):
        from repro.experiments.runner import REGISTRY

        order = list(REGISTRY)
        assert "baselines" in order
        assert "spar" in order
        assert order.index("baselines") > order.index("ablations")


class TestFaults:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import faults
        from repro.experiments.common import ClusterScale

        scale = ClusterScale(n=200, num_servers=4, num_clients=8, seed=11)
        return faults.run(scale)

    def test_sweep_complete(self, result):
        from repro.experiments import faults

        assert len(result.cells) == len(faults.LOSS_RATES)
        assert [c.loss_rate for c in result.cells] == list(faults.LOSS_RATES)

    def test_zero_fault_row_is_clean(self, result):
        baseline = result.cells[0]
        assert baseline.loss_rate == 0.0
        assert baseline.partial_traversals == 0
        assert baseline.coverage == 1.0
        assert baseline.faults_injected == 0
        assert baseline.migration_succeeded
        assert baseline.migration_attempts == 1

    def test_each_row_counts_only_its_own_clusters_faults(self):
        """An installed hub is one registry shared by every cluster of the
        sweep; a row must not count the faults of the rows before it."""
        from repro import telemetry
        from repro.experiments import faults
        from repro.experiments.common import ClusterScale, build_datasets

        scale = ClusterScale(n=100, num_servers=4, seed=11)
        dataset = build_datasets(scale.n, scale.seed)[0]
        telemetry.install(telemetry.Telemetry(record=True))
        try:
            first = faults._run_rate(dataset, 0.2, scale)
            second = faults._run_rate(dataset, 0.2, scale)
        finally:
            telemetry.install(None)
        assert first["faults_injected"] > 0
        assert second == first

    def test_faults_scale_with_loss(self, result):
        injected = [c.faults_injected for c in result.cells]
        assert injected == sorted(injected)
        assert injected[-1] > 0
        for cell in result.cells:
            assert 0.0 < cell.coverage <= 1.0

    def test_render(self, result):
        from repro.experiments import faults

        text = faults.render(result)
        assert "Fault injection" in text
        assert "rolls back" in text
