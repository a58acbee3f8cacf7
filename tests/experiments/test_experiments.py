"""Smoke + shape tests for every experiment module at tiny scale.

These run each table/figure pipeline end to end on miniature graphs and
assert the *qualitative* relationships the paper reports, not absolute
numbers (the benchmark harness runs the full-scale versions).
"""

import json

import pytest

from repro.experiments import ablations, fig7, fig8, fig9, fig10, fig11
from repro.experiments import memory as memory_experiment
from repro.experiments import table1, table2
from repro.experiments.common import (
    ClusterScale,
    GraphScale,
    scaled_k,
)
from repro.experiments.runner import build_parser, jsonable, main as runner_main
from repro.telemetry import installed, read_jsonl

TINY_GRAPH = GraphScale(n=300, num_partitions=4, seed=11)
TINY_CLUSTER = ClusterScale(
    n=200, num_servers=4, num_clients=8, window=0.004, warmup_queries=60, seed=11
)


class TestScaling:
    def test_scaled_k_reference(self):
        assert scaled_k(500, 317_000) == 500
        assert scaled_k(1000, 317_000) == 1000
        assert scaled_k(500, 3170) == 5
        assert scaled_k(500, 10) == 1


class TestTable1:
    def test_run_and_render(self):
        result = table1.run(TINY_GRAPH)
        assert len(result.measured) == 3
        names = [stats.name for stats in result.measured]
        assert names == ["orkut", "twitter", "dblp"]
        text = table1.render(result)
        assert "Table 1" in text
        assert "dblp" in text

    def test_dblp_most_clustered(self):
        result = table1.run(TINY_GRAPH)
        by_name = {stats.name: stats for stats in result.measured}
        assert (
            by_name["dblp"].clustering_coefficient
            > by_name["twitter"].clustering_coefficient
        )
        assert (
            by_name["dblp"].average_path_length
            > by_name["orkut"].average_path_length
        )


class TestFig7And8:
    @pytest.fixture(scope="class")
    def studies(self):
        return fig7.run(TINY_GRAPH).studies

    def test_hermes_cut_competitive(self, studies):
        for study in studies:
            # Shape claim: Hermes is within a few points of Metis, never
            # wildly worse.
            assert study.hermes_cut_fraction <= study.metis_cut_fraction + 0.10

    def test_hermes_migrates_far_less(self, studies):
        for study in studies:
            assert (
                study.hermes_migration.vertex_fraction
                < study.metis_migration.vertex_fraction
            )
            assert (
                study.hermes_migration.relationship_fraction
                < study.metis_migration.relationship_fraction
            )

    def test_renders(self, studies):
        assert "Figure 7" in fig7.render(fig7.Fig7Result(studies=studies))
        assert "Figure 8a" in fig8.render(fig8.Fig8Result(studies=studies))


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9.run(TINY_CLUSTER)

    def test_all_cells_present(self, result):
        assert len(result.cells) == 3 * 3 * 2  # datasets x systems x hops

    def test_hermes_beats_random(self, result):
        for dataset in ("orkut", "twitter", "dblp"):
            hermes = result.lookup(dataset, "Hermes", 1)
            random_ = result.lookup(dataset, "Random", 1)
            assert hermes.processed_vertices > random_.processed_vertices

    def test_one_hop_ratio_is_one(self, result):
        for cell in result.cells:
            if cell.hops == 1:
                assert cell.response_processed_ratio == pytest.approx(1.0, abs=0.05)

    def test_two_hop_ratio_below_one(self, result):
        for dataset in ("orkut", "twitter", "dblp"):
            cell = result.lookup(dataset, "Metis", 2)
            assert cell.response_processed_ratio < 0.95

    def test_render(self, result):
        text = fig9.render(result)
        assert "Figure 9" in text
        assert "Hermes vs Random" in text


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(TINY_CLUSTER)

    def test_write_rates_covered(self, result):
        rates = {cell.write_fraction for cell in result.cells}
        assert rates == {0.0, 0.1, 0.2, 0.3}

    def test_writes_do_not_increase_throughput_much(self, result):
        indexed = {(c.dataset, c.write_fraction): c for c in result.cells}
        for dataset in ("orkut", "twitter", "dblp"):
            base = indexed[(dataset, 0.0)].throughput_vps
            heavy = indexed[(dataset, 0.3)].throughput_vps
            assert heavy < base * 1.25

    def test_render(self, result):
        text = fig10.render(result)
        assert "Figure 10" in text
        assert "readback" in text


class TestFig11AndTable2:
    @pytest.fixture(scope="class")
    def runs(self):
        return fig11.run(TINY_GRAPH).runs

    def test_grid_complete(self, runs):
        assert len(runs) == 9  # 3 datasets x 3 k values

    def test_edge_cut_improves(self, runs):
        for entry in runs:
            assert entry.final_edge_cut < entry.initial_edge_cut

    def test_final_cut_insensitive_to_k(self, runs):
        """Paper: 'the number of edge-cuts in the final partitioning is
        almost the same for different values of k'."""
        by_dataset = {}
        for entry in runs:
            by_dataset.setdefault(entry.dataset, []).append(entry.final_edge_cut)
        for cuts in by_dataset.values():
            assert max(cuts) <= 1.5 * min(cuts)

    def test_renders(self, runs):
        assert "Figure 11" in fig11.render(fig11.Fig11Result(runs=runs))
        assert "Table 2" in table2.render(table2.Table2Result(runs=runs))


class TestMemoryExperiment:
    def test_lightweight_smaller(self):
        result = memory_experiment.run(TINY_GRAPH)
        for cell in result.cells:
            assert cell.multilevel_bytes > cell.auxiliary_bytes
        assert "multilevel" in memory_experiment.render(result)


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run(TINY_GRAPH)

    def test_two_stage_converges_single_stage_does_not(self, result):
        by_mode = {cell.mode: cell for cell in result.stage_cells}
        assert by_mode["two-stage"].converged
        assert not by_mode["single-stage"].converged
        assert (
            by_mode["two-stage"].final_edge_cut
            < by_mode["single-stage"].final_edge_cut
        )

    def test_epsilon_sweep_monotone_balance(self, result):
        """Looser epsilon admits more imbalance."""
        for dataset in ("orkut", "twitter", "dblp"):
            cells = [c for c in result.epsilon_cells if c.dataset == dataset]
            for cell in cells:
                assert cell.final_imbalance <= cell.epsilon + 0.05

    def test_render(self, result):
        assert "Ablation" in ablations.render(result)


class TestRunnerCLI:
    def test_parser(self):
        args = build_parser().parse_args(["table1", "--n", "100"])
        assert args.experiments == ["table1"]
        assert args.n == [100]

    def test_unknown_experiment(self, capsys):
        assert runner_main(["fig99"]) == 2

    def test_runs_table1(self, capsys):
        assert runner_main(["table1", "--n", "150"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_json_output(self, tmp_path, capsys):
        code = runner_main(["table1", "--n", "150", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_table1.json").read_text())
        assert payload["args"] == {"n": 150, "servers": 8, "seed": 7}
        assert payload["clock"] == "simulated"
        assert "gates_pass" not in payload  # table1 has no gates
        names = [m["name"] for m in payload["measured"]]
        assert names == ["orkut", "twitter", "dblp"]

    def test_telemetry_out(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        code = runner_main(
            [
                "fig10",
                "--n", "150",
                "--servers", "3",
                "--telemetry-out", str(path),
            ]
        )
        assert code == 0
        # The hub must be uninstalled again after the run.
        assert installed() is None
        records = read_jsonl(str(path))
        assert records[0]["type"] == "meta"
        assert records[0]["experiments"] == ["fig10"]
        types = {record["type"] for record in records}
        assert {"meta", "metric", "span", "event"} <= types
        out = capsys.readouterr().out
        assert "Telemetry summary" in out

    def test_jsonable_fallback(self):
        assert jsonable({1: {2, 3}}) == {"1": [2, 3]}
        assert jsonable((1, "a", None)) == [1, "a", None]
        assert jsonable(object()).startswith("<object")
