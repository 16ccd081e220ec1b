"""The command-line entry point, run in process."""

import json

import pytest

from slowreg import (
    SimilarityGraph,
    SolveLimits,
    SparsityBudget,
    build_quadform,
    grid_search,
    solve_support_selection,
    stepwise_fit,
)
from slowreg.benchmark import SynthParams, make_synthetic_dataset
from slowreg.cli import main
from slowreg.dataio import write_data_csv, write_edge_list

from util import make_instance


class TestGridsearchCommand:
    def test_data_file_matches_in_memory_grid_search(self, tmp_path):
        instance = make_instance(T=5, D=6, N=12, seed=21)
        data = tmp_path / "train.csv"
        out = tmp_path / "report.json"
        write_data_csv(data, instance.x_blocks, instance.y_blocks)
        code = main([
            "gridsearch", "--data", str(data), "--chain",
            "--kl", "2", "--kg", "3", "--kc", "4",
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())

        budget = SparsityBudget(max_per_vertex=2, max_global=3, max_changes=4)
        gs = grid_search(instance, budget, seed=3)
        assert report["table"] == gs.table
        assert report["best"] == {
            "lambda_beta": gs.lambda_beta,
            "lambda_delta": gs.lambda_delta,
            "holdout_r2": gs.holdout_r2,
        }
        assert report["stepwise"]["removal_iterations"] == gs.fit.removal_iterations


class TestFitCommand:
    def test_grid_matches_in_memory_grid_search(self, tmp_path):
        instance = make_instance(T=3, D=5, N=12, seed=22)
        data = tmp_path / "train.csv"
        out = tmp_path / "report.json"
        write_data_csv(data, instance.x_blocks, instance.y_blocks)
        code = main([
            "fit", "--data", str(data), "--chain", "--grid",
            "--kl", "2", "--kg", "2", "--kc", "1",
            "--seed", "4", "--time-limit", "20",
            "--omit-timings", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())

        budget = SparsityBudget(max_per_vertex=2, max_global=2, max_changes=1)
        gs = grid_search(instance, budget, seed=4)
        assert gs.fit.removal_iterations > 0
        assert report["lambda_beta"] == gs.lambda_beta
        assert report["lambda_delta"] == gs.lambda_delta
        assert report["stepwise"] == {
            "cost": gs.fit.cost,
            "removal_iterations": gs.fit.removal_iterations,
            "initial_union_size": gs.fit.initial_union_size,
        }


@pytest.fixture
def data_files(tmp_path):
    """A T=4, D=6 observation file and a non-chain edge list for it."""
    instance = make_instance(
        T=4, D=6, N=10, seed=23, graph=SimilarityGraph(4, ((0, 1), (1, 3), (0, 2)))
    )
    data = tmp_path / "train.csv"
    graph = tmp_path / "graph.txt"
    write_data_csv(data, instance.x_blocks, instance.y_blocks)
    write_edge_list(graph, instance.graph)
    return str(data), str(graph)


def fit_argv(data, graph, output):
    return [
        "fit", "--data", data, "--graph", graph,
        "--kl", "2", "--kg", "3", "--kc", "4",
        "--lambda-beta", "5.0", "--lambda-delta", "2.5",
        "--omit-timings", "--output", str(output),
    ]


class TestExitCodes:
    @pytest.mark.parametrize(
        "case,message",
        [
            ("missing_kl", "missing required --kl"),
            ("graph_and_chain", "give --graph or --chain, not both"),
            ("unknown_config_key", "unknown config key 'bogus'"),
            ("selftest", "invalid choice: 'selftest'"),
        ],
    )
    def test_usage_errors_exit_2(self, data_files, tmp_path, capsys, case, message):
        data, graph = data_files
        base = ["gridsearch", "--data", data, "--graph", graph]
        budgets = ["--kl", "2", "--kg", "3", "--kc", "4"]
        config = tmp_path / "run.cfg"
        config.write_text("bogus=1\n")
        argv = {
            "missing_kl": base + ["--kg", "3", "--kc", "4"],
            "graph_and_chain": base + budgets + ["--chain"],
            "unknown_config_key": base + budgets + ["--config", str(config)],
            "selftest": ["selftest"],
        }[case]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        code = main([
            "fit", "--data", str(tmp_path / "absent.csv"), "--chain",
            "--kl", "1", "--kg", "1", "--kc", "0",
        ])
        assert code == 3
        assert "data file not found" in capsys.readouterr().err

    def test_malformed_csv_exits_3(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("vertex,y,x0\n0,1.0\n")
        code = main([
            "fit", "--data", str(data), "--chain",
            "--kl", "1", "--kg", "1", "--kc", "0",
            "--lambda-beta", "1.0", "--lambda-delta", "1.0",
        ])
        assert code == 3
        assert "expected 3 fields" in capsys.readouterr().err

    def test_budget_beyond_feature_count_exits_4(self, data_files, capsys):
        data, graph = data_files
        code = main([
            "fit", "--data", data, "--graph", graph,
            "--kl", "7", "--kg", "7", "--kc", "0",
            "--lambda-beta", "1.0", "--lambda-delta", "1.0",
        ])
        assert code == 4
        assert "K_L=7" in capsys.readouterr().err

    def test_unexpected_exception_exits_5(self, data_files, tmp_path, capsys,
                                          monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr("slowreg.cli.solve_support_selection", broken)
        data, graph = data_files
        assert main(fit_argv(data, graph, tmp_path / "report.json")) == 5
        err = capsys.readouterr().err
        assert "internal error" in err and "boom" in err


class TestReports:
    def test_fit_with_timings_omitted_is_reproducible(self, data_files, tmp_path):
        data, graph = data_files
        out = tmp_path / "report.json"  # the report names its own path
        assert main(fit_argv(data, graph, out)) == 0
        first = out.read_bytes()
        out.unlink()
        assert main(fit_argv(data, graph, out)) == 0
        assert out.read_bytes() == first
        report = json.loads(first)
        assert report["solver"]["status"] == "optimal"
        assert report["solver"]["wall_time"] == 0.0

    def test_flag_overrides_config_file(self, data_files, tmp_path):
        data, graph = data_files
        config = tmp_path / "run.cfg"
        config.write_text("kl=1\nkg=3\nkc=4\nseed=9\n")
        out = tmp_path / "report.json"
        code = main([
            "gridsearch", "--data", data, "--graph", graph,
            "--config", str(config), "--kl", "2", "--output", str(out),
        ])
        assert code == 0
        resolved = json.loads(out.read_text())["config"]
        assert (resolved["kl"], resolved["kg"], resolved["kc"]) == (2, 3, 4)
        assert resolved["seed"] == 9

    def test_synth_dump_then_fit_matches_in_memory_solve(self, tmp_path):
        prefix = tmp_path / "ds"
        synth = [
            "synth", "--n", "12", "--t", "3", "--d", "5",
            "--kl", "2", "--kc", "1", "--seed", "6", "--methods", "static",
            "--dump-data", str(prefix), "--output", str(tmp_path / "synth.json"),
        ]
        assert main(synth) == 0
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--data", f"{prefix}_train.csv", "--graph", f"{prefix}_graph.txt",
            "--kl", "2", "--kg", "3", "--kc", "1",
            "--lambda-beta", "4.0", "--lambda-delta", "2.0",
            "--omit-timings", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())

        dataset = make_synthetic_dataset(SynthParams(n=12, t=3, d=5, k_l=2, k_c=1, seed=6))
        instance = dataset.instance.with_weights(4.0, 2.0)
        budget = SparsityBudget(max_per_vertex=2, max_global=3, max_changes=1)
        warm = stepwise_fit(instance, budget, seed=0)
        res = solve_support_selection(
            build_quadform(instance), budget, warm_start=warm.z,
            limits=SolveLimits(time_limit=report["config"]["time_limit"],
                               gap_tol=report["config"]["gap_tol"]),
        )
        assert report["solver"]["status"] == res.status == "optimal"
        assert report["support"] == res.incumbent_z.reshape(3, 5).astype(int).tolist()
        assert report["coefficients"] == res.incumbent_beta.reshape(3, 5).tolist()
