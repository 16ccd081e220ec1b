"""The command-line entry point, run in process."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import slowreg
from slowreg import (
    ProblemInstance,
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
from slowreg.dataio import read_data_csv, write_data_csv, write_edge_list

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
            "fit", "--data", str(data), "--chain",
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
            ("empty_methods", "--methods must name some of"),
            ("empty_methods_config", "--methods must name some of"),
            ("no_command", "a command is required"),
            ("negative_time_limit", "fit: time_limit must be nonnegative or inf, got -1.0"),
            ("zero_gap_tol", "fit: gap_tol must be finite and positive, got 0.0"),
            ("holdout_one",
             "gridsearch: holdout fraction must lie strictly between 0 and 1, got 1.0"),
            ("gridsearch_time_limit", "unrecognized arguments: --time-limit 5"),
            ("gridsearch_gap_tol_config", "unknown config key 'gap_tol' for this command"),
            ("lambda_beta_alone", "give both --lambda-beta and --lambda-delta"),
            ("zero_lambda_beta", "lambda-beta must be positive"),
            ("spatial_without_kg", "--mode spatial: missing required --kg"),
            ("no_graph", "a graph is required (--graph FILE or --chain)"),
            ("kl_above_d", "need 1 <= k_l <= d, got k_l=6, d=5"),
            ("data_gridsearch_synthetic_flags",
             "gridsearch: --mode does not apply to a run on --data"),
            ("data_gridsearch_synthetic_config_key",
             "gridsearch: --sigma-v does not apply to a run on --data"),
            ("synthetic_gridsearch_data_flags",
             "gridsearch: --graph does not apply to a synthetic run (no --data)"),
            ("synthetic_gridsearch_data_config_key",
             "gridsearch: --standardize does not apply to a synthetic run (no --data)"),
        ],
    )
    def test_usage_errors_exit_2(self, data_files, tmp_path, capsys, case, message):
        data, graph = data_files
        base = ["gridsearch", "--data", data, "--graph", graph]
        budgets = ["--kl", "2", "--kg", "3", "--kc", "4"]
        synth = ["synth", "--n", "12", "--t", "3", "--d", "5", "--kl", "2"]
        fit = fit_argv(data, graph, tmp_path / "report.json")
        config = tmp_path / "run.cfg"
        config.write_text({"empty_methods_config": "methods=\n",
                           "gridsearch_gap_tol_config": "gap_tol=0.001\n",
                           "data_gridsearch_synthetic_config_key": "sigma-v=0\n",
                           "synthetic_gridsearch_data_config_key": "standardize=yes\n",
                           }.get(case, "bogus=1\n"))
        argv = {
            "missing_kl": base + ["--kg", "3", "--kc", "4"],
            "graph_and_chain": base + budgets + ["--chain"],
            "unknown_config_key": base + budgets + ["--config", str(config)],
            "selftest": ["selftest"],
            "empty_methods": synth + ["--methods", ""],
            "empty_methods_config": synth + ["--config", str(config)],
            "no_command": [],
            "negative_time_limit": fit + ["--time-limit", "-1"],
            "zero_gap_tol": fit + ["--gap-tol", "0"],
            "holdout_one": base + budgets + ["--holdout", "1"],
            "gridsearch_time_limit": base + budgets + ["--time-limit", "5"],
            "gridsearch_gap_tol_config": base + budgets + ["--config", str(config)],
            "lambda_beta_alone": ["fit", "--data", data, "--graph", graph, *budgets,
                                  "--lambda-beta", "5.0"],
            "zero_lambda_beta": fit + ["--lambda-beta", "0"],
            "spatial_without_kg": synth + ["--mode", "spatial", "--e", "2"],
            "no_graph": ["fit", "--data", data, *budgets],
            "kl_above_d": ["synth", "--n", "12", "--t", "3", "--d", "5", "--kl", "6"],
            "data_gridsearch_synthetic_flags": ["gridsearch", "--data", data, "--chain",
                                                *budgets, "--n", "5", "--xi", "7",
                                                "--mode", "spatial"],
            "data_gridsearch_synthetic_config_key": base + budgets
            + ["--config", str(config)],
            "synthetic_gridsearch_data_flags": ["gridsearch"] + synth[1:]
            + ["--kc", "1", "--chain", "--standardize",
               "--graph", str(tmp_path / "nonexist.txt")],
            "synthetic_gridsearch_data_config_key": ["gridsearch"] + synth[1:]
            + ["--config", str(config)],
        }[case]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case,message",
        [
            ("config_line_without_equals", "expected key=value"),
            ("unwritable_output", "cannot write report"),
            ("dump_into_missing_directory", "cannot dump dataset"),
        ],
    )
    def test_input_and_output_errors_exit_3(self, data_files, tmp_path, capsys,
                                            case, message):
        data, graph = data_files
        config = tmp_path / "run.cfg"
        config.write_text("seed=1\nstandardize\n")
        missing = tmp_path / "missing"
        synth = ["synth", "--n", "12", "--t", "3", "--d", "5", "--kl", "2",
                 "--methods", "static", "--output", str(tmp_path / "synth.json")]
        argv = {
            "config_line_without_equals": gridsearch_argv(data, graph)
            + ["--config", str(config)],
            "unwritable_output": fit_argv(data, graph, missing / "report.json"),
            "dump_into_missing_directory": synth + ["--dump-data", str(missing / "ds")],
        }[case]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize(
        "case,flag,value",
        [
            ("fit", "--seed", "-1"),
            ("gridsearch", "--seed", "-1"),
            ("fit", "--time-limit", "nan"),
            ("fit", "--gap-tol", "inf"),
            ("fit", "--lambda-beta", "inf"),
            ("fit", "--lambda-delta", "nan"),
            ("synth", "--sigma-v", "nan"),
        ],
    )
    def test_non_finite_numbers_and_negative_seeds_exit_2(
        self, data_files, tmp_path, capsys, case, flag, value
    ):
        data, graph = data_files
        argv = {
            "fit": fit_argv(data, graph, tmp_path / "report.json"),
            "gridsearch": gridsearch_argv(data, graph),
            "synth": ["synth", "--n", "12", "--t", "3", "--d", "5", "--kl", "2",
                      "--methods", "static"],
        }[case]
        assert main(argv + [flag, value]) == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag[2:]}={value}\n")
        assert main(argv + ["--config", str(config)]) == 2
        assert f"bad value '{value}' for config key '{flag[2:]}'" in capsys.readouterr().err

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

    def test_extreme_weights_exit_2(self, tmp_path, capsys):
        # finite weights past what floating point can hold: the root bound
        # -mu'mu / (2 lambda_beta) is about -3e303
        prefix = str(tmp_path / "ds")
        assert main(["synth", "--n", "10", "--t", "3", "--d", "5", "--kl", "2",
                     "--kc", "2", "--methods", "stepwise", "--dump-data", prefix,
                     "--output", str(tmp_path / "synth.json")]) == 0
        argv = ["fit", "--data", f"{prefix}_train.csv", "--graph", f"{prefix}_graph.txt",
                "--kl", "2", "--kg", "3", "--kc", "2", "--lambda-beta", "1e-300",
                "--lambda-delta", "1e300", "--output", str(tmp_path / "fit.json")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "lambda_beta=1e-300 and lambda_delta=1e+300" in err

    def test_singular_restricted_system_exits_2(self, tmp_path, capsys):
        # two copies of one column and a negligible ridge: a chain solve fails
        instance = make_instance(T=3, D=4, N=8, seed=0)
        xs = [np.column_stack([x[:, :3], x[:, 1]]) for x in instance.x_blocks]
        data = tmp_path / "train.csv"
        write_data_csv(data, xs, instance.y_blocks)
        argv = ["fit", "--data", str(data), "--chain", "--kl", "4", "--kg", "4",
                "--kc", "2", "--lambda-beta", "1e-30", "--lambda-delta", "0.5",
                "--output", str(tmp_path / "fit.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "not positive definite" in err and "lambda_beta=1e-30" in err

    @pytest.fixture
    def one_row_at_vertex_0(self, tmp_path):
        instance = make_instance(T=3, D=4, N=6, seed=7)
        xs = (instance.x_blocks[0][:1],) + instance.x_blocks[1:]
        ys = (instance.y_blocks[0][:1],) + instance.y_blocks[1:]
        data = tmp_path / "one_row.csv"
        write_data_csv(data, xs, ys)
        return ["--data", str(data), "--chain", "--kl", "1", "--kg", "2", "--kc", "1"]

    def test_one_row_vertex_under_tuned_fit_exits_2(self, one_row_at_vertex_0,
                                                   tmp_path, capsys):
        out = ["--output", str(tmp_path / "fit.json")]
        assert main(["fit"] + one_row_at_vertex_0 + out) == 2
        err = capsys.readouterr().err
        assert "vertex 0 has a single row" in err
        assert "give --lambda-beta and --lambda-delta" in err
        weights = ["--lambda-beta", "1", "--lambda-delta", "1"]
        assert main(["fit"] + one_row_at_vertex_0 + weights + out) == 0

    def test_one_row_vertex_under_data_gridsearch_exits_2(self, one_row_at_vertex_0,
                                                          tmp_path, capsys):
        argv = ["gridsearch"] + one_row_at_vertex_0 + ["--output", str(tmp_path / "gs.json")]
        assert main(argv) == 2
        assert "gridsearch: vertex 0 has a single row" in capsys.readouterr().err

    def test_grid_search_and_the_cli_give_one_rows_message(self, one_row_at_vertex_0,
                                                           capsys):
        x_blocks, y_blocks = read_data_csv(one_row_at_vertex_0[1])
        instance = ProblemInstance(SimilarityGraph.chain(3), x_blocks, y_blocks, 1.0, 1.0)
        budget = SparsityBudget(max_per_vertex=1, max_global=2, max_changes=1)
        with pytest.raises(ValueError) as raised:
            grid_search(instance, budget)
        assert main(["gridsearch"] + one_row_at_vertex_0) == 2
        assert capsys.readouterr().err == f"error: gridsearch: {raised.value}\n"

    @pytest.mark.parametrize("methods", ["static", "stepwise", "cutplane",
                                         "static,stepwise,cutplane"])
    def test_one_row_synth_exits_2(self, tmp_path, capsys, methods):
        argv = ["synth", "--n", "1", "--t", "3", "--d", "4", "--kl", "1", "--kc", "1",
                "--methods", methods, "--output", str(tmp_path / "synth.json")]
        assert main(argv) == 2
        assert ("synth: vertex 0 has a single row, and a holdout split holds out rows "
                "at every vertex; give --n 2 or more") in capsys.readouterr().err

    def test_one_row_synthetic_gridsearch_exits_2(self, tmp_path, capsys):
        argv = ["gridsearch", "--n", "1", "--t", "3", "--d", "4", "--kl", "1",
                "--kc", "1", "--output", str(tmp_path / "gs.json")]
        assert main(argv) == 2
        assert ("gridsearch: vertex 0 has a single row, and a holdout split holds out "
                "rows at every vertex; give --n 2 or more") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "gridsearch"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_data_value_exits_3(self, data_files, tmp_path, capsys,
                                           command, value):
        data, graph = data_files
        lines = Path(data).read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = value  # x0 of the third data row
        lines[3] = ",".join(cells)
        Path(data).write_text("\n".join(lines) + "\n")
        argv = {"fit": fit_argv(data, graph, tmp_path / "report.json"),
                "gridsearch": gridsearch_argv(data, graph)}[command]
        assert main(argv) == 3
        assert f"train.csv:4: non-finite value '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "gridsearch"])
    def test_data_whose_squares_overflow_exits_3(self, tmp_path, capsys, command):
        # finite values, but x2's squares sum past the float range, so the
        # Gram would too
        prefix = str(tmp_path / "ds")
        assert main(["synth", "--n", "6", "--t", "3", "--d", "5", "--kl", "1", "--kc", "1",
                     "--methods", "static", "--dump-data", prefix,
                     "--output", str(tmp_path / "synth.json")]) == 0
        path = Path(f"{prefix}_train.csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "1e200"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        argv = [command, "--data", str(path), "--chain", "--kl", "1", "--kg", "2",
                "--kc", "1", "--output", str(tmp_path / "report.json")]
        if command == "fit":
            argv += ["--lambda-beta", "1", "--lambda-delta", "1"]
        capsys.readouterr()
        assert main(argv) == 3
        assert ("ds_train.csv:4: the squares of column x2 sum past the float range "
                "(largest value 1e+200)") in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--xi", "1e-300"), ("--sigma-v", "1e300")])
    def test_synthetic_response_past_float_range_exits_2(self, tmp_path, capsys,
                                                         flag, value):
        argv = ["synth", "--n", "4", "--t", "3", "--d", "3", "--kl", "1", "--kc", "1",
                flag, value, "--output", str(tmp_path / "synth.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "synth: sigma_v=" in err and "give a response whose sum of squares" in err

    @pytest.mark.parametrize("methods", [[], ["--methods", "static"]])
    def test_synthetic_response_past_the_lp_range_exits_2_naming_xi(
        self, tmp_path, capsys, methods
    ):
        # the exact solver refuses a root bound past HiGHS's infinite bound
        # at a tuned lambda_beta; the static method runs no LP and fits it
        argv = ["synth", "--n", "4", "--t", "3", "--d", "3", "--kl", "1", "--kc", "1",
                "--xi", "1e-150", "--output", str(tmp_path / "synth.json"), *methods]
        if methods:
            assert main(argv) == 0
            return
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("synth: sigma_v=0 and xi=1e-150 give a response that the tuned "
                "weights cannot fit: ") in err
        assert "which the LP solver reads as unbounded" in err

    def test_generated_response_past_the_cut_guard_names_xi(self, tmp_path, capsys):
        # the root bound is inside the LP's range, so the generator passes
        # xi=1e-8, and the master's cut guard fires on the tuned weights
        argv = ["synth", "--n", "4", "--t", "3", "--d", "3", "--kl", "1", "--kc", "1",
                "--xi", "1e-8", "--output", str(tmp_path / "synth.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "synth: sigma_v=0 and xi=1e-08 give a response" in err
        assert "below a cut it holds" in err
        assert "numerically unsolvable weights" not in err

    def test_large_chain_fit_needs_no_dense_master(self, tmp_path):
        # T=100, D=200 chain: a dense master array would take 17.8 GiB, which
        # the sparse master does not allocate; two rows per vertex are enough
        rng = np.random.default_rng(5)
        data = tmp_path / "large.csv"
        write_data_csv(
            data, [rng.normal(size=(2, 200)) for _ in range(100)],
            [rng.normal(size=2) for _ in range(100)],
        )
        report_path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            code = main([
                "fit", "--data", str(data), "--chain",
                "--kl", "5", "--kg", "10", "--kc", "10",
                "--lambda-beta", "60", "--lambda-delta", "60",
                "--time-limit", "0", "--output", str(report_path),
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 200 * 2**20
        solver = json.loads(report_path.read_text())["solver"]
        assert solver["status"] == "time_limit" and solver["node_count"] == 0
        assert solver["objective_gap"] > 0.0
        assert_gap_on_objective_scale(solver)


def assert_gap_on_objective_scale(solver):
    # the benchmark's gap_obj: bounds mapped by const_term + 2 * cost
    const = solver["objective_value"] - 2.0 * solver["upper_bound"]
    lower_obj = const + 2.0 * solver["lower_bound"]
    upper_obj = solver["objective_value"]
    gap_obj = (upper_obj - lower_obj) / max(1.0, abs(upper_obj))
    assert solver["objective_lower_bound"] == pytest.approx(lower_obj, rel=1e-12, abs=1e-12)
    assert solver["objective_gap"] == pytest.approx(gap_obj, rel=1e-12, abs=1e-12)


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
        assert_gap_on_objective_scale(report["solver"])

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


class TestFanOutReports:
    """Reports do not depend on how many processes read the data and search the grid."""

    @pytest.mark.parametrize("command", ["gridsearch", "fit", "synth"])
    def test_forked_and_one_cpu_reports_are_identical(self, data_files, tmp_path,
                                                      allow_cpus, forks, command):
        data, graph = data_files
        out = tmp_path / "report.json"
        argv = {
            "gridsearch": gridsearch_argv(data, graph) + ["--seed", "2"],
            "fit": ["fit", "--data", data, "--graph", graph, "--kl", "2", "--kg", "3",
                    "--kc", "4", "--seed", "5", "--omit-timings"],
            "synth": ["synth", "--n", "10", "--t", "3", "--d", "5", "--kl", "2", "--kc", "2",
                      "--seed", "1", "--methods", "static,stepwise", "--omit-timings"],
        }[command] + ["--output", str(out)]
        reports = []
        # a tuned fit also runs the exact solver, so it is read at 1 and 2 CPUs only
        cpu_counts = (1, 2, 3) if command == "gridsearch" else (1, 2)
        for cpus in cpu_counts:
            allow_cpus(cpus)
            assert main(argv) == 0
            reports.append(out.read_bytes())
            out.unlink()
        assert reports[1:] == reports[:1] * (len(reports) - 1)
        # the reader forks one child per CPU, the grid one fewer
        assert forks == {"gridsearch": [2, 1, 3, 2], "fit": [2, 1], "synth": [1]}[command]


def report_config(argv, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--output", str(out)]) == 0
    return json.loads(out.read_text())["config"]


def gridsearch_argv(data, graph):
    return ["gridsearch", "--data", data, "--graph", graph,
            "--kl", "2", "--kg", "3", "--kc", "4"]


class TestConfigFile:
    def write(self, tmp_path, text):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        return str(config)

    def test_bool_words(self, data_files, tmp_path):
        data, _ = data_files
        config = self.write(tmp_path, f"data={data}\nchain=yes\nstandardize=off\n")
        resolved = report_config(
            ["gridsearch", "--config", config, "--kl", "2", "--kg", "3", "--kc", "4"],
            tmp_path,
        )
        assert (resolved["chain"], resolved["standardize"]) == (True, False)
        assert resolved["graph"] is None

    def test_dashed_key(self, data_files, tmp_path):
        config = self.write(tmp_path, "time-limit=20\nGAP_TOL=0.001\n")
        resolved = report_config(
            fit_argv(*data_files, tmp_path / "report.json")[:-2] + ["--config", config],
            tmp_path,
        )
        assert (resolved["time_limit"], resolved["gap_tol"]) == (20.0, 0.001)

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("gridsearch", "kl=x\n", "bad value 'x' for config key 'kl'"),
            ("gridsearch", "chain=maybe\n", "bad value 'maybe' for config key 'chain'"),
            ("fit", "holdout=0.5\n", "unknown config key 'holdout' for this command"),
            ("fit", "grid=yes\n", "unknown config key 'grid' for this command"),
            ("fit", "config=other.cfg\n", "unknown config key 'config'"),
            ("fit", "command=synth\n", "unknown config key 'command'"),
            ("fit", "help=1\n", "unknown config key 'help'"),
        ],
    )
    def test_refused_values_and_keys_exit_2(self, data_files, tmp_path, capsys,
                                            command, text, message):
        data, graph = data_files
        argv = [command, "--data", data, "--graph", graph,
                "--kl", "2", "--kg", "3", "--kc", "4",
                "--config", self.write(tmp_path, text)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_flags_beat_config_even_at_their_defaults(self, data_files, tmp_path):
        config = self.write(tmp_path, "standardize=no\nseed=9\ntime_limit=20\n")
        resolved = report_config(
            fit_argv(*data_files, tmp_path / "report.json")[:-2] + [
                "--config", config, "--standardize", "--seed", "0",
                "--time-limit", "300",
            ],
            tmp_path,
        )
        assert resolved["standardize"] is True
        assert (resolved["seed"], resolved["time_limit"]) == (0, 300.0)


SYNTH_PARAMS = {
    "params_n": 12, "params_t": 3, "params_d": 5, "params_k_l": 2,
    "params_k_g": None, "params_k_c": 1, "params_sigma_v": 0.0,
    "params_xi": 2.0, "params_rho_t": 0.0, "params_rho_d": 0.0,
    "params_e": None, "params_mode": "temporal", "params_seed": 6,
}
SYNTH_ARGV = ["--n", "12", "--t", "3", "--d", "5", "--kl", "2", "--kc", "1",
              "--seed", "6"]


class TestProvenance:
    """The report's `config` block, key for key."""

    def test_fit_with_weights(self, data_files, tmp_path):
        data, graph = data_files
        out = tmp_path / "report.json"
        assert report_config(fit_argv(data, graph, out)[:-2], tmp_path) == {
            "command": "fit", "data": data, "graph": graph, "chain": False,
            "kl": 2, "kg": 3, "kc": 4, "lambda_beta": 5.0, "lambda_delta": 2.5,
            "grid": False, "standardize": False, "seed": 0, "time_limit": 300.0,
            "gap_tol": 1e-6, "output": str(out), "omit_timings": True,
        }

    def test_fit_grid(self, data_files, tmp_path):
        data, _ = data_files
        out = tmp_path / "report.json"
        argv = ["fit", "--data", data, "--chain", "--kl", "2", "--kg", "3",
                "--kc", "4", "--seed", "2", "--time-limit", "20"]
        assert report_config(argv, tmp_path) == {
            "command": "fit", "data": data, "graph": None, "chain": True,
            "kl": 2, "kg": 3, "kc": 4, "lambda_beta": None, "lambda_delta": None,
            "grid": True, "standardize": False, "seed": 2, "time_limit": 20.0,
            "gap_tol": 1e-6, "output": str(out), "omit_timings": False,
        }

    def test_synth(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["synth", *SYNTH_ARGV, "--methods", " static, stepwise",
                "--gap-tol", "0.01"]
        assert report_config(argv, tmp_path) == {
            "command": "synth", **SYNTH_PARAMS, "methods": "static,stepwise",
            "dump_data": None, "seed": 6, "time_limit": 300.0, "gap_tol": 0.01,
            "output": str(out), "omit_timings": False,
        }

    def test_gridsearch_data_mode(self, data_files, tmp_path):
        data, graph = data_files
        out = tmp_path / "report.json"
        argv = gridsearch_argv(data, graph) + ["--holdout", "0.4", "--standardize"]
        assert report_config(argv, tmp_path) == {
            "command": "gridsearch", "data": data, "graph": graph, "chain": False,
            "kl": 2, "kg": 3, "kc": 4, "standardize": True, "holdout": 0.4,
            "seed": 0, "output": str(out),
        }

    def test_gridsearch_synthetic_mode(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["gridsearch", *SYNTH_ARGV]
        assert report_config(argv, tmp_path) == {
            "command": "gridsearch", **SYNTH_PARAMS, "holdout": 0.3, "seed": 6,
            "output": str(out),
        }


class TestModuleEntry:
    """`python -m slowreg.cli`, in a fresh interpreter."""

    def run(self, *argv, cwd):
        src = str(Path(slowreg.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        return subprocess.run(
            [sys.executable, "-m", "slowreg.cli", *argv], cwd=cwd, env=env,
            capture_output=True, text=True,
        )

    def test_version(self, tmp_path):
        out = self.run("--version", cwd=tmp_path)
        assert (out.returncode, out.stdout) == (0, "0.1.0\n")

    def test_no_command_exits_2(self, tmp_path):
        out = self.run(cwd=tmp_path)
        assert out.returncode == 2
        assert "a command is required" in out.stderr

    def test_missing_data_file_exits_3(self, tmp_path):
        out = self.run("fit", "--data", "absent.csv", "--chain", "--kl", "1",
                       "--kg", "1", "--kc", "0", cwd=tmp_path)
        assert out.returncode == 3
        assert "data file not found: absent.csv" in out.stderr
