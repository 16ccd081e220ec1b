"""The command-line entry point, run in process."""

import json

from slowreg import SparsityBudget, grid_search
from slowreg.cli import main
from slowreg.dataio import write_data_csv

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
