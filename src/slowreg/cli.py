"""Command-line front end: parsing, orchestration, and JSON reporting.

Three subcommands share one executable. `fit` loads an observation CSV and
a graph, tunes or accepts regularization weights, and runs the stepwise
heuristic followed by the exact tree search. `synth` generates a seeded
dataset and benchmarks the static, stepwise, and tree-search methods on it.
`gridsearch` reports the holdout tuning table for either an on-disk or a
synthetic dataset.

Each flag is declared once, in the argparse table, with its type and its
default; float flags take finite numbers only and `--seed` a nonnegative
integer. A flat `key=value` config file presets the flags of the chosen
command: each value is converted by its flag's own type, the converted
values become the subparser's defaults, and argv is parsed again, so
explicit flags win. The parsed namespace is the run configuration.

Reports are JSON documents with a fixed key set per command, sorted keys,
a `version` field, and the resolved configuration for provenance.
Exit codes: 0 success, 2 usage, 3 I/O, 4 infeasible budgets, 5 internal.
Weights that are finite but so extreme that a solve fails in floating point
(a `WeightError` or another LinAlgError) are a usage error. On generated
data the weights are tuned, not given, so its error names the generator's
`sigma_v` and `xi` instead.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import (
    METHODS,
    SynthParams,
    grid_search,
    make_synthetic_dataset,
    run_benchmark,
    solver_budget,
    solver_summary,
)
from .dataio import dump_dataset, read_data_csv, read_edge_list, read_metadata
from .graph import SimilarityGraph
from .master import SolveLimits, solve_support_selection
from .problem import BudgetError, ProblemInstance, SparsityBudget, WeightError, build_quadform
from .stepwise import stepwise_fit

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5

class UsageError(ValueError):
    """Bad flags or config values; maps to exit code 2."""


class InputError(ValueError):
    """Missing or malformed input files; maps to exit code 3."""


# flag types: argparse names them in its "invalid <type> value" message, and
# config values pass through the same functions
def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}

# the report's `config` block: these keys for every command, then the data
# inputs or the synthetic parameters (`params_*`), then the command's own
_COMMON_KEYS = ("command", "seed", "time_limit", "gap_tol", "output", "omit_timings")
_DATA_KEYS = ("data", "graph", "chain", "kl", "kg", "kc", "standardize")
_COMMAND_KEYS = {
    "fit": ("lambda_beta", "lambda_delta", "grid"),
    "synth": ("methods", "dump_data"),
    "gridsearch": ("holdout",),
}


def _build_parser():
    """The top-level parser and its subparsers action."""
    parser = argparse.ArgumentParser(
        prog="slowreg",
        description="Sparse regression with slowly varying coefficients "
                    "over a similarity graph.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--config", help="flat key=value file presetting any flag")
        p.add_argument("--seed", type=nonnegative_int, default=0,
                       help="RNG seed (default %(default)s)")
        p.add_argument("--time-limit", type=finite_float, default=SolveLimits.time_limit,
                       help="solver wall-clock budget in seconds (default %(default)g)")
        p.add_argument("--gap-tol", type=finite_float, default=SolveLimits.gap_tol,
                       help="relative optimality gap target (default %(default)g)")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--omit-timings", action="store_true",
                       help="zero out wall-clock fields for reproducible output")

    def budgets(p):
        p.add_argument("--kl", type=int, help="max nonzero features per vertex")
        p.add_argument("--kg", type=int, help="max distinct features overall")
        p.add_argument("--kc", type=int, help="max support changes summed over edges")

    def data_inputs(p):
        p.add_argument("--data", help="observation CSV (vertex,y,x0..)")
        p.add_argument("--graph", help="edge-list file, one 's t' pair per line")
        p.add_argument("--chain", action="store_true",
                       help="use the chain graph 0-1-...-T-1 instead of a file")
        p.add_argument("--standardize", action="store_true",
                       help="standardize features and response to zero mean, unit variance")

    def synth_inputs(p):
        # no defaults here: SynthParams owns them
        p.add_argument("--mode", choices=("temporal", "spatial"),
                       help="generator family (default temporal)")
        p.add_argument("--n", type=int, help="rows per vertex")
        p.add_argument("--t", type=int, help="number of vertices")
        p.add_argument("--d", type=int, help="number of features")
        p.add_argument("--e", type=int, help="edge count (spatial mode)")
        p.add_argument("--sigma-v", type=finite_float,
                       help="coefficient drift bound (default 0)")
        p.add_argument("--xi", type=finite_float, help="signal-to-noise ratio (default 2)")
        p.add_argument("--rho-t", type=finite_float,
                       help="design correlation across vertices")
        p.add_argument("--rho-d", type=finite_float,
                       help="design correlation across features")

    p_fit = sub.add_parser("fit", help="fit one dataset from files")
    data_inputs(p_fit)
    budgets(p_fit)
    p_fit.add_argument("--lambda-beta", type=finite_float,
                       help="ridge weight (with --lambda-delta)")
    p_fit.add_argument("--lambda-delta", type=finite_float,
                       help="smoothness weight; without both weights, fit tunes "
                            "them by holdout grid search")
    common(p_fit)

    p_synth = sub.add_parser("synth", help="generate and benchmark a synthetic dataset")
    synth_inputs(p_synth)
    budgets(p_synth)
    p_synth.add_argument("--methods",
                         help="comma list from static,stepwise,cutplane (default all)")
    p_synth.add_argument("--dump-data",
                         help="also write train/test/beta/graph/meta files with this prefix")
    common(p_synth)

    p_gs = sub.add_parser("gridsearch", help="holdout tuning table")
    data_inputs(p_gs)
    synth_inputs(p_gs)
    budgets(p_gs)
    p_gs.add_argument("--holdout", type=finite_float, default=0.3,
                      help="holdout fraction (default %(default)s)")
    common(p_gs)

    return parser, sub


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """A key=value file's values, each converted by its flag's own action."""
    try:
        pairs = read_metadata(path)
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    values = {}
    for key, raw in pairs.items():
        action = actions.get(key.lower().replace("-", "_"))
        if action is None:
            raise UsageError(f"unknown config key {key!r} for this command")
        try:
            if action.nargs == 0:
                values[action.dest] = _BOOL_WORDS[raw.lower()]
            else:
                values[action.dest] = (action.type or str)(raw)
        except (KeyError, ValueError):
            raise UsageError(f"bad value {raw!r} for config key {key!r}") from None
    return values


def _require(ns, names: list[str], what: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(ns, n) is None]
    if missing:
        raise UsageError(f"{what}: missing required {', '.join(missing)}")


def _existing(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise InputError(f"{what} file not found: {path}")
    return path


def _synth_params(ns) -> SynthParams:
    """The synthetic parameters from the flags given; SynthParams fills the rest."""
    _require(ns, ["n", "t", "d", "kl"], ns.command)
    if ns.mode == "spatial":
        _require(ns, ["kg", "e"], f"{ns.command} --mode spatial")
    given = {"k_l": ns.kl, "k_c": ns.kc, "k_g": ns.kg}
    for name in ("n", "t", "d", "e", "sigma_v", "xi", "rho_t", "rho_d", "mode", "seed"):
        given[name] = getattr(ns, name)
    try:
        return SynthParams(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_data_inputs(ns) -> None:
    """The data file, its graph and the budgets that `fit` and data mode need."""
    _require(ns, ["data", "kl", "kg", "kc"], ns.command)
    _existing(ns.data, "data")
    if ns.chain and ns.graph is not None:
        raise UsageError(f"{ns.command}: give --graph or --chain, not both")
    if not ns.chain:
        if not ns.graph:
            raise UsageError(
                f"{ns.command}: a graph is required (--graph FILE or --chain)"
            )
        _existing(ns.graph, "graph")


def parse_config(argv=None) -> argparse.Namespace:
    """argv (or sys.argv) plus an optional config file, checked: the run config."""
    parser, sub = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        raise UsageError("a command is required: fit, synth, gridsearch")
    if ns.config:
        command_parser = sub.choices[ns.command]
        command_parser.set_defaults(
            **_config_defaults(command_parser, _existing(ns.config, "config"))
        )
        ns = parser.parse_args(argv)

    if ns.time_limit < 0.0:
        raise UsageError("--time-limit must be nonnegative")
    if not ns.gap_tol > 0.0:
        raise UsageError("--gap-tol must be positive")
    if ns.command == "gridsearch" and not 0.0 < ns.holdout < 1.0:
        raise UsageError("gridsearch: --holdout must lie strictly between 0 and 1")
    # gridsearch runs on --data when it is given, on a synthetic dataset otherwise
    if ns.command == "synth" or (ns.command == "gridsearch" and not ns.data):
        ns.params = _synth_params(ns)
        if ns.params.n < 2:
            # every method tunes its weights on held-out rows
            raise UsageError(f"{ns.command}: --n {ns.params.n} leaves no row to "
                             "hold out for tuning the weights; give --n 2 or more")
    else:
        ns.params = None
        _check_data_inputs(ns)

    if ns.command == "fit":
        has_lb = ns.lambda_beta is not None
        has_ld = ns.lambda_delta is not None
        if has_lb != has_ld:
            raise UsageError("fit: give both --lambda-beta and --lambda-delta, "
                             "or neither")
        if has_lb and (ns.lambda_beta <= 0.0 or ns.lambda_delta < 0.0):
            raise UsageError("fit: lambda-beta must be positive and "
                             "lambda-delta nonnegative")
        ns.grid = not has_lb
    elif ns.command == "synth":
        listed = ",".join(METHODS) if ns.methods is None else ns.methods
        methods = [m.strip() for m in listed.split(",") if m.strip()]
        if not methods or set(methods) - set(METHODS):
            raise UsageError(
                f"synth: --methods must name some of {','.join(METHODS)}"
            )
        ns.methods = ",".join(methods)
    return ns


def _provenance(ns) -> dict:
    """The report's `config` block: the resolved flags of this command."""
    out = {key: getattr(ns, key) for key in _COMMON_KEYS + _COMMAND_KEYS[ns.command]}
    if ns.params is None:
        out.update((key, getattr(ns, key)) for key in _DATA_KEYS)
    else:
        out.update((f"params_{k}", v) for k, v in ns.params.to_dict().items())
    return out


def _standardize_blocks(x_blocks, y_blocks):
    """Zero-mean unit-variance rescale, pooled over every vertex's rows."""
    all_x = np.vstack(x_blocks)
    x_mean = all_x.mean(axis=0)
    x_scale = all_x.std(axis=0)
    x_scale[x_scale == 0.0] = 1.0
    all_y = np.concatenate(y_blocks)
    y_mean = float(all_y.mean())
    y_scale = float(all_y.std()) or 1.0
    xs = tuple((x - x_mean) / x_scale for x in x_blocks)
    ys = tuple((y - y_mean) / y_scale for y in y_blocks)
    stats = {
        "x_mean": x_mean.tolist(),
        "x_scale": x_scale.tolist(),
        "y_mean": y_mean,
        "y_scale": y_scale,
    }
    return xs, ys, stats


def _load_fit_inputs(ns):
    """CSV + graph into an instance, optionally standardized; errors map to I/O.

    Both weights of the instance sit at the mean row count, where the
    tuning grid is anchored.
    """
    try:
        x_blocks, y_blocks = read_data_csv(ns.data)
        t = len(x_blocks)
        graph = SimilarityGraph.chain(t) if ns.chain else read_edge_list(ns.graph, t)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    scaling = None
    if ns.standardize:
        x_blocks, y_blocks, scaling = _standardize_blocks(x_blocks, y_blocks)
    anchor = float(np.mean([x.shape[0] for x in x_blocks]))
    instance = ProblemInstance(graph, tuple(x_blocks), tuple(y_blocks), anchor, anchor)
    return instance, scaling


def _check_tunable(ns, instance: ProblemInstance) -> None:
    """Tuning holds out rows at every vertex, so each needs at least two."""
    counts = instance.row_counts
    if min(counts) < 2:
        hint = "; give --lambda-beta and --lambda-delta to fit without tuning"
        raise UsageError(
            f"{ns.command}: vertex {counts.index(min(counts))} has a single row, "
            "and tuning the weights holds out rows at every vertex"
            + (hint if ns.command == "fit" else "")
        )


def _budget(ns, instance: ProblemInstance) -> SparsityBudget:
    budget = SparsityBudget(max_per_vertex=ns.kl, max_global=ns.kg, max_changes=ns.kc)
    budget.validate(instance.vertex_count, instance.feature_count)
    return budget


def _dataset(ns):
    try:
        return make_synthetic_dataset(ns.params)
    except ValueError as exc:
        raise UsageError(f"{ns.command}: {exc}") from None


def _stepwise_block(fit) -> dict:
    """The scalar fields of a StepwiseResult (all but its z and beta arrays)."""
    return {f.name: getattr(fit, f.name) for f in fields(fit) if f.name not in ("z", "beta")}


def _run_fit(ns) -> dict:
    instance, scaling = _load_fit_inputs(ns)
    t, d = instance.vertex_count, instance.feature_count
    budget = _budget(ns, instance)
    if ns.grid:
        _check_tunable(ns, instance)
        gs = grid_search(instance, budget, seed=ns.seed)
        instance, warm = gs.instance, gs.fit
        lambda_beta, lambda_delta = gs.lambda_beta, gs.lambda_delta
    else:
        lambda_beta, lambda_delta = ns.lambda_beta, ns.lambda_delta
        instance = instance.with_weights(lambda_beta, lambda_delta)
        warm = stepwise_fit(instance, budget, seed=ns.seed)

    limits = SolveLimits(time_limit=ns.time_limit, gap_tol=ns.gap_tol)
    res = solve_support_selection(
        build_quadform(instance), budget, warm_start=warm.z, limits=limits
    )
    solver = solver_summary(res)
    if ns.omit_timings:
        solver["wall_time"] = 0.0
    return {
        "lambda_beta": lambda_beta,
        "lambda_delta": lambda_delta,
        "stepwise": _stepwise_block(warm),
        "solver": solver,
        "coefficients": res.incumbent_beta.reshape(t, d).tolist(),
        "support": res.incumbent_z.reshape(t, d).astype(int).tolist(),
        "scaling": scaling,
    }


def _run_synth(ns) -> dict:
    dataset = _dataset(ns)
    dump_paths = None
    if ns.dump_data:
        try:
            dump_paths = dump_dataset(ns.dump_data, dataset)
        except OSError as exc:
            raise InputError(f"cannot dump dataset: {exc}") from None
    report = run_benchmark(
        dataset,
        time_limit=ns.time_limit,
        gap_tol=ns.gap_tol,
        methods=tuple(ns.methods.split(",")),
    )
    if ns.omit_timings:
        for method in report["methods"].values():
            method["metrics"]["fit_time_s"] = 0.0
            if "solver" in method:
                method["solver"]["wall_time"] = 0.0
    return {"dump_paths": dump_paths, **report}


def _run_gridsearch(ns) -> dict:
    if ns.params is None:
        instance, _ = _load_fit_inputs(ns)
        budget = _budget(ns, instance)
        _check_tunable(ns, instance)
    else:
        dataset = _dataset(ns)
        instance, budget = dataset.instance, solver_budget(dataset)
    gs = grid_search(instance, budget, holdout_fraction=ns.holdout, seed=ns.seed)
    return {
        "best": {
            "lambda_beta": gs.lambda_beta,
            "lambda_delta": gs.lambda_delta,
            "holdout_r2": gs.holdout_r2,
        },
        "table": gs.table,
        "stepwise": _stepwise_block(gs.fit),
    }


_RUNNERS = {"fit": _run_fit, "synth": _run_synth, "gridsearch": _run_gridsearch}


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write report: {exc}") from None


def main(argv=None) -> int:
    """Parse, run and report one command; returns the process exit code."""
    try:
        ns = parse_config(argv)
        try:
            report = _RUNNERS[ns.command](ns)
        except WeightError as exc:
            if ns.params is None:
                raise
            raise UsageError(
                f"{ns.command}: sigma_v={ns.params.sigma_v:g} and xi={ns.params.xi:g} "
                f"give a response that the tuned weights cannot fit: {exc}"
            ) from None
        _emit({"version": __version__, "command": ns.command,
               "config": _provenance(ns), **report}, ns.output)
        return EXIT_OK
    except SystemExit as exc:
        # argparse already printed its message (usage errors exit 2)
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (UsageError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_IO
    except BudgetError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except np.linalg.LinAlgError as exc:
        # WeightError names the weights; a bare LinAlgError is a failed SPD solve
        print(f"error: numerically unsolvable weights: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
