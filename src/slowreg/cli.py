"""Command-line front end: parsing, orchestration, and JSON reporting.

Three subcommands share one executable. `fit` loads an observation CSV and
a graph, tunes or accepts regularization weights, and runs the stepwise
heuristic followed by the exact tree search. `synth` generates a seeded
dataset and benchmarks the static, stepwise, and tree-search methods on it.
`gridsearch` reports the holdout tuning table for either an on-disk or a
synthetic dataset.

Reports are JSON documents with a fixed key set per command, sorted keys,
a `version` field, and the fully resolved configuration for provenance.
Exit codes: 0 success, 2 usage, 3 I/O, 4 infeasible budgets, 5 internal.
A flat `key=value` config file can preset any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import (
    SynthParams,
    grid_search,
    make_synthetic_dataset,
    run_benchmark_on,
    solver_budget,
    solver_summary,
)
from .dataio import dump_dataset, read_data_csv, read_edge_list, read_metadata
from .graph import SimilarityGraph
from .master import SolveLimits, solve_support_selection
from .problem import BudgetError, ProblemInstance, SparsityBudget, build_quadform
from .stepwise import stepwise_fit

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5

DEFAULT_TIME_LIMIT = 300.0
DEFAULT_GAP_TOL = 1e-6
ALL_METHODS = ("static", "stepwise", "cutplane")


class UsageError(ValueError):
    """Bad flags or config values; maps to exit code 2."""


class InputError(ValueError):
    """Missing or malformed input files; maps to exit code 3."""


@dataclass
class RunConfig:
    """One fully resolved invocation."""

    command: str
    data: str | None = None
    graph: str | None = None
    chain: bool = False
    kl: int | None = None
    kg: int | None = None
    kc: int | None = None
    lambda_beta: float | None = None
    lambda_delta: float | None = None
    grid: bool = False
    params: SynthParams | None = None
    methods: tuple[str, ...] = ALL_METHODS
    dump_data: str | None = None
    time_limit: float = DEFAULT_TIME_LIMIT
    gap_tol: float = DEFAULT_GAP_TOL
    seed: int = 0
    holdout: float = 0.3
    standardize: bool = False
    output: str | None = None
    omit_timings: bool = False

    def resolved(self) -> dict:
        """The provenance block embedded in every JSON report."""
        common = {
            "seed": self.seed,
            "time_limit": self.time_limit,
            "gap_tol": self.gap_tol,
            "output": self.output,
            "omit_timings": self.omit_timings,
        }
        if self.command == "fit":
            return {
                "command": "fit",
                "data": self.data,
                "graph": self.graph,
                "chain": self.chain,
                "kl": self.kl, "kg": self.kg, "kc": self.kc,
                "lambda_beta": self.lambda_beta,
                "lambda_delta": self.lambda_delta,
                "grid": self.grid,
                "standardize": self.standardize,
                **common,
            }
        if self.command == "synth":
            return {
                "command": "synth",
                **{f"params_{k}": v for k, v in self.params.to_dict().items()},
                "methods": ",".join(self.methods),
                "dump_data": self.dump_data,
                **common,
            }
        out = {
            "command": "gridsearch",
            "holdout": self.holdout,
            **common,
        }
        if self.data is not None:
            out.update(
                data=self.data, graph=self.graph, chain=self.chain,
                kl=self.kl, kg=self.kg, kc=self.kc,
                standardize=self.standardize,
            )
        else:
            out.update(
                {f"params_{k}": v for k, v in self.params.to_dict().items()}
            )
        return out


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}

# dest -> converter, for config-file values
_CONVERTERS = {
    "data": str, "graph": str, "chain": "bool",
    "kl": int, "kg": int, "kc": int,
    "lambda_beta": float, "lambda_delta": float, "grid": "bool",
    "mode": str, "n": int, "t": int, "d": int, "e": int,
    "sigma_v": float, "xi": float, "rho_t": float, "rho_d": float,
    "seed": int, "time_limit": float, "gap_tol": float,
    "standardize": "bool", "output": str, "dump_data": str,
    "omit_timings": "bool", "methods": str, "holdout": float,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowreg",
        description="Sparse regression with slowly varying coefficients "
                    "over a similarity graph.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def flag(p, name, **kw):
        kw.setdefault("default", None)
        p.add_argument(name, **kw)

    def boolean(p, name, help_text):
        p.add_argument(
            name, action="store_const", const=True, default=None, help=help_text
        )

    def common(p):
        flag(p, "--config", help="flat key=value file presetting any flag")
        flag(p, "--seed", type=int, help="RNG seed (default 0)")
        flag(p, "--time-limit", type=float,
             help=f"solver wall-clock budget in seconds (default {DEFAULT_TIME_LIMIT:g})")
        flag(p, "--gap-tol", type=float,
             help=f"relative optimality gap target (default {DEFAULT_GAP_TOL:g})")
        flag(p, "--output", help="write the JSON report here instead of stdout")
        boolean(p, "--omit-timings", "zero out wall-clock fields for reproducible output")

    def budgets(p):
        flag(p, "--kl", type=int, help="max nonzero features per vertex")
        flag(p, "--kg", type=int, help="max distinct features overall")
        flag(p, "--kc", type=int, help="max support changes summed over edges")

    def data_inputs(p):
        flag(p, "--data", help="observation CSV (vertex,y,x0..)")
        flag(p, "--graph", help="edge-list file, one 's t' pair per line")
        boolean(p, "--chain", "use the chain graph 0-1-...-T-1 instead of a file")
        boolean(p, "--standardize",
                "standardize features and response to zero mean, unit variance")

    def synth_inputs(p):
        flag(p, "--mode", choices=("temporal", "spatial"),
             help="generator family (default temporal)")
        flag(p, "--n", type=int, help="rows per vertex")
        flag(p, "--t", type=int, help="number of vertices")
        flag(p, "--d", type=int, help="number of features")
        flag(p, "--e", type=int, help="edge count (spatial mode)")
        flag(p, "--sigma-v", type=float, help="coefficient drift bound (default 0)")
        flag(p, "--xi", type=float, help="signal-to-noise ratio (default 2)")
        flag(p, "--rho-t", type=float, help="design correlation across vertices")
        flag(p, "--rho-d", type=float, help="design correlation across features")

    p_fit = sub.add_parser("fit", help="fit one dataset from files")
    data_inputs(p_fit)
    budgets(p_fit)
    flag(p_fit, "--lambda-beta", type=float, help="ridge weight (with --lambda-delta)")
    flag(p_fit, "--lambda-delta", type=float, help="smoothness weight")
    boolean(p_fit, "--grid", "tune both weights by holdout grid search (default "
                             "when no explicit weights are given)")
    common(p_fit)

    p_synth = sub.add_parser("synth", help="generate and benchmark a synthetic dataset")
    synth_inputs(p_synth)
    budgets(p_synth)
    flag(p_synth, "--methods",
         help="comma list from static,stepwise,cutplane (default all)")
    flag(p_synth, "--dump-data",
         help="also write train/test/beta/graph/meta files with this prefix")
    common(p_synth)

    p_gs = sub.add_parser("gridsearch", help="holdout tuning table")
    data_inputs(p_gs)
    synth_inputs(p_gs)
    budgets(p_gs)
    flag(p_gs, "--holdout", type=float, help="holdout fraction (default 0.3)")
    common(p_gs)

    return parser


def _apply_config_file(ns: dict, path: str) -> None:
    """Fill unset argparse values from a key=value file."""
    try:
        pairs = read_metadata(path)
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None
    for key, raw in pairs.items():
        dest = key.strip().lower().replace("-", "_")
        if dest not in _CONVERTERS or dest not in ns:
            raise UsageError(f"unknown config key {key!r} for this command")
        conv = _CONVERTERS[dest]
        try:
            if conv == "bool":
                value = _BOOL_WORDS[raw.strip().lower()]
            else:
                value = conv(raw)
        except (KeyError, ValueError):
            raise UsageError(f"bad value {raw!r} for config key {key!r}") from None
        if ns[dest] is None:
            ns[dest] = value


def _require(ns: dict, names: list[str], command: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if ns.get(n) is None]
    if missing:
        raise UsageError(f"{command}: missing required {', '.join(missing)}")


def _existing(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise InputError(f"{what} file not found: {path}")
    return path


def _synth_params(ns: dict, command: str) -> SynthParams:
    _require(ns, ["n", "t", "d", "kl"], command)
    mode = ns.get("mode") or "temporal"
    if mode == "spatial":
        _require(ns, ["kg", "e"], f"{command} --mode spatial")
    try:
        return SynthParams(
            n=ns["n"], t=ns["t"], d=ns["d"],
            k_l=ns["kl"], k_c=ns.get("kc") or 0, k_g=ns.get("kg"),
            sigma_v=ns.get("sigma_v") or 0.0,
            xi=ns.get("xi") if ns.get("xi") is not None else 2.0,
            rho_t=ns.get("rho_t") or 0.0, rho_d=ns.get("rho_d") or 0.0,
            e=ns.get("e"), mode=mode, seed=ns.get("seed") or 0,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _data_inputs(ns: dict, cfg: RunConfig, command: str) -> None:
    """The data file, its graph, the budgets and --standardize into cfg."""
    _require(ns, ["data", "kl", "kg", "kc"], command)
    cfg.data = _existing(ns["data"], "data")
    cfg.chain = bool(ns.get("chain"))
    if cfg.chain and ns.get("graph"):
        raise UsageError(f"{command}: give --graph or --chain, not both")
    if not cfg.chain:
        if not ns.get("graph"):
            raise UsageError(
                f"{command}: a graph is required (--graph FILE or --chain)"
            )
        cfg.graph = _existing(ns["graph"], "graph")
    cfg.kl, cfg.kg, cfg.kc = ns["kl"], ns["kg"], ns["kc"]
    cfg.standardize = bool(ns.get("standardize"))


def parse_config(argv=None) -> RunConfig:
    """argv (or sys.argv) plus an optional config file into a RunConfig."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise UsageError("a command is required: fit, synth, gridsearch")
    ns = vars(args)
    if ns.get("config"):
        _apply_config_file(ns, _existing(ns["config"], "config"))

    command = ns["command"]
    cfg = RunConfig(command=command)
    cfg.seed = ns.get("seed") or 0
    cfg.time_limit = (
        ns["time_limit"] if ns.get("time_limit") is not None else DEFAULT_TIME_LIMIT
    )
    cfg.gap_tol = ns["gap_tol"] if ns.get("gap_tol") is not None else DEFAULT_GAP_TOL
    if cfg.time_limit < 0.0:
        raise UsageError("--time-limit must be nonnegative")
    if not cfg.gap_tol > 0.0:
        raise UsageError("--gap-tol must be positive")
    cfg.output = ns.get("output")
    cfg.omit_timings = bool(ns.get("omit_timings"))

    if command == "fit":
        _data_inputs(ns, cfg, "fit")
        has_lb = ns.get("lambda_beta") is not None
        has_ld = ns.get("lambda_delta") is not None
        wants_grid = bool(ns.get("grid"))
        if wants_grid and (has_lb or has_ld):
            raise UsageError("fit: --grid conflicts with explicit --lambda-beta/"
                             "--lambda-delta")
        if has_lb != has_ld:
            raise UsageError("fit: give both --lambda-beta and --lambda-delta, "
                             "or neither")
        if has_lb:
            if ns["lambda_beta"] <= 0.0 or ns["lambda_delta"] < 0.0:
                raise UsageError("fit: lambda-beta must be positive and "
                                 "lambda-delta nonnegative")
            cfg.lambda_beta = ns["lambda_beta"]
            cfg.lambda_delta = ns["lambda_delta"]
            cfg.grid = False
        else:
            cfg.grid = True
        return cfg

    if command == "synth":
        cfg.params = _synth_params(ns, "synth")
        if ns.get("methods"):
            methods = tuple(m.strip() for m in ns["methods"].split(",") if m.strip())
            bad = set(methods) - set(ALL_METHODS)
            if bad or not methods:
                raise UsageError(
                    f"synth: --methods must name some of {','.join(ALL_METHODS)}"
                )
            cfg.methods = methods
        cfg.dump_data = ns.get("dump_data")
        return cfg

    # gridsearch: data mode when --data is given, synthetic mode otherwise
    cfg.holdout = ns["holdout"] if ns.get("holdout") is not None else 0.3
    if not (0.0 < cfg.holdout < 1.0):
        raise UsageError("gridsearch: --holdout must lie strictly between 0 and 1")
    if ns.get("data"):
        _data_inputs(ns, cfg, "gridsearch")
    else:
        cfg.params = _synth_params(ns, "gridsearch")
    return cfg


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


def _load_fit_inputs(cfg: RunConfig):
    """CSV + graph into an instance, optionally standardized; errors map to I/O.

    Both weights of the instance sit at the mean row count, where the
    tuning grid is anchored.
    """
    try:
        x_blocks, y_blocks = read_data_csv(cfg.data)
    except OSError as exc:
        raise InputError(str(exc)) from None
    except ValueError as exc:
        raise InputError(str(exc)) from None
    t = len(x_blocks)
    if cfg.chain:
        graph = SimilarityGraph.chain(t)
    else:
        try:
            graph = read_edge_list(cfg.graph, t)
        except OSError as exc:
            raise InputError(str(exc)) from None
        except ValueError as exc:
            raise InputError(str(exc)) from None
    scaling = None
    if cfg.standardize:
        x_blocks, y_blocks, scaling = _standardize_blocks(x_blocks, y_blocks)
    anchor = float(np.mean([x.shape[0] for x in x_blocks]))
    instance = ProblemInstance(graph, tuple(x_blocks), tuple(y_blocks), anchor, anchor)
    return instance, scaling


def _run_fit(cfg: RunConfig) -> dict:
    instance, scaling = _load_fit_inputs(cfg)
    t, d = instance.vertex_count, instance.feature_count
    budget = SparsityBudget(
        max_per_vertex=cfg.kl, max_global=cfg.kg, max_changes=cfg.kc
    )
    budget.validate(t, d)

    if cfg.grid:
        gs = grid_search(instance, budget, seed=cfg.seed)
        instance = gs.instance
        warm = gs.fit
        lambda_beta, lambda_delta = gs.lambda_beta, gs.lambda_delta
    else:
        instance = instance.with_weights(cfg.lambda_beta, cfg.lambda_delta)
        warm = stepwise_fit(instance, budget, seed=cfg.seed)
        lambda_beta, lambda_delta = cfg.lambda_beta, cfg.lambda_delta

    qf = build_quadform(instance)
    limits = SolveLimits(time_limit=cfg.time_limit, gap_tol=cfg.gap_tol)
    res = solve_support_selection(qf, budget, warm_start=warm.z, limits=limits)

    solver = solver_summary(res)
    if cfg.omit_timings:
        solver["wall_time"] = 0.0
    beta = res.incumbent_beta.reshape(t, d)
    support = res.incumbent_z.reshape(t, d).astype(int)
    return {
        "version": __version__,
        "command": "fit",
        "config": cfg.resolved(),
        "lambda_beta": lambda_beta,
        "lambda_delta": lambda_delta,
        "stepwise": {
            "cost": warm.cost,
            "removal_iterations": warm.removal_iterations,
            "initial_union_size": warm.initial_union_size,
        },
        "solver": solver,
        "coefficients": beta.tolist(),
        "support": support.tolist(),
        "scaling": scaling,
    }


def _run_synth(cfg: RunConfig) -> dict:
    try:
        dataset = make_synthetic_dataset(cfg.params)
    except ValueError as exc:
        raise UsageError(f"synth: {exc}") from None
    dump_paths = None
    if cfg.dump_data:
        try:
            dump_paths = dump_dataset(cfg.dump_data, dataset)
        except OSError as exc:
            raise InputError(f"cannot dump dataset: {exc}") from None
    report = run_benchmark_on(
        dataset,
        time_limit=cfg.time_limit,
        gap_tol=cfg.gap_tol,
        methods=cfg.methods,
    )
    if cfg.omit_timings:
        for method in report["methods"].values():
            method["metrics"]["fit_time_s"] = 0.0
            if "solver" in method:
                method["solver"]["wall_time"] = 0.0
    return {
        "version": __version__,
        "command": "synth",
        "config": cfg.resolved(),
        "dump_paths": dump_paths,
        **report,
    }


def _run_gridsearch(cfg: RunConfig) -> dict:
    if cfg.data is not None:
        instance, _ = _load_fit_inputs(cfg)
        budget = SparsityBudget(
            max_per_vertex=cfg.kl, max_global=cfg.kg, max_changes=cfg.kc
        )
        budget.validate(instance.vertex_count, instance.feature_count)
    else:
        try:
            dataset = make_synthetic_dataset(cfg.params)
        except ValueError as exc:
            raise UsageError(f"gridsearch: {exc}") from None
        budget = solver_budget(dataset)
        instance = dataset.instance
    gs = grid_search(
        instance, budget, holdout_fraction=cfg.holdout, seed=cfg.seed
    )
    return {
        "version": __version__,
        "command": "gridsearch",
        "config": cfg.resolved(),
        "best": {
            "lambda_beta": gs.lambda_beta,
            "lambda_delta": gs.lambda_delta,
            "holdout_r2": gs.holdout_r2,
        },
        "table": gs.table,
        "stepwise": {
            "cost": gs.fit.cost,
            "removal_iterations": gs.fit.removal_iterations,
            "initial_union_size": gs.fit.initial_union_size,
        },
    }


def _emit(report: dict, cfg: RunConfig) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report: {exc}") from None
    else:
        sys.stdout.write(text)


def run(cfg: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    if cfg.command == "fit":
        report = _run_fit(cfg)
    elif cfg.command == "synth":
        report = _run_synth(cfg)
    else:
        report = _run_gridsearch(cfg)
    _emit(report, cfg)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except SystemExit as exc:
        # argparse already printed its message (usage errors exit 2)
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        return run(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BudgetError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
