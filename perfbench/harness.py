"""Workloads, set-up, timed operations and correctness checks.

One run = one workload, one seed, one process. The run

1. generates the workload's instances with `make_synthetic_dataset`, seeded
   from the run seed, and writes them to disk (not timed);
2. sets up once and computes reference answers: the brute-force optimum for
   exact instances, recorded answers from `reference.json` where the seed
   has them (not timed);
3. runs rounds until the next one would end more than `--seconds` after the
   process started (steps 1 and 2 count against that budget). A round sets
   up afresh (at least once, repeated until it has spent SETUP_ROUND_S) and
   then runs one pass over all of the workload's operations. `wall_s` is
   the median pass and `setup_s` the fastest set-up;
4. checks every answer of every pass, and checks that each pass gives the
   same answers as the first.

Set-ups are spread over the whole run, like the passes, because a shared
machine alternates between fast and slow spells lasting seconds, in which the
same work takes up to 1.8 times as long. A pass is long enough to mix the
spells, so its median is steady. A set-up is short and lands in one spell, so
the median set-up jumps between the two speeds with the share of the run that
was slow; the fastest set-up does not.

With tracing on, rounds alternate untraced and traced. A traced round sets
up once, traced, and runs a traced pass; the per-layer numbers come from the
traced rounds, per round, and `trace.overhead_s` is the difference between
the median traced and the median untraced pass.
"""

from __future__ import annotations

import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import brute
import envinfo
from tracer import COUNT_METRICS, LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# exact solves stop at the node cap; this wall-clock limit is only a safety net
SAFETY_TIME_LIMIT_S = 600.0
# a round repeats set-up until it has spent this long (at least once)
SETUP_ROUND_S = 0.3
# the library's optimality tolerance, used to judge a certified answer
GAP_TOL = 1e-6
# relative tolerance for recomputed objectives and recorded answers
REL_TOL = 1e-9

# end-to-end metric -> (unit, better); these are the ones BENCHMARK.json bounds
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
QUALITY = {
    "fail_rate": ("share", "lower"),
    "certified_frac": ("share", "higher"),
    "gap_obj": ("ratio", "lower"),
    "excess_obj": ("ratio", "lower"),
    "holdout_r2": ("R2", "higher"),
}


@dataclass(frozen=True)
class Family:
    """`count` instances of one synthetic shape."""

    mode: str
    t: int
    d: int
    count: int = 1
    e: int | None = None
    k_g: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # exact | fit | gridsearch
    families: tuple[Family, ...]
    n: int
    k_l: int
    k_c: int
    # (k_beta, k_delta): lambda = n * 3**-k, the points of the library's grid
    weight_exponents: tuple[int, int] | None = None
    node_cap: int | None = None

    def weights(self) -> tuple[float, float] | None:
        if self.weight_exponents is None:
            return None
        kb, kd = self.weight_exponents
        return float(self.n) * 3.0 ** (-kb), float(self.n) * 3.0 ** (-kd)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact_weak", "exact",
            (Family("temporal", 4, 8, count=4),
             Family("spatial", 4, 8, count=4, e=4, k_g=4)),
            n=30, k_l=2, k_c=2, weight_exponents=(6, 2), node_cap=100,
        ),
        Workload(
            "fit_strong", "fit",
            (Family("temporal", 10, 20), Family("spatial", 8, 16, e=10, k_g=4)),
            n=30, k_l=2, k_c=2, weight_exponents=(0, 0),
        ),
        Workload(
            "gridsearch_large", "gridsearch",
            (Family("temporal", 100, 200, count=2),),
            n=60, k_l=5, k_c=10,
        ),
    )
}


@dataclass
class Case:
    """One generated instance, as files plus what the checks need."""

    index: int
    seed: int
    label: str
    chain: bool
    data_path: str
    graph_path: str
    budget: tuple[int, int, int]
    weights: tuple[float, float] | None


def instance_seed(run_seed: int, index: int) -> int:
    return 1000 * run_seed + index


# -- slowreg import ----------------------------------------------------------

def fresh_slowreg() -> SimpleNamespace:
    """Import slowreg from scratch (numpy and scipy stay loaded)."""
    for name in [m for m in sys.modules if m == "slowreg" or m.startswith("slowreg.")]:
        del sys.modules[name]
    names = ("cli", "dataio", "master", "problem", "stepwise", "graph", "benchmark")
    mods = {name: importlib.import_module(f"slowreg.{name}") for name in names}
    return SimpleNamespace(pkg=importlib.import_module("slowreg"), **mods)


# -- instances ---------------------------------------------------------------

def make_cases(mods, workload: Workload, run_seed: int, workdir: Path) -> list[Case]:
    cases = []
    for family in workload.families:
        for _ in range(family.count):
            index = len(cases)
            seed = instance_seed(run_seed, index)
            params = mods.benchmark.SynthParams(
                n=workload.n, t=family.t, d=family.d, k_l=workload.k_l,
                k_c=workload.k_c, k_g=family.k_g, e=family.e,
                mode=family.mode, seed=seed,
            )
            dataset = mods.benchmark.make_synthetic_dataset(params)
            budget = mods.benchmark.solver_budget(dataset)
            data_path = workdir / f"case{index}_train.csv"
            graph_path = workdir / f"case{index}_graph.txt"
            inst = dataset.instance
            mods.dataio.write_data_csv(data_path, inst.x_blocks, inst.y_blocks)
            mods.dataio.write_edge_list(graph_path, inst.graph)
            cases.append(Case(
                index=index, seed=seed,
                label=f"{family.mode}-t{family.t}-d{family.d}-seed{seed}",
                chain=family.mode == "temporal",
                data_path=str(data_path), graph_path=str(graph_path),
                budget=(budget.max_per_vertex, budget.max_global, budget.max_changes),
                weights=workload.weights(),
            ))
    return cases


# -- set-up ------------------------------------------------------------------

def setup(mods, workload: Workload, cases: list[Case]) -> list[SimpleNamespace]:
    """Read every input with dataio, build quadforms, warm-start exact runs."""
    states = []
    for case in cases:
        x_blocks, y_blocks = mods.dataio.read_data_csv(case.data_path)
        t_count = len(x_blocks)
        if case.chain:
            graph = mods.graph.SimilarityGraph.chain(t_count)
        else:
            graph = mods.dataio.read_edge_list(case.graph_path, t_count)
        if case.weights is None:  # grid search anchors its grid at the row count
            anchor = float(np.mean([x.shape[0] for x in x_blocks]))
            weights = (anchor, anchor)
        else:
            weights = case.weights
        instance = mods.problem.ProblemInstance(
            graph=graph, x_blocks=tuple(x_blocks), y_blocks=tuple(y_blocks),
            lambda_beta=weights[0], lambda_delta=weights[1],
        )
        budget = mods.problem.SparsityBudget(*case.budget)
        qf = mods.problem.build_quadform(instance)
        warm = None
        if workload.kind == "exact":
            warm = mods.stepwise.stepwise_fit(instance, budget, seed=case.seed, qf=qf)
        states.append(SimpleNamespace(
            x_blocks=x_blocks, y_blocks=y_blocks, edges=graph.edges,
            weights=weights, budget=budget, qf=qf, warm=warm,
        ))
    return states


def setup_round(workload: Workload, cases: list[Case], reps: list[float]):
    """Set up afresh until SETUP_ROUND_S is spent; appends to reps, returns (mods, states)."""
    spent = 0.0
    while True:
        mods = states = None  # hold one set-up's data at a time
        start = time.perf_counter()
        mods = fresh_slowreg()
        states = setup(mods, workload, cases)
        reps.append(time.perf_counter() - start)
        spent += reps[-1]
        if spent >= SETUP_ROUND_S:
            return mods, states


# -- operations --------------------------------------------------------------

def _cli_argv(command: str, case: Case, output: Path) -> list[str]:
    k_l, k_g, k_c = case.budget
    argv = [command, "--data", case.data_path]
    argv += ["--chain"] if case.chain else ["--graph", case.graph_path]
    argv += ["--kl", str(k_l), "--kg", str(k_g), "--kc", str(k_c)]
    if command == "fit":
        argv += ["--lambda-beta", repr(case.weights[0]),
                 "--lambda-delta", repr(case.weights[1])]
    return argv + ["--seed", str(case.seed), "--output", str(output)]


def make_ops(mods, workload: Workload, cases, states, workdir: Path):
    """One callable per case; each returns (timed seconds, outcome)."""
    ops = []
    for case, state in zip(cases, states):
        if workload.kind == "exact":
            def op(state=state):
                limits = mods.master.SolveLimits(
                    time_limit=SAFETY_TIME_LIMIT_S, max_nodes=workload.node_cap
                )
                start = time.perf_counter()
                res = mods.master.solve_support_selection(
                    state.qf, state.budget, warm_start=state.warm.z, limits=limits
                )
                elapsed = time.perf_counter() - start
                return elapsed, {
                    "status": res.status, "nodes": res.node_count,
                    "cuts": res.cut_count, "upper": res.upper_bound,
                    "lower": res.lower_bound, "objective": res.objective_value,
                    "z": res.incumbent_z, "beta": res.incumbent_beta,
                }
        else:
            command = "fit" if workload.kind == "fit" else "gridsearch"
            output = workdir / f"case{case.index}_{command}.json"
            argv = _cli_argv(command, case, output)

            def op(argv=argv, output=output):
                output.unlink(missing_ok=True)
                start = time.perf_counter()
                code = mods.cli.main(argv)
                elapsed = time.perf_counter() - start
                report = json.loads(output.read_text()) if code == 0 else None
                return elapsed, {"exit": code, "report": report}
        ops.append(op)
    return ops


# -- checks ------------------------------------------------------------------

def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _support_problems(z, beta, case: Case, state) -> list[str]:
    problems = []
    t_count = len(state.x_blocks)
    per_vertex, union, changes = brute.support_usage(z, t_count, state.edges)
    k_l, k_g, k_c = case.budget
    if per_vertex > k_l or union > k_g or changes > k_c:
        problems.append(
            f"support breaks the budgets: per-vertex {per_vertex}/{k_l}, "
            f"global {union}/{k_g}, changes {changes}/{k_c}"
        )
    if np.any(beta[~z] != 0.0):
        problems.append("nonzero coefficient off the support")
    return problems


def _const_term(state) -> float:
    """sum_t y'y: the objective at beta = 0, so objective = const + 2 * cost."""
    return sum(float(y @ y) for y in state.y_blocks)


def _objective_problems(beta, reported: float, state) -> list[str]:
    direct = brute.direct_objective(
        state.x_blocks, state.y_blocks, state.edges, *state.weights, beta
    )
    if not _close(direct, reported, 1e-8):
        return [f"reported objective {reported!r} != recomputed {direct!r}"]
    return []


def check_exact(case, state, out, ref) -> tuple[list[str], dict]:
    if out["z"] is None:
        return ["no incumbent"], {}
    z = np.asarray(out["z"], dtype=bool).ravel()
    beta = np.asarray(out["beta"], dtype=np.float64).ravel()
    problems = _support_problems(z, beta, case, state)
    problems += _objective_problems(beta, out["objective"], state)
    const = _const_term(state)
    upper_obj = const + 2.0 * out["upper"]
    lower_obj = const + 2.0 * out["lower"]
    opt = ref["optimum"]
    tol = REL_TOL * max(1.0, abs(opt))
    if lower_obj > opt + tol:
        problems.append(f"lower bound {lower_obj!r} above the optimum {opt!r}")
    if upper_obj < opt - tol:
        problems.append(f"incumbent {upper_obj!r} below the optimum {opt!r}")
    warm = state.warm.cost
    if out["upper"] > warm + REL_TOL * max(1.0, abs(warm)):
        problems.append("incumbent worse than the warm start")
    if out["status"] == "optimal":
        certify_tol = 2.0 * GAP_TOL * max(1.0, abs(out["upper"])) + tol
        if upper_obj - opt > certify_tol:
            problems.append(f"certified {upper_obj!r} but the optimum is {opt!r}")
        outcome = "optimal"
    elif out["nodes"] == ref["node_cap"]:
        outcome = "node_limit"  # the solver reports a node cap as time_limit
    else:
        outcome = out["status"]
    quality = {
        "outcome": outcome,
        "certified": out["status"] == "optimal",
        "gap_obj": (upper_obj - lower_obj) / max(1.0, abs(upper_obj)),
        "excess_obj": (upper_obj - opt) / max(1.0, abs(opt)),
        "upper_obj": upper_obj, "lower_obj": lower_obj, "optimum": opt,
        "supports_enumerated": ref["supports"],
    }
    return problems, quality


def check_fit(case, state, out, ref) -> tuple[list[str], dict]:
    if out["exit"] != 0:
        return [f"slowreg fit exited with {out['exit']}"], {}
    report = out["report"]
    solver = report["solver"]
    z = np.asarray(report["support"], dtype=bool).ravel()
    beta = np.asarray(report["coefficients"], dtype=np.float64).ravel()
    problems = _support_problems(z, beta, case, state)
    problems += _objective_problems(beta, solver["objective_value"], state)
    upper_obj = solver["objective_value"]
    lower_obj = _const_term(state) + 2.0 * solver["lower_bound"]
    if lower_obj > upper_obj + REL_TOL * max(1.0, abs(upper_obj)):
        problems.append("lower bound above the incumbent")
    warm = report["stepwise"]["cost"]
    if solver["upper_bound"] > warm + REL_TOL * max(1.0, abs(warm)):
        problems.append("incumbent worse than the warm start")
    recorded = ref.get("objective_value")
    if recorded is not None and solver["status"] == "optimal" and not _close(upper_obj, recorded):
        problems.append(f"certified objective {upper_obj!r} != recorded {recorded!r}")
    quality = {
        "outcome": solver["status"],
        "certified": solver["status"] == "optimal",
        "gap_obj": (upper_obj - lower_obj) / max(1.0, abs(upper_obj)),
        "upper_obj": upper_obj, "lower_obj": lower_obj,
        "nodes": solver["node_count"], "cuts": solver["cut_count"],
        "removal_iters": report["stepwise"]["removal_iterations"],
    }
    return problems, quality


def default_grid(anchor: float) -> list[tuple[float, float]]:
    """The library's default 7 x 3 weight grid, written out independently."""
    return [(anchor * 3.0 ** (-kb), anchor * 3.0 ** (-kd))
            for kb in range(7) for kd in range(3)]


def check_gridsearch(case, state, out, ref) -> tuple[list[str], dict]:
    if out["exit"] != 0:
        return [f"slowreg gridsearch exited with {out['exit']}"], {}
    report = out["report"]
    table = report["table"]
    rows = [(r["lambda_beta"], r["lambda_delta"], r["holdout_r2"]) for r in table]
    problems = []
    if [(lb, ld) for lb, ld, _ in rows] != default_grid(state.weights[0]):
        problems.append("table does not cover the default 7 x 3 grid in order")
    r2s = [r2 for _, _, r2 in rows]
    first_best = rows[r2s.index(max(r2s))]
    best = report["best"]
    if (best["lambda_beta"], best["lambda_delta"], best["holdout_r2"]) != first_best:
        problems.append("best pair is not the first maximum of the table")
    recorded = ref.get("table")
    if recorded is not None:
        same = len(recorded) == len(rows) and all(
            (lb, ld) == (rlb, rld) and abs(r2 - rr2) <= REL_TOL
            for (lb, ld, r2), (rlb, rld, rr2) in zip(rows, recorded)
        )
        if not same:
            problems.append("table differs from the recorded answers")
    quality = {
        "holdout_r2": best["holdout_r2"],
        "lambda_beta": best["lambda_beta"], "lambda_delta": best["lambda_delta"],
        "removal_iters": report["stepwise"]["removal_iterations"],
        "reference_checked": recorded is not None,
    }
    return problems, quality


CHECKS = {"exact": check_exact, "fit": check_fit, "gridsearch": check_gridsearch}


def signature(kind: str, out: dict):
    """What must repeat exactly from pass to pass."""
    if kind == "exact":
        z = None if out["z"] is None else np.asarray(out["z"]).tobytes()
        return (out["status"], out["nodes"], out["cuts"], out["upper"], out["lower"], z)
    report = out["report"]
    if report is None:
        return (out["exit"],)
    if kind == "fit":
        s = report["solver"]
        return (s["status"], s["node_count"], s["cut_count"], s["upper_bound"],
                s["lower_bound"], json.dumps(report["support"]))
    return (json.dumps(report["table"]), json.dumps(report["best"]))


# -- references --------------------------------------------------------------

def load_recorded(workload: str, run_seed: int) -> list[dict] | None:
    if not REFERENCE_FILE.is_file():
        return None
    recorded = json.loads(REFERENCE_FILE.read_text())
    return recorded.get(workload, {}).get(str(run_seed))


def references(workload: Workload, run_seed: int, states) -> list[dict]:
    """Per case: the enumerated optimum (exact) or the recorded answers."""
    if workload.kind == "exact":
        refs = []
        for state in states:
            opt, _, count = brute.enumerated_optimum(
                state.x_blocks, state.y_blocks, state.edges, *state.weights,
                (state.budget.max_per_vertex, state.budget.max_global,
                 state.budget.max_changes),
            )
            refs.append({"optimum": opt, "supports": count,
                         "node_cap": workload.node_cap})
        return refs
    recorded = load_recorded(workload.name, run_seed)
    if recorded is None:
        return [{} for _ in states]
    return recorded


# -- passes ------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    wall_s: float
    op_s: list          # timed seconds of each op; None where it raised
    outcomes: list
    errors: list
    layers: dict = field(default_factory=dict)


def run_pass(ops, tracer: Tracer | None) -> Pass:
    outcomes, errors, op_s = [], [], []
    for op in ops:
        try:
            if tracer is None:
                elapsed, out = op()
            else:
                with tracer.installed():
                    elapsed, out = op()
        except Exception as exc:  # a failed op is counted, the run goes on
            outcomes.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
            op_s.append(None)
            continue
        op_s.append(elapsed)
        outcomes.append(out)
        errors.append(None)
    layers = tracer.layer_metrics() if tracer is not None else {}
    wall = sum(t for t in op_s if t is not None)
    return Pass(traced=tracer is not None, wall_s=wall, op_s=op_s,
                outcomes=outcomes, errors=errors, layers=layers)


def measure(workload: Workload, cases: list[Case], workdir: Path, deadline: float,
            trace: bool):
    """Rounds of set-up and one pass until the next round would end after `deadline`.

    `deadline` is on the `time.perf_counter` clock. Returns (passes, set-up
    seconds, the states of the last set-up).
    """
    tracer = Tracer() if trace else None
    passes: list[Pass] = []
    setup_reps: list[float] = []
    rounds: list[float] = []
    while True:
        states = ops = None  # let the previous round's data go before setting up again
        round_start = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        if traced:
            # exactly one set-up, traced, so a traced round's counts repeat;
            # its time is not a set-up sample
            tracer.reset()
            mods = fresh_slowreg()
            with tracer.installed():
                states = setup(mods, workload, cases)
        else:
            mods, states = setup_round(workload, cases, setup_reps)
        ops = make_ops(mods, workload, cases, states, workdir)
        passes.append(run_pass(ops, tracer if traced else None))
        rounds.append(time.perf_counter() - round_start)
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() + statistics.median(rounds) > deadline:
            return passes, setup_reps, states


# -- the run -----------------------------------------------------------------

def execute(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
            started: float | None = None) -> dict:
    """Generate, set up, measure and check one workload; returns the summary.

    The `seconds` budget counts from `started` (a `time.perf_counter` value,
    by default the call of this function).
    """
    if started is None:
        started = time.perf_counter()
    mods = fresh_slowreg()
    cases = make_cases(mods, workload, seed, workdir)
    refs = references(workload, seed, setup(mods, workload, cases))
    passes, setup_reps, states = measure(workload, cases, workdir, started + seconds, trace)
    summary = summarize(workload, cases, states, refs, passes, setup_reps)
    summary.update(workload=workload.name, seed=seed, seconds=seconds, trace=int(trace))
    return summary


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path,
        started: float) -> dict:
    """One benchmark run inside the checkout at `root`; writes its results file.

    `started` is the `time.perf_counter` value at which the run began.
    """
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    workdir = root / "perfbench" / "work" / stem
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    src = (root / "src").resolve()
    try:
        pkg = importlib.import_module("slowreg")
        if not Path(pkg.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"slowreg was imported from {pkg.__file__}, not {src}")
        summary = execute(WORKLOADS[workload_name], seed, seconds, trace, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary["environment"] = envinfo.environment()
    results = root / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def summarize(workload, cases, states, refs, passes, setup_reps) -> dict:
    check = CHECKS[workload.kind]
    attempted = failed = 0
    failures = []
    first = passes[0]
    instances = []
    for i, case in enumerate(cases):
        first_sig = None if first.outcomes[i] is None else signature(workload.kind, first.outcomes[i])
        for k, p in enumerate(passes):
            attempted += 1
            out = p.outcomes[i]
            if out is None:
                problems = [p.errors[i]]
                quality = {}
            else:
                problems, quality = check(case, states[i], out, refs[i])
                if signature(workload.kind, out) != first_sig:
                    problems.append("answer differs from the first pass")
            if problems:
                failed += 1
                failures.append({"case": case.label, "pass": k, "problems": problems})
            if k == 0:
                instances.append({"case": case.label, **quality})

    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes if not p.traced),
        "setup_s": min(setup_reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    quality = {"fail_rate": failed / attempted}
    if workload.kind in ("exact", "fit"):
        quality["certified_frac"] = float(np.mean([q.get("certified", False) for q in instances]))
        quality["gap_obj"] = float(np.mean([q.get("gap_obj", np.inf) for q in instances]))
    if workload.kind == "exact":
        quality["excess_obj"] = float(np.mean([q.get("excess_obj", np.inf) for q in instances]))
    if workload.kind == "gridsearch":
        quality["holdout_r2"] = instances[0].get("holdout_r2", float("nan"))

    traced = [p for p in passes if p.traced]
    layers = {}
    counts_stable = True
    if traced:
        for name in LAYER_METRICS:
            if name == "trace.overhead_s":
                continue
            layers[name] = statistics.median(p.layers[name] for p in traced)
        layers["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - metrics["wall_s"]
        )
        counts_stable = all(
            p.layers[name] == traced[0].layers[name]
            for p in traced for name in COUNT_METRICS
        )
    return {
        "correct": failed == 0 and counts_stable,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": metrics,
        "quality": quality,
        "per_layer": layers,
        "counts_stable": counts_stable,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "op_s": p.op_s} for p in passes],
        "setup_reps_s": setup_reps,
        "instances": instances,
        "failures": failures,
    }


def print_report(summary: dict) -> None:
    """The human-readable table, then the one-line JSON result."""
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"trace {summary['trace']}  passes {len(summary['passes'])}")
    print(f"ops attempted {summary['attempted']}  failed {summary['failed']}  "
          f"correct {summary['correct']}")
    rows = [(name, value, *END_TO_END[name]) for name, value in summary["end_to_end"].items()]
    rows += [(name, value, *QUALITY[name]) for name, value in summary["quality"].items()]
    rows += [(name, value, LAYER_METRICS[name], "") for name, value in summary["per_layer"].items()]
    for name, value, unit, better in rows:
        direction = f"({better} is better)" if better else ""
        print(f"  {name:<36} {value:>16.6g} {unit:<10} {direction}")
    for failure in summary["failures"][:10]:
        print(f"  FAILED {failure['case']} pass {failure['pass']}: {failure['problems']}")
    if summary["trace"]:
        metrics = {name: {"value": summary["per_layer"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": summary["end_to_end"][name], "unit": END_TO_END[name][0]}
                   for name in END_TO_END}
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
