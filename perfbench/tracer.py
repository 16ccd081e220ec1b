"""Per-layer spans around slowreg's public calls, installed from outside.

A Tracer replaces a fixed set of attributes with thin wrappers for the
duration of a `with tracer.installed():` block and puts the originals back
on exit, also when the block raises. Each attribute is wrapped where the
calling module looks it up (`slowreg.master.solve_boxed_lp`,
`slowreg.stepwise.build_quadform`, ...), so calls between modules are seen
without touching slowreg's source. The benchmark's set-up calls `dataio`,
`build_quadform` and `stepwise_fit` through their own modules, so those are
wrapped there too. A wrapper records a span (name, start,
end, parent) and passes arguments and results through unchanged; spans are
summed per name into calls, inclusive time and self time.

Derived counters come from the arguments and results of the wrapped calls:
nodes and cuts from each `SolveResult`, LP iterations from each `LPResult`,
removal iterations from each `StepwiseResult`. A warm LP call is one made
with a `start` state. Whether the simplex accepted that state cannot be seen
from outside: `solve_boxed_lp` silently falls back to a slack-basis start
when the state does not fit, so "warm" here means "warm start offered".
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (span name, module, attribute); "Class.method" wraps a method on the class
SITES = (
    ("cli.main", "slowreg.cli", "main"),
    ("dataio.read_csv", "slowreg.cli", "read_data_csv"),
    ("dataio.read_csv", "slowreg.dataio", "read_data_csv"),
    ("dataio.read_edges", "slowreg.cli", "read_edge_list"),
    ("dataio.read_edges", "slowreg.dataio", "read_edge_list"),
    ("benchmark.grid_search", "slowreg.cli", "grid_search"),
    ("stepwise.fit", "slowreg.cli", "stepwise_fit"),
    ("stepwise.fit", "slowreg.benchmark", "stepwise_fit"),
    ("stepwise.fit", "slowreg.stepwise", "stepwise_fit"),
    ("stepwise.greedy", "slowreg.stepwise", "sparse_ridge_greedy"),
    ("problem.build_quadform", "slowreg.cli", "build_quadform"),
    ("problem.build_quadform", "slowreg.stepwise", "build_quadform"),
    ("problem.build_quadform", "slowreg.problem", "build_quadform"),
    ("problem.matvec", "slowreg.problem", "QuadForm.matvec"),
    ("master.solve", "slowreg.cli", "solve_support_selection"),
    ("master.solve", "slowreg.master", "solve_support_selection"),
    ("simplex.lp", "slowreg.master", "solve_boxed_lp"),
    ("oracle.evaluate", "slowreg.master", "evaluate"),
    ("oracle.evaluate", "slowreg.oracle", "evaluate"),
    ("oracle.eval_gradient", "slowreg.master", "eval_gradient"),
    ("oracle.beta_star", "slowreg.master", "beta_star"),
    ("oracle.beta_star", "slowreg.stepwise", "beta_star"),
    ("oracle.generic_factor", "slowreg.oracle", "cho_factor"),
    ("blocktri.solve", "slowreg.oracle", "solve_spd_block_tridiagonal"),
)

# per-layer metric -> unit, in report order
LAYER_METRICS = {
    "simplex.lp.calls": "count",
    "simplex.lp.s": "s",
    "simplex.lp.warm_calls": "count",
    "simplex.lp.cold_calls": "count",
    "simplex.lp.iters": "count",
    "simplex.lp.iters_per_warm_call": "iter/call",
    "simplex.lp.iters_per_cold_call": "iter/call",
    "simplex.lp.ms_per_iter": "ms/iter",
    "master.solve.self_s": "s",
    "master.nodes": "count",
    "master.cuts": "count",
    "master.lp_per_node": "LP/node",
    "master.nodes_per_s": "node/s",
    "master.root_bound_obj": "objective",
    "oracle.evaluate.calls": "count",
    "oracle.evaluate.s": "s",
    "oracle.eval_gradient.calls": "count",
    "oracle.eval_gradient.s": "s",
    "oracle.beta_star.calls": "count",
    "oracle.beta_star.s": "s",
    "oracle.generic_factor.calls": "count",
    "oracle.generic_factor.s": "s",
    "blocktri.solve.calls": "count",
    "blocktri.solve.self_s": "s",
    "problem.build_quadform.calls": "count",
    "problem.build_quadform.s": "s",
    "problem.matvec.calls": "count",
    "problem.matvec.s": "s",
    "stepwise.fit.calls": "count",
    "stepwise.fit.self_s": "s",
    "stepwise.greedy.calls": "count",
    "stepwise.greedy.s": "s",
    "stepwise.removal_iters": "count",
    "benchmark.grid_search.calls": "count",
    "benchmark.grid_search.self_s": "s",
    "dataio.read_csv.calls": "count",
    "dataio.read_csv.s": "s",
    "dataio.read_edges.calls": "count",
    "dataio.read_edges.s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# metrics fixed by the work done; they must repeat exactly from pass to pass
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit in ("count", "iter/call", "LP/node")
)


def resolve_site(module: str, attribute: str):
    """(owner object, attribute name) for one entry of SITES."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _raw_attribute(owner, name):
    # on a class, read the function itself rather than a bound method
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0


class Tracer:
    """Spans and counters of one round; `reset` starts the next round."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._solve: dict | None = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name=name, start=time.perf_counter(), parent=parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.end - span.start
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore."""
        originals = []
        try:
            for span_name, module, attribute in SITES:
                owner, name = resolve_site(module, attribute)
                original = _raw_attribute(owner, name)
                originals.append((owner, name, original))
                setattr(owner, name, self._wrap(span_name, original))
            yield self
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)

    # -- summaries ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = out[span.name]
            row["calls"] += 1
            row["s"] += span.end - span.start
            row["self_s"] += span.end - span.start - span.child_s
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, for this round."""
        totals = self.layer_totals()
        c = self.counters

        def get(span: str, field: str) -> float:
            return totals[span][field] if span in totals else 0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        lp_calls = get("simplex.lp", "calls")
        lp_s = get("simplex.lp", "s")
        iters = c["lp_warm_iters"] + c["lp_cold_iters"]
        nodes = c["nodes"]
        out = {
            "simplex.lp.calls": lp_calls,
            "simplex.lp.s": lp_s,
            "simplex.lp.warm_calls": c["lp_warm_calls"],
            "simplex.lp.cold_calls": c["lp_cold_calls"],
            "simplex.lp.iters": iters,
            "simplex.lp.iters_per_warm_call": ratio(c["lp_warm_iters"], c["lp_warm_calls"]),
            "simplex.lp.iters_per_cold_call": ratio(c["lp_cold_iters"], c["lp_cold_calls"]),
            "simplex.lp.ms_per_iter": ratio(1000.0 * lp_s, iters),
            "master.solve.self_s": get("master.solve", "self_s"),
            "master.nodes": nodes,
            "master.cuts": c["cuts"],
            "master.lp_per_node": ratio(lp_calls, nodes),
            "master.nodes_per_s": ratio(nodes, get("master.solve", "s")),
            "master.root_bound_obj": ratio(c["root_bound_obj_sum"], c["root_bounds"]),
            "stepwise.removal_iters": c["removal_iters"],
        }
        for span in ("oracle.evaluate", "oracle.eval_gradient", "oracle.beta_star",
                     "oracle.generic_factor", "problem.build_quadform",
                     "problem.matvec", "stepwise.greedy", "dataio.read_csv",
                     "dataio.read_edges"):
            out[f"{span}.calls"] = get(span, "calls")
            out[f"{span}.s"] = get(span, "s")
        for span in ("blocktri.solve", "stepwise.fit", "benchmark.grid_search", "cli.main"):
            out[f"{span}.calls"] = get(span, "calls")
            out[f"{span}.self_s"] = get(span, "self_s")
        return {name: out[name] for name in LAYER_METRICS if name in out}


# -- hooks: counters read from arguments and results ----------------------

def _solve_before(tracer: Tracer, args, kwargs) -> None:
    qf = args[0] if args else kwargs["qf"]
    tracer._solve = {"const_term": float(qf.const_term), "root": None}


def _solve_after(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["nodes"] += result.node_count
    tracer.counters["cuts"] += result.cut_count
    solve = tracer._solve
    if solve is not None and solve["root"] is not None:
        # the LP works on the half-scaled cost; the user sees const + 2 * cost
        tracer.counters["root_bound_obj_sum"] += solve["const_term"] + 2.0 * solve["root"]
        tracer.counters["root_bounds"] += 1
    tracer._solve = None


def _lp_after(tracer: Tracer, args, kwargs, result) -> None:
    start = kwargs["start"] if "start" in kwargs else (args[1] if len(args) > 1 else None)
    kind = "warm" if start is not None else "cold"
    tracer.counters[f"lp_{kind}_calls"] += 1
    tracer.counters[f"lp_{kind}_iters"] += result.iterations
    solve = tracer._solve
    if solve is not None and solve["root"] is None and result.status == "optimal":
        solve["root"] = float(result.objective)


def _stepwise_after(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["removal_iters"] += result.removal_iterations


_BEFORE = {"master.solve": _solve_before}
_AFTER = {
    "master.solve": _solve_after,
    "simplex.lp": _lp_after,
    "stepwise.fit": _stepwise_after,
}
