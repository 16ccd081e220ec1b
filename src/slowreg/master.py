"""Branch-and-bound with outer-approximation cuts for support selection.

The binary program min c(z) over budget-feasible supports is solved through
its epigraph: a master LP over [eta, z, s, w] where s are global-support
indicators, w are per-edge change indicators, and eta underestimates the
convex support-cost function via an accumulating pool of cuts. A cut is the
oracle's dual cut eta >= intercept + gradient'z at the solution v0 of a
binary anchor: valid on the whole box, so one pool serves every node, and
tight at its anchor, whose bytes are the pool's dedupe key.

A node is one step, `_Search.step`, with four outcomes. Its LP can be
`infeasible`, stop at the deadline (`time_limit`), come within the gap
tolerance of the incumbent (`dominated`) or end at a fractional point
(`branched`). An integral point goes to `separate`, the one place where a
support meets the incumbent: a new support is evaluated once, competes for
the incumbent, and adds its cut if its cost lies above eta, so the node
re-solves in place; otherwise eta is within tolerance of a cost that is at
least `upper`, as at an anchor, whose own cut holds eta at its cost, and the
node is `dominated`. The incumbent keeps its evaluation's coefficients, and
the warm start goes through `separate` too.

A node is a heap entry (bound, seq, fixed, basis): its parent's LP value, a
tie-breaking counter, one int8 per z column (-1 free, 0 or 1) and its
parent's final basis. Nodes are explored best bound first, so a popped node
holds the least open bound, which the gap test before the pop found open: it
is never dominated. That test, `_relative_gap(upper, bound) <= gap_tol`, is
the one closing rule, for a node LP value too; a dry heap gives lower = upper.

All node LPs of one solve run on one HiGHS model (`highs.LPModel`): the
base rows go in once, sparse, a cut is one more row, and a node's fixings
are bounds on its z columns. The root's first LP starts cold; a cut
re-solve starts from the basis just found, and a child from its parent's
final basis, which differs by one tightened bound on the branched z, so a
few dual simplex pivots re-solve it.

The root LP is always feasible: z = 0 meets every budget that `validate`
accepts; only child nodes can come back infeasible.

Weights too extreme for the LP raise `WeightError` instead of giving a wrong
certificate: a root bound -mu'mu / (2 lambda_beta) that HiGHS would read as
infinite, or an LP point that violates one of its own cuts by more than the
gap tolerance, which would close a node below its true bound. The cut rows
are scaled by their largest entry, so eta's coefficient is 1/max|gradient|,
and from gradients near 1e6 HiGHS no longer holds them that tightly.

Variable layout: eta at 0, z_{t,d} at 1 + t*D + d, s_d at 1 + T*D + d,
w_{e,d} at 1 + T*D + D + e*D + d. All rows are <= rows.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .highs import HIGHS_INFINITY, LPModel, LPResult, solve_boxed_lp
# beta_star is unused here, but perfbench/tracer.py wraps slowreg.master.beta_star
from .oracle import beta_star, eval_gradient, evaluate  # noqa: F401
from .problem import (
    BudgetError, QuadForm, SparsityBudget, WeightError, check_feasible,
)

_INT_TOL = 1e-6


class Cut:
    """One row of the pool: eta >= intercept + gradient'z.

    Every z in the box satisfies cost(z) >= intercept + gradient'z, so the
    cut is valid in every node of the tree. `anchor` is the binary support
    whose evaluation gave it, kept as the pool's dedupe key.
    """

    __slots__ = ("anchor", "intercept", "gradient")

    def __init__(self, anchor: np.ndarray, intercept: float, gradient: np.ndarray):
        self.anchor, self.intercept, self.gradient = anchor, intercept, gradient


@dataclass(frozen=True)
class SolveLimits:
    """Stopping controls for the tree search."""

    time_limit: float = 300.0
    gap_tol: float = 1e-6
    max_nodes: int | None = None

    def __post_init__(self):
        if not 0.0 < self.gap_tol < np.inf:
            raise ValueError(f"gap_tol must be finite and positive, got {self.gap_tol!r}")
        if not self.time_limit >= 0.0:
            raise ValueError(f"time_limit must be nonnegative or inf, got {self.time_limit!r}")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError(f"max_nodes must be nonnegative or None, got {self.max_nodes!r}")


@dataclass
class SolveResult:
    """The best support found, its bounds and the search's counters."""

    status: str                    # optimal | time_limit | node_limit
    incumbent_z: np.ndarray | None
    incumbent_beta: np.ndarray | None
    upper_bound: float             # cost of the incumbent support
    lower_bound: float             # on the same (cost) scale
    objective_value: float         # full objective of the incumbent
    objective_lower_bound: float   # const_term + 2 * lower_bound
    relative_gap: float            # on the cost scale
    objective_gap: float           # on the objective scale
    node_count: int
    cut_count: int
    wall_time: float
    history: list = field(default_factory=list, repr=False)  # (s, lower, upper) per move
    cuts: list = field(default_factory=list, repr=False)


class MasterProgram:
    """Budget polytope plus the shared cut pool, as one HiGHS model.

    Node LPs stop at `deadline`, a `time.perf_counter` value.
    """

    def __init__(self, qf: QuadForm, budget: SparsityBudget, deadline: float = np.inf):
        graph = qf.graph
        t_count = graph.vertex_count
        d_count = qf.mu.size // t_count
        budget.validate(t_count, d_count)
        self.qf = qf
        self.budget = budget
        self.t_count = t_count
        self.d_count = d_count
        e_count = graph.edge_count
        self.n_vars = 1 + t_count * d_count + d_count + e_count * d_count
        self.z0 = 1
        self.s0 = 1 + t_count * d_count
        self.w0 = self.s0 + d_count
        self.eta_lower = -0.5 * float(qf.mu @ qf.mu) / qf.lambda_beta
        if not self.eta_lower > -HIGHS_INFINITY:
            raise WeightError(
                f"lambda_beta={qf.lambda_beta:g} and lambda_delta={qf.lambda_delta:g} "
                f"put the root bound -mu'mu / (2 lambda_beta) at {self.eta_lower:.3g}, "
                "which the LP solver reads as unbounded"
            )

        c = np.zeros(self.n_vars)
        c[0] = 1.0
        lower = np.zeros(self.n_vars)
        lower[0] = self.eta_lower
        upper = np.ones(self.n_vars)
        upper[0] = np.inf
        self.lp = LPModel(c, lower, upper, deadline=deadline)
        self.lp.add_rows(*self._base_rows())
        self.base_rows = self.lp.m
        self._z_cols = np.arange(self.z0, self.s0, dtype=np.int32)

        self.cuts: dict[bytes, Cut] = {}  # keyed by the anchor's bytes

    def _base_rows(self):
        """The budget rows in compressed form: (starts, columns, values, rhs)."""
        t_count, d_count = self.t_count, self.d_count
        td = t_count * d_count
        z = self.z0 + np.arange(td)
        s = self.s0 + np.arange(d_count)
        edges = np.asarray(self.qf.graph.edges, dtype=np.int64).reshape(-1, 2)
        e_count = edges.shape[0]
        w = self.w0 + np.arange(e_count * d_count)
        zu = (self.z0 + edges[:, :1] * d_count + np.arange(d_count)).ravel()
        zv = (self.z0 + edges[:, 1:] * d_count + np.arange(d_count)).ravel()
        # z_u - z_v - w <= 0 and z_v - z_u - w <= 0, per edge and feature
        change_cols = np.stack([zu, zv, w], axis=1).repeat(2, axis=0)
        change_vals = np.tile([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0]], (e_count * d_count, 1))
        blocks = (  # (columns, values, entries per row, rhs per row)
            (z, np.ones(td), d_count, np.full(t_count, float(self.budget.max_per_vertex))),
            (np.stack([z, s[np.arange(td) % d_count]], axis=1).ravel(),
             np.tile([1.0, -1.0], td), 2, np.zeros(td)),
            (s, np.ones(d_count), d_count, np.array([float(self.budget.max_global)])),
            (change_cols.ravel(), change_vals.ravel(), 3, np.zeros(2 * e_count * d_count)),
            (w, np.ones(w.size), w.size, np.array([float(self.budget.max_changes)])),
        )
        counts = np.concatenate([np.full(rhs.size, k) for _, _, k, rhs in blocks])
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int32)
        cols = np.concatenate([cols for cols, _, _, _ in blocks]).astype(np.int32)
        vals = np.concatenate([vals for _, vals, _, _ in blocks])
        rhs = np.concatenate([rhs for _, _, _, rhs in blocks])
        return starts, cols, vals, rhs

    def add_cut(self, anchor: np.ndarray, intercept: float, gradient: np.ndarray) -> bool:
        """Append eta >= intercept + gradient'z, row-scaled to O(1)."""
        key = anchor.tobytes()
        if key in self.cuts:
            return False
        gradient = np.asarray(gradient, dtype=np.float64)
        sigma = max(1.0, float(np.max(np.abs(gradient))))
        nonzero = np.flatnonzero(gradient)
        self.lp.add_rows(
            np.zeros(1, dtype=np.int32),
            np.concatenate([[0], self.z0 + nonzero]).astype(np.int32),
            np.concatenate([[-1.0], gradient[nonzero]]) / sigma,
            np.array([-intercept]) / sigma,
        )
        self.cuts[key] = Cut(anchor.astype(bool).copy(), intercept, gradient.copy())
        return True

    def fix(self, fixed: np.ndarray) -> None:
        """Bound the z columns for one node: -1 to [0, 1], 0 to 0, 1 to 1."""
        self.lp.set_bounds(self._z_cols, (fixed == 1).astype(np.float64),
                           (fixed != 0).astype(np.float64))


def branch_variable(z_values: np.ndarray) -> int | None:
    """Most fractional coordinate, ties to the lowest index; None if integral."""
    j = int(np.argmin(np.abs(z_values - 0.5)))
    return None if abs(z_values[j] - round(z_values[j])) <= _INT_TOL else j


def _relative_gap(upper: float, lower: float) -> float:
    if not np.isfinite(upper):
        return np.inf
    return max(0.0, upper - lower) / max(1.0, abs(upper))


class _Search:
    """One solve's state: master program, incumbent, upper bound, deadline, history."""

    def __init__(self, qf: QuadForm, budget: SparsityBudget, limits: SolveLimits):
        self.start = time.perf_counter()
        self.deadline = self.start + limits.time_limit
        self.mp = MasterProgram(qf, budget, deadline=self.deadline)
        self.gap_tol, self.cut_tol = limits.gap_tol, min(1e-6, limits.gap_tol)
        self.incumbent: np.ndarray | None = None
        self.incumbent_beta: np.ndarray | None = None
        self.upper = np.inf
        self.history: list[tuple[float, float, float]] = []

    def separate(self, zb: np.ndarray, eta: float) -> bool:
        """Meet a binary support with the incumbent and the cut pool at the LP
        value eta; True when it added a cut, so its node must re-solve."""
        qf, cut = self.mp.qf, self.mp.cuts.get(zb.tobytes())
        if cut is not None:
            value = cut.intercept + float(cut.gradient @ zb)
            if value - eta > self.gap_tol * max(1.0, abs(value)):
                raise WeightError(
                    f"lambda_beta={qf.lambda_beta:g} and lambda_delta={qf.lambda_delta:g}: "
                    f"the LP left eta {value - eta:.3g} below a cut it holds, so it "
                    "cannot tell the support costs apart")
            return False
        ev = evaluate(qf, zb)
        if ev.cost < self.upper:
            self.incumbent, self.incumbent_beta, self.upper = zb, ev.v0, ev.cost
        if ev.cost <= eta + self.cut_tol:
            return False
        return self.mp.add_cut(zb, *eval_gradient(qf, ev.v0))

    def step(self, fixed: np.ndarray, start) -> tuple[str, LPResult, int | None]:
        """Solve one node to its outcome (and branching variable), re-solving after each cut."""
        mp = self.mp
        mp.fix(fixed)
        while True:
            res = solve_boxed_lp(mp.lp, start=start)
            if res.status != "optimal":
                return res.status, res, None
            if _relative_gap(self.upper, res.objective) <= self.gap_tol:
                return "dominated", res, None
            z_values = res.x[mp.z0 : mp.s0]
            j = branch_variable(z_values)
            if j is not None:
                return "branched", res, j
            if not self.separate(np.round(z_values) != 0.0, float(res.x[0])):
                return "dominated", res, None
            start = res.state

    def record(self, lower: float) -> None:
        """Add (seconds, lower, upper) to the history when a bound moved."""
        if not self.history or self.history[-1][1:] != (lower, self.upper):
            self.history.append((time.perf_counter() - self.start, lower, self.upper))


def solve_support_selection(
    qf: QuadForm,
    budget: SparsityBudget,
    warm_start: np.ndarray | None = None,
    limits: SolveLimits | None = None,
) -> SolveResult:
    """Run the cutting-plane tree search and return the best support found.

    `warm_start` is a budget-feasible binary support used to seed both the
    incumbent and the first cut; an infeasible warm start raises BudgetError.
    """
    if limits is None:
        limits = SolveLimits()
    search = _Search(qf, budget, limits)
    mp = search.mp
    td = mp.t_count * mp.d_count

    if warm_start is not None:
        zb = np.asarray(warm_start).ravel().astype(bool)
        if zb.size != td:
            raise ValueError("warm start length does not match the problem")
        if not check_feasible(zb, budget, qf.graph):
            raise BudgetError("warm start violates the sparsity budgets")
        search.separate(zb, -np.inf)

    seq = 0
    heap = [(mp.eta_lower, seq, np.full(td, -1, dtype=np.int8), None)]
    node_count = 0
    while True:
        lower = min(heap[0][0], search.upper) if heap else search.upper
        search.record(lower)
        if _relative_gap(search.upper, lower) <= limits.gap_tol:
            status = "optimal"
            break
        if not heap:
            raise RuntimeError("search ended without an incumbent")
        if time.perf_counter() > search.deadline:
            status = "time_limit"
            break
        if limits.max_nodes is not None and node_count >= limits.max_nodes:
            status = "node_limit"
            break

        _, _, fixed, start = heapq.heappop(heap)
        node_count += 1
        outcome, res, j = search.step(fixed, start)
        if outcome == "branched":
            for value in (0, 1):
                child = fixed.copy()
                child[j] = value
                seq += 1
                heapq.heappush(heap, (res.objective, seq, child, res.state))
        elif outcome == "time_limit":
            status = "time_limit"
            break
    search.record(lower)  # a node LP stopped at the deadline may have moved upper

    objective = qf.const_term + 2.0 * search.upper  # inf without an incumbent
    objective_lower = qf.const_term + 2.0 * lower
    return SolveResult(
        status=status,
        incumbent_z=search.incumbent,
        incumbent_beta=search.incumbent_beta,
        upper_bound=search.upper,
        lower_bound=lower,
        objective_value=objective,
        objective_lower_bound=objective_lower,
        relative_gap=_relative_gap(search.upper, lower),
        objective_gap=_relative_gap(objective, objective_lower),
        node_count=node_count,
        cut_count=len(mp.cuts),
        wall_time=time.perf_counter() - search.start,
        history=search.history,
        cuts=list(mp.cuts.values()),
    )
