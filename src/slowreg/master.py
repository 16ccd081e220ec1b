"""Branch-and-bound with outer-approximation cuts for support selection.

The binary program min c(z) over budget-feasible supports is solved through
its epigraph: a master LP over [eta, z, s, w] where s are global-support
indicators, w are per-edge change indicators, and eta underestimates the
convex support-cost function via an accumulating pool of cuts. A cut is the
oracle's dual cut eta >= intercept + gradient'z at the solution v0 of a
binary anchor: valid on the whole box, so one pool serves every node, and
tight at its anchor, whose bytes are the pool's dedupe key.

An evaluated support meets the incumbent in one place. A new integral LP
point is evaluated once and competes for the incumbent at once; if its cost
lies above eta its cut is added and the node re-solves in place, otherwise
the node closes. A point that is already an anchor closes its node, since
its own cut holds eta at its cost. The warm start takes the same steps.

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
few dual simplex pivots re-solve it. A node LP that reaches the time limit
ends the search with `time_limit`.

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

from .highs import HIGHS_INFINITY, LPModel, solve_boxed_lp
from .oracle import beta_star, eval_gradient, evaluate
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
    history: list = field(default_factory=list, repr=False)
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
        self.base_rows = t_count + t_count * d_count + 1 + 2 * e_count * d_count + 1
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
        assert rhs.size == self.base_rows
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


def branch_variable(z_values: np.ndarray) -> int:
    """Most fractional coordinate, ties to the lowest index."""
    score = np.abs(z_values - 0.5)
    j = int(np.argmin(score))
    frac = abs(z_values[j] - round(z_values[j]))
    if frac <= _INT_TOL:
        raise ValueError("cannot branch: the point is already integral")
    return j


def _relative_gap(upper: float, lower: float) -> float:
    if not np.isfinite(upper):
        return np.inf
    return max(0.0, upper - lower) / max(1.0, abs(upper))


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
    start_time = time.perf_counter()
    mp = MasterProgram(qf, budget, deadline=start_time + limits.time_limit)
    td = mp.t_count * mp.d_count
    cut_tol = min(1e-6, limits.gap_tol)

    incumbent: np.ndarray | None = None
    upper = np.inf

    def cuts_off(zb: np.ndarray, eta: float) -> bool:
        """Evaluate a new support, let it compete for the incumbent, and add
        its cut if its cost lies above eta; True when a cut was added."""
        nonlocal incumbent, upper
        ev = evaluate(qf, zb)
        if ev.cost < upper:
            incumbent, upper = zb, ev.cost
        if ev.cost <= eta + cut_tol:
            return False
        return mp.add_cut(zb, *eval_gradient(qf, ev.v0))

    if warm_start is not None:
        zb = np.ascontiguousarray(np.asarray(warm_start).ravel().astype(bool))
        if zb.size != td:
            raise ValueError("warm start length does not match the problem")
        if not check_feasible(zb, budget, qf.graph):
            raise BudgetError("warm start violates the sparsity budgets")
        cuts_off(zb, -np.inf)

    seq = 0
    heap = [(mp.eta_lower, seq, np.full(td, -1, dtype=np.int8), None)]
    node_count = 0
    history: list[tuple[float, float, float]] = []

    def elapsed() -> float:
        return time.perf_counter() - start_time

    while True:
        lower = min(heap[0][0], upper) if heap else upper
        history.append((elapsed(), lower, upper))
        if _relative_gap(upper, lower) <= limits.gap_tol:
            status = "optimal"
            break
        if not heap:
            raise RuntimeError("search ended without an incumbent")
        if elapsed() > limits.time_limit:
            status = "time_limit"
            break
        if limits.max_nodes is not None and node_count >= limits.max_nodes:
            status = "node_limit"
            break

        _, _, fixed, start = heapq.heappop(heap)
        node_count += 1

        mp.fix(fixed)
        while True:  # lazy-evaluation loop on one node
            res = solve_boxed_lp(mp.lp, start=start)
            if res.status != "optimal":
                break
            if _relative_gap(upper, res.objective) <= limits.gap_tol:
                break  # the whole subtree is dominated by the incumbent
            eta = float(res.x[0])
            z_values = res.x[mp.z0 : mp.s0]
            if np.max(np.abs(z_values - np.round(z_values))) <= _INT_TOL:
                zb = np.ascontiguousarray(np.round(z_values) != 0.0)
                cut = mp.cuts.get(zb.tobytes())
                if cut is None:
                    if cuts_off(zb, eta):
                        start = res.state
                        continue
                else:
                    # the cut anchored here holds eta at this support's cost;
                    # an LP that leaves it violated cannot resolve the costs
                    value = cut.intercept + float(cut.gradient @ zb)
                    if value - eta > limits.gap_tol * max(1.0, abs(value)):
                        raise WeightError(
                            f"lambda_beta={qf.lambda_beta:g} and "
                            f"lambda_delta={qf.lambda_delta:g}: the LP left eta "
                            f"{value - eta:.3g} below a cut it holds, so it cannot "
                            "tell the support costs apart"
                        )
                break  # node closed: its relaxation meets the true cost
            else:
                j = branch_variable(z_values)
                for value in (0, 1):
                    child = fixed.copy()
                    child[j] = value
                    seq += 1
                    heapq.heappush(heap, (res.objective, seq, child, res.state))
                break
        if res.status == "time_limit":
            status = "time_limit"
            break

    if incumbent is not None:
        beta = beta_star(qf, incumbent)
        objective = qf.const_term + 2.0 * upper
    else:
        beta = None
        objective = np.inf
    objective_lower = qf.const_term + 2.0 * lower
    return SolveResult(
        status=status,
        incumbent_z=incumbent,
        incumbent_beta=beta,
        upper_bound=upper,
        lower_bound=lower,
        objective_value=objective,
        objective_lower_bound=objective_lower,
        relative_gap=_relative_gap(upper, lower),
        objective_gap=_relative_gap(objective, objective_lower),
        node_count=node_count,
        cut_count=len(mp.cuts),
        wall_time=elapsed(),
        history=history,
        cuts=list(mp.cuts.values()),
    )
