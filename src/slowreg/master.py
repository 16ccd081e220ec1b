"""Branch-and-bound with outer-approximation cuts for support selection.

The binary program min c(z) over budget-feasible supports is solved through
its epigraph: a master LP over [eta, z, s, w] where s are global-support
indicators, w are per-edge change indicators, and eta underestimates the
convex support-cost function via an accumulating pool of gradient cuts.
Cuts are supporting hyperplanes of c, hence valid in every node, so a single
tree shares one pool. A node whose LP relaxation turns integral either adds
a violated cut and re-solves in place or certifies an incumbent and closes.
Nodes are explored best bound first.

Only the re-solve after a cut is warm-started: the previous optimal basis is
passed on unchanged and the simplex extends it by the new row. A child node
starts cold. It differs from its parent by one tightened bound on the
branched z, and that z is basic and fractional in the parent's basis, so the
parent's basis is never primal feasible for the child; reusing it would take
a dual simplex.

Variable layout: eta at 0, z_{t,d} at 1 + t*D + d, s_d at 1 + T*D + d,
w_{e,d} at 1 + T*D + D + e*D + d. All rows are <= rows.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .oracle import beta_star, eval_gradient, evaluate
from .problem import BudgetError, QuadForm, SparsityBudget, check_feasible
from .simplex import BoxedLinearProgram, solve_boxed_lp

_INT_TOL = 1e-6


@dataclass(frozen=True)
class Cut:
    """Supporting hyperplane of the support-cost function at a binary anchor.

    Every feasible binary z satisfies cost(z) >= value + gradient'(z - anchor),
    so the cut is valid in every node of the tree.
    """

    anchor: np.ndarray
    value: float
    gradient: np.ndarray

    def evaluate(self, z: np.ndarray) -> float:
        diff = z.astype(np.float64) - self.anchor.astype(np.float64)
        return self.value + float(self.gradient @ diff)


def initial_cuts(qf: QuadForm, warm_starts) -> list[Cut]:
    """Cuts anchored at one or more warm-start supports, deduplicated."""
    if isinstance(warm_starts, np.ndarray) and warm_starts.ndim == 1:
        warm_starts = [warm_starts]
    cuts: list[Cut] = []
    seen: set[bytes] = set()
    for z in warm_starts:
        zb = np.ascontiguousarray(np.asarray(z).ravel().astype(bool))
        key = zb.tobytes()
        if key in seen:
            continue
        seen.add(key)
        ev = evaluate(qf, zb)
        grad = eval_gradient(qf, zb, ev.cache)
        cuts.append(Cut(anchor=zb, value=ev.cost, gradient=grad))
    return cuts


@dataclass(frozen=True)
class SolveLimits:
    """Stopping controls for the tree search."""

    time_limit: float = 300.0
    gap_tol: float = 1e-6
    max_nodes: int | None = None


@dataclass
class SolveResult:
    status: str                    # optimal | time_limit | node_limit | infeasible
    incumbent_z: np.ndarray | None
    incumbent_beta: np.ndarray | None
    upper_bound: float             # cost of the incumbent support
    lower_bound: float
    objective_value: float         # full objective of the incumbent
    relative_gap: float
    node_count: int
    cut_count: int
    wall_time: float
    history: list = field(default_factory=list, repr=False)
    cuts: list = field(default_factory=list, repr=False)


@dataclass
class _Node:
    seq: int
    depth: int
    bound: float
    fix0: np.ndarray
    fix1: np.ndarray


class MasterProgram:
    """Budget polytope plus the shared cut pool, stored as one <=-row matrix."""

    def __init__(self, qf: QuadForm, budget: SparsityBudget):
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

        cap = self.base_rows + 64
        self._a = np.zeros((cap, self.n_vars))
        self._b = np.zeros(cap)
        self.m = self.base_rows
        self._fill_base_rows()

        self.c = np.zeros(self.n_vars)
        self.c[0] = 1.0
        self.lower = np.zeros(self.n_vars)
        self.lower[0] = self.eta_lower
        self.upper = np.ones(self.n_vars)
        self.upper[0] = np.inf

        self._cut_costs: dict[bytes, float] = {}
        self.cuts: list[Cut] = []

    def _fill_base_rows(self) -> None:
        a, b = self._a, self._b
        t_count, d_count = self.t_count, self.d_count
        row = 0
        for t in range(t_count):
            a[row, self.z0 + t * d_count : self.z0 + (t + 1) * d_count] = 1.0
            b[row] = float(self.budget.max_per_vertex)
            row += 1
        for t in range(t_count):
            for d in range(d_count):
                a[row, self.z0 + t * d_count + d] = 1.0
                a[row, self.s0 + d] = -1.0
                row += 1
        a[row, self.s0 : self.s0 + d_count] = 1.0
        b[row] = float(self.budget.max_global)
        row += 1
        for e, (u, v) in enumerate(self.qf.graph.edges):
            for d in range(d_count):
                w = self.w0 + e * d_count + d
                zu = self.z0 + u * d_count + d
                zv = self.z0 + v * d_count + d
                a[row, zu] = 1.0
                a[row, zv] = -1.0
                a[row, w] = -1.0
                row += 1
                a[row, zu] = -1.0
                a[row, zv] = 1.0
                a[row, w] = -1.0
                row += 1
        a[row, self.w0 :] = 1.0
        b[row] = float(self.budget.max_changes)
        row += 1
        assert row == self.base_rows

    @property
    def cut_count(self) -> int:
        return len(self._cut_costs)

    def has_cut(self, anchor: np.ndarray) -> bool:
        return anchor.tobytes() in self._cut_costs

    def known_cost(self, anchor: np.ndarray) -> float | None:
        return self._cut_costs.get(anchor.tobytes())

    def add_cut(self, anchor: np.ndarray, cost: float, gradient: np.ndarray) -> bool:
        """Append eta >= cost + gradient'(z - anchor), row-scaled to O(1)."""
        key = anchor.tobytes()
        if key in self._cut_costs:
            return False
        if self.m == self._a.shape[0]:
            grown_a = np.zeros((2 * self._a.shape[0], self.n_vars))
            grown_a[: self.m] = self._a[: self.m]
            grown_b = np.zeros(2 * self._b.size)
            grown_b[: self.m] = self._b[: self.m]
            self._a, self._b = grown_a, grown_b
        sigma = max(1.0, float(np.max(np.abs(gradient))))
        zf = anchor.astype(np.float64)
        row = self.m
        self._a[row, 0] = -1.0 / sigma
        self._a[row, self.z0 : self.s0] = gradient / sigma
        self._b[row] = (float(gradient @ zf) - cost) / sigma
        self.m += 1
        self._cut_costs[key] = cost
        self.cuts.append(
            Cut(anchor=anchor.astype(bool).copy(), value=cost,
                gradient=np.asarray(gradient, dtype=np.float64).copy())
        )
        return True

    def node_lp(self, fix0: np.ndarray, fix1: np.ndarray) -> BoxedLinearProgram:
        lower = self.lower.copy()
        upper = self.upper.copy()
        upper[self.z0 : self.s0][fix0] = 0.0
        lower[self.z0 : self.s0][fix1] = 1.0
        return BoxedLinearProgram(
            c=self.c, a=self._a[: self.m], b=self._b[: self.m],
            lower=lower, upper=upper,
        )


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
    mp = MasterProgram(qf, budget)
    td = mp.t_count * mp.d_count
    cut_tol = min(1e-6, limits.gap_tol)

    incumbent: np.ndarray | None = None
    upper = np.inf
    if warm_start is not None:
        zb = np.ascontiguousarray(np.asarray(warm_start).ravel().astype(bool))
        if zb.size != td:
            raise ValueError("warm start length does not match the problem")
        if not check_feasible(zb, budget, qf.graph):
            raise BudgetError("warm start violates the sparsity budgets")
        seed = initial_cuts(qf, zb)[0]
        mp.add_cut(seed.anchor, seed.value, seed.gradient)
        incumbent = zb
        upper = seed.value

    seq = 0
    root = _Node(
        seq=seq, depth=0, bound=mp.eta_lower,
        fix0=np.zeros(td, dtype=bool), fix1=np.zeros(td, dtype=bool),
    )
    heap = [(root.bound, root.seq, root)]
    node_count = 0
    lower = mp.eta_lower
    status: str | None = None
    history: list[tuple[float, float, float]] = []
    root_infeasible = False

    def elapsed() -> float:
        return time.perf_counter() - start_time

    while heap:
        lower = min(heap[0][0], upper)
        history.append((elapsed(), lower, upper))
        if _relative_gap(upper, lower) <= limits.gap_tol:
            status = "optimal"
            break
        if elapsed() > limits.time_limit:
            status = "time_limit"
            break
        if limits.max_nodes is not None and node_count >= limits.max_nodes:
            status = "node_limit"
            break

        node = heapq.heappop(heap)[2]
        if node.bound >= upper - limits.gap_tol * max(1.0, abs(upper)):
            continue
        node_count += 1

        start = None
        while True:  # lazy-evaluation loop on one node
            lp = mp.node_lp(node.fix0, node.fix1)
            res = solve_boxed_lp(lp, start=start)
            if res.status == "infeasible":
                if node.depth == 0:
                    root_infeasible = True
                break
            if res.status != "optimal":
                raise RuntimeError(f"node relaxation came back {res.status}")
            eta = float(res.x[0])
            z_values = res.x[mp.z0 : mp.s0]
            node.bound = res.objective
            if res.objective >= upper - limits.gap_tol * max(1.0, abs(upper)):
                break  # the whole subtree is dominated by the incumbent
            if np.max(np.abs(z_values - np.round(z_values))) <= _INT_TOL:
                zb = np.ascontiguousarray(np.round(z_values) != 0.0)
                known = mp.known_cost(zb)
                if known is None:
                    ev = evaluate(qf, zb)
                    cost = ev.cost
                    if cost > eta + cut_tol:
                        grad = eval_gradient(qf, zb, ev.cache)
                        mp.add_cut(zb, cost, grad)
                        start = res.state
                        continue
                else:
                    # a cut anchored here already bounds eta by this cost,
                    # so no violated cut can exist at this point
                    cost = known
                if cost < upper:
                    upper = cost
                    incumbent = zb
                break  # node closed: its relaxation meets the true cost
            else:
                j = branch_variable(z_values)
                for value in (0, 1):
                    fix0 = node.fix0.copy()
                    fix1 = node.fix1.copy()
                    (fix0 if value == 0 else fix1)[j] = True
                    seq += 1
                    child = _Node(
                        seq=seq, depth=node.depth + 1, bound=res.objective,
                        fix0=fix0, fix1=fix1,
                    )
                    heapq.heappush(heap, (child.bound, child.seq, child))
                break

    if status is None:
        # the heap ran dry: every subtree is resolved
        status = "infeasible" if root_infeasible and incumbent is None else "optimal"
        if incumbent is not None or not root_infeasible:
            lower = upper
        history.append((elapsed(), lower, upper))

    if incumbent is not None:
        beta = beta_star(qf, incumbent)
        objective = qf.const_term + 2.0 * upper
    else:
        beta = None
        objective = np.inf
    return SolveResult(
        status=status,
        incumbent_z=incumbent,
        incumbent_beta=beta,
        upper_bound=upper,
        lower_bound=lower,
        objective_value=objective,
        relative_gap=_relative_gap(upper, lower),
        node_count=node_count,
        cut_count=mp.cut_count,
        wall_time=elapsed(),
        history=history,
        cuts=mp.cuts,
    )
