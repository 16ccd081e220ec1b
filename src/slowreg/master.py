"""Branch-and-bound with outer-approximation cuts for support selection.

The binary program min c(z) over budget-feasible supports is solved through
its epigraph: a master LP over [eta, z, s, w] where s are global-support
indicators, w are per-edge change indicators, and eta underestimates the
convex support-cost function via an accumulating pool of gradient cuts.
Cuts are supporting hyperplanes of c, hence valid in every node, so a single
tree shares one pool. The pool keeps one `Cut` per anchor, keyed by the
anchor's bytes; that record also holds the anchor's exact cost, so an
integral point that is already an anchor closes its node without another
oracle call. A warm start contributes the first cut. A node whose LP
relaxation turns integral either adds a violated cut and re-solves in place
or certifies an incumbent and closes. Nodes are explored best bound first.

Every node LP runs through the simplex's bounded dual phase, which needs a
dual feasible start. The root's first LP starts from the slack basis, which
is dual feasible because the only cost is the +1 on eta (c = e_0) and eta
starts at its lower bound. Every later LP is warm-started from an optimal
basis. The re-solve after a cut passes the previous result's
state: the new cut row enters with its slack basic, and the reduced costs do
not change. A child node carries its parent's final state (the basis and the
at-upper flags, not the basis inverse, so a waiting node costs about a
kilobyte). It differs from its parent by one tightened bound on the branched
z, which is basic and fractional in the parent's basis, so that basis is
dual but not primal feasible and a few dual pivots re-solve it.

The root LP is always feasible: z = 0 meets every budget that `validate`
accepts. So a search whose heap runs dry is optimal; only child nodes can
come back infeasible.

The master's (rows x vars) array is dense. Its size is known from T, D and
the edges before anything is allocated, and one that would not fit in
physical memory raises `ProblemSizeError` instead of a `MemoryError`.

Variable layout: eta at 0, z_{t,d} at 1 + t*D + d, s_d at 1 + T*D + d,
w_{e,d} at 1 + T*D + D + e*D + d. All rows are <= rows.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .oracle import beta_star, eval_gradient, evaluate
from .problem import BudgetError, QuadForm, SparsityBudget, check_feasible
from .simplex import BoxedLinearProgram, LPState, solve_boxed_lp

_INT_TOL = 1e-6


class ProblemSizeError(ValueError):
    """The master program's dense array would not fit in physical memory."""


def physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


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


@dataclass(frozen=True)
class SolveLimits:
    """Stopping controls for the tree search."""

    time_limit: float = 300.0
    gap_tol: float = 1e-6
    max_nodes: int | None = None


@dataclass
class SolveResult:
    status: str                    # optimal | time_limit | node_limit
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
    bound: float
    fix0: np.ndarray
    fix1: np.ndarray
    state: LPState | None = None  # the parent's final LP basis


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
        self._a = self._zero_rows(cap)
        self._b = np.zeros(cap)
        self.m = self.base_rows
        self._fill_base_rows()

        self.c = np.zeros(self.n_vars)
        self.c[0] = 1.0
        self.lower = np.zeros(self.n_vars)
        self.lower[0] = self.eta_lower
        self.upper = np.ones(self.n_vars)
        self.upper[0] = np.inf

        self.cuts: dict[bytes, Cut] = {}  # keyed by the anchor's bytes

    def _zero_rows(self, rows: int) -> np.ndarray:
        """A zero (rows, n_vars) array, refused before allocation if it cannot fit."""
        nbytes = rows * self.n_vars * np.dtype(np.float64).itemsize
        limit = physical_memory_bytes()
        if limit is not None and nbytes > limit:
            raise ProblemSizeError(
                f"the exact solver's master program needs a dense {rows} x "
                f"{self.n_vars} array ({nbytes / 2**30:.1f} GiB), more than the "
                f"{limit / 2**30:.1f} GiB of physical memory"
            )
        return np.zeros((rows, self.n_vars))

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
        return len(self.cuts)

    def known_cost(self, anchor: np.ndarray) -> float | None:
        cut = self.cuts.get(anchor.tobytes())
        return None if cut is None else cut.value

    def add_cut(self, anchor: np.ndarray, cost: float, gradient: np.ndarray) -> bool:
        """Append eta >= cost + gradient'(z - anchor), row-scaled to O(1)."""
        key = anchor.tobytes()
        if key in self.cuts:
            return False
        if self.m == self._a.shape[0]:
            grown_a = self._zero_rows(2 * self._a.shape[0])
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
        self.cuts[key] = Cut(
            anchor=anchor.astype(bool).copy(), value=cost,
            gradient=np.asarray(gradient, dtype=np.float64).copy(),
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
        ev = evaluate(qf, zb)
        mp.add_cut(zb, ev.cost, eval_gradient(qf, zb, ev.cache))
        incumbent = zb
        upper = ev.cost

    seq = 0
    root = _Node(
        seq=seq, bound=mp.eta_lower,
        fix0=np.zeros(td, dtype=bool), fix1=np.zeros(td, dtype=bool),
    )
    heap = [(root.bound, root.seq, root)]
    node_count = 0
    lower = mp.eta_lower
    status: str | None = None
    history: list[tuple[float, float, float]] = []

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

        start = node.state
        while True:  # lazy-evaluation loop on one node
            lp = mp.node_lp(node.fix0, node.fix1)
            res = solve_boxed_lp(lp, start=start)
            if res.status == "infeasible":
                break
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
                        seq=seq, bound=res.objective,
                        fix0=fix0, fix1=fix1, state=res.state,
                    )
                    heapq.heappush(heap, (child.bound, child.seq, child))
                break

    if status is None:
        # the heap ran dry: every subtree is resolved
        if incumbent is None:
            raise RuntimeError("search ended without an incumbent")
        status = "optimal"
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
        cuts=list(mp.cuts.values()),
    )
