"""Self-contained bounded-variable revised simplex, dense.

Solves   min c'x   s.t.  A x <= b,  lower <= x <= upper

by appending one slack per row and keeping an explicit basis inverse
(rank-one updates, periodic refactorization). Column numbering: structural
0..n-1, slacks n..n+m-1. This numbering stays private to this module.

Every lower bound must be finite, and so must the upper bound of every
column with a negative cost. Such a program is bounded, and its slack basis
is dual feasible once each structural variable sits at the bound its cost
prefers (the upper one for a negative cost): the reduced costs are then c
itself. So every solve takes one path. It installs a basis: the given start,
extended by any rows appended since (each enters with its slack basic), if
that basis is dual feasible, which holds after a tightened bound (a child
node) or an appended row (a new cut); the slack basis otherwise.
`LPResult.warm` says whether the start was used. A bounded dual simplex then
restores primal feasibility: the basic variable furthest outside its bounds
leaves, and a dual ratio test picks the column that enters, so a violated
row is just one more infeasible basic slack. No eligible column means the
program is infeasible.

The dual ratio test is Harris's: of the columns whose reduced cost reaches
zero within the dual tolerance of the first, it takes the largest pivot,
ties toward the lowest index. It never pivots on an entry that is tiny next
to the rest of its row, so a near-singular basis cannot be formed. But the
reduced cost of such a skipped column still moves by the dual step times
that entry, and a long step can leave it with the wrong sign. So a primal
simplex under Bland's rule runs last; it rarely has anything to do, and
then one or two pivots. All tie-breaks are index-ordered, so repeated
solves of the same data are bit-identical. The rank-one updates of the
inverse can still drift: if the final point leaves its box or rows beyond
round-off, the inverse is recomputed once and both phases go on from that
basis, and a point that still misses raises instead of coming back
"optimal".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-9
_DUAL_TOL = 1e-9
_REFACTOR_EVERY = 128
_CHECK_TOL = 1e-7  # times the data scale, like the feasibility tolerance


@dataclass(frozen=True)
class BoxedLinearProgram:
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "a", a)
        for name in ("c", "b", "lower", "upper"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.float64).ravel()
            )
        m, n = self.a.shape
        if self.c.size != n or self.lower.size != n or self.upper.size != n:
            raise ValueError("cost/bound lengths do not match column count")
        if self.b.size != m:
            raise ValueError("rhs length does not match row count")
        if not np.all(np.isfinite(self.lower)):
            raise ValueError("every variable needs a finite lower bound")
        if np.any(self.upper < self.lower):
            raise ValueError("upper < lower")
        if np.any((self.c < 0.0) & ~np.isfinite(self.upper)):
            raise ValueError(
                "a column with a negative cost needs a finite upper bound, "
                "or the program may be unbounded"
            )

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def m(self) -> int:
        return self.a.shape[0]


@dataclass
class LPState:
    basis: np.ndarray     # (m,) column indices, slacks numbered from n
    at_upper: np.ndarray  # (n + m,) nonbasic-at-upper flags


@dataclass
class LPResult:
    status: str           # optimal | infeasible
    x: np.ndarray | None
    objective: float
    iterations: int
    state: LPState | None
    warm: bool            # the given start was used, not the slack basis


class _Simplex:
    def __init__(self, lp: BoxedLinearProgram):
        self.a = lp.a
        self.b = lp.b
        self.n, self.m = lp.n, lp.m
        self.total = self.n + self.m
        self.lower = np.concatenate([lp.lower, np.zeros(self.m)])
        self.upper = np.concatenate([lp.upper, np.full(self.m, np.inf)])
        self.c = np.concatenate([lp.c, np.zeros(self.m)])
        self.scale = max(
            1.0,
            float(np.max(np.abs(self.b), initial=0.0)),
            float(np.max(np.abs(self.a), initial=0.0)),
        )
        self.feas_tol = 1e-9 * self.scale
        self.max_iter = 200 * self.total + 10_000
        self.basis: np.ndarray | None = None
        self.at_upper = np.zeros(self.total, dtype=bool)
        self.in_basis = np.zeros(self.total, dtype=bool)
        self.binv: np.ndarray | None = None
        self.x_b: np.ndarray | None = None
        self.iterations = 0

    # -- columns ----------------------------------------------------------

    def column(self, j: int) -> np.ndarray:
        if j < self.n:
            return self.a[:, j]
        col = np.zeros(self.m)
        col[j - self.n] = 1.0
        return col

    def basis_matrix(self) -> np.ndarray:
        bm = np.zeros((self.m, self.m))
        struct = self.basis < self.n
        bm[:, struct] = self.a[:, self.basis[struct]]
        pos = np.flatnonzero(~struct)
        bm[self.basis[pos] - self.n, pos] = 1.0
        return bm

    # -- state assembly ---------------------------------------------------

    def nonbasic_values(self) -> np.ndarray:
        vals = np.where(
            self.at_upper & np.isfinite(self.upper), self.upper, self.lower
        )
        vals[self.basis] = 0.0
        return vals

    def compute_x_b(self) -> np.ndarray:
        # nonbasic slacks sit at 0, so only structural columns contribute
        rhs = self.b - self.a @ self.nonbasic_values()[: self.n]
        return self.binv @ rhs

    def refactor(self) -> None:
        self.binv = np.linalg.inv(self.basis_matrix())
        self.x_b = self.compute_x_b()

    def install(self, basis: np.ndarray, at_upper: np.ndarray) -> None:
        self.basis = basis.astype(np.int64).copy()
        self.at_upper = at_upper.copy()
        self.at_upper[self.basis] = False
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.refactor()

    def slack_start(self) -> None:
        """Slack basis, each structural variable at the bound its cost prefers."""
        self.install(self.n + np.arange(self.m), self.c < 0.0)

    def warm_start(self, state: LPState) -> bool:
        """Install a previous solve's basis; report whether it is dual feasible.

        Rows appended since that solve enter with their slack basic.
        """
        old_m = state.basis.size
        if old_m > self.m or state.at_upper.size != self.n + old_m:
            return False
        basis = np.concatenate([state.basis, self.n + np.arange(old_m, self.m)])
        at_upper = np.zeros(self.total, dtype=bool)
        at_upper[: self.n + old_m] = state.at_upper
        at_upper &= np.isfinite(self.upper)
        try:
            self.install(basis, at_upper)
        except np.linalg.LinAlgError:
            return False
        return self.dual_feasible()

    def movable(self) -> np.ndarray:
        return (~self.in_basis) & (self.upper > self.lower)

    def dual_excess(self) -> np.ndarray:
        """How far each movable nonbasic reduced cost has the wrong sign."""
        d = self.reduced_costs()
        return np.where(self.movable(), np.where(self.at_upper, d, -d), 0.0)

    def dual_feasible(self) -> bool:
        return not np.any(self.dual_excess() > _DUAL_TOL)

    # -- phases -----------------------------------------------------------

    def reduced_costs(self) -> np.ndarray:
        y = self.c[self.basis] @ self.binv
        d = self.c.copy()
        d[: self.n] -= y @ self.a
        d[self.n :] -= y
        return d

    def pivot(self, pos: int, enter: int, alpha: np.ndarray, leave_at_upper: bool):
        """Swap column `enter` (alpha = binv @ its column) into basis slot `pos`.

        Basic values are the caller's to update.
        """
        leave = int(self.basis[pos])
        self.at_upper[leave] = leave_at_upper
        self.in_basis[leave] = False
        self.in_basis[enter] = True
        self.at_upper[enter] = False
        self.basis[pos] = enter
        piv = alpha[pos]
        row = self.binv[pos] / piv
        alpha = alpha.copy()
        alpha[pos] = piv - 1.0
        self.binv -= np.outer(alpha, row)

    def dual_phase(self) -> bool:
        """Bounded dual simplex from a dual feasible basis to a primal feasible one.

        Each step lets the basic variable furthest outside its bounds leave
        at the bound it violates; the entering column is the one whose
        reduced cost reaches zero first as that row's dual moves, so the
        reduced costs stay dual feasible. Returns False if a violated row
        has no column that can move it, which proves the program infeasible.
        """
        since_refactor = 0
        while True:
            lb = self.lower[self.basis]
            ub = self.upper[self.basis]
            below = lb - self.x_b
            above = self.x_b - ub
            excess = np.maximum(below, above)
            r = int(np.argmax(excess))
            if excess[r] <= self.feas_tol:
                return True
            if self.iterations >= self.max_iter:
                raise RuntimeError("simplex iteration limit exceeded")
            self.iterations += 1
            # the leaving variable must rise (sign 1) or fall (sign -1)
            sign = 1.0 if below[r] > 0.0 else -1.0
            y = self.binv[r]
            alpha_r = np.concatenate([y @ self.a, y])
            delta = np.where(self.at_upper, -1.0, 1.0)
            movable = self.movable()
            # rate at which x_b[r] moves toward its violated bound per unit step
            rate = -sign * delta * alpha_r
            row_max = float(np.max(np.abs(alpha_r[movable]), initial=0.0))
            eligible = movable & (rate > _PIVOT_TOL * max(1.0, row_max))
            if not np.any(eligible):
                return False
            # d * delta >= 0 on a dual feasible basis, up to round-off
            slack_d = np.maximum(self.reduced_costs() * delta, 0.0)
            # Harris's two passes: the step limit with each reduced cost
            # relaxed by the tolerance, then the largest pivot within it. Most
            # costs are zero, so plain ratios tie often, and the lowest index
            # among ties can be a tiny pivot that blows up binv.
            limit = np.min((slack_d[eligible] + _DUAL_TOL) / rate[eligible])
            near = eligible & (slack_d <= limit * rate)
            enter = int(np.argmax(np.where(near, rate, -np.inf)))

            alpha = self.binv @ self.column(enter)
            # signed move of the entering variable that puts x_b[r] on its bound
            step = (self.x_b[r] - (lb[r] if sign > 0 else ub[r])) / alpha[r]
            bound = self.upper if self.at_upper[enter] else self.lower
            enter_val = bound[enter] + step
            self.x_b = self.x_b - step * alpha
            self.x_b[r] = enter_val
            # the leaving variable lands on the bound it violated
            self.pivot(r, enter, alpha, leave_at_upper=sign < 0)

            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                self.refactor()
                since_refactor = 0

    def primal_phase(self) -> None:
        """Primal simplex from a primal feasible basis to an optimal one.

        Bland's rule: the lowest-indexed column whose reduced cost has the
        wrong sign enters, and of the rows that block together the one with
        the lowest basic column leaves, so degenerate steps cannot cycle.
        """
        since_refactor = 0
        while True:
            wrong = np.flatnonzero(self.dual_excess() > _DUAL_TOL)
            if wrong.size == 0:
                return
            if self.iterations >= self.max_iter:
                raise RuntimeError("simplex iteration limit exceeded")
            self.iterations += 1
            enter = int(wrong[0])
            alpha = self.binv @ self.column(enter)
            # basic values travel x_b - theta * move; a pivot must be large
            # next to the column's largest entry, or the basis goes singular
            move = -alpha if self.at_upper[enter] else alpha
            piv_tol = _PIVOT_TOL * max(1.0, float(np.max(np.abs(move), initial=0.0)))
            fall, rise = move > piv_tol, move < -piv_tol
            limit = np.full(self.m, np.inf)
            limit[fall] = (self.x_b - self.lower[self.basis])[fall] / move[fall]
            limit[rise] = (self.x_b - self.upper[self.basis])[rise] / move[rise]
            theta = self.upper[enter] - self.lower[enter]  # bound-flip distance
            first = float(np.min(limit, initial=np.inf))
            leave_pos = -1
            if first < theta - 1e-12:
                ties = np.flatnonzero(limit < first + 1e-12)
                leave_pos = int(ties[np.argmin(self.basis[ties])])
                theta = limit[leave_pos]
            if not np.isfinite(theta):
                # an improving ray, which the input check rules out
                raise RuntimeError("simplex found no step limit in a bounded program")
            theta = max(theta, 0.0)
            self.x_b = self.x_b - theta * move
            if leave_pos < 0:
                # the entering variable runs to its other bound
                self.at_upper[enter] = not self.at_upper[enter]
                continue
            self.x_b[leave_pos] = (
                self.upper[enter] - theta if self.at_upper[enter]
                else self.lower[enter] + theta
            )
            # the leaving variable lands on the bound that blocked
            self.pivot(leave_pos, enter, alpha, bool(move[leave_pos] < 0))

            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                self.refactor()
                since_refactor = 0

    # -- result -----------------------------------------------------------

    def assemble(self) -> np.ndarray:
        x = np.where(self.at_upper & np.isfinite(self.upper), self.upper, self.lower)
        x[self.basis] = self.x_b
        return x[: self.n]

    def violation(self, x: np.ndarray) -> str | None:
        """Where x leaves its box or breaks a row beyond round-off, if it does."""
        n = self.n
        excess = np.concatenate(
            [self.lower[:n] - x, x - self.upper[:n], self.a @ x - self.b]
        )
        worst = int(np.argmax(excess))
        if excess[worst] <= _CHECK_TOL * self.scale:
            return None
        if worst < n:
            where = f"x[{worst}] below its lower bound"
        elif worst < 2 * n:
            where = f"x[{worst - n}] above its upper bound"
        else:
            where = f"row {worst - 2 * n}"
        return f"{where} by {excess[worst]:.3g}"


def solve_boxed_lp(lp: BoxedLinearProgram, start: LPState | None = None) -> LPResult:
    sx = _Simplex(lp)
    warm = start is not None and sx.warm_start(start)
    if not warm:
        sx.slack_start()
    repaired = False
    while True:
        if not sx.dual_phase():
            return LPResult("infeasible", None, np.nan, sx.iterations, None, warm)
        sx.primal_phase()
        x = sx.assemble()
        where = sx.violation(x)
        if where is None:
            break
        if repaired:
            raise RuntimeError(f"simplex reached an infeasible point: {where}")
        # the updated inverse has drifted: recompute it and go on from here
        sx.refactor()
        repaired = True
    state = LPState(basis=sx.basis.copy(), at_upper=sx.at_upper.copy())
    return LPResult("optimal", x, float(lp.c @ x), sx.iterations, state, warm)
