"""Self-contained bounded-variable revised simplex, dense.

Solves   min c'x   s.t.  A x <= b,  lower <= x <= upper

by appending one slack per row and keeping an explicit basis inverse
(rank-one updates, periodic refactorization). Column numbering: structural
0..n-1, slacks n..n+m-1, artificials n+m..n+2m-1 (artificial i carries column
-e_i so it starts basic and positive on a violated row). This numbering stays
private to this module.

There are two ways in. A cold solve starts from the slack basis, with an
artificial on every row the lower-bound point violates, and runs a two-phase
primal simplex. A warm solve installs a previous solve's LPState, extended by
any rows appended since (each enters with its slack basic; the artificials
stay locked at zero). If that basis is primal feasible, primal phase 2 runs
from it. If it is not but its reduced costs are still dual feasible, which
holds after a tightened bound (a child node) or an appended row (a new cut),
a bounded dual simplex restores primal feasibility first: the basic variable
furthest outside its bounds leaves, and a dual ratio test picks the column
that enters, so a violated cut row is just one more infeasible basic slack.
No eligible column means the program is infeasible. A basis that is neither
primal nor dual feasible is dropped for the slack start. `LPResult.warm`
says which way a solve went.

Primal pricing is Dantzig's rule with ties broken toward the lowest column
index, switching to Bland's rule once the degenerate-step count passes 10x
the column count; the dual ratio test also breaks ties toward the lowest
index. All tie-breaks are index-ordered, so repeated solves of the same data
are bit-identical. Both ratio tests only pivot on entries that are large
relative to the rest of their column or row, so a near-singular basis cannot
be formed, and a point that ends up outside its box or rows raises instead
of coming back "optimal".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-9
_DUAL_TOL = 1e-9
_DEG_STEP = 1e-11
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

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def m(self) -> int:
        return self.a.shape[0]


@dataclass
class LPState:
    basis: np.ndarray     # (m,) extended column indices
    at_upper: np.ndarray  # (n + 2m,) nonbasic-at-upper flags


@dataclass
class LPResult:
    status: str           # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float
    iterations: int
    state: LPState | None
    warm: bool            # the given start was used, not the slack basis


def slack_index(n: int, row: int) -> int:
    return n + row


def artificial_index(n: int, m: int, row: int) -> int:
    return n + m + row


class _Simplex:
    def __init__(self, lp: BoxedLinearProgram):
        self.a = lp.a
        self.b = lp.b
        self.n, self.m = lp.n, lp.m
        total = self.n + 2 * self.m
        self.lower = np.concatenate(
            [lp.lower, np.zeros(self.m), np.zeros(self.m)]
        )
        # artificials stay locked at zero unless the slack start opens them
        self.upper = np.concatenate(
            [lp.upper, np.full(self.m, np.inf), np.zeros(self.m)]
        )
        self.c_real = np.concatenate([lp.c, np.zeros(2 * self.m)])
        self.total = total
        scale = max(
            1.0,
            float(np.max(np.abs(self.b), initial=0.0)),
            float(np.max(np.abs(self.a), initial=0.0)),
        )
        self.scale = scale
        self.feas_tol = 1e-9 * scale
        self.max_iter = 200 * (self.n + self.m) + 10_000
        self.basis: np.ndarray | None = None
        self.at_upper = np.zeros(total, dtype=bool)
        self.in_basis = np.zeros(total, dtype=bool)
        # artificials only ever appear basic (via a start basis); pricing
        # must never bring one in, or it would act as a surplus column
        self.never_enter = np.zeros(total, dtype=bool)
        self.never_enter[self.n + self.m :] = True
        self.binv: np.ndarray | None = None
        self.x_b: np.ndarray | None = None
        self.iterations = 0
        self.degenerate = 0

    # -- columns ----------------------------------------------------------

    def column(self, j: int) -> np.ndarray:
        if j < self.n:
            return self.a[:, j]
        col = np.zeros(self.m)
        if j < self.n + self.m:
            col[j - self.n] = 1.0
        else:
            col[j - self.n - self.m] = -1.0
        return col

    def basis_matrix(self) -> np.ndarray:
        n, m = self.n, self.m
        bm = np.zeros((m, m))
        struct = self.basis < n
        bm[:, struct] = self.a[:, self.basis[struct]]
        pos = np.flatnonzero(~struct)
        j = self.basis[pos]
        slack = j < n + m
        bm[np.where(slack, j - n, j - n - m), pos] = np.where(slack, 1.0, -1.0)
        return bm

    # -- state assembly ---------------------------------------------------

    def nonbasic_values(self) -> np.ndarray:
        vals = np.where(
            self.at_upper & np.isfinite(self.upper), self.upper, self.lower
        )
        vals[self.basis] = 0.0
        return vals

    def compute_x_b(self) -> np.ndarray:
        vals = self.nonbasic_values()
        rhs = self.b - self.a @ vals[: self.n]
        # nonbasic slacks sit at 0 and killed artificials at 0, so only
        # structural columns contribute
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
        n, m = self.n, self.m
        self.upper[n + m :] = np.inf
        self.at_upper = np.zeros(self.total, dtype=bool)
        vals_struct = self.lower[:n]
        r = self.b - self.a @ vals_struct
        basis = np.empty(m, dtype=np.int64)
        for i in range(m):
            basis[i] = slack_index(n, i) if r[i] >= 0.0 else artificial_index(n, m, i)
        self.basis = basis
        self.in_basis[:] = False
        self.in_basis[basis] = True
        # the slack/artificial start basis is diagonal with entries +-1
        sign = np.where(r >= 0.0, 1.0, -1.0)
        self.binv = np.diag(sign)
        self.x_b = r * sign

    def warm_start(self, state: LPState) -> bool:
        """Install a previous solve's basis; report whether it can be used.

        Rows appended since that solve enter with their slack basic, and the
        artificial indices of the old rows shift past them. The basis is
        usable if it is primal feasible, or dual feasible for the dual phase.
        """
        old_m = state.basis.size
        added = self.m - old_m
        if added < 0 or state.at_upper.size != self.n + 2 * old_m:
            return False
        basis = state.basis.copy()
        basis[basis >= self.n + old_m] += added
        new_slacks = self.n + np.arange(old_m, self.m)
        basis = np.concatenate([basis, new_slacks])
        at_upper = np.zeros(self.total, dtype=bool)
        at_upper[: self.n + old_m] = state.at_upper[: self.n + old_m]
        at_upper &= np.isfinite(self.upper)
        try:
            self.install(basis, at_upper)
        except np.linalg.LinAlgError:
            return False
        return self.feasible_now() or self.dual_feasible()

    def feasible_now(self) -> bool:
        lb = self.lower[self.basis]
        ub = self.upper[self.basis]
        return bool(
            np.all(self.x_b >= lb - self.feas_tol)
            and np.all(self.x_b <= ub + self.feas_tol)
        )

    def movable(self) -> np.ndarray:
        return (~self.in_basis) & (self.upper > self.lower) & ~self.never_enter

    def dual_feasible(self) -> bool:
        d = self.reduced_costs(self.c_real)
        viol = np.where(self.at_upper, d, -d)
        return not np.any(self.movable() & (viol > _DUAL_TOL))

    # -- core loop --------------------------------------------------------

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        y = cost[self.basis] @ self.binv
        d = np.empty(self.total)
        d[: self.n] = cost[: self.n] - y @ self.a
        d[self.n : self.n + self.m] = cost[self.n : self.n + self.m] - y
        d[self.n + self.m :] = cost[self.n + self.m :] + y
        return d

    def run(self, cost: np.ndarray) -> str:
        bland = False
        since_refactor = 0
        while True:
            if self.iterations >= self.max_iter:
                raise RuntimeError("simplex iteration limit exceeded")
            d = self.reduced_costs(cost)
            viol = np.where(self.at_upper, d, -d)
            candidates = self.movable() & (viol > _DUAL_TOL)
            if not np.any(candidates):
                return "optimal"
            if bland:
                enter = int(np.flatnonzero(candidates)[0])
            else:
                masked = np.where(candidates, viol, -np.inf)
                enter = int(np.argmax(masked))
            self.iterations += 1

            alpha = self.binv @ self.column(enter)
            delta = -1.0 if self.at_upper[enter] else 1.0
            move = delta * alpha
            # basic values travel x_b - theta * move; a pivot must be large
            # next to the column's largest entry, or the basis goes singular
            piv_tol = _PIVOT_TOL * max(1.0, float(np.max(np.abs(move), initial=0.0)))
            theta = self.upper[enter] - self.lower[enter]  # bound-flip distance
            leave_pos = -1
            lb = self.lower[self.basis]
            ub = self.upper[self.basis]
            for i in range(self.m):
                mi = move[i]
                if mi > piv_tol:
                    limit = (self.x_b[i] - lb[i]) / mi
                elif mi < -piv_tol:
                    if not np.isfinite(ub[i]):
                        continue
                    limit = (self.x_b[i] - ub[i]) / mi
                else:
                    continue
                if limit < theta - 1e-12 or (
                    limit < theta + 1e-12
                    and leave_pos >= 0
                    and self.basis[i] < self.basis[leave_pos]
                ):
                    theta = limit
                    leave_pos = i
            if not np.isfinite(theta):
                return "unbounded"
            theta = max(theta, 0.0)
            if theta < _DEG_STEP:
                self.degenerate += 1
                if self.degenerate > 10 * self.total:
                    bland = True

            if leave_pos < 0:
                # entering variable runs to its opposite bound
                self.x_b = self.x_b - theta * move
                self.at_upper[enter] = not self.at_upper[enter]
                continue

            leave = int(self.basis[leave_pos])
            enter_val = (
                self.upper[enter] - theta if self.at_upper[enter]
                else self.lower[enter] + theta
            )
            self.x_b = self.x_b - theta * move
            self.x_b[leave_pos] = enter_val
            # leaving variable lands on the bound that blocked
            self.pivot(leave_pos, enter, alpha, bool(move[leave_pos] < 0))
            if leave >= self.n + self.m:
                # artificials never come back
                self.lower[leave] = 0.0
                self.upper[leave] = 0.0
                self.at_upper[leave] = False

            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                self.refactor()
                since_refactor = 0

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

    def dual_phase(self) -> str:
        """Bounded dual simplex from a dual feasible basis to a primal feasible one.

        Each step lets the basic variable furthest outside its bounds leave
        at the bound it violates; the entering column is the one whose
        reduced cost reaches zero first as that row's dual moves, so the
        reduced costs stay dual feasible.
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
                return "feasible"
            if self.iterations >= self.max_iter:
                raise RuntimeError("simplex iteration limit exceeded")
            self.iterations += 1
            # the leaving variable must rise (sign 1) or fall (sign -1)
            sign = 1.0 if below[r] > 0.0 else -1.0
            y = self.binv[r]
            alpha_r = np.concatenate([y @ self.a, y, -y])
            delta = np.where(self.at_upper, -1.0, 1.0)
            movable = self.movable()
            # rate at which x_b[r] moves toward its violated bound per unit step
            rate = -sign * delta * alpha_r
            row_max = float(np.max(np.abs(alpha_r[movable]), initial=0.0))
            eligible = movable & (rate > _PIVOT_TOL * max(1.0, row_max))
            if not np.any(eligible):
                return "infeasible"
            # d * delta >= 0 on a dual feasible basis, up to round-off
            slack_d = np.maximum(self.reduced_costs(self.c_real) * delta, 0.0)
            ratio = np.full(self.total, np.inf)
            ratio[eligible] = slack_d[eligible] / rate[eligible]
            enter = int(np.argmin(ratio))  # ties go to the lowest index

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

    # -- phases -----------------------------------------------------------

    def phase_one(self) -> str:
        art = self.basis >= self.n + self.m
        if not np.any(art):
            return "feasible"
        cost = np.zeros(self.total)
        cost[self.n + self.m :] = 1.0
        status = self.run(cost)
        assert status == "optimal", "phase 1 cannot be unbounded"
        art_pos = np.flatnonzero(self.basis >= self.n + self.m)
        infeas = sum(float(self.x_b[i]) for i in art_pos)
        if infeas > max(self.feas_tol, 1e-7):
            return "infeasible"
        # pivot residual artificials out where a real column can replace them
        for i in list(art_pos):
            if self.basis[i] < self.n + self.m:
                continue
            pivoted = False
            for j in range(self.n + self.m):
                if self.in_basis[j] or self.upper[j] <= self.lower[j]:
                    continue
                aj = float(self.binv[i] @ self.column(j))
                if abs(aj) > 1e-7:
                    self._replace_basic(i, j)
                    pivoted = True
                    break
            if not pivoted:
                # dependent row: freeze the artificial at zero in the basis
                self.lower[self.basis[i]] = 0.0
                self.upper[self.basis[i]] = 0.0
        # lock every artificial out of future pricing
        self.lower[self.n + self.m :] = 0.0
        self.upper[self.n + self.m :] = 0.0
        return "feasible"

    def _replace_basic(self, pos: int, j: int) -> None:
        self.pivot(pos, j, self.binv @ self.column(j), False)
        self.x_b = self.compute_x_b()

    def assemble(self) -> np.ndarray:
        x = np.where(self.at_upper & np.isfinite(self.upper), self.upper, self.lower)
        x[self.basis] = self.x_b
        return x[: self.n]

    def check(self, x: np.ndarray) -> None:
        """Raise if x leaves its box or breaks a row beyond round-off."""
        n = self.n
        excess = np.concatenate(
            [self.lower[:n] - x, x - self.upper[:n], self.a @ x - self.b]
        )
        worst = int(np.argmax(excess))
        if excess[worst] <= _CHECK_TOL * self.scale:
            return
        if worst < n:
            where = f"x[{worst}] below its lower bound"
        elif worst < 2 * n:
            where = f"x[{worst - n}] above its upper bound"
        else:
            where = f"row {worst - 2 * n}"
        raise RuntimeError(
            f"simplex reached an infeasible point: {where} by {excess[worst]:.3g}"
        )


def solve_boxed_lp(lp: BoxedLinearProgram, start: LPState | None = None) -> LPResult:
    sx = _Simplex(lp)
    warm = start is not None and sx.warm_start(start)
    if warm:
        status = sx.dual_phase()
    else:
        sx.slack_start()
        if not sx.feasible_now():
            # only artificial rows can be out of bounds at the slack start
            raise RuntimeError("slack start produced an infeasible basis")
        status = sx.phase_one()
    if status == "infeasible":
        return LPResult("infeasible", None, np.nan, sx.iterations, None, warm)

    if sx.run(sx.c_real) == "unbounded":
        return LPResult("unbounded", None, np.nan, sx.iterations, None, warm)
    x = sx.assemble()
    sx.check(x)
    state = LPState(basis=sx.basis.copy(), at_upper=sx.at_upper.copy())
    return LPResult("optimal", x, float(lp.c @ x), sx.iterations, state, warm)
