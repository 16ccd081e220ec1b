"""Linear programs  min c'x  s.t.  A x <= b,  lower <= x <= upper  on HiGHS.

The one input is an `LPModel`, one HiGHS model built from costs and column
bounds, with rows appended in compressed form; nothing validates it, so a
program the caller leaves unbounded ends in a raise. The tree search keeps
one model per solve, adds cut rows and changes column bounds between node
LPs, and runs each through `solve_boxed_lp`. A start is the `state` of an
earlier result: its basis and the column and row counts it was made for;
rows added since enter basic. A start that the model still holds (a cut
re-solve, or a child right after its parent) is not set again, so HiGHS
keeps its factorization. A start with other columns or more rows is not
used (`warm` is False); a fresh model then starts from the slack basis. Optimal, infeasible and `time_limit` (at the model's deadline) are
the outcomes; any other HiGHS status raises. A model asks for one thread,
and for HiGHS's own choice when the process already runs HiGHS's shared
scheduler with another thread count.

scipy's HiGHS extension is loaded at the first model, through
`extensions.load`, without importing `scipy.optimize`.
"""

from __future__ import annotations

import time

import numpy as np

from .extensions import load

# HiGHS reads a bound of this size or more as infinite (its infinite_bound)
HIGHS_INFINITY = 1e20


def core():
    """scipy's HiGHS extension module; it is executed once per process."""
    return load("scipy.optimize._highspy._core")


class LPResult:
    """One run: its point, row duals y (c - A'y are the reduced costs) and basis."""

    __slots__ = ("status", "x", "objective", "iterations", "state", "warm", "duals")

    def __init__(self, status, x, objective, iterations, state, warm, duals=None):
        self.status = status          # optimal | infeasible | time_limit
        self.x = x
        self.objective = objective
        self.iterations = iterations  # HiGHS simplex iterations of this run
        self.state = state            # (final HiGHS basis, its column and row counts)
        self.warm = warm              # the given start was used
        self.duals = duals


class LPModel:
    """One HiGHS model; each run stops at `deadline`, a `time.perf_counter` value."""

    def __init__(self, c, lower, upper, deadline: float = np.inf):
        self._core = hc = core()
        self.highs = highs = hc._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
        highs.setOptionValue("threads", 1)
        self.n, self.m = c.size, 0
        self.deadline = deadline
        self._held = None  # the basis of the last run, which HiGHS still holds
        empty = np.zeros(0, dtype=np.int32)
        self._check(highs.addCols(self.n, c, lower, upper, 0, empty, empty, np.zeros(0)))

    def _check(self, status) -> None:
        if status == self._core.HighsStatus.kError:
            raise RuntimeError("HiGHS refused a change to the model")

    def add_rows(self, starts, index, value, upper) -> None:
        """Append rows in compressed form: row r holds entries starts[r]:starts[r+1]."""
        count = upper.size
        self._check(self.highs.addRows(
            count, np.full(count, -np.inf), upper, index.size, starts, index, value
        ))
        self.m += count

    def set_bounds(self, cols, lower, upper) -> None:
        self._check(self.highs.changeColsBounds(cols.size, cols, lower, upper))

    def _install(self, start) -> bool:
        basis, cols, rows = start
        extra = self.m - rows
        if cols != self.n or extra < 0:
            return False
        if extra:
            col_status, row_status = basis.col_status, basis.row_status
            basis = self._core.HighsBasis()
            basis.valid, basis.alien = True, False
            basis.col_status = col_status
            basis.row_status = row_status + [self._core.HighsBasisStatus.kBasic] * extra
        return self.highs.setBasis(basis) != self._core.HighsStatus.kError

    def solve(self, start=None) -> LPResult:
        highs, statuses = self.highs, self._core.HighsModelStatus
        warm = start is not None and (start is self._held or self._install(start))
        if self.deadline < np.inf:
            # HiGHS holds its limit against the run time summed over all runs
            left = max(self.deadline - time.perf_counter(), 0.0)
            highs.setOptionValue("time_limit", highs.getRunTime() + left)
        if (highs.run() == self._core.HighsStatus.kError
                and highs.getModelStatus() == statuses.kNotset):
            # the process-wide HiGHS scheduler was started by another user
            # (scipy's linprog, say) with another thread count; 0 accepts it
            highs.setOptionValue("threads", 0)
            highs.run()
        self._held = None
        status = highs.getModelStatus()
        iterations = highs.getInfoValue("simplex_iteration_count")[1]
        if status == statuses.kOptimal:
            solution = highs.getSolution()
            self._held = (highs.getBasis(), self.n, self.m)
            return LPResult(
                "optimal", np.array(solution.col_value), highs.getObjectiveValue(),
                iterations, self._held, warm, np.array(solution.row_dual),
            )
        if status == statuses.kInfeasible:
            return LPResult("infeasible", None, np.nan, iterations, None, warm)
        if status == statuses.kTimeLimit:
            return LPResult("time_limit", None, np.nan, iterations, None, warm)
        raise RuntimeError(f"HiGHS ended an LP with status {highs.modelStatusToString(status)!r}")


def solve_boxed_lp(model: LPModel, start=None) -> LPResult:
    """Solve `model` once from `start`; the master reaches HiGHS only through here."""
    return model.solve(start)
