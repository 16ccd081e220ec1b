"""Boxed linear programs on HiGHS, checked against KKT conditions in numpy.

`linprog(method="highs")` runs the same solver, so it only confirms the
status and the optimal value; optimality itself is checked independently from
the returned point and row duals.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import slowreg
from slowreg.highs import LPModel, core, solve_boxed_lp

STATUS_FROM_SCIPY = {0: "optimal", 2: "infeasible"}
KKT_TOL = 1e-7


def reference_solve(lp):
    bounds = [
        (lo, None if np.isinf(hi) else hi) for lo, hi in zip(lp.lower, lp.upper)
    ]
    return linprog(lp.c, A_ub=lp.a, b_ub=lp.b, bounds=bounds, method="highs")


class DenseLP:
    """min c'x  s.t.  a x <= b,  lower <= x <= upper  as dense arrays."""

    def __init__(self, c, a, b, lower, upper):
        self.a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        self.c, self.b, self.lower, self.upper = (
            np.asarray(v, dtype=np.float64).ravel() for v in (c, b, lower, upper)
        )
        self.m, self.n = self.a.shape


def model_of(lp):
    """A fresh HiGHS model of `lp`, its rows passed in compressed form."""
    model = LPModel(lp.c, lp.lower, lp.upper)
    rows, cols = np.nonzero(lp.a)
    starts = np.searchsorted(rows, np.arange(lp.m)).astype(np.int32)
    model.add_rows(starts, cols.astype(np.int32), lp.a[rows, cols], lp.b)
    return model


def assert_feasible(lp, x, tol=1e-7):
    assert np.all(lp.a @ x <= lp.b + tol)
    assert np.all(x >= lp.lower - 1e-9)
    assert np.all(x[np.isfinite(lp.upper)] <= lp.upper[np.isfinite(lp.upper)] + 1e-9)


def assert_kkt(lp, res, tol=KKT_TOL):
    """x is feasible, the row duals y <= 0 are complementary to the row slacks,
    and the reduced costs c - A'y have the sign of the bound each column sits on."""
    x, y = res.x, res.duals
    assert_feasible(lp, x)
    scale = max(1.0, float(np.max(np.abs(lp.a))), float(np.max(np.abs(lp.c))))
    assert np.all(y <= tol * scale)
    assert np.all(np.abs(y * (lp.b - lp.a @ x)) <= tol * scale * max(1.0, np.max(np.abs(x))))
    d = lp.c - lp.a.T @ y
    above_lower = x > lp.lower + 1e-9
    below_upper = x < lp.upper - 1e-9
    assert np.all(d[above_lower] <= tol * scale)   # could fall: must not pay to
    assert np.all(d[below_upper] >= -tol * scale)  # could rise: must not pay to


def basis_of(statuses):
    """A start from (column statuses, row statuses)."""
    hc = core()
    basis = hc.HighsBasis()
    basis.valid = True
    basis.col_status, basis.row_status = statuses
    return basis, len(statuses[0]), len(statuses[1])


def basic_columns(state):
    basic = core().HighsBasisStatus.kBasic
    basis, _, _ = state
    return [j for j, status in enumerate(basis.col_status) if status == basic]


def random_lp(rng, force_feasible):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 8))
    a = rng.normal(size=(m, n))
    lower = rng.uniform(-2.0, 0.0, size=n)
    upper = lower + rng.uniform(0.0, 3.0, size=n)
    upper[rng.random(n) < 0.25] = np.inf
    fixed = rng.random(n) < 0.15
    upper[fixed] = lower[fixed]
    x0 = np.where(np.isfinite(upper), 0.5 * (lower + upper), lower + 0.5)
    if force_feasible:
        b = a @ x0 + rng.uniform(0.0, 2.0, size=m)
    else:
        b = a @ x0 + rng.uniform(-3.0, 2.0, size=m)
    c = rng.normal(size=n)
    # a column without an upper bound must not pay to grow
    c[np.isinf(upper)] = np.abs(c[np.isinf(upper)])
    return DenseLP(c=c, a=a, b=b, lower=lower, upper=upper)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_feasible(self, seed):
        lp = random_lp(np.random.default_rng(seed), force_feasible=True)
        res = solve_boxed_lp(model_of(lp))
        ref = reference_solve(lp)
        assert res.status == STATUS_FROM_SCIPY[ref.status]
        if res.status == "optimal":
            assert_kkt(lp, res)
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            assert res.objective == pytest.approx(float(lp.c @ res.x), abs=1e-10)

    @pytest.mark.parametrize("seed", range(40, 80))
    def test_random_mixed_status(self, seed):
        lp = random_lp(np.random.default_rng(seed), force_feasible=False)
        res = solve_boxed_lp(model_of(lp))
        ref = reference_solve(lp)
        assert res.status == STATUS_FROM_SCIPY[ref.status]
        if res.status == "optimal":
            assert_kkt(lp, res)
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)

    def test_larger_instance(self):
        rng = np.random.default_rng(7)
        n, m = 40, 30
        a = rng.normal(size=(m, n))
        lower = np.zeros(n)
        upper = np.full(n, 2.0)
        x0 = rng.uniform(0.0, 1.0, size=n)
        b = a @ x0 + rng.uniform(0.0, 1.0, size=m)
        c = rng.normal(size=n)
        lp = DenseLP(c=c, a=a, b=b, lower=lower, upper=upper)
        res = solve_boxed_lp(model_of(lp))
        ref = reference_solve(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-6)
        assert_kkt(lp, res)


class TestHandCases:
    def test_simple_vertex(self):
        lp = DenseLP(
            c=[-1.0, -1.0],
            a=[[1.0, 1.0]],
            b=[1.0],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
        )
        res = solve_boxed_lp(model_of(lp))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0, abs=1e-12)

    def test_dual_cold_start_repairs_violated_row(self):
        # second row is violated at the slack basis, which the solve repairs
        lp = DenseLP(
            c=[1.0, 2.0],
            a=[[1.0, 1.0], [-1.0, -1.0]],
            b=[1.0, -1.0],
            lower=[0.0, 0.0],
            upper=[5.0, 5.0],
        )
        res = solve_boxed_lp(model_of(lp))
        assert res.status == "optimal"
        # x must sit on the segment x0 + x1 = 1; cheapest is (1, 0)
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_zero_cost_tie_gives_a_feasible_optimum(self):
        # both columns are free of cost, so every feasible point is optimal;
        # the one returned may sit on the 1e-6 entry (x0 = 5e5) but must meet
        # the row and the box
        lp = DenseLP(
            c=[0.0, 0.0],
            a=[[-1e-6, -1.0]],
            b=[-0.5],
            lower=[0.0, 0.0],
            upper=[1e6, 1e6],
        )
        res = solve_boxed_lp(model_of(lp))
        assert res.status == "optimal"
        assert res.objective == 0.0
        assert_kkt(lp, res)

    def test_infeasible_rows(self):
        lp = DenseLP(
            c=[0.0],
            a=[[1.0], [-1.0]],
            b=[1.0, -3.0],
            lower=[0.0],
            upper=[2.0],
        )
        res = solve_boxed_lp(model_of(lp))
        assert res.status == "infeasible"
        assert res.x is None

    @pytest.mark.parametrize("seed", range(20))
    def test_slack_start_is_dual_feasible(self, seed):
        # random_lp guarantees a dual feasible start: every slack basic
        # (y = 0, so the reduced costs are c) and each column at the bound its
        # cost prefers, which is finite; the solve accepts it as a start
        lp = random_lp(np.random.default_rng(seed), force_feasible=False)
        at_upper = lp.c < 0.0
        assert np.all(np.isfinite(lp.upper[at_upper]))
        hc = core()
        status = hc.HighsBasisStatus
        start = basis_of((
            [status.kUpper if up else status.kLower for up in at_upper],
            [status.kBasic] * lp.m,
        ))
        res = solve_boxed_lp(model_of(lp), start=start)
        ref = reference_solve(lp)
        assert res.warm
        assert res.status == STATUS_FROM_SCIPY[ref.status]
        if res.status == "optimal":
            assert_kkt(lp, res)
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)

    def test_bound_flip_only(self):
        # no row ever binds; optimum is a pure bound flip to the upper bound
        lp = DenseLP(
            c=[-1.0, 1.0],
            a=[[1.0, 1.0]],
            b=[100.0],
            lower=[0.0, 0.0],
            upper=[3.0, 3.0],
        )
        res = solve_boxed_lp(model_of(lp))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-3.0, abs=1e-12)
        assert res.x == pytest.approx([3.0, 0.0], abs=1e-12)

    def test_fixed_variables(self):
        lp = DenseLP(
            c=[-1.0, -1.0, -1.0],
            a=[[1.0, 1.0, 1.0]],
            b=[2.0],
            lower=[0.5, 0.0, 0.0],
            upper=[0.5, 1.0, 1.0],
        )
        res = solve_boxed_lp(model_of(lp))
        ref = reference_solve(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-9)
        assert res.x[0] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_duplicated_rows(self):
        lp = DenseLP(
            c=[-1.0, -1.0],
            a=[[1.0, 1.0]] * 4 + [[1.0, 0.0], [0.0, 1.0]],
            b=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            lower=[0.0, 0.0],
            upper=[2.0, 2.0],
        )
        res = solve_boxed_lp(model_of(lp))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0, abs=1e-9)

    def test_classic_degenerate_cycling_data(self):
        # data known to cycle under naive most-negative pricing
        lp = DenseLP(
            c=[-0.75, 150.0, -0.02, 6.0],
            a=[
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            b=[0.0, 0.0, 1.0],
            lower=[0.0, 0.0, 0.0, 0.0],
            upper=[10.0, np.inf, 10.0, np.inf],
        )
        res = solve_boxed_lp(model_of(lp))
        ref = reference_solve(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-9)

    def test_negative_lower_bounds(self):
        lp = DenseLP(
            c=[1.0, 1.0],
            a=[[1.0, 0.0]],
            b=[3.0],
            lower=[-5.0, -2.0],
            upper=[5.0, 2.0],
        )
        res = solve_boxed_lp(model_of(lp))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-7.0, abs=1e-12)


class TestWarmStarts:
    @pytest.mark.parametrize("seed", range(10))
    def test_restart_after_cost_change(self, seed):
        rng = np.random.default_rng(100 + seed)
        lp = random_lp(rng, force_feasible=True)
        first = solve_boxed_lp(model_of(lp))
        lp2 = DenseLP(
            c=lp.c + 0.1 * rng.normal(size=lp.n),
            a=lp.a,
            b=lp.b,
            lower=lp.lower,
            upper=lp.upper,
        )
        warm = solve_boxed_lp(model_of(lp2), start=first.state)
        cold = solve_boxed_lp(model_of(lp2))
        ref = reference_solve(lp2)
        assert warm.status == cold.status == STATUS_FROM_SCIPY[ref.status]
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(ref.fun, abs=1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_appended_violated_row(self, seed):
        rng = np.random.default_rng(200 + seed)
        lp = random_lp(rng, force_feasible=True)
        first = solve_boxed_lp(model_of(lp))
        row = rng.normal(size=lp.n)
        rhs = float(row @ first.x) - 1.0  # cuts off the old optimum
        lp2 = DenseLP(
            c=lp.c,
            a=np.vstack([lp.a, row]),
            b=np.append(lp.b, rhs),
            lower=lp.lower,
            upper=lp.upper,
        )
        # the shorter state is extended by the new row, which enters with its
        # violated slack basic
        warm = solve_boxed_lp(model_of(lp2), start=first.state)
        cold = solve_boxed_lp(model_of(lp2))
        assert warm.warm
        ref = reference_solve(lp2)
        assert warm.status == cold.status == STATUS_FROM_SCIPY[ref.status]
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(ref.fun, abs=1e-7)
            assert_kkt(lp2, warm)

    def test_appended_satisfied_row(self):
        rng = np.random.default_rng(301)
        lp = random_lp(rng, force_feasible=True)
        first = solve_boxed_lp(model_of(lp))
        assert first.status == "optimal"
        row = rng.normal(size=lp.n)
        rhs = float(row @ first.x) + 1.0  # loose at the old optimum
        lp2 = DenseLP(
            c=lp.c,
            a=np.vstack([lp.a, row]),
            b=np.append(lp.b, rhs),
            lower=lp.lower,
            upper=lp.upper,
        )
        warm = solve_boxed_lp(model_of(lp2), start=first.state)
        assert warm.warm
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(first.objective, abs=1e-8)
        # the old optimum still satisfies the new row, so no pivots needed
        assert warm.iterations == 0

    def test_out_of_box_basis_is_repaired_warm(self):
        lp = DenseLP(
            c=[-1.0, -1.0],
            a=[[1.0, 1.0]],
            b=[1.0],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
        )
        res = solve_boxed_lp(model_of(lp))
        assert res.status == "optimal"
        # shrink the box so the stored basis is no longer within bounds; its
        # reduced costs are unchanged, so the dual simplex takes it from there
        lp2 = DenseLP(
            c=lp.c, a=lp.a, b=lp.b, lower=[0.0, 0.0], upper=[0.25, 0.25]
        )
        warm = solve_boxed_lp(model_of(lp2), start=res.state)
        assert warm.warm
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(-0.5, abs=1e-12)


def branched(lp, x, j, side):
    """lp with x_j bounded to its floor (side 0) or ceiling (side 1), as branching does."""
    lower, upper = lp.lower.copy(), lp.upper.copy()
    if side == 0:
        upper[j] = max(np.floor(x[j]), lower[j])
    else:
        lower[j] = min(np.ceil(x[j]), upper[j])
    return DenseLP(c=lp.c, a=lp.a, b=lp.b, lower=lower, upper=upper)


def branch_children(seed):
    """(parent result, child program) for every basic fractional variable of a draw."""
    lp = random_lp(np.random.default_rng(seed), force_feasible=True)
    first = solve_boxed_lp(model_of(lp))
    if first.status != "optimal":
        return []
    frac = [
        j for j in basic_columns(first.state)
        if abs(first.x[j] - np.round(first.x[j])) > 1e-6
    ]
    return [(first, branched(lp, first.x, j, side)) for j in frac for side in (0, 1)]


class TestDualWarmStart:
    @pytest.mark.parametrize("seed", range(400, 430))
    def test_branched_child_matches_reference(self, seed):
        for first, child in branch_children(seed):
            warm = solve_boxed_lp(model_of(child), start=first.state)
            cold = solve_boxed_lp(model_of(child))
            ref = reference_solve(child)
            assert warm.warm and not cold.warm
            assert warm.status == cold.status == STATUS_FROM_SCIPY[ref.status]
            if warm.status == "optimal":
                assert_kkt(child, warm)
                assert warm.objective == pytest.approx(ref.fun, abs=1e-7)
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            else:
                assert warm.x is None and warm.state is None

    def test_draws_cover_feasible_and_infeasible_children(self):
        statuses = [
            solve_boxed_lp(model_of(child), start=first.state).status
            for seed in range(400, 430)
            for first, child in branch_children(seed)
        ]
        assert statuses.count("optimal") >= 20
        assert statuses.count("infeasible") >= 5

    def test_infeasible_branch(self):
        # x0 + x1 >= 1.5 in the unit box; x1 <= 0 leaves no room for x0
        lp = DenseLP(
            c=[1.0, 1.0], a=[[-1.0, -1.0]], b=[-1.5],
            lower=[0.0, 0.0], upper=[1.0, 1.0],
        )
        first = solve_boxed_lp(model_of(lp))
        assert first.status == "optimal"
        j = int(np.argmax(np.abs(first.x - np.round(first.x))))
        assert first.x[j] == pytest.approx(0.5)
        child = branched(lp, first.x, j, side=0)
        res = solve_boxed_lp(model_of(child), start=first.state)
        assert res.warm
        assert res.status == "infeasible"
        assert res.x is None

    def test_unusable_start_falls_back_to_slack_basis(self):
        # a basis of another program, with more rows than this one or with
        # another column count
        lp = DenseLP(
            c=[-1.0, -1.0], a=[[1.0, 1.0], [1.0, 0.0]], b=[1.0, 0.75],
            lower=[0.0, 0.0], upper=[1.0, 1.0],
        )
        first = solve_boxed_lp(model_of(lp))
        fewer_rows = DenseLP(
            c=[1.0, 1.0], a=lp.a[:1], b=lp.b[:1], lower=[0.0, 0.0], upper=[0.25, 0.25]
        )
        more_columns = DenseLP(
            c=[1.0, 1.0, 1.0], a=[[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]], b=lp.b,
            lower=[0.0, 0.0, 0.0], upper=[0.25, 0.25, 0.25],
        )
        for lp2 in (fewer_rows, more_columns):
            res = solve_boxed_lp(model_of(lp2), start=first.state)
            assert not res.warm
            assert res.status == "optimal"
            assert res.objective == pytest.approx(0.0, abs=1e-12)


class TestBlockInverse:
    """A start is installed as exactly that basis, and HiGHS factors it: its
    basis inverse matches numpy's inverse of the explicit basis [A | I]."""

    # structural counts from the all-slack basis (k = 0) to an all-structural
    # one (k = m)
    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_inverse_of_explicit_basis(self, k, seed):
        rng = np.random.default_rng(1000 + seed)
        n, m = 8, 6
        lp = DenseLP(
            c=rng.normal(size=n), a=rng.normal(size=(m, n)), b=rng.normal(size=m),
            lower=np.zeros(n), upper=np.ones(n),
        )
        struct = rng.choice(n, size=k, replace=False)
        slacks = rng.choice(m, size=m - k, replace=False)
        status = core().HighsBasisStatus
        model = model_of(lp)
        assert model._install(basis_of((
            [status.kBasic if j in struct else status.kLower for j in range(n)],
            [status.kBasic if i in slacks else status.kUpper for i in range(m)],
        )))
        # HiGHS numbers the slack of row i as -1 - i
        _, basic = model.highs.getBasicVariables()
        assert sorted(basic) == sorted([-1 - i for i in slacks] + list(struct))
        explicit = np.column_stack(
            [lp.a[:, j] if j >= 0 else np.eye(m)[:, -1 - j] for j in basic]
        )
        binv = np.array([model.highs.getBasisInverseRow(r)[1] for r in range(m)])
        reference = np.linalg.inv(explicit)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(binv - reference)) <= 1e-12 * scale
        assert np.max(np.abs(binv @ explicit - np.eye(m))) <= 1e-12 * scale


class TestCarriedReducedCosts:
    """The row duals of each solve certify its point: fresh reduced costs
    c - A'y have the sign of the bound each column sits on."""

    @staticmethod
    def pivots(lp, start=None):
        """Solve from `start` (else cold); checks KKT, returns the iterations."""
        res = solve_boxed_lp(model_of(lp), start=start)
        if res.status == "optimal":
            assert_kkt(lp, res)
        return res.iterations

    def test_cold_starts(self):
        pivots = [
            self.pivots(random_lp(np.random.default_rng(500 + seed), False))
            for seed in range(20)
        ]
        assert sum(p > 0 for p in pivots) >= 10

    def test_warm_child_starts(self):
        pivots = [
            self.pivots(child, first.state)
            for seed in range(400, 430)
            for first, child in branch_children(seed)
        ]
        assert sum(p > 0 for p in pivots) >= 20

    def test_appended_rows(self):
        pivots = []
        for seed in range(20):
            rng = np.random.default_rng(600 + seed)
            lp = random_lp(rng, force_feasible=True)
            first = solve_boxed_lp(model_of(lp))
            rows = rng.normal(size=(3, lp.n))
            lp2 = DenseLP(
                c=lp.c, a=np.vstack([lp.a, rows]),
                b=np.append(lp.b, rows @ first.x - rng.uniform(0.0, 1.0, size=3)),
                lower=lp.lower, upper=lp.upper,
            )
            pivots.append(self.pivots(lp2, first.state))
        assert sum(p > 0 for p in pivots) >= 15


class TestPrimalCleanUp:
    # a start that is primal but not dual feasible: every slack basic at
    # x = 0, where column 0 pays to grow; from it the solve must still reach
    # the optimum
    @pytest.mark.parametrize("seed", range(10))
    def test_reaches_optimum_from_dual_infeasible_basis(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 8))
        upper = rng.uniform(0.5, 3.0, size=n)
        upper[rng.random(n) < 0.25] = np.inf
        c = rng.normal(size=n)
        c[np.isinf(upper)] = np.abs(c[np.isinf(upper)])
        c[0], upper[0] = -1.0, 1.0  # at least one column that pays to grow
        lp = DenseLP(
            c=c, a=rng.normal(size=(m, n)), b=rng.uniform(0.0, 2.0, size=m),
            lower=np.zeros(n), upper=upper,
        )
        status = core().HighsBasisStatus
        # x = 0 with every slack basic meets the rows, since b >= 0; the
        # reduced cost of x0 there is c0 = -1 at its lower bound
        start = basis_of(([status.kLower] * n, [status.kBasic] * m))
        res = solve_boxed_lp(model_of(lp), start=start)
        assert res.warm
        assert res.status == "optimal"
        assert_kkt(lp, res)
        assert res.objective == pytest.approx(reference_solve(lp).fun, abs=1e-9)


def hard_model(deadline=np.inf):
    """A dense 150 x 200 program that takes HiGHS over a hundred pivots."""
    rng = np.random.default_rng(10)
    n, m = 200, 150
    a = rng.normal(size=(m, n))
    lp = DenseLP(
        c=rng.normal(size=n), a=a, b=a @ np.full(n, 0.5) + 1.0,
        lower=np.zeros(n), upper=np.ones(n),
    )
    model = model_of(lp)
    model.deadline = deadline
    return lp, model


class TestModel:
    def test_deadline_ends_the_run_with_time_limit(self):
        _, late = hard_model(deadline=time.perf_counter() - 1.0)
        res = solve_boxed_lp(late)
        assert res.status == "time_limit"
        assert res.x is None and res.state is None

    def test_deadline_counts_from_now_on_a_model_that_ran_before(self):
        # HiGHS compares its time_limit option with the run time it has
        # summed over all runs of the model, so the option must carry that sum
        lp, model = hard_model()
        first = solve_boxed_lp(model)
        summed = model.highs.getRunTime()
        assert summed > 0.0
        model.deadline = time.perf_counter() + 60.0
        status = core().HighsBasisStatus
        again = solve_boxed_lp(model, start=basis_of(([status.kLower] * lp.n,
                                                      [status.kBasic] * lp.m)))
        assert again.status == "optimal" and again.iterations > 0
        assert again.objective == pytest.approx(first.objective, abs=1e-9)
        assert model.highs.getOptionValue("time_limit")[1] >= summed + 59.0

    def test_scheduler_started_with_another_thread_count(self):
        # HiGHS shares one scheduler per process; when another user (scipy's
        # linprog on a larger machine, say) started it with another thread
        # count, a model asking for one thread is refused and must retry.
        # A subprocess keeps that scheduler out of the other tests
        code = "\n".join([
            "import numpy as np",
            "from slowreg.highs import LPModel, core, solve_boxed_lp",
            "other = core()._Highs()",
            "other.setOptionValue('output_flag', False)",
            "other.setOptionValue('threads', 2)",
            "other.run()",
            "def model():",
            "    m = LPModel(np.array([-1.0, -1.0]), np.zeros(2), np.ones(2))",
            "    m.add_rows(np.zeros(1, dtype=np.int32), np.arange(2, dtype=np.int32),",
            "               np.array([1.0, 2.0]), np.array([1.0]))",
            "    return m",
            "first = solve_boxed_lp(model())",
            "again = solve_boxed_lp(model(), start=first.state)",
            "print(first.status, first.objective, again.warm, again.objective)",
        ])
        src = str(Path(slowreg.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["optimal", "-1.0", "True", "-1.0"]

    def test_other_statuses_raise_with_their_name(self):
        # the model takes any costs; an unbounded column is a fault of the caller
        model = LPModel(np.array([-1.0]), np.zeros(1), np.full(1, np.inf))
        model.add_rows(np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32),
                       np.array([-1.0]), np.array([0.0]))
        with pytest.raises(RuntimeError, match="Unbounded"):
            solve_boxed_lp(model)

    def test_held_basis_is_not_installed_again(self, monkeypatch):
        lp, model = hard_model()
        first = solve_boxed_lp(model)
        installs = []
        install = LPModel._install
        monkeypatch.setattr(LPModel, "_install", lambda self, s: installs.append(s) or install(self, s))
        # a cut re-solve: the start is the basis the model holds, and the new
        # row enters basic inside HiGHS
        row = np.random.default_rng(11).normal(size=lp.n)
        model.add_rows(np.zeros(1, dtype=np.int32), np.arange(lp.n, dtype=np.int32), row,
                       np.array([float(row @ first.x) - 0.1]))
        again = solve_boxed_lp(model, start=first.state)
        assert again.warm and installs == []
        # another start is installed, with the appended row basic
        third = solve_boxed_lp(model, start=first.state)
        assert third.warm and installs == [first.state]
        assert third.objective == pytest.approx(again.objective, abs=1e-9)


class TestValidation:
    def test_determinism(self):
        rng = np.random.default_rng(5)
        lp = random_lp(rng, force_feasible=True)
        a = solve_boxed_lp(model_of(lp))
        b = solve_boxed_lp(model_of(lp))
        assert a.status == b.status
        assert a.iterations == b.iterations
        if a.status == "optimal":
            assert np.array_equal(a.x, b.x)
            (basis_a, *counts_a), (basis_b, *counts_b) = a.state, b.state
            assert counts_a == counts_b == [lp.n, lp.m]
            assert basis_a.col_status == basis_b.col_status
            assert basis_a.row_status == basis_b.row_status
