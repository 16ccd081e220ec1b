"""Bounded-variable simplex vs an independent LP solver (scipy HiGHS)."""

import numpy as np
import pytest
from scipy.optimize import linprog

from slowreg.simplex import BoxedLinearProgram, _Simplex, solve_boxed_lp

STATUS_FROM_SCIPY = {0: "optimal", 2: "infeasible"}


def reference_solve(lp):
    bounds = [
        (lo, None if np.isinf(hi) else hi) for lo, hi in zip(lp.lower, lp.upper)
    ]
    return linprog(lp.c, A_ub=lp.a, b_ub=lp.b, bounds=bounds, method="highs")


def assert_feasible(lp, x, tol=1e-7):
    assert np.all(lp.a @ x <= lp.b + tol)
    assert np.all(x >= lp.lower - 1e-9)
    assert np.all(x[np.isfinite(lp.upper)] <= lp.upper[np.isfinite(lp.upper)] + 1e-9)


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
    return BoxedLinearProgram(c=c, a=a, b=b, lower=lower, upper=upper)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_feasible(self, seed):
        lp = random_lp(np.random.default_rng(seed), force_feasible=True)
        res = solve_boxed_lp(lp)
        ref = reference_solve(lp)
        assert res.status == STATUS_FROM_SCIPY[ref.status]
        if res.status == "optimal":
            assert_feasible(lp, res.x)
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            assert res.objective == pytest.approx(float(lp.c @ res.x), abs=1e-10)

    @pytest.mark.parametrize("seed", range(40, 80))
    def test_random_mixed_status(self, seed):
        lp = random_lp(np.random.default_rng(seed), force_feasible=False)
        res = solve_boxed_lp(lp)
        ref = reference_solve(lp)
        assert res.status == STATUS_FROM_SCIPY[ref.status]
        if res.status == "optimal":
            assert_feasible(lp, res.x)
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
        lp = BoxedLinearProgram(c=c, a=a, b=b, lower=lower, upper=upper)
        res = solve_boxed_lp(lp)
        ref = reference_solve(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-6)
        assert_feasible(lp, res.x)


class TestHandCases:
    def test_simple_vertex(self):
        lp = BoxedLinearProgram(
            c=[-1.0, -1.0],
            a=[[1.0, 1.0]],
            b=[1.0],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0, abs=1e-12)

    def test_dual_cold_start_repairs_violated_row(self):
        # second row is violated at the slack basis, which the dual phase repairs
        lp = BoxedLinearProgram(
            c=[1.0, 2.0],
            a=[[1.0, 1.0], [-1.0, -1.0]],
            b=[1.0, -1.0],
            lower=[0.0, 0.0],
            upper=[5.0, 5.0],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "optimal"
        # x must sit on the segment x0 + x1 = 1; cheapest is (1, 0)
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_dual_ratio_tie_takes_largest_pivot(self):
        # both columns are free of cost, so their dual ratios tie at zero;
        # entering x0 on its 1e-6 pivot would put it at 5e5
        lp = BoxedLinearProgram(
            c=[0.0, 0.0],
            a=[[-1e-6, -1.0]],
            b=[-0.5],
            lower=[0.0, 0.0],
            upper=[1e6, 1e6],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "optimal"
        assert res.x == pytest.approx([0.0, 0.5], abs=1e-12)

    def test_infeasible_rows(self):
        lp = BoxedLinearProgram(
            c=[0.0],
            a=[[1.0], [-1.0]],
            b=[1.0, -3.0],
            lower=[0.0],
            upper=[2.0],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "infeasible"
        assert res.x is None

    def test_unbounded(self):
        # a negative cost on a column without an upper bound is refused
        with pytest.raises(ValueError, match="finite upper bound"):
            BoxedLinearProgram(
                c=[-1.0],
                a=[[0.0]],
                b=[1.0],
                lower=[0.0],
                upper=[np.inf],
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_slack_start_is_dual_feasible(self, seed):
        lp = random_lp(np.random.default_rng(seed), force_feasible=False)
        sx = _Simplex(lp)
        sx.slack_start()
        assert sx.dual_feasible()

    def test_bound_flip_only(self):
        # no row ever binds; optimum is a pure bound flip to the upper bound
        lp = BoxedLinearProgram(
            c=[-1.0, 1.0],
            a=[[1.0, 1.0]],
            b=[100.0],
            lower=[0.0, 0.0],
            upper=[3.0, 3.0],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-3.0, abs=1e-12)
        assert res.x == pytest.approx([3.0, 0.0], abs=1e-12)

    def test_fixed_variables(self):
        lp = BoxedLinearProgram(
            c=[-1.0, -1.0, -1.0],
            a=[[1.0, 1.0, 1.0]],
            b=[2.0],
            lower=[0.5, 0.0, 0.0],
            upper=[0.5, 1.0, 1.0],
        )
        res = solve_boxed_lp(lp)
        ref = reference_solve(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-9)
        assert res.x[0] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_duplicated_rows(self):
        lp = BoxedLinearProgram(
            c=[-1.0, -1.0],
            a=[[1.0, 1.0]] * 4 + [[1.0, 0.0], [0.0, 1.0]],
            b=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            lower=[0.0, 0.0],
            upper=[2.0, 2.0],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0, abs=1e-9)

    def test_classic_degenerate_cycling_data(self):
        # data known to cycle under naive most-negative pricing
        lp = BoxedLinearProgram(
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
        res = solve_boxed_lp(lp)
        ref = reference_solve(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-9)

    def test_negative_lower_bounds(self):
        lp = BoxedLinearProgram(
            c=[1.0, 1.0],
            a=[[1.0, 0.0]],
            b=[3.0],
            lower=[-5.0, -2.0],
            upper=[5.0, 2.0],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-7.0, abs=1e-12)


class TestWarmStarts:
    @pytest.mark.parametrize("seed", range(10))
    def test_restart_after_cost_change(self, seed):
        rng = np.random.default_rng(100 + seed)
        lp = random_lp(rng, force_feasible=True)
        first = solve_boxed_lp(lp)
        lp2 = BoxedLinearProgram(
            c=lp.c + 0.1 * rng.normal(size=lp.n),
            a=lp.a,
            b=lp.b,
            lower=lp.lower,
            upper=lp.upper,
        )
        warm = solve_boxed_lp(lp2, start=first.state)
        cold = solve_boxed_lp(lp2)
        ref = reference_solve(lp2)
        assert warm.status == cold.status == STATUS_FROM_SCIPY[ref.status]
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(ref.fun, abs=1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_appended_violated_row(self, seed):
        rng = np.random.default_rng(200 + seed)
        lp = random_lp(rng, force_feasible=True)
        first = solve_boxed_lp(lp)
        row = rng.normal(size=lp.n)
        rhs = float(row @ first.x) - 1.0  # cuts off the old optimum
        lp2 = BoxedLinearProgram(
            c=lp.c,
            a=np.vstack([lp.a, row]),
            b=np.append(lp.b, rhs),
            lower=lp.lower,
            upper=lp.upper,
        )
        # the shorter state is extended by the new row inside the solver, and
        # the dual phase pivots its violated slack out
        warm = solve_boxed_lp(lp2, start=first.state)
        cold = solve_boxed_lp(lp2)
        assert warm.warm
        ref = reference_solve(lp2)
        assert warm.status == cold.status == STATUS_FROM_SCIPY[ref.status]
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(ref.fun, abs=1e-7)
            assert_feasible(lp2, warm.x)

    def test_appended_satisfied_row(self):
        rng = np.random.default_rng(301)
        lp = random_lp(rng, force_feasible=True)
        first = solve_boxed_lp(lp)
        assert first.status == "optimal"
        row = rng.normal(size=lp.n)
        rhs = float(row @ first.x) + 1.0  # loose at the old optimum
        lp2 = BoxedLinearProgram(
            c=lp.c,
            a=np.vstack([lp.a, row]),
            b=np.append(lp.b, rhs),
            lower=lp.lower,
            upper=lp.upper,
        )
        warm = solve_boxed_lp(lp2, start=first.state)
        assert warm.warm
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(first.objective, abs=1e-8)
        # the old optimum still satisfies the new row, so no pivots needed
        assert warm.iterations == 0

    def test_out_of_box_basis_is_repaired_warm(self):
        lp = BoxedLinearProgram(
            c=[-1.0, -1.0],
            a=[[1.0, 1.0]],
            b=[1.0],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "optimal"
        # shrink the box so the stored basis is no longer within bounds; its
        # reduced costs are unchanged, so the dual phase takes it from there
        lp2 = BoxedLinearProgram(
            c=lp.c, a=lp.a, b=lp.b, lower=[0.0, 0.0], upper=[0.25, 0.25]
        )
        warm = solve_boxed_lp(lp2, start=res.state)
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
    return BoxedLinearProgram(c=lp.c, a=lp.a, b=lp.b, lower=lower, upper=upper)


def branch_children(seed):
    """(parent result, child program) for every basic fractional variable of a draw."""
    lp = random_lp(np.random.default_rng(seed), force_feasible=True)
    first = solve_boxed_lp(lp)
    if first.status != "optimal":
        return []
    frac = [
        int(j) for j in first.state.basis
        if j < lp.n and abs(first.x[j] - np.round(first.x[j])) > 1e-6
    ]
    return [(first, branched(lp, first.x, j, side)) for j in frac for side in (0, 1)]


class TestDualWarmStart:
    @pytest.mark.parametrize("seed", range(400, 430))
    def test_branched_child_matches_reference(self, seed):
        for first, child in branch_children(seed):
            warm = solve_boxed_lp(child, start=first.state)
            cold = solve_boxed_lp(child)
            ref = reference_solve(child)
            assert warm.warm and not cold.warm
            assert warm.status == cold.status == STATUS_FROM_SCIPY[ref.status]
            if warm.status == "optimal":
                assert_feasible(child, warm.x)
                assert warm.objective == pytest.approx(ref.fun, abs=1e-7)
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            else:
                assert warm.x is None and warm.state is None

    def test_draws_cover_feasible_and_infeasible_children(self):
        statuses = [
            solve_boxed_lp(child, start=first.state).status
            for seed in range(400, 430)
            for first, child in branch_children(seed)
        ]
        assert statuses.count("optimal") >= 20
        assert statuses.count("infeasible") >= 5

    def test_infeasible_branch(self):
        # x0 + x1 >= 1.5 in the unit box; x1 <= 0 leaves no room for x0
        lp = BoxedLinearProgram(
            c=[1.0, 1.0], a=[[-1.0, -1.0]], b=[-1.5],
            lower=[0.0, 0.0], upper=[1.0, 1.0],
        )
        first = solve_boxed_lp(lp)
        assert first.status == "optimal"
        j = int(np.argmax(np.abs(first.x - np.round(first.x))))
        assert first.x[j] == pytest.approx(0.5)
        child = branched(lp, first.x, j, side=0)
        res = solve_boxed_lp(child, start=first.state)
        assert res.warm
        assert res.status == "infeasible"
        assert res.x is None

    def test_unusable_start_falls_back_to_slack_basis(self):
        # a basis that is not dual feasible for the new costs
        lp = BoxedLinearProgram(
            c=[-1.0, -1.0], a=[[1.0, 1.0]], b=[1.0],
            lower=[0.0, 0.0], upper=[1.0, 1.0],
        )
        first = solve_boxed_lp(lp)
        lp2 = BoxedLinearProgram(
            c=[1.0, 1.0], a=lp.a, b=lp.b, lower=[0.0, 0.0], upper=[0.25, 0.25]
        )
        res = solve_boxed_lp(lp2, start=first.state)
        assert not res.warm
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-12)


class TestBasisMatrix:
    def test_matches_column_by_column_assembly(self):
        rng = np.random.default_rng(11)
        n, m = 5, 6
        lp = BoxedLinearProgram(
            c=rng.normal(size=n), a=rng.normal(size=(m, n)), b=rng.normal(size=m),
            lower=np.zeros(n), upper=np.ones(n),
        )
        sx = _Simplex(lp)
        # structural and slack columns in a shuffled order
        sx.basis = np.array([3, n + 1, n + 2, 0, n + 5, 1])
        reference = np.column_stack([sx.column(int(j)) for j in sx.basis])
        assert np.array_equal(sx.basis_matrix(), reference)


class TestPointCheck:
    @pytest.mark.parametrize(
        "point,message",
        [([152.3, 0.0], r"x\[0\] above its upper bound"), ([1.0, 1.0], "row 0")],
    )
    def test_infeasible_point_raises(self, monkeypatch, point, message):
        lp = BoxedLinearProgram(
            c=[-1.0, -1.0], a=[[1.0, 1.0]], b=[1.0],
            lower=[0.0, 0.0], upper=[1.0, 1.0],
        )
        monkeypatch.setattr(_Simplex, "assemble", lambda self: np.array(point))
        with pytest.raises(RuntimeError, match=message):
            solve_boxed_lp(lp)

    # draws whose optimal basis holds a structural column, so that moving the
    # basic values moves the point
    @pytest.mark.parametrize("seed", [0, 2, 4, 5, 9])
    def test_drifted_basic_values_are_refactored(self, monkeypatch, seed):
        # knock the basic values off after the first primal phase, as a
        # drifted inverse would; one refactor must bring back the optimum
        lp = random_lp(np.random.default_rng(seed), force_feasible=True)
        clean = solve_boxed_lp(lp)
        primal_phase, violation = _Simplex.primal_phase, _Simplex.violation
        found = []

        def drifting(self):
            primal_phase(self)
            if not found:
                self.x_b = self.x_b - 10.0

        def recording(self, x):
            found.append(violation(self, x))
            return found[-1]

        monkeypatch.setattr(_Simplex, "primal_phase", drifting)
        monkeypatch.setattr(_Simplex, "violation", recording)
        res = solve_boxed_lp(lp)
        assert found[0] is not None and found[-1] is None
        assert res.status == "optimal"
        assert res.objective == pytest.approx(clean.objective, abs=1e-9)
        assert_feasible(lp, res.x)


class TestPrimalCleanUp:
    # the dual ratio test skips tiny pivots, so the dual phase can stop on a
    # primal feasible basis with a reduced cost of the wrong sign; from any
    # such basis the primal phase must reach the optimum
    @pytest.mark.parametrize("seed", range(10))
    def test_reaches_optimum_from_dual_infeasible_basis(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 8))
        upper = rng.uniform(0.5, 3.0, size=n)
        upper[rng.random(n) < 0.25] = np.inf
        c = rng.normal(size=n)
        c[np.isinf(upper)] = np.abs(c[np.isinf(upper)])
        c[0], upper[0] = -1.0, 1.0  # at least one column that pays to grow
        lp = BoxedLinearProgram(
            c=c, a=rng.normal(size=(m, n)), b=rng.uniform(0.0, 2.0, size=m),
            lower=np.zeros(n), upper=upper,
        )
        sx = _Simplex(lp)
        # x = 0 with every slack basic meets the rows, since b >= 0
        sx.install(n + np.arange(m), np.zeros(n + m, dtype=bool))
        assert not sx.dual_feasible()
        sx.primal_phase()
        assert sx.dual_feasible()
        x = sx.assemble()
        assert_feasible(lp, x)
        assert float(lp.c @ x) == pytest.approx(reference_solve(lp).fun, abs=1e-9)


class TestValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            BoxedLinearProgram(c=[1.0], a=[[1.0, 2.0]], b=[1.0], lower=[0.0], upper=[1.0])
        with pytest.raises(ValueError):
            BoxedLinearProgram(
                c=[1.0, 1.0], a=[[1.0, 2.0]], b=[1.0, 2.0], lower=[0.0, 0.0], upper=[1.0, 1.0]
            )

    def test_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoxedLinearProgram(c=[1.0], a=[[1.0]], b=[1.0], lower=[2.0], upper=[1.0])

    def test_infinite_lower_rejected(self):
        with pytest.raises(ValueError):
            BoxedLinearProgram(c=[1.0], a=[[1.0]], b=[1.0], lower=[-np.inf], upper=[1.0])

    def test_determinism(self):
        rng = np.random.default_rng(5)
        lp = random_lp(rng, force_feasible=True)
        a = solve_boxed_lp(lp)
        b = solve_boxed_lp(lp)
        assert a.status == b.status
        assert a.iterations == b.iterations
        if a.status == "optimal":
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.state.basis, b.state.basis)
