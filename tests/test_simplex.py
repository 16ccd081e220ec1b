"""Bounded-variable simplex vs an independent LP solver (scipy HiGHS)."""

import numpy as np
import pytest
from scipy.optimize import linprog

from slowreg.simplex import BoxedLinearProgram, _Simplex, solve_boxed_lp

STATUS_FROM_SCIPY = {0: "optimal", 2: "infeasible", 3: "unbounded"}


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

    def test_phase_one_required(self):
        # second row is violated at the lower-bound start
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
        lp = BoxedLinearProgram(
            c=[-1.0],
            a=[[0.0]],
            b=[1.0],
            lower=[0.0],
            upper=[np.inf],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "unbounded"

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
            upper=[np.inf, np.inf, np.inf, np.inf],
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
        if first.status != "optimal":
            pytest.skip("random draw not bounded")
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
        if first.status != "optimal":
            pytest.skip("random draw not bounded")
        row = rng.normal(size=lp.n)
        rhs = float(row @ first.x) - 1.0  # cuts off the old optimum
        lp2 = BoxedLinearProgram(
            c=lp.c,
            a=np.vstack([lp.a, row]),
            b=np.append(lp.b, rhs),
            lower=lp.lower,
            upper=lp.upper,
        )
        # the shorter state is extended by the new row inside the solver
        warm = solve_boxed_lp(lp2, start=first.state)
        cold = solve_boxed_lp(lp2)
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
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(first.objective, abs=1e-8)
        # the old optimum still satisfies the new row, so no pivots needed
        assert warm.iterations == 0

    def test_stale_state_falls_back(self):
        lp = BoxedLinearProgram(
            c=[-1.0, -1.0],
            a=[[1.0, 1.0]],
            b=[1.0],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
        )
        res = solve_boxed_lp(lp)
        assert res.status == "optimal"
        # shrink the box so the stored basis is no longer within bounds
        lp2 = BoxedLinearProgram(
            c=lp.c, a=lp.a, b=lp.b, lower=[0.0, 0.0], upper=[0.25, 0.25]
        )
        warm = solve_boxed_lp(lp2, start=res.state)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(-0.5, abs=1e-12)


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
