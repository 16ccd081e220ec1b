import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slowreg import (
    ProblemInstance,
    QuadForm,
    SimilarityGraph,
    WeightError,
    beta_star,
    build_quadform,
    eval_cost,
    eval_gradient,
    evaluate,
    true_objective,
)

from util import (
    budget_patterns,
    dense_coupled_reference,
    make_instance,
    random_graph,
    restricted_cost_reference,
)

TRIANGLE = SimilarityGraph(3, edges=((0, 1), (1, 2), (0, 2)))


def scalar_quadform(column=(3.0, 3.0, 1.0), mu=1.0, lam=1.0):
    """Single vertex, single feature, coupled matrix [m] with m = |column|^2.

    The default column gives m = 9 + 9 + 1 = 19 exactly.
    """
    return QuadForm(
        graph=SimilarityGraph(1),
        x_blocks=(np.array(column, dtype=np.float64)[:, None],),
        degrees=np.zeros(1, dtype=np.int64),
        mu=np.array([mu]),
        const_term=0.0,
        lambda_beta=lam,
        lambda_delta=0.0,
    )


class TestCost:
    def test_empty_support_costs_zero(self):
        qf = build_quadform(make_instance(T=2, D=3, N=4, seed=0))
        assert eval_cost(qf, np.zeros(6)) == 0.0

    def test_scalar_closed_form(self):
        # -1/2 * mu^2 / (lam + m) = -1 / (2 * 20) = -0.025
        qf = scalar_quadform()
        assert eval_cost(qf, np.array([1])) == pytest.approx(-1.0 / 40.0, abs=1e-15)

    def test_cost_never_positive(self):
        rng = np.random.default_rng(1)
        inst = make_instance(T=3, D=4, N=5, seed=3, lambda_delta=0.3)
        qf = build_quadform(inst)
        for _ in range(50):
            z = rng.integers(0, 2, size=12)
            assert eval_cost(qf, z) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_full_size_solve(self, seed):
        rng = np.random.default_rng(seed)
        T, D = 3, 4
        graph = random_graph(T, int(rng.integers(0, 4)), rng)
        inst = make_instance(T=T, D=D, N=6, seed=seed + 100, lambda_delta=0.8,
                             graph=graph)
        qf = build_quadform(inst)
        for _ in range(10):
            z = rng.integers(0, 2, size=T * D)
            got = eval_cost(qf, z)
            want = restricted_cost_reference(inst, z)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_adding_support_never_raises_cost(self):
        rng = np.random.default_rng(11)
        qf = build_quadform(make_instance(T=3, D=3, N=5, seed=8, lambda_delta=0.4))
        for _ in range(50):
            z = rng.integers(0, 2, size=9)
            off = np.flatnonzero(z == 0)
            if len(off) == 0:
                continue
            z2 = z.copy()
            z2[rng.choice(off)] = 1
            assert eval_cost(qf, z2) <= eval_cost(qf, z) + 1e-12


class TestChainFastPath:
    """On a chain the band is block tridiagonal; the solve matches a dense one."""

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_generic(self, seed):
        T, D = 5, 4
        inst = make_instance(T=T, D=D, N=6, seed=seed, lambda_delta=1.1)
        dense = dense_coupled_reference(inst) + inst.lambda_beta * np.eye(T * D)
        qf = build_quadform(inst)
        rng = np.random.default_rng(seed + 50)
        for _ in range(10):
            z = rng.integers(0, 2, size=T * D).astype(bool)
            if not z.any():
                continue
            rhs = qf.mu[z]
            x = np.linalg.solve(dense[np.ix_(z, z)], rhs)
            v0 = beta_star(qf, z)
            assert np.allclose(v0[z], x, rtol=1e-10, atol=1e-12)
            assert eval_cost(qf, z) == pytest.approx(
                -0.5 * float(rhs @ x), rel=1e-10, abs=1e-13
            )


class TestNonFiniteData:
    def test_non_finite_design_raises_weight_error_on_a_triangle(self):
        inst = make_instance(T=3, D=3, N=5, seed=2, graph=TRIANGLE)
        qf = build_quadform(inst)
        x_blocks = (inst.x_blocks[0], inst.x_blocks[1].copy(), inst.x_blocks[2])
        x_blocks[1][2, 1] = np.nan  # past build_quadform's check of mu
        bad = dataclasses.replace(qf, x_blocks=x_blocks)
        with pytest.raises(WeightError, match="lambda_beta=1 and lambda_delta=0.5"):
            evaluate(bad, np.ones(9))


class TestBetaStar:
    def test_scalar_ridge(self):
        qf = scalar_quadform(column=(1.0,), mu=1.0, lam=1.0)
        assert beta_star(qf, np.array([1]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_empty_support_is_zero(self):
        qf = build_quadform(make_instance(T=2, D=2, N=3, seed=4))
        assert np.all(beta_star(qf, np.zeros(4)) == 0.0)

    def test_bitwise_zero_off_support(self):
        rng = np.random.default_rng(7)
        qf = build_quadform(make_instance(T=3, D=5, N=6, seed=9, lambda_delta=0.6))
        for _ in range(20):
            z = rng.integers(0, 2, size=15).astype(bool)
            b = beta_star(qf, z)
            assert np.all(b[~z] == 0.0)  # exact zeros, not merely small

    def test_objective_identity_exhaustive(self):
        # f(beta*(z)) = const_term + 2 cost(z) over every pattern on T=2, D=4.
        inst = make_instance(T=2, D=4, N=6, seed=12, lambda_delta=0.5)
        qf = build_quadform(inst)
        for bits in itertools.product([0, 1], repeat=8):
            z = np.array(bits)
            lhs = true_objective(inst, beta_star(qf, z))
            rhs = qf.const_term + 2.0 * eval_cost(qf, z)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_restricted_optimality(self):
        # Perturbing beta*(z) inside the support never lowers the objective.
        inst = make_instance(T=2, D=3, N=5, seed=31, lambda_delta=0.7)
        qf = build_quadform(inst)
        rng = np.random.default_rng(31)
        z = np.array([1, 0, 1, 0, 1, 1], dtype=bool)
        b = beta_star(qf, z)
        base = true_objective(inst, b)
        for _ in range(30):
            delta = np.zeros(6)
            delta[z] = 1e-3 * rng.standard_normal(int(z.sum()))
            assert true_objective(inst, b + delta) >= base - 1e-12


class TestGradient:
    def test_scalar_at_one(self):
        # Half-scaled family member: c(z) = -mu^2 z / (2 (lam + m z)), so
        # c'(1) = -mu^2 lam / (2 (lam + m)^2) = -1/800 at m=19, mu=lam=1.
        qf = scalar_quadform()
        _, g = eval_gradient(qf, evaluate(qf, np.array([1])).v0)
        assert g[0] == pytest.approx(-1.0 / 800.0, abs=1e-15)

    def test_zero_support_closed_form(self):
        qf = build_quadform(make_instance(T=3, D=4, N=5, seed=14, lambda_delta=0.9))
        intercept, g = eval_gradient(qf, evaluate(qf, np.zeros(12)).v0)
        assert intercept == 0.0
        want = -qf.mu**2 / (2.0 * qf.lambda_beta)
        assert np.allclose(g, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_central_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        T, D = 3, 4
        graph = SimilarityGraph.chain(T) if seed % 2 else random_graph(T, 2, rng)
        inst = make_instance(T=T, D=D, N=6, seed=seed + 40, lambda_delta=0.7,
                             graph=graph)
        qf = build_quadform(inst)
        z = rng.integers(0, 2, size=T * D).astype(float)
        _, g = eval_gradient(qf, evaluate(qf, z).v0)
        eps = 1e-6
        for i in range(T * D):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            fd = (restricted_cost_reference(inst, zp)
                  - restricted_cost_reference(inst, zm)) / (2 * eps)
            assert abs(g[i] - fd) <= 1e-5

    def test_off_support_entries_nonpositive(self):
        rng = np.random.default_rng(77)
        qf = build_quadform(make_instance(T=3, D=3, N=5, seed=19, lambda_delta=0.2))
        for _ in range(20):
            z = rng.integers(0, 2, size=9).astype(bool)
            _, g = eval_gradient(qf, evaluate(qf, z).v0)
            assert np.all(g[~z] <= 1e-15)

    def test_zero_moments_give_zero_gradient(self):
        g = SimilarityGraph(1)
        inst = ProblemInstance(g, (np.eye(3),), (np.zeros(3),), 1.0, 0.0)
        qf = build_quadform(inst)
        z = np.array([1, 0, 1])
        ev = evaluate(qf, z)
        assert ev.cost == 0.0
        intercept, g = eval_gradient(qf, ev.v0)
        assert intercept == 0.0 and np.all(g == 0.0)


class TestDualCut:
    """The cut from any vector under-estimates the cost at every support."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_every_cut_underestimates_the_cost(self, data):
        graph = data.draw(st.sampled_from([SimilarityGraph.chain(3), TRIANGLE]),
                          label="graph")
        lambda_beta = data.draw(st.floats(1e-3, 30.0), label="lambda_beta")
        lambda_delta = data.draw(st.floats(0.0, 30.0), label="lambda_delta")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        qf = build_quadform(make_instance(T=3, D=4, N=6, seed=seed, graph=graph,
                                          lambda_beta=lambda_beta,
                                          lambda_delta=lambda_delta))
        supports = np.array(list(budget_patterns(3, 4, 2, 3, 4, graph.edges)), dtype=bool)
        costs = np.array([eval_cost(qf, z) for z in supports])
        tol = 1e-12 * np.maximum(1.0, np.abs(costs))
        anchor = data.draw(st.integers(0, len(supports) - 1), label="anchor")
        v0 = evaluate(qf, supports[anchor]).v0
        scale = float(np.max(np.abs(v0))) or 1.0
        noise = data.draw(st.floats(0.0, 1.0), label="noise")
        rng = np.random.default_rng(seed)
        near = v0 + noise * scale * rng.standard_normal(v0.size)
        apart = scale * rng.standard_normal(v0.size)
        for x in (v0, near, apart):
            intercept, g = eval_gradient(qf, x)
            assert np.all(intercept + supports @ g <= costs + tol)
        intercept, g = eval_gradient(qf, v0)
        assert abs(intercept + g @ supports[anchor] - costs[anchor]) <= tol[anchor]


class TestRefusedSolve:
    @pytest.mark.parametrize("graph", [SimilarityGraph.chain(3), TRIANGLE],
                             ids=["chain", "generic"])
    def test_singular_restricted_system_raises_weight_error(self, graph):
        # two equal integer columns: the second Cholesky pivot of each
        # vertex's block is (1 + 1e-30) - 1 = 0 exactly
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        y = np.array([1.0, 2.0])
        qf = build_quadform(ProblemInstance(graph, (x,) * 3, (y,) * 3, 1e-30, 0.0))
        with pytest.raises(WeightError, match="lambda_beta=1e-30 and lambda_delta=0 "
                                              "leave a restricted system"):
            evaluate(qf, np.ones(6, dtype=bool))


class TestConvexity:
    def test_fractional_matches_binary_at_corners(self):
        inst = make_instance(T=2, D=3, N=4, seed=20, lambda_delta=0.4)
        qf = build_quadform(inst)
        rng = np.random.default_rng(20)
        for _ in range(20):
            z = rng.integers(0, 2, size=6)
            assert restricted_cost_reference(inst, z.astype(float)) == pytest.approx(
                eval_cost(qf, z), rel=1e-11, abs=1e-13
            )

    def test_midpoint_convexity_random_segments(self):
        # 200 random segments in the unit box; midpoint value never exceeds
        # the chord average by more than 1e-10.
        rng = np.random.default_rng(33)
        inst = make_instance(T=2, D=3, N=5, seed=22, lambda_delta=0.5)
        qf = build_quadform(inst)
        for _ in range(200):
            a = rng.random(6)
            b = rng.random(6)
            mid = restricted_cost_reference(inst, (a + b) / 2.0)
            chord = 0.5 * (restricted_cost_reference(inst, a)
                           + restricted_cost_reference(inst, b))
            assert mid <= chord + 1e-10


def verify_penrose(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether b satisfies all four Moore-Penrose conditions for a."""
    ab, ba = a @ b, b @ a
    checks = (
        np.allclose(ab @ a, a, rtol=0.0, atol=tol),
        np.allclose(ba @ b, b, rtol=0.0, atol=tol),
        np.allclose(ab, ab.T, rtol=0.0, atol=tol),
        np.allclose(ba, ba.T, rtol=0.0, atol=tol),
    )
    return all(checks)


class TestPseudoinverse:
    def test_identity_and_zero(self):
        assert verify_penrose(np.eye(3), np.eye(3))
        assert verify_penrose(np.zeros((3, 3)), np.zeros((3, 3)))
        assert not verify_penrose(np.eye(3), 2 * np.eye(3))

    @pytest.mark.parametrize("seed", range(20))
    def test_restricted_system_pseudoinverse_candidate(self, seed):
        # B = (lam I + Z M Z)^{-1} - lam^{-1}(I - Z) is the Moore-Penrose
        # inverse of Z (M + lam I) Z, and applying it to Z mu solves the
        # unrestricted system (lam I + Z M)^{-1} Z mu.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        r = rng.standard_normal((n, n))
        m = r @ r.T
        lam = float(10.0 ** rng.uniform(-1.5, 1.0))
        z = rng.integers(0, 2, size=n).astype(float)
        zdiag = np.diag(z)
        a = zdiag @ (m + lam * np.eye(n)) @ zdiag
        b = np.linalg.inv(lam * np.eye(n) + zdiag @ m @ zdiag) - (
            np.eye(n) - zdiag
        ) / lam
        assert verify_penrose(a, b, tol=1e-8)
        mu = rng.standard_normal(n)
        via_pinv = b @ (z * mu)
        via_solve = np.linalg.solve(lam * np.eye(n) + zdiag @ m, z * mu)
        assert np.allclose(via_pinv, via_solve, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_restriction_commutes_with_solve(self, seed):
        # (lam I + Z M Z)^{-1} Z = (lam I + Z M)^{-1} Z
        rng = np.random.default_rng(seed + 500)
        n = int(rng.integers(2, 10))
        r = rng.standard_normal((n, n))
        m = r @ r.T
        lam = float(10.0 ** rng.uniform(-1, 1))
        z = np.diag(rng.integers(0, 2, size=n).astype(float))
        lhs = np.linalg.inv(lam * np.eye(n) + z @ m @ z) @ z
        rhs = np.linalg.solve(lam * np.eye(n) + z @ m, z)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-9)


def relaxation_family_value(a: float, m: float, mu: float, lam: float, z: float) -> float:
    """One-dimensional relaxation family -mu^2 z^a / (lam + m z^a).

    Members with a <= 1 are convex on [0, 1]; a = 1 is the member the support
    relaxation actually uses.
    """
    if a <= 0.0:
        raise ValueError("exponent a must be positive")
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    za = z ** a
    return -(mu * mu) * za / (lam + m * za)


class TestRelaxationFamily:
    def test_frozen_value_at_figure_parameters(self):
        # a=1, m=19, mu=1, lam=1, z=1: -1/(1+19) = -0.05
        assert relaxation_family_value(1.0, 19.0, 1.0, 1.0, 1.0) == pytest.approx(
            -0.05, abs=1e-15
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            relaxation_family_value(0.0, 1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            relaxation_family_value(1.0, 1.0, 1.0, 1.0, -0.1)

    @given(
        a=st.floats(0.05, 1.0),
        m=st.floats(0.0, 50.0),
        mu=st.floats(-3.0, 3.0),
        lam=st.floats(0.1, 10.0),
        z1=st.floats(0.0, 1.0),
        z2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_members_up_to_one_are_midpoint_convex(self, a, m, mu, lam, z1, z2):
        mid = relaxation_family_value(a, m, mu, lam, (z1 + z2) / 2.0)
        chord = 0.5 * (
            relaxation_family_value(a, m, mu, lam, z1)
            + relaxation_family_value(a, m, mu, lam, z2)
        )
        assert mid <= chord + 1e-9 * (1.0 + abs(chord))

    def test_convex_member_on_grid(self):
        # f(z) = -z/(1+19z) on a 101-point grid: no midpoint violation.
        zs = np.linspace(0.0, 1.0, 101)
        f = np.array([relaxation_family_value(1.0, 19.0, 1.0, 1.0, z) for z in zs])
        worst = _worst_midpoint_violation(zs, f)
        assert worst <= 1e-10

    def test_cubic_denominator_variant_is_not_convex(self):
        # g(z) = -z/(1+19 z^2) picks up curvature sign changes; a midpoint
        # violation must exist on the same grid.
        zs = np.linspace(0.0, 1.0, 101)
        g = np.array([-z / (1.0 + 19.0 * z * z) for z in zs])
        worst = _worst_midpoint_violation(zs, g)
        assert worst > 1e-4


def _worst_midpoint_violation(zs, values):
    """max over grid pairs with an on-grid midpoint of f(mid) - chord."""
    worst = -np.inf
    n = len(zs)
    for i in range(n):
        for j in range(i, n):
            if (i + j) % 2:
                continue
            mid = (i + j) // 2
            viol = values[mid] - 0.5 * (values[i] + values[j])
            worst = max(worst, viol)
    return worst
