import tracemalloc

import numpy as np
import pytest

from slowreg import (
    BudgetError,
    ProblemInstance,
    SimilarityGraph,
    SparsityBudget,
    build_quadform,
    check_feasible,
    support_change_count,
    true_objective,
)

from util import (
    dense_coupled_reference,
    direct_objective_reference,
    make_instance,
    random_graph,
    set_feasible_reference,
)


class TestGraph:
    def test_chain_structure(self):
        g = SimilarityGraph.chain(4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.is_chain()
        assert list(g.degrees()) == [1, 2, 2, 1]
        assert g.neighbors(1) == (0, 2)

    def test_normalization_and_dedup(self):
        g = SimilarityGraph(3, ((2, 0), (0, 2), (1, 2)))
        assert g.edges == ((0, 2), (1, 2))

    def test_single_vertex_is_chain(self):
        assert SimilarityGraph(1).is_chain()

    def test_non_chain(self):
        assert not SimilarityGraph(3, ((0, 2),)).is_chain()
        assert not SimilarityGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3))).is_chain()

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            SimilarityGraph(3, ((0, 0),))
        with pytest.raises(ValueError):
            SimilarityGraph(3, ((0, 5),))


class TestInstance:
    def test_dimension_mismatch_rejected(self):
        g = SimilarityGraph.chain(2)
        x = np.ones((3, 2))
        with pytest.raises(ValueError):
            ProblemInstance(g, (x, np.ones((3, 3))), (np.ones(3), np.ones(3)), 1.0, 0.0)
        with pytest.raises(ValueError):
            ProblemInstance(g, (x, x), (np.ones(3), np.ones(4)), 1.0, 0.0)
        with pytest.raises(ValueError):
            ProblemInstance(g, (x,), (np.ones(3),), 1.0, 0.0)

    def test_lambda_beta_must_be_positive(self):
        g = SimilarityGraph(1)
        x, y = np.ones((2, 1)), np.ones(2)
        with pytest.raises(ValueError):
            ProblemInstance(g, (x,), (y,), 0.0, 0.0)
        with pytest.raises(ValueError):
            ProblemInstance(g, (x,), (y,), 1.0, -0.5)

    @pytest.mark.parametrize(
        "lambda_beta,lambda_delta",
        [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)],
    )
    def test_weights_must_be_finite(self, lambda_beta, lambda_delta):
        g = SimilarityGraph(1)
        x, y = np.ones((2, 1)), np.ones(2)
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance(g, (x,), (y,), lambda_beta, lambda_delta)


    def test_with_weights_shares_data_and_validates(self):
        inst = make_instance(T=3, D=4, seed=8)
        other = inst.with_weights(2.5, 0.0)
        assert (other.lambda_beta, other.lambda_delta) == (2.5, 0.0)
        assert (inst.lambda_beta, inst.lambda_delta) == (1.0, 0.5)
        assert other.graph is inst.graph
        for a, b in zip(other.x_blocks + other.y_blocks, inst.x_blocks + inst.y_blocks):
            assert np.shares_memory(a, b)
        with pytest.raises(ValueError):
            inst.with_weights(0.0, 1.0)
        with pytest.raises(ValueError):
            inst.with_weights(1.0, -1.0)


class TestQuadForm:
    def test_identity_design_blocks(self):
        # X^t = I so the Gram part is the identity; edges add deg*lambda_delta.
        D = 3
        g = SimilarityGraph.chain(2)
        y0, y1 = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 0.0])
        inst = ProblemInstance(g, (np.eye(D), np.eye(D)), (y0, y1), 1.0, 0.25)
        qf = build_quadform(inst)
        # the blocks of M + lambda_beta I, so lambda_beta = 1 is on them too
        everything = np.arange(D)
        assert np.allclose(qf.diag_block(0, everything), np.eye(D) * (1 + 0.25 + 1))
        assert np.allclose(qf.diag_block(1, everything), np.eye(D) * (1 + 0.25 + 1))
        assert np.allclose(qf.mu, np.concatenate([y0, y1]))
        assert qf.const_term == pytest.approx(float(y0 @ y0 + y1 @ y1))

    def test_zero_design_gives_laplacian_coupling(self):
        # With X = 0 the coupled matrix is just lambda_delta * (Laplacian x I).
        D, lam_d = 2, 0.7
        g = SimilarityGraph(2, ((0, 1),))
        zeros = np.zeros((2, D))
        inst = ProblemInstance(g, (zeros, zeros), (np.zeros(2), np.zeros(2)), 1.0, lam_d)
        qf = build_quadform(inst)
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        want = lam_d * np.kron(lap, np.eye(D))
        got = np.column_stack([qf.matvec(e) for e in np.eye(2 * D)])
        assert np.allclose(got, want, atol=1e-14)

    def test_expansion_identity_against_direct_objective(self):
        inst = make_instance(T=3, D=4, N=6, seed=7, lambda_delta=0.9)
        qf = build_quadform(inst)
        rng = np.random.default_rng(3)
        for _ in range(20):
            beta = rng.standard_normal(12)
            direct = direct_objective_reference(inst, beta)
            quad = (qf.const_term + beta @ qf.matvec(beta)
                    + qf.lambda_beta * (beta @ beta) - 2.0 * (qf.mu @ beta))
            assert quad == pytest.approx(direct, rel=1e-9)

    def test_matvec_matches_dense_reference(self):
        rng = np.random.default_rng(5)
        inst = make_instance(T=4, D=3, N=5, seed=11, graph=random_graph(4, 4, rng))
        qf = build_quadform(inst)
        m = dense_coupled_reference(inst)
        for _ in range(10):
            v = rng.standard_normal(12)
            assert np.allclose(qf.matvec(v), m @ v, rtol=1e-12, atol=1e-12)

    def test_coupled_matrix_is_psd(self):
        # 200 random directions: v' M v >= -1e-10 ||v||^2.
        rng = np.random.default_rng(13)
        inst = make_instance(T=4, D=5, N=3, seed=2, graph=random_graph(4, 5, rng))
        qf = build_quadform(inst)
        for _ in range(200):
            v = rng.standard_normal(20)
            quad = v @ qf.matvec(v)
            assert quad >= -1e-10 * (v @ v)

    def test_recomputation_consistency(self):
        inst = make_instance(T=3, D=4, N=7, seed=21, lambda_delta=1.3)
        qf = build_quadform(inst)
        deg = inst.graph.degrees()
        for t in range(3):
            x, y = inst.x_blocks[t], inst.y_blocks[t]
            ridge = deg[t] * inst.lambda_delta + inst.lambda_beta
            fresh_gram = x.T @ x + ridge * np.eye(4)
            assert np.allclose(qf.diag_block(t, np.arange(4)), fresh_gram, rtol=1e-12)
            assert np.allclose(qf.mu[t * 4:(t + 1) * 4], x.T @ y, rtol=1e-12)
        fresh_const = sum(float(y @ y) for y in inst.y_blocks)
        assert qf.const_term == pytest.approx(fresh_const, rel=1e-12)


class TestGramFreeForm:
    """Blocks and products of M come from the shared X blocks, not a stored Gram."""

    @staticmethod
    def ragged(kind):
        # vertex 1 has more rows than features, the others fewer
        rng = np.random.default_rng(8800)
        T, D = 5, 6
        if kind == "chain":
            graph = SimilarityGraph.chain(T)
        elif kind == "random":
            graph = random_graph(T, 6, rng)
        else:
            graph = SimilarityGraph(T)
        rows = (3, 11, 2, 5, 1)
        xs = tuple(rng.standard_normal((n, D)) for n in rows)
        ys = tuple(rng.standard_normal(n) for n in rows)
        return ProblemInstance(graph, xs, ys, lambda_beta=0.7, lambda_delta=1.9)

    @pytest.mark.parametrize("kind", ["chain", "random", "edgeless"])
    def test_blocks_and_matvec_match_dense_reference(self, kind):
        inst = self.ragged(kind)
        T, D = inst.vertex_count, inst.feature_count
        qf = build_quadform(inst)
        m = dense_coupled_reference(inst)
        a = m + inst.lambda_beta * np.eye(T * D)
        rng = np.random.default_rng(8801)
        for t in range(T):
            for sel in (np.arange(D), np.array([4]), np.sort(rng.choice(D, 3, replace=False))):
                want = a[np.ix_(t * D + sel, t * D + sel)]
                got = qf.diag_block(t, sel)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        for _ in range(10):
            v = rng.standard_normal(T * D)
            want = m @ v
            assert np.linalg.norm(qf.matvec(v) - want) <= 1e-12 * np.linalg.norm(want)

    def test_shares_the_instance_x_blocks(self):
        inst = self.ragged("random")
        qf = build_quadform(inst)
        assert len(qf.x_blocks) == inst.vertex_count
        for x_form, x_inst in zip(qf.x_blocks, inst.x_blocks):
            assert np.shares_memory(x_form, x_inst)

    def test_build_allocates_no_dense_blocks(self):
        # a (T, D, D) Gram would be 32 MB here; mu is 160 kB
        inst = make_instance(T=100, D=200, N=3, seed=88)
        tracemalloc.start()
        try:
            qf = build_quadform(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert qf.mu.size == 100 * 200
        assert peak < 2**20


class TestBudgets:
    def test_inconsistent_budgets_rejected(self):
        with pytest.raises(BudgetError):
            SparsityBudget(3, 2, 0).validate(vertex_count=2, feature_count=5)
        with pytest.raises(BudgetError):
            SparsityBudget(1, 6, 0).validate(vertex_count=2, feature_count=5)
        with pytest.raises(BudgetError):
            SparsityBudget(0, 1, 0).validate(vertex_count=2, feature_count=5)
        with pytest.raises(BudgetError):
            SparsityBudget(2, 2, -1).validate(vertex_count=2, feature_count=5)
        with pytest.raises(BudgetError):
            SparsityBudget(2, 2, 9).validate(vertex_count=2, feature_count=5)
        SparsityBudget(2, 3, 8).validate(vertex_count=2, feature_count=5)

    def test_check_feasible_trivial_cases(self):
        g = SimilarityGraph.chain(2)
        b = SparsityBudget(1, 2, 2)
        assert check_feasible(np.zeros(4), b, g)
        assert check_feasible(np.array([1, 0, 0, 1]), b, g)
        # per-vertex budget exceeded
        assert not check_feasible(np.array([1, 1, 0, 0]), b, g)
        # change budget exceeded
        assert not check_feasible(np.array([1, 0, 0, 1]), SparsityBudget(1, 2, 1), g)
        # global budget exceeded
        assert not check_feasible(np.array([1, 0, 0, 1]), SparsityBudget(1, 1, 2), g)

    def test_check_feasible_against_set_arithmetic(self):
        T, D = 3, 5
        rng = np.random.default_rng(17)
        g = random_graph(T, 2, rng)
        for trial in range(1000):
            z = rng.integers(0, 2, size=T * D)
            k_l = int(rng.integers(1, D + 1))
            k_g = int(rng.integers(k_l, D + 1))
            k_c = int(rng.integers(0, 2 * k_l * T + 1))
            got = check_feasible(z, SparsityBudget(k_l, k_g, k_c), g)
            want = set_feasible_reference(z, T, D, k_l, k_g, k_c, g.edges)
            assert got == want

    def test_feasibility_monotone_under_removal(self):
        # Clearing entries never breaks per-vertex or global budgets; the
        # change budget can break, so only the first two are monotone. Check
        # the documented monotone property on the full budget triple with a
        # generous change budget.
        T, D = 3, 4
        g = SimilarityGraph.chain(T)
        rng = np.random.default_rng(23)
        b = SparsityBudget(2, 4, 2 * 2 * T)
        for _ in range(200):
            z = (rng.random(T * D) < 0.4).astype(int)
            if not check_feasible(z, b, g):
                continue
            z2 = z.copy()
            on = np.flatnonzero(z2)
            if len(on):
                z2[rng.choice(on)] = 0
            assert check_feasible(z2, b, g)


class TestObjective:
    def test_zero_beta(self):
        inst = make_instance(T=2, D=3, N=4, seed=1)
        want = sum(float(y @ y) for y in inst.y_blocks)
        assert true_objective(inst, np.zeros(6)) == pytest.approx(want, rel=1e-12)

    def test_hand_computed_single_point(self):
        # One vertex, X = [[1]], y = [1], lambda_beta = 1, beta = 0.5:
        # (1 - 0.5)^2 + 1 * 0.5^2 = 0.5.
        g = SimilarityGraph(1)
        inst = ProblemInstance(g, (np.array([[1.0]]),), (np.array([1.0]),), 1.0, 0.0)
        assert true_objective(inst, np.array([0.5])) == pytest.approx(0.5, abs=1e-15)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(29)
        inst = make_instance(T=4, D=3, N=5, seed=4, graph=random_graph(4, 3, rng))
        for _ in range(20):
            beta = rng.standard_normal(12)
            assert true_objective(inst, beta) == pytest.approx(
                direct_objective_reference(inst, beta), rel=1e-12
            )


class TestSupportHelpers:
    def test_support_change_count(self):
        g = SimilarityGraph.chain(3)
        z = np.array([[1, 0], [0, 1], [0, 1]])
        assert support_change_count(z, g) == 2
