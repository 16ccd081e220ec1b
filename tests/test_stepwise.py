"""Greedy selection and the budget-repair loop."""

import numpy as np
import pytest

from slowreg import (
    SimilarityGraph,
    ProblemInstance,
    SparsityBudget,
    beta_star,
    build_quadform,
    check_feasible,
    eval_cost,
)
from slowreg.stepwise import _ridge_refit, greedy_start, sparse_ridge_greedy, stepwise_fit

from util import (
    exhaustive_best_support,
    graph_of_kind,
    make_instance,
    stepwise_fit_reference,
)


def ridge_direct(x, y, lam):
    gram = x.T @ x
    gram[np.diag_indices_from(gram)] += lam
    return np.linalg.solve(gram, x.T @ y)


class TestSparseRidgeGreedy:
    def test_orthogonal_design_picks_strongest(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(30, 6)))
        y = 3.0 * q[:, 2] + 1.0 * q[:, 5]
        support, beta = sparse_ridge_greedy(q, y, 2, 1e-8)
        assert support.tolist() == [2, 5]
        assert beta[2] == pytest.approx(3.0, abs=1e-6)
        assert beta[5] == pytest.approx(1.0, abs=1e-6)

    def test_full_k_equals_plain_ridge(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(25, 5))
        y = rng.normal(size=25)
        _, beta = sparse_ridge_greedy(x, y, 5, 0.7)
        assert beta == pytest.approx(ridge_direct(x, y, 0.7), abs=1e-10)

    def test_duplicate_column_tie_goes_low(self):
        rng = np.random.default_rng(2)
        col = rng.normal(size=20)
        x = np.column_stack([col, col, rng.normal(size=20)])
        y = 2.0 * col
        support, _ = sparse_ridge_greedy(x, y, 1, 0.1)
        assert support.tolist() == [0]

    def test_zero_column_never_selected(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 3))
        x[:, 1] = 0.0
        y = rng.normal(size=15)
        support, _ = sparse_ridge_greedy(x, y, 3, 0.5)
        assert 1 not in support.tolist()

    def test_orthogonal_target_selects_nothing(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        y = np.array([0.0, 0.0, 5.0])
        support, beta = sparse_ridge_greedy(x, y, 2, 1.0)
        assert support.size == 0
        assert beta == pytest.approx(np.zeros(2))

    def test_refit_is_exact_on_selected_set(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 6))
        y = rng.normal(size=20)
        support, beta = sparse_ridge_greedy(x, y, 2, 0.5)
        expected = _ridge_refit(x, y, support.tolist(), 0.5)
        assert beta == pytest.approx(expected, abs=1e-12)


class TestStepwiseFit:
    def test_hand_traced_two_vertex_chain(self):
        x = np.eye(3)
        instance = ProblemInstance(
            graph=SimilarityGraph.chain(2),
            x_blocks=[x, x],
            y_blocks=[np.array([5.0, 0.0, 0.0]), np.array([0.0, 4.0, 0.0])],
            lambda_beta=1.0,
            lambda_delta=0.5,
        )
        budget = SparsityBudget(max_per_vertex=1, max_global=1, max_changes=1)
        res = stepwise_fit(instance, budget, seed=0)
        expected_z = np.zeros(6, dtype=bool)
        expected_z[0] = True
        assert np.array_equal(res.z, expected_z)
        assert res.removal_iterations == 1
        assert res.initial_union_size == 2
        assert res.beta[0] == pytest.approx(2.0, abs=1e-12)
        assert res.beta[1:] == pytest.approx(np.zeros(5), abs=0.0)
        assert res.cost == pytest.approx(-5.0, abs=1e-12)

    def test_loose_budgets_skip_removal(self):
        instance = make_instance(T=3, D=4, N=12, seed=7)
        budget = SparsityBudget(max_per_vertex=2, max_global=4, max_changes=12)
        res = stepwise_fit(instance, budget, seed=1)
        assert res.removal_iterations == 0
        assert check_feasible(res.z, budget, instance.graph)

    @pytest.mark.parametrize("seed", range(50))
    def test_always_feasible_with_bounded_iterations(self, seed):
        rng = np.random.default_rng(1000 + seed)
        t = int(rng.integers(2, 6))
        d = int(rng.integers(3, 9))
        k_l = int(rng.integers(1, min(d, 4) + 1))
        k_g = int(rng.integers(k_l, d + 1))
        k_c = int(rng.integers(0, 2 * k_l * t + 1))
        use_chain = bool(rng.integers(2))
        graph = None
        if not use_chain:
            graph = SimilarityGraph(t, edges=())  # isolated vertices
        instance = make_instance(T=t, D=d, N=10, seed=seed, graph=graph)
        budget = SparsityBudget(max_per_vertex=k_l, max_global=k_g, max_changes=k_c)
        res = stepwise_fit(instance, budget, seed=seed)
        assert check_feasible(res.z, budget, instance.graph)
        assert res.removal_iterations <= res.initial_union_size
        qf = build_quadform(instance)
        assert res.cost == pytest.approx(eval_cost(qf, res.z), abs=1e-12)
        # the refit coefficients live inside the declared support
        assert np.all(res.beta[~res.z] == 0.0)
        assert res.cost <= 1e-12

    def test_determinism(self):
        instance = make_instance(T=4, D=6, N=10, seed=3)
        budget = SparsityBudget(max_per_vertex=2, max_global=3, max_changes=2)
        a = stepwise_fit(instance, budget, seed=9)
        b = stepwise_fit(instance, budget, seed=9)
        assert np.array_equal(a.z, b.z)
        assert a.cost == b.cost
        assert a.removal_iterations == b.removal_iterations

    def test_quality_bracketed_by_exhaustive_optimum(self):
        instance = make_instance(T=2, D=4, N=9, seed=11, lambda_delta=0.7)
        budget = SparsityBudget(max_per_vertex=1, max_global=2, max_changes=1)
        best_cost, _ = exhaustive_best_support(instance, 1, 2, 1)
        res = stepwise_fit(instance, budget, seed=0)
        assert res.cost >= best_cost - 1e-10
        assert res.cost <= 0.0

    def test_isolated_vertices_drop_without_swap(self):
        instance = make_instance(
            T=3, D=5, N=10, seed=13, graph=SimilarityGraph(3, edges=())
        )
        budget = SparsityBudget(max_per_vertex=2, max_global=2, max_changes=0)
        res = stepwise_fit(instance, budget, seed=2)
        assert check_feasible(res.z, budget, instance.graph)


class TestRemovalLoopMatchesReference:
    """The array-based removal loop against its plain-loop reference, bit for bit."""

    @pytest.mark.parametrize("kind", ["chain", "random", "isolated"])
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical(self, kind, seed):
        rng = np.random.default_rng(3000 + seed)
        t = int(rng.integers(8, 12))
        d = int(rng.integers(10, 14))
        k_l = 2 + seed % 2
        if seed % 3 == 2 and kind != "isolated":
            # only the change budget binds
            budget = SparsityBudget(max_per_vertex=k_l, max_global=d, max_changes=1)
        else:
            budget = SparsityBudget(
                max_per_vertex=k_l, max_global=k_l, max_changes=2 * k_l * t
            )
        instance = make_instance(
            T=t, D=d, N=12, seed=seed, graph=graph_of_kind(kind, t, rng),
            lambda_delta=float(rng.uniform(0.1, 2.0)),
        )
        self._assert_matches(instance, budget, seed, min_iterations=5)

    def test_single_vertex(self):
        # no edges and a union no larger than K_L: the loop never runs
        instance = make_instance(T=1, D=6, N=10, seed=5, graph=SimilarityGraph(1))
        budget = SparsityBudget(max_per_vertex=3, max_global=3, max_changes=0)
        self._assert_matches(instance, budget, 5, min_iterations=0)

    @staticmethod
    def _assert_matches(instance, budget, seed, min_iterations):
        z, beta, cost, iterations = stepwise_fit_reference(instance, budget, seed=seed)
        res = stepwise_fit(instance, budget, seed=seed)
        assert iterations >= min_iterations
        assert res.removal_iterations == iterations
        np.testing.assert_array_equal(res.z, z)
        assert res.beta.tobytes() == beta.tobytes()
        assert res.cost == cost


class TestSingleSolve:
    """The final refit is one evaluation; a greedy start can be handed in."""

    @pytest.mark.parametrize("kind", ["chain", "random"])
    @pytest.mark.parametrize("seed", range(3))
    def test_beta_and_cost_match_separate_solves(self, kind, seed):
        rng = np.random.default_rng(5000 + seed)
        t = int(rng.integers(6, 10))
        instance = make_instance(
            T=t, D=9, N=12, seed=seed, graph=graph_of_kind(kind, t, rng), lambda_delta=0.8
        )
        budget = SparsityBudget(max_per_vertex=3, max_global=4, max_changes=3)
        res = stepwise_fit(instance, budget, seed=seed)
        assert res.removal_iterations > 0
        qf = build_quadform(instance)
        assert res.beta.tobytes() == beta_star(qf, res.z).tobytes()
        assert res.cost == eval_cost(qf, res.z)

    @pytest.mark.parametrize("kind", ["chain", "random"])
    def test_precomputed_start_gives_the_same_fit(self, kind):
        rng = np.random.default_rng(5100)
        instance = make_instance(
            T=8, D=9, N=12, seed=7, graph=graph_of_kind(kind, 8, rng), lambda_delta=0.8
        )
        budget = SparsityBudget(max_per_vertex=3, max_global=4, max_changes=3)
        start = greedy_start(instance, budget)
        before = [a.copy() for a in (start.coeffs, start.colr, start.col_norm2)]
        qf = build_quadform(instance)
        mu = qf.mu.copy()
        xs = [x.copy() for x in qf.x_blocks]
        given = stepwise_fit(instance, budget, seed=2, qf=qf, start=start)
        plain = stepwise_fit(instance, budget, seed=2)
        assert given.removal_iterations == plain.removal_iterations > 0
        assert given.z.tobytes() == plain.z.tobytes()
        assert given.beta.tobytes() == plain.beta.tobytes()
        assert given.cost == plain.cost
        # the fit works on copies: the start and the quadform are left as given
        for a, b in zip((start.coeffs, start.colr, start.col_norm2), before):
            assert a.tobytes() == b.tobytes()
        assert qf.mu.tobytes() == mu.tobytes()
        for x, x0 in zip(qf.x_blocks, xs):
            assert x.tobytes() == x0.tobytes()


class TestWarmStartQuality:
    def test_cost_ratio_versus_exhaustive_recorded(self, capsys):
        # quality of the heuristic against the exact optimum on instances
        # small enough to enumerate; the ratio is recorded for inspection
        # and only validity (never better than optimal) is asserted
        ratios = []
        for seed in range(12):
            instance = make_instance(T=2, D=4, N=9, seed=seed, lambda_delta=0.7)
            budget = SparsityBudget(max_per_vertex=1, max_global=2, max_changes=1)
            res = stepwise_fit(instance, budget, seed=seed)
            best_cost, _ = exhaustive_best_support(instance, 1, 2, 1)
            assert res.cost >= best_cost - 1e-10
            if best_cost < -1e-12:
                ratios.append(res.cost / best_cost)
        assert ratios
        with capsys.disabled():
            print(
                f"\n[stepwise quality] cost ratio vs exact optimum over "
                f"{len(ratios)} instances: min={min(ratios):.4f} "
                f"mean={sum(ratios) / len(ratios):.4f}"
            )
