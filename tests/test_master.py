"""Tree search vs exhaustive enumeration on small instances."""

import itertools

import numpy as np
import pytest

from slowreg import (
    BudgetError,
    SparsityBudget,
    build_quadform,
    check_feasible,
    eval_cost,
    stepwise_fit,
)
from slowreg import master
from slowreg.benchmark import SynthParams, make_synthetic_dataset, solver_budget
from slowreg.master import (
    MasterProgram,
    SolveLimits,
    branch_variable,
    solve_support_selection,
)
from slowreg.simplex import LPResult, solve_boxed_lp

from util import (
    budget_patterns,
    exhaustive_best_support,
    make_instance,
    set_feasible_reference,
)

TIGHT = SolveLimits(gap_tol=1e-9)


def small_setup(seed, k_l=1, k_g=2, k_c=1, t=2, d=4):
    instance = make_instance(T=t, D=d, N=9, seed=seed, lambda_delta=0.7)
    qf = build_quadform(instance)
    budget = SparsityBudget(max_per_vertex=k_l, max_global=k_g, max_changes=k_c)
    return instance, qf, budget


class TestMasterProgram:
    def test_dimensions(self):
        _, qf, budget = small_setup(0)
        mp = MasterProgram(qf, budget)
        t, d, e = 2, 4, 1
        assert mp.n_vars == 1 + t * d + d + e * d
        assert mp.base_rows == t + t * d + 1 + 2 * e * d + 1
        assert mp.m == mp.base_rows

    def test_lp_without_cuts_rests_on_eta_floor(self):
        _, qf, budget = small_setup(1)
        mp = MasterProgram(qf, budget)
        res = solve_boxed_lp(mp.node_lp(
            np.zeros(8, dtype=bool), np.zeros(8, dtype=bool)
        ))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(mp.eta_lower, abs=1e-9)

    def test_eta_floor_value(self):
        _, qf, budget = small_setup(2)
        mp = MasterProgram(qf, budget)
        assert mp.eta_lower == pytest.approx(
            -0.5 * float(qf.mu @ qf.mu) / qf.lambda_beta, abs=0.0
        )

    def test_cut_dedupe(self):
        _, qf, budget = small_setup(3)
        mp = MasterProgram(qf, budget)
        anchor = np.zeros(8, dtype=bool)
        anchor[0] = True
        grad = np.linspace(-2.0, 2.0, 8)
        assert mp.add_cut(anchor, -1.0, grad)
        assert not mp.add_cut(anchor, -1.0, grad)
        assert mp.cut_count == 1
        assert mp.known_cost(anchor) == -1.0

    def test_cut_row_scaling(self):
        _, qf, budget = small_setup(4)
        mp = MasterProgram(qf, budget)
        anchor = np.zeros(8, dtype=bool)
        grad = np.full(8, -1e7)
        mp.add_cut(anchor, -5e6, grad)
        row = mp._a[mp.m - 1]
        assert np.max(np.abs(row)) <= 1.0 + 1e-12

    def test_cut_binds_eta_at_anchor(self):
        # after cutting at an anchor, re-solving the LP cannot leave eta
        # below the true cost at that anchor
        instance, qf, budget = small_setup(5)
        mp = MasterProgram(qf, budget)
        anchor = np.zeros(8, dtype=bool)
        anchor[1] = True
        anchor[4 + 1] = True
        from slowreg import evaluate, eval_gradient

        ev = evaluate(qf, anchor)
        grad = eval_gradient(qf, anchor, ev.cache)
        mp.add_cut(anchor, ev.cost, grad)
        fix1 = anchor.copy()
        fix0 = ~anchor
        res = solve_boxed_lp(mp.node_lp(fix0, fix1))
        assert res.status == "optimal"
        assert res.objective >= ev.cost - 1e-8

    def test_node_bounds_applied(self):
        _, qf, budget = small_setup(6)
        mp = MasterProgram(qf, budget)
        fix0 = np.zeros(8, dtype=bool)
        fix1 = np.zeros(8, dtype=bool)
        fix0[2] = True
        fix1[5] = True
        lp = mp.node_lp(fix0, fix1)
        assert lp.upper[mp.z0 + 2] == 0.0
        assert lp.lower[mp.z0 + 5] == 1.0


class TestBranchVariable:
    def test_most_fractional(self):
        assert branch_variable(np.array([0.9, 0.45, 0.2])) == 1

    def test_tie_goes_low(self):
        assert branch_variable(np.array([0.4, 0.6, 0.4])) == 0

    def test_integral_raises(self):
        with pytest.raises(ValueError):
            branch_variable(np.array([0.0, 1.0, 1.0]))


class TestSolverExactness:
    @pytest.mark.parametrize(
        "seed,budgets",
        [
            (0, (1, 2, 1)),
            (1, (1, 1, 0)),
            (2, (2, 3, 2)),
            (3, (2, 4, 8)),
            (4, (1, 2, 2)),
            (5, (3, 4, 4)),
            (6, (2, 2, 0)),
            (7, (4, 4, 16)),
        ],
    )
    def test_matches_enumeration(self, seed, budgets):
        k_l, k_g, k_c = budgets
        instance, qf, budget = small_setup(seed, k_l, k_g, k_c)
        best_cost, _ = exhaustive_best_support(instance, k_l, k_g, k_c)
        res = solve_support_selection(qf, budget, limits=TIGHT)
        assert res.status == "optimal"
        assert res.upper_bound == pytest.approx(best_cost, abs=1e-8)
        assert res.relative_gap <= 1e-9 + 1e-12
        assert check_feasible(res.incumbent_z, budget, qf.graph)
        # the reported incumbent really has the reported cost
        assert eval_cost(qf, res.incumbent_z) == pytest.approx(
            res.upper_bound, abs=1e-9
        )

    @pytest.mark.parametrize(
        "t,d,edges", [(3, 3, [(0, 1), (1, 2)]), (4, 3, [(0, 2), (1, 3), (2, 3), (0, 3)])]
    )
    def test_pruned_enumeration_matches_the_full_product(self, t, d, edges):
        for k_l, k_g, k_c in [(1, 2, 1), (1, 1, 0), (2, 3, 2), (3, 3, 6)]:
            full = [
                bits for bits in itertools.product((0, 1), repeat=t * d)
                if set_feasible_reference(np.array(bits), t, d, k_l, k_g, k_c, edges)
            ]
            assert list(budget_patterns(t, d, k_l, k_g, k_c, edges)) == full

    def test_objective_mapping(self):
        instance, qf, budget = small_setup(11, 2, 3, 2)
        res = solve_support_selection(qf, budget, limits=TIGHT)
        assert res.status == "optimal"
        direct = qf.objective_at(res.incumbent_beta)
        assert res.objective_value == pytest.approx(direct, rel=1e-8)

    def test_zero_moments(self):
        instance, qf, budget = small_setup(12)
        qf_zero = build_quadform(
            type(instance)(
                graph=instance.graph,
                x_blocks=instance.x_blocks,
                y_blocks=[np.zeros_like(y) for y in instance.y_blocks],
                lambda_beta=instance.lambda_beta,
                lambda_delta=instance.lambda_delta,
            )
        )
        res = solve_support_selection(qf_zero, budget, limits=TIGHT)
        assert res.status == "optimal"
        assert res.upper_bound == pytest.approx(0.0, abs=1e-10)
        assert res.lower_bound == pytest.approx(0.0, abs=1e-10)


class TestWarmStart:
    def test_warm_start_at_optimum(self):
        instance, qf, budget = small_setup(20, 1, 2, 1)
        best_cost, argbest = exhaustive_best_support(instance, 1, 2, 1)
        warm = argbest[0]
        res = solve_support_selection(qf, budget, warm_start=warm, limits=TIGHT)
        assert res.status == "optimal"
        assert res.upper_bound == pytest.approx(best_cost, abs=1e-8)
        assert res.cut_count >= 1

    def test_warm_start_infeasible(self):
        _, qf, budget = small_setup(21, 1, 2, 1)
        warm = np.ones(8, dtype=bool)  # violates every budget
        with pytest.raises(BudgetError):
            solve_support_selection(qf, budget, warm_start=warm)

    def test_warm_start_wrong_length(self):
        _, qf, budget = small_setup(22)
        with pytest.raises(ValueError):
            solve_support_selection(qf, budget, warm_start=np.zeros(5, dtype=bool))

    def test_warm_start_never_worsens(self):
        instance, qf, budget = small_setup(23, 2, 3, 2)
        cold = solve_support_selection(qf, budget, limits=TIGHT)
        warm_z = np.zeros(8, dtype=bool)
        warm_z[0] = True  # a deliberately weak but feasible start
        warm = solve_support_selection(qf, budget, warm_start=warm_z, limits=TIGHT)
        assert warm.status == "optimal"
        assert warm.upper_bound == pytest.approx(cold.upper_bound, abs=1e-8)


class TestLimitsAndDeterminism:
    def test_time_limit_zero_with_warm_start(self):
        _, qf, budget = small_setup(30, 1, 2, 1)
        warm = np.zeros(8, dtype=bool)
        warm[3] = True
        res = solve_support_selection(
            qf, budget, warm_start=warm, limits=SolveLimits(time_limit=0.0)
        )
        assert res.status == "time_limit"
        assert np.array_equal(res.incumbent_z, warm)
        assert res.relative_gap > 0

    def test_time_limit_zero_cold(self):
        _, qf, budget = small_setup(31)
        res = solve_support_selection(qf, budget, limits=SolveLimits(time_limit=0.0))
        assert res.status == "time_limit"
        assert res.incumbent_z is None
        assert res.incumbent_beta is None
        assert not np.isfinite(res.upper_bound)

    def test_node_budget_reports_node_limit(self):
        _, qf, budget = small_setup(32, 1, 3, 2)
        res = solve_support_selection(
            qf, budget, limits=SolveLimits(max_nodes=1, gap_tol=1e-9)
        )
        assert res.status in ("optimal", "node_limit")
        if res.status == "node_limit":
            assert res.node_count == 1

    def test_determinism(self):
        _, qf, budget = small_setup(33, 2, 3, 2)
        a = solve_support_selection(qf, budget, limits=TIGHT)
        b = solve_support_selection(qf, budget, limits=TIGHT)
        assert a.status == b.status
        assert a.node_count == b.node_count
        assert a.cut_count == b.cut_count
        assert a.upper_bound == b.upper_bound
        assert a.lower_bound == b.lower_bound
        assert np.array_equal(a.incumbent_z, b.incumbent_z)

    def test_history_monotone(self):
        _, qf, budget = small_setup(36, 2, 3, 2)
        res = solve_support_selection(qf, budget, limits=TIGHT)
        lows = np.array([h[1] for h in res.history])
        ups = np.array([h[2] for h in res.history])
        finite_ups = ups[np.isfinite(ups)]
        assert np.all(np.diff(lows) >= -1e-9)
        assert np.all(np.diff(finite_ups) <= 1e-9)
        assert res.history[-1][1] <= res.history[-1][2] + 1e-12

    def test_counts_positive_on_nontrivial_instance(self):
        _, qf, budget = small_setup(37, 2, 3, 2)
        res = solve_support_selection(qf, budget, limits=TIGHT)
        assert res.node_count >= 1
        assert res.cut_count >= 1
        assert res.wall_time >= 0.0


class TestCutGeometry:
    def test_negative_gradient_cut_pulls_selection_to_one(self):
        # with a single cut whose gradient is negative everywhere and no
        # binding budget, the relaxation sets every selection variable to 1
        # and the objective equals the cut evaluated at that point
        instance, qf, _ = small_setup(43, t=2, d=3)
        td = qf.mu.size
        budget = SparsityBudget(max_per_vertex=3, max_global=3, max_changes=2 * 3 * 2)
        mp = MasterProgram(qf, budget)
        anchor = np.zeros(td, dtype=bool)
        gradient = -np.linspace(1.0, 2.0, td)
        mp.add_cut(anchor, 0.0, gradient)
        res = solve_boxed_lp(mp.node_lp(np.zeros(td, bool), np.zeros(td, bool)))
        assert res.status == "optimal"
        z_lp = res.x[mp.z0 : mp.s0]
        np.testing.assert_allclose(z_lp, 1.0, atol=1e-9)
        expected = mp.cuts[anchor.tobytes()].evaluate(z_lp)
        assert res.objective == pytest.approx(expected, abs=1e-9)


def _random_feasible_supports(rng, count, t, d, k_l, k_g, k_c, edges):
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        pool = rng.choice(d, size=k_g, replace=False)
        z = np.zeros((t, d), dtype=bool)
        for v in range(t):
            k = rng.integers(0, k_l + 1)
            if k:
                z[v, rng.choice(pool, size=k, replace=False)] = True
        flat = z.ravel()
        if set_feasible_reference(flat, t, d, k_l, k_g, k_c, edges):
            out.append(flat.copy())
    assert len(out) == count
    return out


class TestCutValidity:
    def test_every_cut_supports_cost_exhaustively(self):
        # every cut produced during a solve must lie at or below the true
        # cost over the whole feasible set, checked by full enumeration
        instance, qf, budget = small_setup(44, 2, 3, 2, t=2, d=4)
        res = solve_support_selection(qf, budget, limits=TIGHT)
        assert res.status == "optimal"
        assert len(res.cuts) == res.cut_count
        t, d = 2, 4
        checked = 0
        for bits in itertools.product((False, True), repeat=t * d):
            z = np.array(bits, dtype=bool)
            if not z.any():
                continue
            if not set_feasible_reference(z, t, d, 2, 3, 2, qf.graph.edges):
                continue
            cost = eval_cost(qf, z)
            for cut in res.cuts:
                assert cost >= cut.evaluate(z) - 1e-8
            checked += 1
        assert checked > 0

    def test_every_cut_supports_cost_on_samples(self):
        instance = make_instance(T=3, D=5, N=9, seed=45, lambda_delta=0.7)
        qf = build_quadform(instance)
        budget = SparsityBudget(max_per_vertex=2, max_global=3, max_changes=4)
        res = solve_support_selection(qf, budget, limits=TIGHT)
        rng = np.random.default_rng(46)
        samples = _random_feasible_supports(
            rng, 1000, 3, 5, 2, 3, 4, qf.graph.edges
        )
        assert res.cuts
        for z in samples:
            cost = eval_cost(qf, z)
            for cut in res.cuts:
                assert cost >= cut.evaluate(z) - 1e-8

    def test_no_anchor_is_cut_twice(self):
        _, qf, budget = small_setup(47, 2, 3, 2)
        res = solve_support_selection(qf, budget, limits=TIGHT)
        keys = {cut.anchor.tobytes() for cut in res.cuts}
        assert len(keys) == len(res.cuts) == res.cut_count


class TestTermination:
    def test_finite_termination_without_time_limit(self):
        # twelve binaries, no wall-clock guard: the tree must still close
        instance = make_instance(T=3, D=4, N=9, seed=48, lambda_delta=0.7)
        qf = build_quadform(instance)
        budget = SparsityBudget(max_per_vertex=2, max_global=3, max_changes=2)
        limits = SolveLimits(time_limit=np.inf, gap_tol=1e-9)
        res = solve_support_selection(qf, budget, limits=limits)
        assert res.status == "optimal"
        best_cost, _ = exhaustive_best_support(instance, 2, 3, 2)
        assert res.upper_bound == pytest.approx(best_cost, abs=1e-8)

    @pytest.mark.parametrize("budgets", [(1, 2, 1), (1, 1, 0), (2, 3, 2), (3, 3, 6)])
    def test_best_bound_matches_enumeration(self, budgets):
        k_l, k_g, k_c = budgets
        instance, qf, budget = small_setup(49, k_l, k_g, k_c, t=2, d=3)
        best_cost, _ = exhaustive_best_support(instance, k_l, k_g, k_c)
        res = solve_support_selection(qf, budget, limits=TIGHT)
        assert res.status == "optimal"
        assert res.upper_bound == pytest.approx(best_cost, abs=1e-8)
        assert res.lower_bound <= best_cost + 1e-8

    def test_exhausted_search_without_incumbent_is_an_internal_error(self, monkeypatch):
        # z = 0 keeps the root LP feasible, so an empty heap without an
        # incumbent can only come from a fault in the node LPs
        def always_infeasible(lp, start=None):
            return LPResult("infeasible", None, np.nan, 0, None, False)

        monkeypatch.setattr(master, "solve_boxed_lp", always_infeasible)
        _, qf, budget = small_setup(49)
        with pytest.raises(RuntimeError, match="without an incumbent"):
            solve_support_selection(qf, budget, limits=TIGHT)


def weak_chain_setup(seed):
    """Chain T=4, D=8 at weak weights: the bound stays loose for 100 nodes."""
    dataset = make_synthetic_dataset(
        SynthParams(n=30, t=4, d=8, k_l=2, k_c=2, mode="temporal", seed=seed)
    )
    instance = dataset.instance.with_weights(30 * 3.0**-6, 30 * 3.0**-2)
    budget = solver_budget(dataset)
    warm = stepwise_fit(instance, budget, seed=seed)
    return instance, budget, warm.z


class TestWarmNodeLPs:
    @pytest.mark.parametrize("seed", [0, 1632452358003])
    def test_every_offered_start_is_used(self, seed, monkeypatch):
        # child nodes start from the parent's basis and cut re-solves from
        # the previous one; the dual phase must accept every such start
        calls = []

        def recording(lp, start=None):
            res = solve_boxed_lp(lp, start=start)
            calls.append((start is not None, res.warm))
            return res

        monkeypatch.setattr(master, "solve_boxed_lp", recording)
        instance, budget, warm_z = weak_chain_setup(seed)
        res = solve_support_selection(
            build_quadform(instance), budget, warm_start=warm_z,
            limits=SolveLimits(max_nodes=100),
        )
        assert res.node_count == 100
        assert calls[0] == (False, False)  # the root starts cold
        assert len(calls) > res.node_count
        assert all(warm for offered, warm in calls[1:] if offered)
        assert all(offered for offered, _ in calls[1:])


class TestIllConditionedNodeLP:
    def test_tiny_pivot_does_not_derail_branching(self):
        # a node LP of this instance once pivoted on a 1e-9 entry of a column
        # whose largest entry was 5e5; the singular basis gave an "optimal"
        # point far outside the box and branching then failed
        instance, budget, warm_z = weak_chain_setup(1632452358003)
        res = solve_support_selection(
            build_quadform(instance), budget, warm_start=warm_z,
            limits=SolveLimits(max_nodes=100),
        )
        assert res.status in ("optimal", "node_limit")
        assert check_feasible(res.incumbent_z, budget, instance.graph)
        best_cost, _ = exhaustive_best_support(
            instance, budget.max_per_vertex, budget.max_global, budget.max_changes
        )
        assert res.lower_bound <= best_cost + 1e-8
        assert res.upper_bound >= best_cost - 1e-8
