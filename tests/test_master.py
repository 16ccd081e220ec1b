"""Tree search vs exhaustive enumeration on small instances."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slowreg import (
    BudgetError,
    SimilarityGraph,
    SparsityBudget,
    beta_star,
    build_quadform,
    check_feasible,
    eval_cost,
    eval_gradient,
    evaluate,
    stepwise_fit,
    support_change_count,
    true_objective,
)
from slowreg import master
from slowreg.benchmark import SynthParams, make_synthetic_dataset, solver_budget
from slowreg.highs import LPResult, solve_boxed_lp
from slowreg.master import (
    MasterProgram,
    SolveLimits,
    branch_variable,
    solve_support_selection,
)

from util import (
    budget_patterns,
    cut_value_reference,
    exhaustive_best_support,
    make_instance,
    random_graph,
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
        assert mp.lp.m == mp.base_rows

    def test_lp_without_cuts_rests_on_eta_floor(self):
        _, qf, budget = small_setup(1)
        mp = MasterProgram(qf, budget)
        mp.fix(np.full(8, -1, dtype=np.int8))
        res = solve_boxed_lp(mp.lp)
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
        assert len(mp.cuts) == 1
        assert mp.cuts.get(anchor.tobytes()).intercept == -1.0

    def test_cut_row_scaling(self):
        _, qf, budget = small_setup(4)
        mp = MasterProgram(qf, budget)
        anchor = np.zeros(8, dtype=bool)
        grad = np.full(8, -1e7)
        mp.add_cut(anchor, -5e6, grad)
        _, cols, values = mp.lp.highs.getRowEntries(mp.lp.m - 1)
        assert cols.tolist() == list(range(1 + 8))  # eta and every z
        assert np.max(np.abs(values)) <= 1.0 + 1e-12

    def test_cut_binds_eta_at_anchor(self):
        # after cutting at an anchor, re-solving the LP cannot leave eta
        # below the true cost at that anchor
        instance, qf, budget = small_setup(5)
        mp = MasterProgram(qf, budget)
        anchor = np.zeros(8, dtype=bool)
        anchor[1] = True
        anchor[4 + 1] = True
        ev = evaluate(qf, anchor)
        mp.add_cut(anchor, *eval_gradient(qf, ev.v0))
        mp.fix(anchor.astype(np.int8))
        res = solve_boxed_lp(mp.lp)
        assert res.status == "optimal"
        assert res.objective >= ev.cost - 1e-8

    def test_node_bounds_applied(self):
        _, qf, budget = small_setup(6)
        mp = MasterProgram(qf, budget)
        fixed = np.full(8, -1, dtype=np.int8)
        fixed[2] = 0
        fixed[5] = 1
        mp.fix(fixed)
        cols = np.arange(mp.n_vars, dtype=np.int32)
        _, _, _, lower, upper, _ = mp.lp.highs.getCols(cols.size, cols)
        assert upper[mp.z0 + 2] == 0.0
        assert lower[mp.z0 + 5] == 1.0
        free = np.ones(mp.n_vars, dtype=bool)
        free[[0, mp.z0 + 2, mp.z0 + 5]] = False
        assert np.all(lower[free] == 0.0) and np.all(upper[free] == 1.0)
        assert lower[0] == mp.eta_lower and upper[0] == np.inf

    @pytest.mark.parametrize("t,d,edges", [(2, 4, [(0, 1)]), (3, 2, [(0, 1), (1, 2), (0, 2)]),
                                           (3, 3, [])])
    def test_base_rows_match_the_budget_polytope(self, t, d, edges):
        # the sparse rows in HiGHS against the polytope written out row by row
        graph = SimilarityGraph(vertex_count=t, edges=tuple(edges))
        instance = make_instance(T=t, D=d, N=9, seed=7, graph=graph, lambda_delta=0.7)
        budget = SparsityBudget(max_per_vertex=1, max_global=2, max_changes=3)
        mp = MasterProgram(build_quadform(instance), budget)
        rows, rhs = [], []

        def row(entries, bound):
            r = np.zeros(mp.n_vars)
            for col, value in entries:
                r[col] = value
            rows.append(r)
            rhs.append(bound)

        z = lambda v, j: 1 + v * d + j  # noqa: E731
        for v in range(t):
            row([(z(v, j), 1.0) for j in range(d)], 1.0)
        for v in range(t):
            for j in range(d):
                row([(z(v, j), 1.0), (1 + t * d + j, -1.0)], 0.0)
        row([(1 + t * d + j, 1.0) for j in range(d)], 2.0)
        for e, (u, v) in enumerate(graph.edges):
            for j in range(d):
                w = 1 + t * d + d + e * d + j
                row([(z(u, j), 1.0), (z(v, j), -1.0), (w, -1.0)], 0.0)
                row([(z(u, j), -1.0), (z(v, j), 1.0), (w, -1.0)], 0.0)
        row([(1 + t * d + d + k, 1.0) for k in range(len(edges) * d)], 3.0)

        assert mp.lp.m == mp.base_rows == len(rows)
        for i, (expected, bound) in enumerate(zip(rows, rhs)):
            _, lower, upper, _ = mp.lp.highs.getRow(i)
            _, cols, values = mp.lp.highs.getRowEntries(i)
            got = np.zeros(mp.n_vars)
            got[cols] = values
            assert np.array_equal(got, expected), i
            assert (lower, upper) == (-np.inf, bound)


class TestBranchVariable:
    def test_most_fractional(self):
        assert branch_variable(np.array([0.9, 0.45, 0.2])) == 1

    def test_tie_goes_low(self):
        assert branch_variable(np.array([0.4, 0.6, 0.4])) == 0

    def test_integral_returns_none(self):
        assert branch_variable(np.array([0.0, 1.0, 1.0])) is None
        assert branch_variable(np.array([1e-7, 1.0 - 1e-7])) is None
        assert branch_variable(np.array([0.0, 1e-5])) == 1


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

    @pytest.mark.parametrize("k_c", [10, 12, 16])
    def test_change_budget_past_twice_k_l_t(self, k_c):
        # the complete graph on T=5 has 10 edges, so K_C can reach past
        # 2*K_L*T = 10: the optimum at K_C=16 makes 16 changes
        graph = SimilarityGraph(5, tuple(itertools.combinations(range(5), 2)))
        instance = make_instance(T=5, D=3, N=8, seed=1, graph=graph)
        qf = build_quadform(instance)
        budget = SparsityBudget(max_per_vertex=1, max_global=3, max_changes=k_c)
        best_cost, _ = exhaustive_best_support(instance, 1, 3, k_c)
        res = solve_support_selection(qf, budget, limits=TIGHT)
        assert res.status == "optimal"
        assert res.upper_bound == pytest.approx(best_cost, abs=1e-8)
        assert check_feasible(res.incumbent_z, budget, graph)
        if k_c > 10:
            assert support_change_count(res.incumbent_z.reshape(5, 3), graph) > 10

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
        direct = true_objective(instance, res.incumbent_beta)
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

    @pytest.mark.parametrize("name, value", [
        ("gap_tol", -1e-3), ("gap_tol", 0.0), ("gap_tol", np.nan), ("gap_tol", np.inf),
        ("time_limit", np.nan), ("time_limit", -1.0), ("max_nodes", -1),
    ])
    def test_refused_limits(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolveLimits(**{name: value})

    def test_node_budget_reports_node_limit(self):
        _, qf, budget = small_setup(32, 1, 3, 2)
        res = solve_support_selection(
            qf, budget, limits=SolveLimits(max_nodes=1, gap_tol=1e-9)
        )
        assert res.status in ("optimal", "node_limit")
        if res.status == "node_limit":
            assert res.node_count == 1

    def test_node_lp_at_the_deadline_ends_the_search(self, monkeypatch):
        # the third node LP stops at the deadline: the search ends with
        # time_limit and reports the incumbent it holds
        calls = []

        def stopping(lp, start=None):
            calls.append(start)
            if len(calls) == 3:
                return LPResult("time_limit", None, np.nan, 0, None, False)
            return solve_boxed_lp(lp, start=start)

        monkeypatch.setattr(master, "solve_boxed_lp", stopping)
        instance, budget, warm_z = weak_setup(0)
        qf = build_quadform(instance)
        res = solve_support_selection(qf, budget, warm_start=warm_z,
                                      limits=SolveLimits(max_nodes=100))
        assert res.status == "time_limit" and len(calls) == 3
        assert check_feasible(res.incumbent_z, budget, instance.graph)
        assert res.upper_bound <= eval_cost(qf, warm_z)
        assert res.objective_value == qf.const_term + 2.0 * res.upper_bound
        assert res.lower_bound <= res.upper_bound
        assert res.history[-1][1:] == (res.lower_bound, res.upper_bound)

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
        mp.fix(np.full(td, -1, dtype=np.int8))
        res = solve_boxed_lp(mp.lp)
        assert res.status == "optimal"
        z_lp = res.x[mp.z0 : mp.s0]
        np.testing.assert_allclose(z_lp, 1.0, atol=1e-9)
        expected = cut_value_reference(mp.cuts[anchor.tobytes()], z_lp)
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
                assert cost >= cut_value_reference(cut, z) - 1e-8
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
                assert cost >= cut_value_reference(cut, z) - 1e-8

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

    def test_dry_heap_bound_keeps_the_dominated_lp_values(self):
        # the root is dominated: its LP value lies within gap_tol below the
        # warm start's cost, and below the enumerated optimum, and the heap
        # runs dry after it, so upper alone is no lower bound
        instance = make_instance(T=2, D=2, N=6, seed=258, lambda_beta=1.0, lambda_delta=0.0,
                                 graph=SimilarityGraph(2, ()))
        qf = build_quadform(instance)
        budget = SparsityBudget(max_per_vertex=1, max_global=1, max_changes=0)
        warm = stepwise_fit(instance, budget, seed=258, qf=qf)
        res = solve_support_selection(qf, budget, warm_start=warm.z)
        best, _ = exhaustive_best_support(instance, 1, 1, 0)
        assert (res.status, res.node_count) == ("optimal", 1)
        assert res.lower_bound <= best < res.upper_bound
        assert 0.0 < res.relative_gap <= SolveLimits.gap_tol
        assert res.history[-1][1:] == (res.lower_bound, res.upper_bound)

    def test_exhausted_search_without_incumbent_is_an_internal_error(self, monkeypatch):
        # z = 0 keeps the root LP feasible, so an empty heap without an
        # incumbent can only come from a fault in the node LPs
        def always_infeasible(lp, start=None):
            return LPResult("infeasible", None, np.nan, 0, None, False)

        monkeypatch.setattr(master, "solve_boxed_lp", always_infeasible)
        _, qf, budget = small_setup(49)
        with pytest.raises(RuntimeError, match="without an incumbent"):
            solve_support_selection(qf, budget, limits=TIGHT)


class TestSearchProperties:
    """Random instances on chain, random and edgeless graphs, T <= 3, D <= 4."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bounds_cuts_and_history(self, data):
        t = data.draw(st.integers(1, 3), label="t")
        d = data.draw(st.integers(1, 4), label="d")
        kind = data.draw(st.sampled_from(["chain", "random", "edgeless"]), label="kind")
        k_l = data.draw(st.integers(1, d), label="k_l")
        k_g = data.draw(st.integers(k_l, d), label="k_g")
        k_c = data.draw(st.integers(0, 2 * k_l * t), label="k_c")
        lambda_beta = data.draw(st.floats(0.02, 20.0), label="lambda_beta")
        lambda_delta = data.draw(st.floats(0.0, 20.0), label="lambda_delta")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        pairs = t * (t - 1) // 2
        graph = {
            "chain": SimilarityGraph.chain(t),
            "random": random_graph(t, int(rng.integers(min(1, pairs), pairs + 1)), rng),
            "edgeless": SimilarityGraph(t, edges=()),
        }[kind]
        instance = make_instance(T=t, D=d, N=6, seed=seed, lambda_beta=lambda_beta,
                                 lambda_delta=lambda_delta, graph=graph)
        qf = build_quadform(instance)
        budget = SparsityBudget(max_per_vertex=k_l, max_global=k_g, max_changes=k_c)
        warm = stepwise_fit(instance, budget, seed=seed, qf=qf)
        limits = SolveLimits(time_limit=60.0, max_nodes=50)
        lp_runs = []

        def counting(lp, start=None):
            lp_runs.append(start)
            return solve_boxed_lp(lp, start=start)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(master, "solve_boxed_lp", counting)
            res = solve_support_selection(qf, budget, warm_start=warm.z, limits=limits)
        # one LP per node and one re-solve per cut, but the warm start's cut
        # is added before the root: no node is solved twice
        assert len(lp_runs) == res.node_count + res.cut_count - 1

        best, _ = exhaustive_best_support(instance, k_l, k_g, k_c)
        tol = 1e-9 * max(1.0, abs(best))
        assert res.lower_bound <= best + tol
        assert best <= res.upper_bound + tol
        if res.status == "optimal":
            assert res.upper_bound - best <= limits.gap_tol * max(1.0, abs(best)) + tol
        assert res.upper_bound <= eval_cost(qf, warm.z)
        for bits in budget_patterns(t, d, k_l, k_g, k_c, graph.edges):
            z = np.array(bits, dtype=bool)
            cost = eval_cost(qf, z)
            for cut in res.cuts:
                assert cut_value_reference(cut, z) <= cost + 1e-9 * max(1.0, abs(cost))
        # an entry per move of a bound, the last one at the result's bounds
        moves = [(low, up) for _, low, up in res.history]
        assert all(a != b for a, b in zip(moves, moves[1:]))
        assert moves[-1] == (res.lower_bound, res.upper_bound)


def weak_setup(seed, mode="temporal"):
    """T=4, D=8 at weak weights: the bound stays loose for 100 nodes."""
    graph = {"temporal": {}, "spatial": dict(e=4, k_g=4)}[mode]
    dataset = make_synthetic_dataset(
        SynthParams(n=30, t=4, d=8, k_l=2, k_c=2, mode=mode, seed=seed, **graph)
    )
    instance = dataset.instance.with_weights(30 * 3.0**-6, 30 * 3.0**-2)
    budget = solver_budget(dataset)
    warm = stepwise_fit(instance, budget, seed=seed)
    return instance, budget, warm.z


class TestIncumbent:
    @pytest.mark.parametrize("mode", ["temporal", "spatial"])
    @pytest.mark.parametrize("seed", range(3))
    def test_capped_solve_reports_the_best_support_it_evaluated(self, seed, mode,
                                                                monkeypatch):
        # without a warm start, every support the tree evaluates competes for
        # the incumbent at once, also one whose cut then re-solves its node
        evaluated = []

        def recording(qf, z):
            ev = evaluate(qf, z)
            evaluated.append((ev.cost, np.array(z, dtype=bool)))
            return ev

        monkeypatch.setattr(master, "evaluate", recording)
        instance, budget, _ = weak_setup(seed, mode)
        qf = build_quadform(instance)
        for cap in (1, 3, 10, 30):
            evaluated.clear()
            res = solve_support_selection(qf, budget, limits=SolveLimits(max_nodes=cap))
            if not evaluated:
                assert res.incumbent_z is None
                continue
            best_cost, best_z = min(evaluated, key=lambda e: e[0])
            assert res.upper_bound == best_cost
            assert np.array_equal(res.incumbent_z, best_z)

    @pytest.mark.parametrize("seed", range(3))
    def test_incumbent_beta_is_beta_star(self, seed):
        # the coefficients come from the evaluation that made the incumbent,
        # so they are the bytes a fresh restricted solve gives
        instance, budget, warm_z = weak_setup(seed, ("temporal", "spatial")[seed % 2])
        qf = build_quadform(instance)
        capped = solve_support_selection(qf, budget, warm_start=warm_z,
                                         limits=SolveLimits(max_nodes=30))
        _, small_qf, small_budget = small_setup(seed, 2, 3, 2)
        certified = solve_support_selection(small_qf, small_budget, limits=TIGHT)
        assert (capped.status, certified.status) == ("node_limit", "optimal")
        for q, res in ((qf, capped), (small_qf, certified)):
            assert res.incumbent_beta.tobytes() == beta_star(q, res.incumbent_z).tobytes()


class TestNodeOutcomes:
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_node_ends_in_one_of_four_outcomes(self, seed, edges, warm, monkeypatch):
        outcomes = []
        step = master._Search.step

        def recording(self, fixed, start):
            out = step(self, fixed, start)
            outcomes.append(out[0])
            return out

        monkeypatch.setattr(master._Search, "step", recording)
        graph = SimilarityGraph(vertex_count=3, edges=tuple(edges))
        instance = make_instance(T=3, D=4, N=9, seed=seed, graph=graph, lambda_delta=0.7)
        budget = SparsityBudget(max_per_vertex=2, max_global=3, max_changes=2)
        warm_z = stepwise_fit(instance, budget, seed=seed).z if warm else None
        res = solve_support_selection(build_quadform(instance), budget,
                                      warm_start=warm_z, limits=TIGHT)
        assert res.status == "optimal"
        assert len(outcomes) == res.node_count
        assert set(outcomes) <= {"infeasible", "time_limit", "dominated", "branched"}

    def test_an_anchor_whose_cut_holds_is_dominated(self):
        # the anchor's cut is in the pool but the support never competed, so
        # only the integral route through `separate` can end the node
        _, qf, budget = small_setup(5)
        anchor = np.zeros(8, dtype=bool)
        anchor[[1, 5]] = True
        search = master._Search(qf, budget, TIGHT)
        search.mp.add_cut(anchor, *eval_gradient(qf, evaluate(qf, anchor).v0))
        outcome, res, j = search.step(anchor.astype(np.int8), None)
        assert (outcome, j) == ("dominated", None)
        assert search.incumbent is None and search.upper == np.inf
        assert res.objective == pytest.approx(evaluate(qf, anchor).cost, abs=1e-9)


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
        instance, budget, warm_z = weak_setup(seed)
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
        instance, budget, warm_z = weak_setup(1632452358003)
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


# Solves two weak-weight instances (one spatial, one chain) at the 100-node
# cap and prints, per instance, the bounds and the enumerated optimum.
_ONE_THREAD_SCRIPT = """
import json
from slowreg import build_quadform, stepwise_fit
from slowreg.benchmark import SynthParams, make_synthetic_dataset, solver_budget
from slowreg.master import SolveLimits, solve_support_selection
from util import exhaustive_best_support

out = []
for mode, seed, graph in (("temporal", 3002, {}), ("spatial", 5004, dict(e=4, k_g=4))):
    dataset = make_synthetic_dataset(
        SynthParams(n=30, t=4, d=8, k_l=2, k_c=2, mode=mode, seed=seed, **graph)
    )
    instance = dataset.instance.with_weights(30 * 3.0**-6, 30 * 3.0**-2)
    budget = solver_budget(dataset)
    qf = build_quadform(instance)
    warm = stepwise_fit(instance, budget, seed=seed, qf=qf)
    res = solve_support_selection(
        qf, budget, warm_start=warm.z, limits=SolveLimits(max_nodes=100)
    )
    best, _ = exhaustive_best_support(
        instance, budget.max_per_vertex, budget.max_global, budget.max_changes
    )
    out.append(dict(lower=res.lower_bound, upper=res.upper_bound, best=best,
                    nodes=res.node_count))
print(json.dumps(out))
"""


class TestOneBlasThread:
    def test_weak_instances_with_primal_clean_up(self):
        # BLAS on one thread rounds differently from the default thread
        # count. These two instances are the only ones among exact_weak's run
        # seeds 0-23 that needed the primal clean-up pivot of the dense
        # simplex that HiGHS replaced. The benchmark pins one thread, so the
        # suite checks them that way too
        paths = [str(Path(master.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parent)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = "1"
        out = subprocess.run(
            [sys.executable, "-c", _ONE_THREAD_SCRIPT], env=env,
            capture_output=True, text=True, check=True,
        )
        runs = json.loads(out.stdout)
        assert len(runs) == 2
        for run in runs:
            assert run["nodes"] == 100
            assert run["lower"] <= run["best"] + 1e-8
            assert run["best"] <= run["upper"] + 1e-8


class TestMasterSize:
    # a chain of T=100 vertices with D=200 features: its 59,702 base rows over
    # 40,001 columns would take 17.8 GiB as a dense array

    @staticmethod
    def large_chain():
        instance = make_instance(T=100, D=200, N=2, seed=0, lambda_delta=1.0)
        return build_quadform(instance), SparsityBudget(5, 10, 10)

    def test_large_chain_allocates_o_nnz(self):
        qf, budget = self.large_chain()
        tracemalloc.start()
        try:
            mp = MasterProgram(qf, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (mp.n_vars, mp.lp.m) == (40_001, 59_702)
        t, d, e = 100, 200, 99
        nnz = t * d + 2 * t * d + d + 6 * e * d + e * d
        # the compressed rows take 12 bytes an entry; allow for temporaries
        assert peak < 100 * nnz  # about 20 MB, against 17.8 GiB dense

    def test_small_program_fits(self):
        _, qf, budget = small_setup(0)
        assert MasterProgram(qf, budget).lp.m > 0
