"""Generator audits, metric formulas, and tuning behavior."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest

from slowreg import (
    ProblemInstance,
    SimilarityGraph,
    SparsityBudget,
    SynthParams,
    WeightError,
    add_noise,
    build_quadform,
    check_feasible,
    compute_metrics,
    default_grid,
    fit_static,
    gen_beta_spatial,
    gen_beta_temporal,
    gen_graph_uniform,
    gen_x,
    grid_search,
    lambda_beta_grid,
    lambda_delta_grid,
    make_synthetic_dataset,
    run_benchmark,
    solver_budget,
    sparse_ridge_greedy,
    stepwise_fit,
    support_change_count,
)
import slowreg.benchmark as bench
from slowreg.benchmark import noise_variance
from slowreg.stepwise import greedy_start

from util import graph_of_kind, grid_search_reference, make_instance, random_graph


def temporal_params(**kw):
    base = dict(n=40, t=6, d=10, k_l=2, k_c=1, sigma_v=0.1, xi=2.0, seed=0)
    base.update(kw)
    return SynthParams(**base)


def spatial_params(**kw):
    base = dict(
        n=40, t=6, d=10, k_l=2, k_g=4, k_c=2, e=5, sigma_v=0.1, xi=2.0,
        mode="spatial", seed=0,
    )
    base.update(kw)
    return SynthParams(**base)


class TestSynthParams:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            temporal_params(mode="panel")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 0), ("t", 0), ("d", 0), ("k_l", 0), ("k_l", 11),
            ("k_c", -1), ("sigma_v", -0.1), ("xi", 0.0),
            ("rho_t", 1.0), ("rho_d", -0.2), ("sigma_v", np.nan),
            ("sigma_v", np.inf), ("xi", np.nan), ("xi", np.inf),
            ("sigma_v", 1e308),
        ],
    )
    def test_rejects_bad_scalars(self, field, value):
        with pytest.raises(ValueError):
            temporal_params(**{field: value})

    def test_spatial_requires_k_g_and_e(self):
        with pytest.raises(ValueError):
            spatial_params(k_g=None)
        with pytest.raises(ValueError):
            spatial_params(e=None)
        with pytest.raises(ValueError):
            spatial_params(k_g=1)  # below k_l
        with pytest.raises(ValueError):
            spatial_params(k_g=11)  # above d

    def test_temporal_ignores_k_g_and_e(self):
        p = temporal_params(k_g=None, e=None)
        assert p.k_g is None and p.e is None


class TestGenGraphUniform:
    @pytest.mark.parametrize("e", [0, 1, 5, 15])
    def test_exact_edge_count(self, e):
        g = gen_graph_uniform(6, e, np.random.default_rng(3))
        assert g.edge_count == e
        assert g.vertex_count == 6

    def test_complete_graph(self):
        g = gen_graph_uniform(5, 10, np.random.default_rng(0))
        assert g.edge_count == 10

    def test_too_many_edges(self):
        with pytest.raises(ValueError):
            gen_graph_uniform(4, 7, np.random.default_rng(0))

    def test_deterministic(self):
        a = gen_graph_uniform(8, 12, np.random.default_rng(9))
        b = gen_graph_uniform(8, 12, np.random.default_rng(9))
        assert a.edges == b.edges


class TestGenBetaTemporal:
    def test_no_drift_no_changes_means_identical_sign_vectors(self):
        p = temporal_params(sigma_v=0.0, k_c=0, t=5, d=8, k_l=3)
        beta, z = gen_beta_temporal(p, np.random.default_rng(4))
        bm = beta.reshape(5, 8)
        for v in range(1, 5):
            np.testing.assert_array_equal(bm[v], bm[0])
        vals = bm[0][bm[0] != 0.0]
        assert vals.size == 3
        assert set(np.unique(vals)) <= {-1.0, 1.0}

    def test_full_support_forbids_changes(self):
        with pytest.raises(ValueError):
            gen_beta_temporal(
                temporal_params(d=4, k_l=4, k_c=1), np.random.default_rng(0)
            )
        beta, z = gen_beta_temporal(
            temporal_params(d=4, k_l=4, k_c=0, sigma_v=0.0),
            np.random.default_rng(0),
        )
        assert z.all()

    def test_too_many_change_vertices(self):
        # 2 events need 2 distinct interior vertices; a 2-chain has 1
        with pytest.raises(ValueError):
            gen_beta_temporal(
                temporal_params(t=2, k_c=4, d=10, k_l=2), np.random.default_rng(0)
            )

    def test_not_enough_unused_features(self):
        # two swaps need two never-used features; d - k_l leaves one
        with pytest.raises(ValueError):
            gen_beta_temporal(
                temporal_params(t=8, d=3, k_l=2, k_c=4), np.random.default_rng(0)
            )

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k_c", [0, 1, 2, 3, 5])
    def test_feasibility_and_change_count_audit(self, seed, k_c):
        p = temporal_params(t=20, d=50, k_l=5, k_c=k_c, sigma_v=0.1, seed=seed)
        beta, z = gen_beta_temporal(p, np.random.default_rng(seed))
        chain = SimilarityGraph.chain(20)
        audit = SparsityBudget(
            max_per_vertex=5, max_global=5 + k_c, max_changes=k_c
        )
        assert check_feasible(z, audit, chain)
        assert support_change_count(z, chain) == k_c
        np.testing.assert_array_equal(z, beta != 0.0)

    def test_deterministic(self):
        p = temporal_params(t=12, d=20, k_l=4, k_c=3)
        a, _ = gen_beta_temporal(p, np.random.default_rng(7))
        b, _ = gen_beta_temporal(p, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestGenBetaSpatial:
    def test_edgeless_graph_gives_independent_components(self):
        p = spatial_params(t=6, d=50, k_l=3, k_g=10, k_c=0, e=0, sigma_v=0.0)
        beta, z, graph = gen_beta_spatial(p, np.random.default_rng(5))
        assert graph.edge_count == 0
        zm = z.reshape(6, 50)
        patterns = {tuple(np.flatnonzero(row).tolist()) for row in zm}
        assert all(row.sum() == 3 for row in zm)
        # six independently drawn bases: all-identical is astronomically unlikely
        assert len(patterns) >= 2

    def test_complete_graph_shares_one_base(self):
        p = spatial_params(t=5, d=12, k_l=3, k_g=6, k_c=0, e=10, sigma_v=0.2)
        beta, z, graph = gen_beta_spatial(p, np.random.default_rng(6))
        assert graph.edge_count == 10
        zm = z.reshape(5, 12)
        for v in range(1, 5):
            np.testing.assert_array_equal(zm[v], zm[0])

    @pytest.mark.parametrize("seed", range(10))
    def test_feasibility_and_edge_count_audit(self, seed):
        p = spatial_params(
            t=20, d=50, k_l=5, k_g=8, k_c=4, e=15, sigma_v=0.1, seed=seed
        )
        beta, z, graph = gen_beta_spatial(p, np.random.default_rng(seed))
        assert graph.edge_count == 15
        budget = SparsityBudget(max_per_vertex=5, max_global=8, max_changes=4)
        assert check_feasible(z, budget, graph)
        zm = z.reshape(20, 50)
        assert int(zm.any(axis=0).sum()) <= 8
        assert all(int(row.sum()) == 5 for row in zm)

    def test_deterministic(self):
        p = spatial_params(t=10, d=20, k_l=3, k_g=6, k_c=4, e=9)
        a, _, ga = gen_beta_spatial(p, np.random.default_rng(8))
        b, _, gb = gen_beta_spatial(p, np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)
        assert ga.edges == gb.edges


class TestGenX:
    def test_uncorrelated_variance_is_two(self):
        p = temporal_params(n=7000, t=4, d=4, rho_t=0.0, rho_d=0.0)
        x = gen_x(p, np.random.default_rng(10))
        assert x.shape == (7000, 4, 4)
        assert abs(float(x.var()) - 2.0) <= 0.05 * 2.0

    def test_lag_one_vertex_correlation_matches_recursion(self):
        # with the feature part uncorrelated, the vertex-lag covariance of
        # the sum comes only from the accumulating part, whose variance
        # follows v_{t+1} = 1 + rho^2 v_t from v_0 = 1
        rho = 0.6
        p = temporal_params(n=20000, t=4, d=2, rho_t=rho, rho_d=0.0)
        x = gen_x(p, np.random.default_rng(11))
        v = [1.0]
        for _ in range(3):
            v.append(1.0 + rho * rho * v[-1])
        for t in range(3):
            want = rho * v[t] / np.sqrt((v[t] + 1.0) * (v[t + 1] + 1.0))
            for j in range(2):
                got = np.corrcoef(x[:, t, j], x[:, t + 1, j])[0, 1]
                assert abs(got - want) <= 0.05 * abs(want)

    def test_zero_rho_uncorrelated(self):
        p = temporal_params(n=20000, t=3, d=2, rho_t=0.0, rho_d=0.0)
        x = gen_x(p, np.random.default_rng(12))
        got = np.corrcoef(x[:, 0, 0], x[:, 1, 0])[0, 1]
        assert abs(got) < 0.03

    def test_deterministic(self):
        p = temporal_params(n=50, t=3, d=4, rho_t=0.3, rho_d=0.2)
        a = gen_x(p, np.random.default_rng(13))
        b = gen_x(p, np.random.default_rng(13))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n,t,d", [(50, 3, 4), (20, 100, 200), (7, 1, 2), (3, 300, 500)])
    def test_matches_the_three_tensor_draw(self, n, t, d):
        # both parts drawn whole, recursed, then summed into a third array;
        # the blocked draw must give the same bits and leave the same stream
        p = temporal_params(n=n, t=t, d=d, rho_t=0.3, rho_d=0.2)
        rng = np.random.default_rng(17)
        xa = rng.standard_normal((n, t, d))
        xb = rng.standard_normal((n, t, d))
        for v in range(1, t):
            xa[:, v, :] += 0.3 * xa[:, v - 1, :]
        for j in range(1, d):
            xb[:, :, j] += 0.2 * xb[:, :, j - 1]
        lean = np.random.default_rng(17)
        np.testing.assert_array_equal(gen_x(p, lean), xa + xb)
        assert lean.standard_normal() == rng.standard_normal()


class TestAddNoise:
    def test_huge_snr_leaves_signal_essentially_unchanged(self):
        rng = np.random.default_rng(14)
        signal = rng.standard_normal((200, 5))
        noisy = add_noise(signal, 1e9, np.random.default_rng(15))
        assert float(np.max(np.abs(noisy - signal))) < 1e-3 * float(
            np.linalg.norm(signal)
        )

    def test_snr_two_gives_quarter_energy_ratio(self):
        rng = np.random.default_rng(16)
        signal = rng.standard_normal((2500, 4))
        noisy = add_noise(signal, 2.0, np.random.default_rng(17))
        ratio = float(np.sum((noisy - signal) ** 2) / np.sum(signal**2))
        assert abs(ratio - 0.25) <= 0.10 * 0.25

    def test_zero_signal_passthrough(self):
        signal = np.zeros((30, 3))
        noisy = add_noise(signal, 2.0, np.random.default_rng(18))
        np.testing.assert_array_equal(noisy, signal)
        assert noise_variance(signal, 2.0) == 0.0

    def test_deterministic(self):
        signal = np.ones((40, 2))
        a = add_noise(signal, 3.0, np.random.default_rng(19))
        b = add_noise(signal, 3.0, np.random.default_rng(19))
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_xi(self):
        with pytest.raises(ValueError):
            add_noise(np.ones((4, 2)), 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("scale,xi", [(1.0, 1e-300), (1e300, 2.0)])
    def test_variance_past_float_range_is_inf_without_warnings(self, scale, xi):
        # xi * xi underflows to 0 in the first case; the squares overflow in
        # the second (tier-1 turns any warning into an error)
        assert noise_variance(np.full((4, 3), scale), xi) == np.inf


def metrics_reference(beta_hat, z_hat, dataset):
    """All four formulas redone with plain loops."""
    t, d = dataset.params.t, dataset.params.d
    bh = np.asarray(beta_hat, dtype=float).ravel()
    bt = dataset.beta_true
    mae = sum(abs(bh[i] - bt[i]) for i in range(t * d)) / (t * d)

    ys, preds = [], []
    bm = bh.reshape(t, d)
    for v, (x, y) in enumerate(dataset.test_blocks):
        for i in range(x.shape[0]):
            ys.append(y[i])
            preds.append(float(x[i] @ bm[v]))
    ybar = sum(ys) / len(ys)
    ss_res = sum((yi - pi) ** 2 for yi, pi in zip(ys, preds))
    ss_tot = sum((yi - ybar) ** 2 for yi in ys)
    r2 = 1.0 - ss_res / ss_tot

    zh = set(np.flatnonzero(np.asarray(z_hat).ravel()).tolist())
    zt = set(np.flatnonzero(dataset.z_true).tolist())
    recovery = 100.0 * len(zh & zt) / len(zt) if zt else 100.0
    fp = 100.0 * len(zh - zt) / max(1, len(zh))
    return mae, r2, recovery, fp


class TestComputeMetrics:
    def make(self, seed=20):
        return make_synthetic_dataset(
            temporal_params(n=30, t=4, d=6, k_l=2, k_c=1, seed=seed)
        )

    def test_perfect_estimate(self):
        ds = self.make()
        rep = compute_metrics(ds.beta_true, ds.z_true, ds)
        assert rep.mae_coefficients == 0.0
        assert rep.support_recovered_pct == 100.0
        assert rep.false_positive_pct == 0.0
        # with the exact coefficients, all residual error is the test noise
        y_all = np.concatenate([y for _, y in ds.test_blocks])
        bm = ds.beta_true.reshape(4, 6)
        noise = np.concatenate(
            [y - x @ bm[v] for v, (x, y) in enumerate(ds.test_blocks)]
        )
        want = 1.0 - float(np.sum(noise**2) / np.sum((y_all - y_all.mean()) ** 2))
        assert rep.oos_r2 == pytest.approx(want, abs=1e-12)
        assert rep.oos_r2 <= 1.0

    def test_null_model(self):
        ds = self.make(21)
        td = 4 * 6
        rep = compute_metrics(np.zeros(td), np.zeros(td, dtype=bool), ds)
        assert rep.support_recovered_pct == 0.0
        assert rep.false_positive_pct == 0.0
        assert rep.oos_r2 <= 0.1

    def test_matches_duplicate_formulas(self):
        ds = self.make(22)
        rng = np.random.default_rng(23)
        beta = rng.standard_normal(24)
        z = rng.random(24) < 0.4
        rep = compute_metrics(beta, z, ds)
        mae, r2, recovery, fp = metrics_reference(beta, z, ds)
        assert rep.mae_coefficients == pytest.approx(mae, abs=1e-12)
        assert rep.oos_r2 == pytest.approx(r2, abs=1e-12)
        assert rep.support_recovered_pct == pytest.approx(recovery, abs=1e-12)
        assert rep.false_positive_pct == pytest.approx(fp, abs=1e-12)

    def test_perfect_support_iff_recovery_100_and_fp_0(self):
        ds = self.make(24)
        z_true = ds.z_true
        rep = compute_metrics(ds.beta_true, z_true, ds)
        assert rep.support_recovered_pct == 100.0 and rep.false_positive_pct == 0.0

        extra = z_true.copy()
        extra[int(np.flatnonzero(~z_true)[0])] = True
        rep = compute_metrics(ds.beta_true, extra, ds)
        assert rep.false_positive_pct > 0.0

        missing = z_true.copy()
        missing[int(np.flatnonzero(z_true)[0])] = False
        rep = compute_metrics(ds.beta_true, missing, ds)
        assert rep.support_recovered_pct < 100.0

    def test_shape_errors(self):
        ds = self.make(25)
        with pytest.raises(ValueError):
            compute_metrics(np.zeros(5), np.zeros(24, dtype=bool), ds)
        with pytest.raises(ValueError):
            compute_metrics(np.zeros(24), np.zeros(5, dtype=bool), ds)


class TestFitStatic:
    def test_single_vertex_equals_greedy(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((40, 7))
        y = rng.standard_normal(40)
        inst = ProblemInstance(
            graph=SimilarityGraph(1, ()), x_blocks=(x,), y_blocks=(y,),
            lambda_beta=2.0, lambda_delta=0.0,
        )
        beta, z = fit_static(inst, 3, 2.0)
        support, shared = sparse_ridge_greedy(x, y, 3, 2.0)
        np.testing.assert_allclose(beta, shared, atol=1e-14)
        np.testing.assert_array_equal(z, shared != 0.0)

    def test_duplicated_vertices_keep_the_single_vertex_support(self):
        # stacking T identical blocks scales the normal equations by T, so
        # the ridge weight must shrink by T for the paths to coincide
        rng = np.random.default_rng(27)
        x = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        t = 3
        inst = ProblemInstance(
            graph=SimilarityGraph.chain(t),
            x_blocks=(x,) * t, y_blocks=(y,) * t,
            lambda_beta=3.0, lambda_delta=0.5,
        )
        beta, z = fit_static(inst, 4, 3.0)
        support_single, _ = sparse_ridge_greedy(x, y, 4, 3.0 / t)
        got = np.flatnonzero(z.reshape(t, 8)[0])
        np.testing.assert_array_equal(got, support_single)

    def test_k_too_large(self):
        rng = np.random.default_rng(28)
        inst = ProblemInstance(
            graph=SimilarityGraph(1, ()),
            x_blocks=(rng.standard_normal((10, 3)),),
            y_blocks=(rng.standard_normal(10),),
            lambda_beta=1.0, lambda_delta=0.0,
        )
        with pytest.raises(ValueError):
            fit_static(inst, 4, 1.0)


class TestGrids:
    def test_ridge_grid_anchored_at_300(self):
        got = lambda_beta_grid(300.0)
        want = [300.0, 100.0, 100.0 / 3, 100.0 / 9, 100.0 / 27, 100.0 / 81,
                100.0 / 243]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert got[0] == 300.0 and len(got) == 7

    def test_smoothness_grid(self):
        np.testing.assert_allclose(
            lambda_delta_grid(300.0), [300.0, 100.0, 100.0 / 3], rtol=1e-12
        )

    def test_default_grid_size(self):
        grid = default_grid(90.0)
        assert len(grid) == 21
        assert len(set(grid)) == 21


class TestGridSearch:
    def make(self, seed=29):
        ds = make_synthetic_dataset(
            temporal_params(n=30, t=4, d=6, k_l=2, k_c=1, seed=seed)
        )
        return ds, solver_budget(ds)

    def test_size_one_grid_returns_that_config(self):
        ds, budget = self.make()
        res = grid_search(ds.instance, budget, grid=[(7.0, 2.0)], seed=0)
        assert res.lambda_beta == 7.0 and res.lambda_delta == 2.0
        assert len(res.table) == 1

    def test_best_config_dominates_table(self):
        ds, budget = self.make(30)
        grid = [(30.0, 30.0), (10.0, 10.0), (10.0 / 3, 10.0), (1.0, 0.5)]
        res = grid_search(ds.instance, budget, grid=grid, seed=0)
        assert res.holdout_r2 == max(row["holdout_r2"] for row in res.table)
        assert (res.lambda_beta, res.lambda_delta) in grid
        assert len(res.table) == len(grid)

    def test_refits_best_config_on_full_data(self):
        ds, budget = self.make(31)
        res = grid_search(ds.instance, budget, grid=[(9.0, 3.0), (3.0, 1.0)], seed=5)
        direct = stepwise_fit(res.instance, budget, seed=5)
        np.testing.assert_array_equal(res.fit.z, direct.z)
        np.testing.assert_allclose(res.fit.beta, direct.beta, atol=1e-12)
        assert res.instance.lambda_beta == res.lambda_beta
        assert res.instance.lambda_delta == res.lambda_delta

    def test_bad_inputs(self):
        ds, budget = self.make(32)
        with pytest.raises(ValueError):
            grid_search(ds.instance, budget, grid=[])
        with pytest.raises(ValueError):
            grid_search(ds.instance, budget, grid=[(1.0, 1.0)], holdout_fraction=0.0)


# lambda_beta interleaved and repeated, so consecutive pairs rarely share it
INTERLEAVED_GRID = [
    (4.0, 1.0), (12.0, 0.0), (4.0, 3.0), (1.5, 1.0),
    (12.0, 2.5), (1.5, 0.0), (4.0, 0.5), (12.0, 1.0),
]


class TestGridSearchMatchesReference:
    """Shared Gram, cached greedy phase and single solve against a pair-by-pair search."""

    @staticmethod
    def make(kind, seed):
        rng = np.random.default_rng(4000 + seed)
        t = int(rng.integers(6, 9))
        instance = make_instance(
            T=t, D=10, N=14, seed=seed, graph=graph_of_kind(kind, t, rng)
        )
        k_l = 3
        if kind == "isolated":
            budget = SparsityBudget(max_per_vertex=k_l, max_global=k_l, max_changes=0)
        else:
            budget = SparsityBudget(max_per_vertex=k_l, max_global=k_l + 1, max_changes=3)
        return instance, budget

    @pytest.mark.parametrize("kind", ["chain", "random", "isolated"])
    @pytest.mark.parametrize("grid", ["default", "interleaved"])
    @pytest.mark.parametrize("seed", range(2))
    def test_bit_identical(self, kind, grid, seed):
        instance, budget = self.make(kind, seed)
        pairs = None if grid == "default" else INTERLEAVED_GRID
        table, best, (z, beta, cost, iterations) = grid_search_reference(
            instance, budget, grid=pairs, seed=seed
        )
        res = grid_search(instance, budget, grid=pairs, seed=seed)
        assert res.table == table
        assert (res.lambda_beta, res.lambda_delta, res.holdout_r2) == best
        assert res.fit.z.tobytes() == z.tobytes()
        assert res.fit.beta.tobytes() == beta.tobytes()
        assert res.fit.cost == cost
        assert res.fit.removal_iterations == iterations

    @pytest.mark.parametrize("kind", ["chain", "random"])
    def test_each_pair_sees_its_own_quadform_and_greedy_start(self, kind, monkeypatch):
        instance, budget = self.make(kind, 0)
        calls = []
        greedy_lambdas = []

        def spy_fit(sub, budget, seed=0, qf=None, start=None):
            if qf is not None:
                fresh = build_quadform(sub)
                # the pair reads the training split's own X blocks, not copies
                assert all(a is b for a, b in zip(qf.x_blocks, sub.x_blocks))
                assert qf.degrees.tobytes() == fresh.degrees.tobytes()
                assert qf.mu.tobytes() == fresh.mu.tobytes()
                assert qf.const_term == fresh.const_term
                assert (qf.lambda_beta, qf.lambda_delta) == (
                    sub.lambda_beta, sub.lambda_delta
                )
                own = greedy_start(sub, budget)
                for name in ("coeffs", "colr", "col_norm2"):
                    assert getattr(start, name).tobytes() == getattr(own, name).tobytes()
            calls.append((sub.lambda_beta, sub.lambda_delta, qf is None))
            return stepwise_fit(sub, budget, seed=seed, qf=qf, start=start)

        def spy_greedy(sub, budget):
            greedy_lambdas.append(sub.lambda_beta)
            return greedy_start(sub, budget)

        monkeypatch.setattr(bench, "stepwise_fit", spy_fit)
        monkeypatch.setattr(bench, "greedy_start", spy_greedy)
        res = bench.grid_search(instance, budget, grid=INTERLEAVED_GRID, seed=1)
        # one fit per pair on the shared Gram, then the full refit builds its own
        assert calls[:-1] == [(lb, ld, False) for lb, ld in INTERLEAVED_GRID]
        assert calls[-1] == (res.lambda_beta, res.lambda_delta, True)
        assert greedy_lambdas == [4.0, 12.0, 1.5]


def fit_outcome(res):
    return (res.table, (res.lambda_beta, res.lambda_delta, res.holdout_r2),
            res.fit.z.tobytes(), res.fit.beta.tobytes(), res.fit.cost,
            res.fit.removal_iterations, res.fit.initial_union_size)


class TestForkedGridSearch:
    """lambda_beta groups scored in forked children give the serial answers."""

    @pytest.mark.parametrize("kind", ["chain", "random"])
    @pytest.mark.parametrize("grid", ["default", "interleaved"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_same_table_best_pair_and_refit(self, allow_cpus, forks, kind, grid, cpus):
        instance, budget = TestGridSearchMatchesReference.make(kind, 1)
        pairs = None if grid == "default" else INTERLEAVED_GRID
        allow_cpus(1)
        serial = grid_search(instance, budget, grid=pairs, seed=2)
        assert forks == []
        allow_cpus(cpus)
        forked = grid_search(instance, budget, grid=pairs, seed=2)
        assert forks == [cpus - 1]  # the parent scores one share itself
        assert fit_outcome(forked) == fit_outcome(serial)

    def test_one_group_per_process_at_most(self, allow_cpus, forks):
        instance, budget = TestGridSearchMatchesReference.make("chain", 0)
        allow_cpus(8)
        grid_search(instance, budget, grid=INTERLEAVED_GRID, seed=0)
        assert forks == [2]  # three lambda_beta values

    @pytest.mark.parametrize("failing", [{12.0}, {1.5, 12.0}, {4.0}])
    def test_share_errors_are_the_serial_error(self, allow_cpus, monkeypatch, failing):
        # with two processes the lambda_beta groups 4 and 1.5 are the
        # parent's and 12 the child's; a serial run fails at the first pair
        # of the grid whose lambda_beta fails
        def failing_greedy(sub, budget):
            if sub.lambda_beta in failing:
                raise WeightError(f"lambda_beta={sub.lambda_beta:g} fails")
            return greedy_start(sub, budget)

        monkeypatch.setattr(bench, "greedy_start", failing_greedy)
        instance, budget = TestGridSearchMatchesReference.make("chain", 0)
        outcomes = []
        for cpus in (1, 2):
            allow_cpus(cpus)
            with pytest.raises(WeightError) as info:
                grid_search(instance, budget, grid=INTERLEAVED_GRID, seed=0)
            outcomes.append(str(info.value))
        first = next(lb for lb, _ in INTERLEAVED_GRID if lb in failing)
        assert outcomes == [f"lambda_beta={first:g} fails"] * 2

    def test_bad_weight_in_a_child_share_is_the_serial_error(self, allow_cpus):
        instance, budget = TestGridSearchMatchesReference.make("chain", 0)
        grid = [(4.0, 1.0), (-1.0, 1.0), (4.0, 2.0)]
        messages = []
        for cpus in (1, 2):
            allow_cpus(cpus)
            with pytest.raises(ValueError) as info:
                grid_search(instance, budget, grid=grid, seed=0)
            messages.append(str(info.value))
        assert messages == ["lambda_beta must be strictly positive and finite"] * 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_tied_scores_pick_the_first_pair(self, allow_cpus, forks, monkeypatch, cpus):
        monkeypatch.setattr(bench, "_pooled_r2", lambda beta_mat, blocks: 0.25)
        instance, budget = TestGridSearchMatchesReference.make("chain", 0)
        allow_cpus(cpus)
        res = grid_search(instance, budget, grid=INTERLEAVED_GRID, seed=0)
        assert forks == ([] if cpus == 1 else [1])
        assert [row["holdout_r2"] for row in res.table] == [0.25] * len(INTERLEAVED_GRID)
        assert (res.lambda_beta, res.lambda_delta, res.holdout_r2) == (4.0, 1.0, 0.25)

    def test_tied_scores_pick_the_first_static_weight(self, monkeypatch):
        monkeypatch.setattr(bench, "_pooled_r2", lambda beta_mat, blocks: 0.25)
        instance, _ = TestGridSearchMatchesReference.make("chain", 0)
        first = lambda_beta_grid(float(np.mean(instance.row_counts)))[0]
        assert bench.tune_static(instance, 3, seed=0) == (first, 0.25)


def block_bytes(instance):
    return [a.tobytes() for a in instance.x_blocks + instance.y_blocks]


class TestHoldoutInPlace:
    """The holdout split reorders the caller's blocks in place and restores them."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fits_read_the_callers_blocks_which_come_back_unchanged(
        self, allow_cpus, monkeypatch, cpus
    ):
        instance, budget = TestGridSearchMatchesReference.make("chain", 0)
        before = block_bytes(instance)
        copied, _ = TestGridSearchMatchesReference.make("chain", 0)
        reference = grid_search(self.read_only(copied), budget, seed=1)
        shared = []

        def spy_fit(sub, budget, seed=0, qf=None, start=None):
            shared.append(all(
                np.shares_memory(a, b) for a, b in zip(sub.x_blocks, instance.x_blocks)
            ))
            return stepwise_fit(sub, budget, seed=seed, qf=qf, start=start)

        monkeypatch.setattr(bench, "stepwise_fit", spy_fit)
        allow_cpus(cpus)
        res = grid_search(instance, budget, seed=1)
        # the parent's share and the refit ran here; both read the caller's memory
        assert shared and all(shared)
        assert block_bytes(instance) == before
        assert fit_outcome(res) == fit_outcome(reference)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing", [4.0, 12.0])  # the parent's group, the child's
    def test_blocks_restored_when_a_share_raises(self, allow_cpus, monkeypatch, cpus, failing):
        def failing_greedy(sub, budget):
            if sub.lambda_beta == failing:
                raise WeightError("fails")
            return greedy_start(sub, budget)

        monkeypatch.setattr(bench, "greedy_start", failing_greedy)
        instance, budget = TestGridSearchMatchesReference.make("random", 1)
        before = block_bytes(instance)
        allow_cpus(cpus)
        with pytest.raises(WeightError):
            grid_search(instance, budget, grid=INTERLEAVED_GRID, seed=0)
        assert block_bytes(instance) == before

    @pytest.mark.parametrize("calls", [0, 3, 7])
    def test_blocks_restored_when_a_fit_raises_partway(self, monkeypatch, calls):
        count = []

        def failing_fit(sub, budget, seed=0, qf=None, start=None):
            if len(count) == calls:
                raise RuntimeError("stop")
            count.append(1)
            return stepwise_fit(sub, budget, seed=seed, qf=qf, start=start)

        monkeypatch.setattr(bench, "stepwise_fit", failing_fit)
        instance, budget = TestGridSearchMatchesReference.make("chain", 1)
        before = block_bytes(instance)
        with pytest.raises(RuntimeError, match="stop"):
            grid_search(instance, budget, seed=0)
        assert block_bytes(instance) == before

    @pytest.mark.parametrize("vertex", [0, 4])
    def test_blocks_restored_when_the_reorder_itself_fails(self, monkeypatch, vertex):
        # a row index past the block makes the reorder of X block `vertex`
        # raise after the blocks before it were moved
        holdout_rows = bench._holdout_rows

        def broken_rows(row_counts, fraction, seed):
            rows = holdout_rows(row_counts, fraction, seed)
            train, hold = rows[vertex]
            rows[vertex] = (train, hold + row_counts[vertex])
            return rows

        monkeypatch.setattr(bench, "_holdout_rows", broken_rows)
        instance, budget = TestGridSearchMatchesReference.make("chain", 0)
        before = block_bytes(instance)
        for search in (lambda: grid_search(instance, budget, seed=0),
                       lambda: bench.tune_static(instance, 3, seed=0)):
            with pytest.raises(IndexError):
                search()
            assert block_bytes(instance) == before

    @staticmethod
    def shared_block(instance):
        """The instance with vertex 1 given vertex 0's arrays."""
        xs, ys = list(instance.x_blocks), list(instance.y_blocks)
        xs[1], ys[1] = xs[0], ys[0]
        return ProblemInstance(instance.graph, tuple(xs), tuple(ys),
                               instance.lambda_beta, instance.lambda_delta)

    @staticmethod
    def read_only(instance):
        for a in instance.x_blocks + instance.y_blocks:
            a.setflags(write=False)
        return instance

    @staticmethod
    def strided(instance):
        """The instance's blocks as views of one (n, T, D) array, as `synth` makes them."""
        x = np.stack(instance.x_blocks, axis=1)
        y = np.stack(instance.y_blocks, axis=1)
        t = instance.vertex_count
        return ProblemInstance(instance.graph, tuple(x[:, v, :] for v in range(t)),
                               tuple(y[:, v] for v in range(t)),
                               instance.lambda_beta, instance.lambda_delta)

    @pytest.mark.parametrize("layout", ["read_only", "shared_block", "strided"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_copied_and_strided_blocks_give_the_reference(self, allow_cpus, layout, cpus):
        base, budget = TestGridSearchMatchesReference.make("random", 0)
        instance = getattr(self, layout)(base)
        before = block_bytes(instance)
        table, best, (z, beta, cost, iterations) = grid_search_reference(
            instance, budget, seed=0
        )
        allow_cpus(cpus)
        res = grid_search(instance, budget, seed=0)
        assert res.table == table
        assert (res.lambda_beta, res.lambda_delta, res.holdout_r2) == best
        assert res.fit.z.tobytes() == z.tobytes()
        assert res.fit.beta.tobytes() == beta.tobytes()
        assert (res.fit.cost, res.fit.removal_iterations) == (cost, iterations)
        assert block_bytes(instance) == before

    @pytest.mark.parametrize("strided", [False, True])
    def test_tune_static_matches_the_copying_split(self, strided):
        def make():
            instance, _ = TestGridSearchMatchesReference.make("chain", 1)
            return self.strided(instance) if strided else instance

        instance = make()
        before = block_bytes(instance)
        copied = bench.tune_static(self.read_only(make()), 3, seed=4)
        assert bench.tune_static(instance, 3, seed=4) == copied
        assert block_bytes(instance) == before

    def test_disjoint(self, monkeypatch):
        x = np.zeros((6, 8))
        assert bench._disjoint((x[:, ::2], x[:, 1::2], np.zeros(3)))
        assert bench._disjoint((x[:3], x[3:]))
        assert not bench._disjoint((x[:, :3], x[:, 2:]))
        assert not bench._disjoint((x, x))

        def too_hard(a, b):
            raise np.exceptions.TooHardError("too hard")

        monkeypatch.setattr(np, "shares_memory", too_hard)
        assert not bench._disjoint((x[:, ::2], x[:, 1::2]))
        assert bench._disjoint((x[:3], x[3:]))  # bounds apart: never asked

    def test_one_greedy_start_held_at_a_time(self, monkeypatch):
        instance, budget = TestGridSearchMatchesReference.make("chain", 0)
        made = []
        live = []

        def spy_greedy(sub, budget):
            start = greedy_start(sub, budget)
            made.append(weakref.ref(start))
            return start

        def spy_fit(sub, budget, seed=0, qf=None, start=None):
            live.append(sum(ref() is not None for ref in made))
            return stepwise_fit(sub, budget, seed=seed, qf=qf, start=start)

        monkeypatch.setattr(bench, "greedy_start", spy_greedy)
        monkeypatch.setattr(bench, "stepwise_fit", spy_fit)
        grid_search(instance, budget, seed=0)
        assert len(made) == 7
        assert live == [1] * 21 + [0]  # the refit makes its own start

    def test_serial_search_traces_under_half_the_datas_bytes(self, allow_cpus):
        rng = np.random.default_rng(18)
        t, d, n = 12, 40, 200
        instance = ProblemInstance(
            SimilarityGraph.chain(t),
            tuple(rng.standard_normal((n, d)) for _ in range(t)),
            tuple(rng.standard_normal(n) for _ in range(t)),
            1.0, 1.0,
        )
        budget = SparsityBudget(max_per_vertex=3, max_global=5, max_changes=4)
        data = sum(a.nbytes for a in instance.x_blocks + instance.y_blocks)
        allow_cpus(1)
        grid_search(instance, budget, seed=0)  # first-call allocations
        tracemalloc.start()
        try:
            grid_search(instance, budget, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * data


# answers of an earlier implementation that stored the dense (T, D, D) Gram
# blocks: the support of the final refit and every table R^2, per graph
PINNED_GRID_SEARCH = {
    "chain": dict(
        best=(4.0, 12.0),
        support=[6, 9, 16, 19, 26, 28, 29, 36, 38, 39, 47, 48, 49, 57, 58, 59],
        r2=[
            -0.1640506989600976, -0.20683763140798828, -0.2229534227934824,
            -0.16128715395072324, -0.355646908455457, -0.4197962340708712,
            -0.22878237777931476, -0.43992220934870563, -0.6406387428208178,
            -0.4976748383520304, -0.6136685604347591, -0.5546010232350644,
            -0.41796474541776596, -0.6418395105254404, -0.5869962900446206,
            -0.42125071827005733, -0.6520031402713382, -0.6010684983263166,
            -0.4223590351927058, -0.6554860731804388, -0.6058935038928193,
        ],
    ),
    "random": dict(
        best=(0.4444444444444444, 12.0),
        support=[6, 7, 10, 16, 19, 20, 26, 27, 30, 36, 37, 40, 46, 47, 50, 56, 57],
        r2=[
            -0.04738541562733922, -0.1432263283971278, -0.20617853582339873,
            0.04111204132744328, -0.06619866712551703, -0.3506023069590585,
            0.029675347556056275, -0.06767740572824765, -0.49625724401253146,
            0.08121604377863467, -0.09120935584953571, -0.3719462397095725,
            0.00678215826141737, -0.025810210682245538, -0.3888358420354776,
            0.006699840752028896, -0.02678549173652245, -0.3948805382735854,
            0.006670996358689729, -0.027122588816050675, -0.3969455983269441,
        ],
    ),
}


class TestGridSearchPinnedAnswers:
    @pytest.mark.parametrize("kind", ["chain", "random"])
    def test_matches_recorded_answers(self, kind):
        rng = np.random.default_rng(6010)
        graph = SimilarityGraph.chain(6) if kind == "chain" else random_graph(6, 8, rng)
        instance = make_instance(T=6, D=10, N=12, seed=61, graph=graph, lambda_delta=0.8)
        budget = SparsityBudget(max_per_vertex=3, max_global=4, max_changes=4)
        res = grid_search(instance, budget, seed=3)
        want = PINNED_GRID_SEARCH[kind]
        assert (res.lambda_beta, res.lambda_delta) == want["best"]
        assert np.flatnonzero(res.fit.z).tolist() == want["support"]
        got = [row["holdout_r2"] for row in res.table]
        np.testing.assert_allclose(got, want["r2"], rtol=1e-12, atol=0.0)


class TestSolverBudget:
    def test_temporal_uses_realized_global_support(self):
        ds = make_synthetic_dataset(
            temporal_params(t=8, d=12, k_l=3, k_c=4, seed=33)
        )
        budget = solver_budget(ds)
        assert budget.max_global == ds.metadata["realized_k_g"] == 3 + 2
        assert budget.max_per_vertex == 3
        assert budget.max_changes == 4
        assert check_feasible(ds.z_true, budget, ds.instance.graph)

    def test_spatial_uses_requested_global_budget(self):
        ds = make_synthetic_dataset(spatial_params(seed=34))
        budget = solver_budget(ds)
        assert budget.max_global == 4
        assert check_feasible(ds.z_true, budget, ds.instance.graph)


class TestDatasetAssembly:
    def test_shapes_and_determinism(self):
        p = temporal_params(n=25, t=5, d=7, k_l=2, k_c=2, seed=35)
        a = make_synthetic_dataset(p)
        b = make_synthetic_dataset(p)
        assert a.instance.row_counts == (25,) * 5
        assert len(a.test_blocks) == 5
        assert a.test_blocks[0][0].shape == (25, 7)
        np.testing.assert_array_equal(a.beta_true, b.beta_true)
        for (xa, ya), (xb, yb) in zip(a.test_blocks, b.test_blocks):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)
        for xa, xb in zip(a.instance.x_blocks, b.instance.x_blocks):
            np.testing.assert_array_equal(xa, xb)

    def test_with_lambdas_shares_data(self):
        ds = make_synthetic_dataset(temporal_params(seed=36))
        inst = ds.with_lambdas(5.0, 1.5)
        assert inst.lambda_beta == 5.0 and inst.lambda_delta == 1.5
        np.testing.assert_array_equal(
            inst.x_blocks[0], ds.instance.x_blocks[0]
        )

    def test_noise_metadata_positive(self):
        ds = make_synthetic_dataset(temporal_params(seed=37))
        assert ds.metadata["noise_var_train"] > 0.0
        assert ds.metadata["noise_var_test"] > 0.0

    @pytest.mark.parametrize("field,value", [("xi", 1e-300), ("xi", 1e-154),
                                             ("sigma_v", 1e300)])
    def test_response_past_float_range_is_refused(self, field, value):
        params = temporal_params(n=4, t=3, d=3, k_l=1, **{field: value})
        with pytest.raises(ValueError, match=r"sigma_v=.* and xi=.* give a response"):
            make_synthetic_dataset(params)


    def test_response_past_the_lp_range_is_refused_naming_xi(self):
        # y'y is finite, but 0.5 mu'mu / lambda_beta at the grid's weakest
        # lambda_beta (n * 3**-6) passes HiGHS's infinite bound
        params = temporal_params(n=4, t=3, d=3, k_l=1, k_c=1, xi=1e-150)
        with pytest.raises(ValueError, match=(
            r"sigma_v=0.1 and xi=1e-150 give a response whose X'y puts the root "
            r"bound .* for the tuning grid's lambda_beta=0.00548697"
        )):
            make_synthetic_dataset(params)


class TestRunBenchmark:
    def test_three_methods_and_stable_keys(self):
        p = temporal_params(n=40, t=3, d=6, k_l=2, k_c=1, seed=38)
        rep = run_benchmark(make_synthetic_dataset(p), time_limit=30.0)
        assert set(rep) == {"params", "budget", "metadata", "methods"}
        assert set(rep["methods"]) == {"static", "stepwise", "cutplane"}
        for name in ("static", "stepwise", "cutplane"):
            metrics = rep["methods"][name]["metrics"]
            assert set(metrics) == {
                "mae_coefficients", "oos_r2", "support_recovered_pct",
                "false_positive_pct", "fit_time_s",
            }
            assert 0.0 <= metrics["support_recovered_pct"] <= 100.0
            assert 0.0 <= metrics["false_positive_pct"] <= 100.0
            assert metrics["oos_r2"] <= 1.0
        solver = rep["methods"]["cutplane"]["solver"]
        assert solver["status"] in ("optimal", "time_limit")
        assert solver["lower_bound"] <= solver["upper_bound"] + 1e-9

    def test_solver_summary_is_the_scalar_fields(self):
        instance = make_instance(T=2, D=3, N=6, seed=41)
        qf = build_quadform(instance)
        res = bench.solve_support_selection(qf, SparsityBudget(1, 2, 1))
        summary = bench.solver_summary(res)
        assert list(summary) == [
            "status", "upper_bound", "lower_bound", "objective_value",
            "objective_lower_bound", "relative_gap", "objective_gap",
            "node_count", "cut_count", "wall_time",
        ]
        assert summary == {key: getattr(res, key) for key in summary}
        ds = make_synthetic_dataset(temporal_params(t=2, d=3))
        metrics = compute_metrics(ds.beta_true, ds.z_true, ds)
        assert list(metrics.to_dict()) == [
            "mae_coefficients", "oos_r2", "support_recovered_pct",
            "false_positive_pct", "fit_time_s",
        ]

    def test_deterministic_given_seed(self):
        p = temporal_params(n=30, t=3, d=5, k_l=1, k_c=0, seed=39)
        a = run_benchmark(make_synthetic_dataset(p), time_limit=30.0)
        b = run_benchmark(make_synthetic_dataset(p), time_limit=30.0)
        for rep in (a, b):
            for method in rep["methods"].values():
                method["metrics"].pop("fit_time_s")
                if "solver" in method:
                    method["solver"].pop("wall_time")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_method_subset_and_validation(self):
        p = temporal_params(n=30, t=3, d=5, k_l=1, k_c=0, seed=40)
        rep = run_benchmark(make_synthetic_dataset(p), methods=("static",))
        assert set(rep["methods"]) == {"static"}
        with pytest.raises(ValueError):
            run_benchmark(make_synthetic_dataset(p), methods=("ols",))
