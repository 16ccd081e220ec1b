"""Ill-conditioned inputs on the LAPACK paths.

Three ways to make the restricted systems lambda_beta I + M_zz hard: two
identical columns at every vertex, lambda_beta = 1e-12, and a design scaled
by 1e6. On each, the chain solve (one dpbsv) and the generic solve (dpotrf
and dpotrs) must agree with a dense `np.linalg.solve`, and the exact solver
must find the enumerated optimum or fail with a classified `WeightError`,
never certify a worse support. At lambda_beta = 1e-6 (cut gradients near 1e7)
both outcomes occur; unguarded, some of those runs certified a worse support.
"""

import numpy as np
import pytest

from slowreg import (
    ProblemInstance,
    SimilarityGraph,
    SparsityBudget,
    WeightError,
    build_quadform,
    solve_support_selection,
    stepwise_fit,
)
from slowreg.oracle import _chain_solve, _generic_solve, _selected

from util import dense_coupled_reference, exhaustive_best_support, make_instance

KINDS = ("duplicated columns", "lambda_beta 1e-12", "X scaled by 1e6")


def ill_conditioned(kind, seed, T=3, D=4, N=8, graph=None):
    if kind.startswith("lambda_beta"):
        lambda_beta = float(kind.split()[1])
        return make_instance(T=T, D=D, N=N, seed=seed, lambda_beta=lambda_beta,
                             graph=graph)
    if kind == "X scaled by 1e6":
        return make_instance(T=T, D=D, N=N, seed=seed, x_scale=1e6, graph=graph)
    base = make_instance(T=T, D=D, N=N, seed=seed, graph=graph)
    xs = tuple(np.column_stack([x[:, :-1], x[:, 1]]) for x in base.x_blocks)
    return ProblemInstance(base.graph, xs, base.y_blocks, 1.0, 0.5)


@pytest.mark.parametrize("kind", KINDS)
def test_chain_and_generic_solves_match_a_dense_solve(kind):
    rng = np.random.default_rng(7)
    for seed in range(4):
        instance = ill_conditioned(kind, seed, T=6, D=5, N=10)
        qf = build_quadform(instance)
        dense = dense_coupled_reference(instance)
        T, D = instance.vertex_count, instance.feature_count
        full = np.ones(T * D, dtype=bool)
        # the full support holds both copies of the duplicated column
        for z in [full] + [rng.random(T * D) < 0.6 for _ in range(6)]:
            idx = np.flatnonzero(z)
            a = dense[np.ix_(idx, idx)] + instance.lambda_beta * np.eye(idx.size)
            expected = np.linalg.solve(a, qf.mu[idx])
            sel = _selected(qf, z)
            for solve in (_chain_solve, _generic_solve):
                x = solve(qf, sel, qf.mu[idx])
                err = np.linalg.norm(x - expected) / np.linalg.norm(expected)
                assert err <= 1e-8, (solve.__name__, seed, err)


@pytest.mark.parametrize("kind", KINDS + ("lambda_beta 1e-6",))
@pytest.mark.parametrize("triangle", [False, True])
def test_exact_solver_finds_the_optimum_or_raises_weight_error(kind, triangle):
    graph = SimilarityGraph(3, ((0, 1), (0, 2), (1, 2))) if triangle else None
    budget = SparsityBudget(2, 3, 2)
    outcomes = set()
    for seed in range(6):
        instance = ill_conditioned(kind, seed, graph=graph)
        best, optima = exhaustive_best_support(instance, 2, 3, 2)
        warm = stepwise_fit(instance, budget, seed=seed)
        try:
            res = solve_support_selection(
                build_quadform(instance), budget, warm_start=warm.z
            )
        except WeightError as exc:
            assert f"lambda_beta={instance.lambda_beta:g}" in str(exc)
            outcomes.add("classified")
            continue
        outcomes.add("optimal")
        assert res.status == "optimal"
        assert abs(res.upper_bound - best) <= 1e-9 * max(1.0, abs(best))
        if kind != "duplicated columns":  # the copies tie, so optima come in pairs
            assert any(np.array_equal(res.incumbent_z, z) for z in optima)
    if kind == "duplicated columns":
        assert outcomes == {"optimal"}
    elif kind != "lambda_beta 1e-6":  # cut gradients near 1e13
        assert outcomes == {"classified"}


def test_weights_beyond_floating_point_are_classified():
    # the root bound -mu'mu / (2 lambda_beta) is past what HiGHS holds
    instance = make_instance(seed=0, lambda_beta=1e-300, lambda_delta=1e300)
    with pytest.raises(WeightError, match=r"lambda_beta=1e-300 and lambda_delta=1e\+300"):
        solve_support_selection(build_quadform(instance), SparsityBudget(2, 3, 2))
