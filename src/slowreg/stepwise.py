"""Stepwise heuristic: greedy per-vertex fits, then budget-driven removal.

Phase one fits every vertex independently with forward selection under a
ridge penalty. Phase two repairs the global budgets: while the union support
or the edgewise change count is too large, the feature whose removal hurts
the current objective least is dropped everywhere, and each vertex that
loses it may copy one feature from a random neighbor to stay aligned.
Each pass shrinks the union by one, so the loop is bounded by the initial
union size. The result always satisfies all three budgets, which makes it a
safe warm start and incumbent for the exact solver.

Phase one reads only the data blocks, K_L and lambda_beta, so a caller that
fits one dataset under many weights (the holdout grid search) can run it
once per lambda_beta with `greedy_start` and hand the result to every fit
that shares it. The removal loop works on whole (T, D) arrays: the support
as a boolean matrix, the coefficients, and a cache of X_t'r_t per vertex.
Only the vertices refit in a pass get their cache row recomputed; the
budget checks and the removal scores are array reductions over vertices and
edges. The final coupled refit is one oracle evaluation, whose solve gives
both the coefficients and the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
# unused here, but perfbench/tracer.py wraps slowreg.stepwise.beta_star
from .oracle import beta_star  # noqa: F401
from .problem import ProblemInstance, QuadForm, SparsityBudget, build_quadform


def sparse_ridge_greedy(
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    lam: float,
    allowed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward selection of up to k features for one ridge regression.

    Candidates are scored by the squared correlation of each column with the
    current residual, normalized by the column norm; after every pick the
    coefficients are refit exactly on the selected set. Returns the sorted
    selected indices and a dense coefficient vector.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    d = x.shape[1]
    if allowed is None:
        allowed = np.arange(d)
    else:
        allowed = np.asarray(allowed, dtype=np.int64)
    mask = np.zeros(d, dtype=bool)
    mask[allowed] = True
    col_norm2 = np.einsum("ij,ij->j", x, x)
    safe = np.where(col_norm2 > 0.0, col_norm2, 1.0)
    excluded = ~mask | (col_norm2 == 0.0)
    selected: list[int] = []
    beta = np.zeros(d)
    residual = y.copy()
    for _ in range(min(int(k), allowed.size)):
        scores = x.T @ residual
        np.square(scores, out=scores)
        scores /= safe
        scores[excluded] = -np.inf
        scores[selected] = -np.inf
        best = int(np.argmax(scores))
        if scores[best] <= 0.0:
            break
        selected.append(best)
        beta = _ridge_refit(x, y, selected, lam)
        residual = y - x[:, selected] @ beta[selected]
    return np.array(sorted(selected), dtype=np.int64), beta


def _ridge_refit(
    x: np.ndarray, y: np.ndarray, support: list[int] | np.ndarray, lam: float
) -> np.ndarray:
    beta = np.zeros(x.shape[1])
    k = len(support)
    if not k:
        return beta
    xs = x[:, support]
    gram = xs.T @ xs
    gram.flat[::k + 1] += lam
    beta[support] = np.linalg.solve(gram, xs.T @ y)
    return beta


@dataclass(frozen=True)
class GreedyStart:
    """Phase one of the stepwise heuristic: every vertex fit on its own."""

    coeffs: np.ndarray     # (T, D) greedy ridge coefficients
    colr: np.ndarray       # (T, D) X_t' r_t at those coefficients
    col_norm2: np.ndarray  # (T, D) squared column norms of X_t


def greedy_start(instance: ProblemInstance, budget: SparsityBudget) -> GreedyStart:
    """Forward selection of up to K_L features at each vertex independently.

    Reads only the data blocks, `budget.max_per_vertex` and
    `instance.lambda_beta`, so one result serves every fit of the same data
    that differs only in lambda_delta or the other two budgets.
    """
    t_count, d_count = instance.vertex_count, instance.feature_count
    lam = instance.lambda_beta
    coeffs = np.zeros((t_count, d_count))
    colr = np.empty((t_count, d_count))
    col_norm2 = np.empty((t_count, d_count))
    for t in range(t_count):
        x_t, y_t = instance.x_blocks[t], instance.y_blocks[t]
        _, beta_t = sparse_ridge_greedy(x_t, y_t, budget.max_per_vertex, lam)
        coeffs[t] = beta_t
        colr[t] = x_t.T @ (y_t - x_t @ beta_t)
        col_norm2[t] = np.einsum("ij,ij->j", x_t, x_t)
    return GreedyStart(coeffs=coeffs, colr=colr, col_norm2=col_norm2)


@dataclass
class StepwiseResult:
    z: np.ndarray                # flat boolean support, vertex-major
    beta: np.ndarray             # exact coupled refit on that support
    cost: float
    removal_iterations: int
    initial_union_size: int


def stepwise_fit(
    instance: ProblemInstance,
    budget: SparsityBudget,
    seed: int = 0,
    qf: QuadForm | None = None,
    start: GreedyStart | None = None,
) -> StepwiseResult:
    """Feasibility-guaranteed heuristic support for the coupled problem.

    `qf` must be the quadform of `instance` and `start` its
    `greedy_start(instance, budget)`; either is computed here when omitted.
    Neither is modified. The returned beta and cost come from one
    `oracle.evaluate` on the final support.
    """
    t_count = instance.vertex_count
    d_count = instance.feature_count
    budget.validate(t_count, d_count)
    rng = np.random.default_rng(seed)
    if qf is None:
        qf = build_quadform(instance)
    if start is None:
        start = greedy_start(instance, budget)
    x_blocks, y_blocks = instance.x_blocks, instance.y_blocks
    lam = instance.lambda_beta
    coeffs = start.coeffs.copy()
    colr = start.colr.copy()                  # X_t' r_t, one row per vertex
    col_norm2 = start.col_norm2

    zg = coeffs != 0.0
    edges = np.array(instance.graph.edges, dtype=np.int64).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    neighbors: list[list[int]] = [[] for _ in range(t_count)]
    for s, t in instance.graph.edges:
        neighbors[s].append(t)
        neighbors[t].append(s)
    for nbrs in neighbors:
        nbrs.sort()

    initial_union = int(zg.any(axis=0).sum())
    removal_iterations = 0
    while (
        zg.any(axis=0).sum() > budget.max_global
        or (zg[src] ^ zg[dst]).sum() > budget.max_changes
    ):
        if removal_iterations > initial_union:
            raise RuntimeError("removal loop failed to shrink the union support")
        j_star = _weakest_feature(instance, coeffs, colr, col_norm2, zg, src, dst)
        for t in np.flatnonzero(zg[:, j_star]).tolist():
            row = zg[t].copy()
            row[j_star] = False
            nbrs = neighbors[t]
            if nbrs:
                s = nbrs[int(rng.integers(len(nbrs)))]
                # zg[t] holds j_star, so it is never a candidate
                candidates = np.flatnonzero(zg[s] & ~zg[t])
                if candidates.size:
                    row[candidates[int(rng.integers(candidates.size))]] = True
            x_t, y_t = x_blocks[t], y_blocks[t]
            beta_t = _ridge_refit(x_t, y_t, np.flatnonzero(row), lam)
            coeffs[t] = beta_t
            colr[t] = x_t.T @ (y_t - x_t @ beta_t)
            zg[t] = beta_t != 0.0
        removal_iterations += 1

    z = zg.ravel()
    ev = oracle.evaluate(qf, z)
    return StepwiseResult(
        z=z,
        beta=ev.cache.v0,
        cost=ev.cost,
        removal_iterations=removal_iterations,
        initial_union_size=initial_union,
    )


def _weakest_feature(instance, coeffs, colr, col_norm2, zg, src, dst) -> int:
    """Feature whose removal from every vertex raises the objective least.

    The score is the exact change of the full objective when column j is
    zeroed everywhere with no refit: the data term grows by
    2 b_tj x_j'r_t + b_tj^2 |x_j|^2 per vertex while both penalty terms
    release their j contributions. Only the columns still in the union
    support are scored. The sums run over axis 0, so vertices and edges are
    added one at a time in index order (with a single candidate numpy sums
    pairwise instead, but then the choice is already made).
    """
    candidates = np.flatnonzero(zg.any(axis=0))
    b = coeffs[:, candidates]
    data = (2.0 * b * colr[:, candidates] + b**2 * col_norm2[:, candidates])
    data = data.sum(axis=0)
    ridge = instance.lambda_beta * np.sum(b**2, axis=0)
    smooth = ((b[dst] - b[src]) ** 2).sum(axis=0)
    smooth *= instance.lambda_delta
    delta = data - ridge - smooth
    return int(candidates[int(np.argmin(delta))])
