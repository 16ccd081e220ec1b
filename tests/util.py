"""Shared helpers for the test suite.

The "reference" functions here are deliberately independent re-derivations
(plain loops, dense algebra, set arithmetic) used as oracles against the
package implementations. Keep them naive.
"""

from __future__ import annotations

import numpy as np

from slowreg import ProblemInstance, SimilarityGraph


def make_instance(
    T=3,
    D=4,
    N=8,
    seed=0,
    lambda_beta=1.0,
    lambda_delta=0.5,
    graph=None,
    x_scale=1.0,
):
    """Random dense instance with N(0,1) design and response."""
    rng = np.random.default_rng(seed)
    if graph is None:
        graph = SimilarityGraph.chain(T)
    xs = tuple(x_scale * rng.standard_normal((N, D)) for _ in range(T))
    ys = tuple(rng.standard_normal(N) for _ in range(T))
    return ProblemInstance(
        graph=graph,
        x_blocks=xs,
        y_blocks=ys,
        lambda_beta=lambda_beta,
        lambda_delta=lambda_delta,
    )


def random_graph(T, n_edges, rng):
    """Uniform random simple graph with exactly n_edges edges."""
    all_pairs = [(s, t) for s in range(T) for t in range(s + 1, T)]
    idx = rng.choice(len(all_pairs), size=n_edges, replace=False)
    return SimilarityGraph(T, tuple(all_pairs[i] for i in idx))


def dense_coupled_reference(instance):
    """Full TD x TD coupled matrix built from raw data with plain loops."""
    T, D = instance.vertex_count, instance.feature_count
    m = np.zeros((T * D, T * D))
    deg = [0] * T
    for s, t in instance.graph.edges:
        deg[s] += 1
        deg[t] += 1
    for t in range(T):
        x = instance.x_blocks[t]
        m[t * D:(t + 1) * D, t * D:(t + 1) * D] = (
            x.T @ x + deg[t] * instance.lambda_delta * np.eye(D)
        )
    for s, t in instance.graph.edges:
        m[s * D:(s + 1) * D, t * D:(t + 1) * D] = -instance.lambda_delta * np.eye(D)
        m[t * D:(t + 1) * D, s * D:(s + 1) * D] = -instance.lambda_delta * np.eye(D)
    return m


def direct_objective_reference(instance, beta):
    """Objective evaluated term by term from the definition."""
    T, D = instance.vertex_count, instance.feature_count
    bg = np.asarray(beta).reshape(T, D)
    val = 0.0
    for t in range(T):
        r = instance.y_blocks[t] - instance.x_blocks[t] @ bg[t]
        val += float(np.sum(r**2))
        val += instance.lambda_beta * float(np.sum(bg[t] ** 2))
    for s, t in instance.graph.edges:
        val += instance.lambda_delta * float(np.sum((bg[t] - bg[s]) ** 2))
    return val


def set_feasible_reference(z, T, D, k_l, k_g, k_c, edges):
    """Budget feasibility via literal set arithmetic."""
    zg = np.asarray(z).reshape(T, D)
    supports = [set(np.flatnonzero(zg[t]).tolist()) for t in range(T)]
    if any(len(s) > k_l for s in supports):
        return False
    union = set().union(*supports) if supports else set()
    if len(union) > k_g:
        return False
    total = sum(len(supports[s] ^ supports[t]) for s, t in edges)
    return total <= k_c


def restricted_cost_reference(instance, z):
    """cost(z) from a dense full-size solve of (lam I + Z M) w = Z mu."""
    m = dense_coupled_reference(instance)
    T, D = instance.vertex_count, instance.feature_count
    mu = np.concatenate(
        [instance.x_blocks[t].T @ instance.y_blocks[t] for t in range(T)]
    )
    zf = np.asarray(z, dtype=float).ravel()
    a = np.diag(zf) @ m
    a[np.diag_indices_from(a)] += instance.lambda_beta
    w = np.linalg.solve(a, zf * mu)
    return -0.5 * float(mu @ w)


def budget_patterns(T, D, k_l, k_g, k_c, edges):
    """Every T*D bit pattern that can meet the budgets, in the order of
    itertools.product((0, 1), repeat=T*D).

    Bits are set depth-first in index order, and a prefix is dropped once a
    count it has fixed (per-vertex, union, or the changes on edges whose
    both ends are set) passes its budget; counts only grow with more bits.
    """
    bits = [0] * (T * D)

    def prefix_ok(i):
        t = i // D
        if sum(bits[t * D:i + 1]) > k_l:
            return False
        if len({j % D for j in range(i + 1) if bits[j]}) > k_g:
            return False
        changes = 0
        for s, u in edges:
            for f in range(D):
                if max(s, u) * D + f <= i:
                    changes += bits[s * D + f] != bits[u * D + f]
        return changes <= k_c

    def extend(i):
        if i == T * D:
            yield tuple(bits)
            return
        for bit in (0, 1):
            bits[i] = bit
            if prefix_ok(i):
                yield from extend(i + 1)
        bits[i] = 0

    yield from extend(0)


def exhaustive_best_support(instance, k_l, k_g, k_c):
    """Brute-force minimum of the support cost over every feasible pattern.

    Usable while the budget-feasible patterns are few. Returns (best_cost,
    list_of_optimal_patterns); the cost of the empty support is 0.
    """
    T, D = instance.vertex_count, instance.feature_count
    best = 0.0
    argbest = [np.zeros(T * D, dtype=bool)]
    for bits in budget_patterns(T, D, k_l, k_g, k_c, instance.graph.edges):
        z = np.array(bits, dtype=bool)
        if not z.any():
            continue
        if not set_feasible_reference(z, T, D, k_l, k_g, k_c, instance.graph.edges):
            continue
        cost = restricted_cost_reference(instance, z)
        if cost < best - 1e-12:
            best = cost
            argbest = [z]
        elif abs(cost - best) <= 1e-12:
            argbest.append(z)
    return best, argbest


def stepwise_fit_reference(instance, budget, seed=0):
    """The stepwise heuristic with its removal loop written as plain loops.

    Per-vertex supports are Python sets, the budget checks are set unions
    and symmetric differences, neighbours come from `graph.neighbors`, and
    the removal score recomputes X_t'r_t for every vertex on every pass.
    The greedy phase and the final coupled refit use the package's
    functions. Returns (z, beta, cost, removal_iterations).
    """
    from slowreg import beta_star, build_quadform, eval_cost
    from slowreg.stepwise import sparse_ridge_greedy

    graph = instance.graph
    T, D = instance.vertex_count, instance.feature_count
    lam = instance.lambda_beta
    rng = np.random.default_rng(seed)

    def refit(x, y, support):
        beta = np.zeros(D)
        if support:
            xs = x[:, support]
            gram = xs.T @ xs
            gram[np.diag_indices_from(gram)] += lam
            beta[support] = np.linalg.solve(gram, xs.T @ y)
        return beta

    def over_budget(supports):
        if len(set().union(*supports)) > budget.max_global:
            return True
        changes = sum(len(supports[s] ^ supports[t]) for s, t in graph.edges)
        return changes > budget.max_changes

    def weakest_feature(coeffs, residuals, col_norm2, supports):
        data = np.zeros(D)
        for t in range(T):
            colr = instance.x_blocks[t].T @ residuals[t]
            data += 2.0 * coeffs[t] * colr + coeffs[t] ** 2 * col_norm2[t]
        ridge = lam * np.sum(coeffs**2, axis=0)
        smooth = np.zeros(D)
        for s, t in graph.edges:
            smooth += (coeffs[t] - coeffs[s]) ** 2
        smooth *= instance.lambda_delta
        delta = data - ridge - smooth
        candidates = np.array(sorted(set().union(*supports)), dtype=np.int64)
        return int(candidates[int(np.argmin(delta[candidates]))])

    coeffs = np.zeros((T, D))
    residuals = []
    col_norm2 = np.empty((T, D))
    for t in range(T):
        x, y = instance.x_blocks[t], instance.y_blocks[t]
        _, coeffs[t] = sparse_ridge_greedy(x, y, budget.max_per_vertex, lam)
        residuals.append(y - x @ coeffs[t])
        col_norm2[t] = np.einsum("ij,ij->j", x, x)
    supports = [set(np.flatnonzero(coeffs[t]).tolist()) for t in range(T)]

    iterations = 0
    while over_budget(supports):
        j_star = weakest_feature(coeffs, residuals, col_norm2, supports)
        for t in range(T):
            if j_star not in supports[t]:
                continue
            new_support = supports[t] - {j_star}
            neighbors = graph.neighbors(t)
            if neighbors:
                s = int(neighbors[int(rng.integers(len(neighbors)))])
                candidates = sorted(supports[s] - supports[t] - {j_star})
                if candidates:
                    new_support.add(int(candidates[int(rng.integers(len(candidates)))]))
            x, y = instance.x_blocks[t], instance.y_blocks[t]
            coeffs[t] = refit(x, y, sorted(new_support))
            residuals[t] = y - x @ coeffs[t]
            supports[t] = set(np.flatnonzero(coeffs[t]).tolist())
        iterations += 1

    z = np.zeros(T * D, dtype=bool)
    for t in range(T):
        for j in supports[t]:
            z[t * D + j] = True
    qf = build_quadform(instance)
    return z, beta_star(qf, z), eval_cost(qf, z), iterations
