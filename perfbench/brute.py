"""Independent reference answers, computed from the raw data with plain numpy.

Nothing here calls slowreg. The penalised objective over per-vertex data
(X^t, y^t) on a graph with edges E is

    f(beta) = sum_t ||y^t - X^t beta^t||^2 + lambda_beta * ||beta||^2
              + lambda_delta * sum_{(s,t) in E} ||beta^t - beta^s||^2,

with beta stored vertex-major (entry (t, d) at index t*D + d). Expanded, it
is const + beta' H beta - 2 g' beta, so its minimum over coefficients
supported on an index set S is const - g_S' H_SS^{-1} g_S. Enumerating every
support that meets the budgets (K_L per vertex, K_G overall, K_C changes
summed over edges) gives the exact optimum of a small instance.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def direct_objective(x_blocks, y_blocks, edges, lambda_beta, lambda_delta, beta) -> float:
    """f(beta) from residuals and penalties, term by term."""
    t_count = len(x_blocks)
    b = np.asarray(beta, dtype=np.float64).reshape(t_count, -1)
    total = 0.0
    for t in range(t_count):
        r = y_blocks[t] - x_blocks[t] @ b[t]
        total += float(r @ r) + lambda_beta * float(b[t] @ b[t])
    for s, t in edges:
        diff = b[t] - b[s]
        total += lambda_delta * float(diff @ diff)
    return total


def normal_system(x_blocks, y_blocks, edges, lambda_beta, lambda_delta):
    """(H, g, const) with f(beta) = const + beta' H beta - 2 g' beta."""
    t_count = len(x_blocks)
    d_count = x_blocks[0].shape[1]
    h = np.zeros((t_count * d_count, t_count * d_count))
    g = np.zeros(t_count * d_count)
    const = 0.0
    for t in range(t_count):
        blk = slice(t * d_count, (t + 1) * d_count)
        h[blk, blk] = x_blocks[t].T @ x_blocks[t]
        g[blk] = x_blocks[t].T @ y_blocks[t]
        const += float(y_blocks[t] @ y_blocks[t])
    h[np.diag_indices_from(h)] += lambda_beta
    for s, t in edges:
        for d in range(d_count):
            i, j = s * d_count + d, t * d_count + d
            h[i, i] += lambda_delta
            h[j, j] += lambda_delta
            h[i, j] -= lambda_delta
            h[j, i] -= lambda_delta
    return h, g, const


def support_value(h, g, const, support) -> float:
    """min f over coefficients that are zero off the flat boolean support."""
    idx = np.flatnonzero(support)
    if idx.size == 0:
        return const
    g_s = g[idx]
    return const - float(g_s @ np.linalg.solve(h[np.ix_(idx, idx)], g_s))


def support_usage(z, vertex_count, edges) -> tuple[int, int, int]:
    """(largest per-vertex count, union size, changes summed over edges)."""
    zg = np.asarray(z, dtype=bool).reshape(vertex_count, -1)
    changes = sum(int(np.count_nonzero(zg[s] ^ zg[t])) for s, t in edges)
    return int(zg.sum(axis=1).max()), int(np.count_nonzero(zg.any(axis=0))), changes


def feasible_supports(vertex_count, feature_count, edges, max_per_vertex, max_global, max_changes):
    """Every budget-feasible support as rows of a (count, T*D) boolean array.

    Depth-first over vertices with one bitmask per vertex; a partial
    assignment is cut as soon as its union or its changes on edges between
    already assigned vertices exceed the budget.
    """
    masks = [
        sum(1 << d for d in combo)
        for k in range(max_per_vertex + 1)
        for combo in combinations(range(feature_count), k)
    ]
    earlier = [[] for _ in range(vertex_count)]
    for s, t in edges:
        lo, hi = min(s, t), max(s, t)
        earlier[hi].append(lo)
    found: list[list[int]] = []
    chosen = [0] * vertex_count

    def descend(v: int, union: int, changes: int) -> None:
        if v == vertex_count:
            found.append(list(chosen))
            return
        for m in masks:
            u = union | m
            if u.bit_count() > max_global:
                continue
            c = changes + sum((m ^ chosen[w]).bit_count() for w in earlier[v])
            if c > max_changes:
                continue
            chosen[v] = m
            descend(v + 1, u, c)
        chosen[v] = 0

    descend(0, 0, 0)
    bits = 1 << np.arange(feature_count)
    out = np.zeros((len(found), vertex_count * feature_count), dtype=bool)
    for i, row in enumerate(found):
        out[i] = ((np.asarray(row)[:, None] & bits) != 0).ravel()
    return out


def enumerated_optimum(x_blocks, y_blocks, edges, lambda_beta, lambda_delta, budget):
    """(optimal value, an optimal support, number of supports enumerated).

    `budget` is (K_L, K_G, K_C). Ties go to the first support in enumeration
    order.
    """
    t_count = len(x_blocks)
    d_count = x_blocks[0].shape[1]
    h, g, const = normal_system(x_blocks, y_blocks, edges, lambda_beta, lambda_delta)
    supports = feasible_supports(t_count, d_count, edges, *budget)
    values = np.array([support_value(h, g, const, z) for z in supports])
    best = int(np.argmin(values))
    return float(values[best]), supports[best], len(supports)
