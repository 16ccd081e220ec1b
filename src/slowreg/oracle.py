"""Cost oracle for binary support patterns.

For a support pattern z (flat boolean, vertex-major) define the restricted
ridge-coupled system A_z = lambda_beta I + M_zz. The oracle evaluates

    cost(z) = -1/2 mu_z' A_z^{-1} mu_z

which is the minimum over coefficients supported on z of the canonical
half-scaled objective; the original penalized objective of the best such
coefficient vector is const_term + 2 * cost(z). cost is the restriction to
binary points of a convex function on the unit box, which is what makes
outer-approximation cuts globally valid.

The gradient of that convex extension at a binary z comes from one linear
solve plus one structured matvec:

    v0 = A_z^{-1} mu_z   (embedded, zero off support)
    v2 = M v0
    v1 = v0 on the support, (mu - v2)/lambda_beta off it
    grad = v1 * (v2 - mu) / 2

Off-support entries reduce to -(mu - v2)^2 / (2 lambda_beta) <= 0, and at
z = 0 the whole gradient is -mu^2 / (2 lambda_beta).

Chain graphs get a block-tridiagonal solve; anything else builds the
restricted matrix densely and factors it. Both paths agree to tight
tolerance and are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocktri import cho_factor, cho_solve, solve_spd_block_tridiagonal
from .problem import QuadForm


@dataclass(frozen=True)
class OracleCache:
    """Opaque solve byproducts keyed by the support pattern they came from."""

    key: bytes
    v0: np.ndarray  # (T*D,), zero off support
    cost: float


@dataclass(frozen=True)
class OracleEvaluation:
    cost: float
    cache: OracleCache


def _as_support(z: np.ndarray, n: int) -> np.ndarray:
    zb = np.ascontiguousarray(np.asarray(z).ravel(), dtype=np.bool_)
    if zb.size != n:
        raise ValueError(f"support pattern has length {zb.size}, expected {n}")
    return zb


def _selected(qf: QuadForm, zb: np.ndarray) -> list[np.ndarray]:
    T, D = qf.vertex_count, qf.feature_count
    zg = zb.reshape(T, D)
    return [np.flatnonzero(zg[t]) for t in range(T)]


def _diag_block(qf: QuadForm, t: int, sel: np.ndarray) -> np.ndarray:
    block = qf.gram[t][np.ix_(sel, sel)]
    block.flat[::sel.size + 1] += qf.lambda_beta
    return block


def _chain_solve(qf: QuadForm, sel: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Restricted solve on a chain graph: the system is block tridiagonal."""
    T = qf.vertex_count
    diag = [_diag_block(qf, t, sel[t]) for t in range(T)]
    sub = [
        -qf.lambda_delta
        * (sel[t + 1][:, None] == sel[t][None, :]).astype(np.float64)
        for t in range(T - 1)
    ]
    return solve_spd_block_tridiagonal(diag, sub, rhs)


def _generic_solve(qf: QuadForm, sel: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Restricted solve on any graph: assemble the system densely and factor it."""
    T = qf.vertex_count
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in sel])])
    a = np.zeros((rhs.size, rhs.size))
    for t in range(T):
        a[offsets[t]:offsets[t + 1], offsets[t]:offsets[t + 1]] = _diag_block(
            qf, t, sel[t]
        )
    for s, t in qf.graph.edges:
        if len(sel[s]) == 0 or len(sel[t]) == 0:
            continue
        match = sel[t][:, None] == sel[s][None, :]
        rows, cols = np.nonzero(match)
        a[offsets[t] + rows, offsets[s] + cols] = -qf.lambda_delta
        a[offsets[s] + cols, offsets[t] + rows] = -qf.lambda_delta
    return cho_solve(cho_factor(a), rhs)


def _solve_restricted(qf: QuadForm, zb: np.ndarray) -> np.ndarray:
    """v0 = (lambda_beta I + M_zz)^{-1} mu_z, embedded into (T*D,)."""
    T, D = qf.vertex_count, qf.feature_count
    sel = _selected(qf, zb)
    v0 = np.zeros(T * D)
    if sum(len(s) for s in sel) == 0:
        return v0

    mu_g = qf.mu.reshape(T, D)
    rhs = np.concatenate([mu_g[t][sel[t]] for t in range(T)])
    solve = _chain_solve if qf.graph.is_chain() else _generic_solve
    x = solve(qf, sel, rhs)

    pos = 0
    v0g = v0.reshape(T, D)
    for t in range(T):
        k = len(sel[t])
        v0g[t][sel[t]] = x[pos:pos + k]
        pos += k
    return v0


def evaluate(qf: QuadForm, z: np.ndarray) -> OracleEvaluation:
    """Cost of a binary support pattern plus reusable solve state."""
    zb = _as_support(z, qf.vertex_count * qf.feature_count)
    v0 = _solve_restricted(qf, zb)
    cost = -0.5 * float(qf.mu @ v0)
    return OracleEvaluation(cost=cost, cache=OracleCache(key=zb.tobytes(), v0=v0, cost=cost))


def eval_cost(qf: QuadForm, z: np.ndarray) -> float:
    return evaluate(qf, z).cost


def eval_gradient(qf: QuadForm, z: np.ndarray, cache: OracleCache) -> np.ndarray:
    """Gradient of the convex extension at binary z, reusing the cost solve.

    The cache must come from evaluate/eval_cost at the same z; anything else
    is a contract violation and raises.
    """
    zb = _as_support(z, qf.vertex_count * qf.feature_count)
    if cache.key != zb.tobytes():
        raise ValueError("oracle cache was computed at a different support pattern")
    v0 = cache.v0
    v2 = qf.matvec(v0)
    v1 = np.where(zb, v0, (qf.mu - v2) / qf.lambda_beta)
    return 0.5 * v1 * (v2 - qf.mu)


def beta_star(qf: QuadForm, z: np.ndarray) -> np.ndarray:
    """Optimal coefficients restricted to the support: exact zeros off it."""
    zb = _as_support(z, qf.vertex_count * qf.feature_count)
    return _solve_restricted(qf, zb)


def eval_cost_fractional(qf: QuadForm, z: np.ndarray) -> float:
    """Convex extension of the cost to fractional z in the unit box.

    Evaluated as -1/2 mu' (lambda_beta I + Z M)^{-1} Z mu with Z = diag(z),
    which coincides with eval_cost at binary points (the matrix is invertible
    on the whole box since Z M has nonnegative real spectrum there). A small
    overshoot outside [0, 1] is tolerated so central finite differences can
    straddle binary points. Materializes the full coupled matrix, so this is
    a small-instance diagnostic used by convexity and derivative checks, not
    a solver path.
    """
    n = qf.vertex_count * qf.feature_count
    zf = np.asarray(z, dtype=np.float64).ravel()
    if zf.size != n:
        raise ValueError(f"support vector has length {zf.size}, expected {n}")
    slack = 1e-2
    if np.any(zf < -slack) or np.any(zf > 1.0 + slack):
        raise ValueError("fractional support entries must lie in [0, 1]")
    m = dense_coupled_matrix(qf)
    a = zf[:, None] * m
    a.flat[::n + 1] += qf.lambda_beta
    x = np.linalg.solve(a, zf * qf.mu)
    return -0.5 * float(qf.mu @ x)


def dense_coupled_matrix(qf: QuadForm) -> np.ndarray:
    """The full coupled matrix M as a dense array. Diagnostic, small sizes only."""
    T, D = qf.vertex_count, qf.feature_count
    m = np.zeros((T * D, T * D))
    for t in range(T):
        m[t * D:(t + 1) * D, t * D:(t + 1) * D] = qf.gram[t]
    eye = np.eye(D)
    for s, t in qf.graph.edges:
        m[s * D:(s + 1) * D, t * D:(t + 1) * D] = -qf.lambda_delta * eye
        m[t * D:(t + 1) * D, s * D:(s + 1) * D] = -qf.lambda_delta * eye
    return m


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
