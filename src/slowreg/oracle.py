"""Cost oracle for binary support patterns.

For a support pattern z (flat boolean, vertex-major) define the restricted
ridge-coupled system A_z = lambda_beta I + M_zz. The oracle evaluates

    cost(z) = -1/2 mu_z' A_z^{-1} mu_z

which is the minimum over coefficients supported on z of the canonical
half-scaled objective; the original penalized objective of the best such
coefficient vector is const_term + 2 * cost(z). cost is the restriction to
binary points of a convex function on the unit box, which is what makes
outer-approximation cuts globally valid. The oracle evaluates binary points
only; `evaluate` returns the cost together with v0 below, and
`eval_gradient` takes that evaluation rather than solving again.

The gradient of that convex extension at a binary z comes from one linear
solve plus one structured matvec:

    v0 = A_z^{-1} mu_z   (embedded, zero off support)
    v2 = M v0
    v1 = v0 on the support, (mu - v2)/lambda_beta off it
    grad = v1 * (v2 - mu) / 2

Off-support entries reduce to -(mu - v2)^2 / (2 lambda_beta) <= 0, and at
z = 0 the whole gradient is -mu^2 / (2 lambda_beta).

Chain graphs get a block-tridiagonal solve, one LAPACK dpbsv call on the
banded system; anything else builds the restricted matrix densely and
factors it with dpotrf (`blocktri.cho_factor`). Both paths agree to tight
tolerance and are cross-checked in the test suite. A restricted system that
is not positive definite in floating point raises `WeightError`, which
names the weights. Neither reads a stored
D x D block: each restricted diagonal block is formed from the X blocks at
O(n_t * k_t^2) for k_t selected features and n_t rows at vertex t, and the
gradient's matvec costs O(sum_t n_t * D + |E| * D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocktri import cho_factor, cho_solve, solve_spd_block_tridiagonal
from .problem import QuadForm, WeightError


@dataclass(frozen=True)
class OracleEvaluation:
    """The cost at one support pattern and the solve that `eval_gradient` reuses."""

    cost: float
    v0: np.ndarray  # (T*D,), zero off support
    key: bytes      # the support pattern, checked by eval_gradient


def _as_support(z: np.ndarray, n: int) -> np.ndarray:
    zb = np.ascontiguousarray(np.asarray(z).ravel(), dtype=np.bool_)
    if zb.size != n:
        raise ValueError(f"support pattern has length {zb.size}, expected {n}")
    return zb


def _selected(qf: QuadForm, zb: np.ndarray) -> list[np.ndarray]:
    return [row.nonzero()[0] for row in zb.reshape(qf.vertex_count, qf.feature_count)]


def _chain_solve(qf: QuadForm, sel: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Restricted solve on a chain graph: the system is block tridiagonal."""
    diag = [qf.diag_block(t, s) for t, s in enumerate(sel)]
    sub = [np.equal.outer(b, a) * -qf.lambda_delta for a, b in zip(sel, sel[1:])]
    return solve_spd_block_tridiagonal(diag, sub, rhs)


def _generic_solve(qf: QuadForm, sel: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Restricted solve on any graph: assemble the system densely and factor it."""
    T = qf.vertex_count
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in sel])])
    a = np.zeros((rhs.size, rhs.size))
    for t in range(T):
        a[offsets[t]:offsets[t + 1], offsets[t]:offsets[t + 1]] = qf.diag_block(
            t, sel[t]
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
    v0 = np.zeros(zb.size)
    if not zb.any():
        return v0
    sel = _selected(qf, zb)
    solve = _chain_solve if qf.graph.is_chain() else _generic_solve
    try:
        # vertex-major with sorted sel[t], so the unknowns are in zb's order
        v0[zb] = solve(qf, sel, qf.mu[zb])
    except np.linalg.LinAlgError as exc:
        raise WeightError(
            f"lambda_beta={qf.lambda_beta:g} and lambda_delta={qf.lambda_delta:g} "
            f"leave a restricted system that LAPACK cannot solve: {exc}"
        ) from None
    return v0


def evaluate(qf: QuadForm, z: np.ndarray) -> OracleEvaluation:
    """Cost of a binary support pattern plus reusable solve state."""
    zb = _as_support(z, qf.vertex_count * qf.feature_count)
    v0 = _solve_restricted(qf, zb)
    cost = -0.5 * float(qf.mu @ v0)
    return OracleEvaluation(cost=cost, v0=v0, key=zb.tobytes())


def eval_cost(qf: QuadForm, z: np.ndarray) -> float:
    return evaluate(qf, z).cost


def eval_gradient(qf: QuadForm, z: np.ndarray, ev: OracleEvaluation) -> np.ndarray:
    """Gradient of the convex extension at binary z, reusing the cost solve.

    `ev` must come from `evaluate` at the same z; anything else is a
    contract violation and raises.
    """
    zb = _as_support(z, qf.vertex_count * qf.feature_count)
    if ev.key != zb.tobytes():
        raise ValueError("oracle evaluation was computed at a different support pattern")
    v0 = ev.v0
    v2 = qf.matvec(v0)
    v1 = np.where(zb, v0, (qf.mu - v2) / qf.lambda_beta)
    return 0.5 * v1 * (v2 - qf.mu)


def beta_star(qf: QuadForm, z: np.ndarray) -> np.ndarray:
    """Optimal coefficients restricted to the support: exact zeros off it."""
    zb = _as_support(z, qf.vertex_count * qf.feature_count)
    return _solve_restricted(qf, zb)
