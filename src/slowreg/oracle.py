"""Cost oracle for binary support patterns, and dual cuts from any vector.

For a support pattern z (flat boolean, vertex-major) define the restricted
ridge-coupled system A_z = lambda_beta I + M_zz. `evaluate` returns

    cost(z) = -1/2 mu_z' A_z^{-1} mu_z

with v0 = A_z^{-1} mu_z embedded at full size (zero off the support). cost(z)
is the minimum over coefficients supported on z of the canonical half-scaled
objective; the original penalized objective of the best such coefficient
vector is const_term + 2 * cost(z). It is the restriction to binary points
of the convex function on the unit box

    f(z) = min_w sum_j lambda_beta w_j^2 / (2 z_j) + 1/2 w'Mw - mu'w.

M is PSD, so 1/2 w'Mw >= x'Mw - 1/2 x'Mx for every x. Minimizing over w in
closed form then gives, for every x and every z in the box, the dual cut

    f(z) >= -1/2 x'Mx - sum_j z_j (mu - Mx)_j^2 / (2 lambda_beta).

`eval_gradient(qf, x)` returns its intercept and gradient for one matvec;
the cut is valid whatever x is and however accurately it was solved. At x =
v0 of a binary z, (mu - M v0)_j = lambda_beta v0_j on the support, so the cut
is tight there: its value at z is cost(z). Every gradient entry is <= 0.

Every graph gets the same restricted solve. In vertex order the system is
block-banded: a diagonal block per vertex and a -lambda_delta coupling per
edge, so one LAPACK dpbsv call solves it (`blocktri`). The band reaches as
far as the graph's farthest edge in vertex order: on a chain it is block
tridiagonal, and an edge (0, T-1) makes it full, as costly as a dense
factorisation. A restricted system that is not positive definite in
floating point, or whose solution is not finite, raises `WeightError`,
which names the weights. No stored D x D block is read: each restricted
diagonal block is formed from the X blocks at O(n_t * k_t^2) for k_t
selected features and n_t rows at vertex t, and the cut's matvec costs
O(sum_t n_t * D + |E| * D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# cho_factor is unused here, but perfbench/tracer.py wraps slowreg.oracle.cho_factor
from .blocktri import cho_factor, solve_spd_block_tridiagonal  # noqa: F401
from .problem import QuadForm, WeightError


@dataclass(frozen=True)
class OracleEvaluation:
    """The cost at one support pattern and its restricted solution."""

    cost: float
    v0: np.ndarray  # (T*D,), zero off support


def _as_support(z: np.ndarray, n: int) -> np.ndarray:
    zb = np.ascontiguousarray(np.asarray(z).ravel(), dtype=np.bool_)
    if zb.size != n:
        raise ValueError(f"support pattern has length {zb.size}, expected {n}")
    return zb


def _selected(qf: QuadForm, zb: np.ndarray) -> list[np.ndarray]:
    return [row.nonzero()[0] for row in zb.reshape(qf.vertex_count, qf.feature_count)]


def _solve_restricted(qf: QuadForm, zb: np.ndarray) -> np.ndarray:
    """v0 = (lambda_beta I + M_zz)^{-1} mu_z, embedded into (T*D,)."""
    v0 = np.zeros(zb.size)
    if not zb.any():
        return v0
    sel = _selected(qf, zb)
    diag = [qf.diag_block(t, s) for t, s in enumerate(sel)]
    couplings = [
        (s, t, np.equal.outer(sel[t], sel[s]) * -qf.lambda_delta)
        for s, t in qf.graph.edges
    ]
    try:
        # vertex-major with sorted sel[t], so the unknowns are in zb's order
        v0[zb] = solve_spd_block_tridiagonal(diag, couplings, qf.mu[zb])
    except np.linalg.LinAlgError as exc:
        raise WeightError(
            f"lambda_beta={qf.lambda_beta:g} and lambda_delta={qf.lambda_delta:g} "
            f"leave a restricted system that LAPACK cannot solve: {exc}"
        ) from None
    return v0


def evaluate(qf: QuadForm, z: np.ndarray) -> OracleEvaluation:
    """Cost of a binary support pattern and the v0 that gives its tight cut."""
    v0 = _solve_restricted(qf, _as_support(z, qf.vertex_count * qf.feature_count))
    return OracleEvaluation(cost=-0.5 * float(qf.mu @ v0), v0=v0)


def eval_cost(qf: QuadForm, z: np.ndarray) -> float:
    return evaluate(qf, z).cost


def eval_gradient(qf: QuadForm, x: np.ndarray) -> tuple[float, np.ndarray]:
    """The dual cut at any x: f(z) >= intercept + gradient'z on the whole box."""
    mx = qf.matvec(x)
    residual = qf.mu - mx
    return -0.5 * float(x @ mx), residual * residual / (-2.0 * qf.lambda_beta)


def beta_star(qf: QuadForm, z: np.ndarray) -> np.ndarray:
    """Optimal coefficients restricted to the support: exact zeros off it."""
    zb = _as_support(z, qf.vertex_count * qf.feature_count)
    return _solve_restricted(qf, zb)
