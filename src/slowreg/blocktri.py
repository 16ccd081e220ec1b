"""Symmetric positive-definite block-tridiagonal linear solves.

Used for the restricted normal equations of chain-graph instances, where the
coupled system is block tridiagonal with one (possibly empty) block per
vertex. Forward sweep computes Schur complements S_t block by block; the pair
of triangular sweeps then solves in O(sum k_t^3) instead of a dense solve on
the concatenated system.
"""

from __future__ import annotations

import numpy as np


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix; raises LinAlgError otherwise."""
    return np.linalg.cholesky(a)


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the lower Cholesky factor L of A = L L'."""
    return np.linalg.solve(factor.T, np.linalg.solve(factor, b))


def solve_spd_block_tridiagonal(
    diag_blocks: list[np.ndarray],
    sub_blocks: list[np.ndarray],
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve A x = rhs for SPD block-tridiagonal A.

    diag_blocks[t] is the (k_t, k_t) diagonal block; sub_blocks[t] is the
    (k_{t+1}, k_t) block of A at block-row t+1, block-column t. Blocks may be
    empty (k_t = 0). rhs is the concatenated right-hand side.
    """
    nblocks = len(diag_blocks)
    if len(sub_blocks) != max(nblocks - 1, 0):
        raise ValueError("need exactly one sub-diagonal block per adjacent pair")
    sizes = [b.shape[0] for b in diag_blocks]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if rhs.shape[0] != offsets[-1]:
        raise ValueError("rhs length does not match total block size")

    factors: list = [None] * nblocks
    u_segs: list[np.ndarray] = [None] * nblocks

    def factor(mat):
        if mat.shape[0] == 0:
            return None
        return cho_factor(mat)

    def solve(fac, b):
        if fac is None:
            return np.zeros_like(b)
        return cho_solve(fac, b)

    prev_s_inv_u = None
    prev_fac = None
    for t in range(nblocks):
        d = diag_blocks[t]
        b = rhs[offsets[t]:offsets[t + 1]].copy()
        if t > 0:
            o = sub_blocks[t - 1]  # (k_t, k_{t-1})
            # Schur complement against the previous pivot block
            s_inv_ot = solve(prev_fac, o.T)  # (k_{t-1}, k_t)
            d = d - o @ s_inv_ot
            b = b - o @ prev_s_inv_u
        fac = factor(d)
        factors[t] = fac
        u_segs[t] = b
        prev_s_inv_u = solve(fac, b)
        prev_fac = fac

    x_segs: list[np.ndarray] = [None] * nblocks
    for t in range(nblocks - 1, -1, -1):
        rhs_t = u_segs[t]
        if t < nblocks - 1:
            rhs_t = rhs_t - sub_blocks[t].T @ x_segs[t + 1]
        x_segs[t] = solve(factors[t], rhs_t)

    return np.concatenate(x_segs) if nblocks else np.zeros(0)
