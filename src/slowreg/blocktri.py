"""Symmetric positive-definite solves on LAPACK's Cholesky routines.

Every SPD system in slowreg is a restricted ridge system
lambda_beta I + M_zz. In vertex order it is block-banded on any graph: a
diagonal block per vertex and a coupling block per edge.
`solve_spd_block_tridiagonal` solves it in one dpbsv call from scipy's
LAPACK wrappers (`scipy.linalg._flapack`, `extensions.lapack`). A system
that is not positive definite in floating point, or whose solution is not
finite, raises LinAlgError. `cho_factor` (dpotrf) is the dense Cholesky
factor, which no solve calls.

With block offsets off[t], the band reaches kd = max(off[t+1] - 1 - off[s])
over the edges (s, t) with s < t, and k_t - 1 over the diagonal blocks: the
farthest edge in vertex order sets it. In LAPACK's band storage the system
takes O(n * kd) memory and dpbsv solves it in O(n * kd^2) for n unknowns. A
chain has kd = max(k_t + k_{t+1}) - 1; an edge (0, T-1) makes the band full,
as costly in time and memory as a dense factorisation.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .extensions import lapack


def _not_spd(routine: str, info: int) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(
        f"matrix is not positive definite ({routine} info {info})"
    )


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix (its lower triangle is read)."""
    factor, info = lapack.dpotrf(a, lower=1)
    if info:
        raise _not_spd("dpotrf", info)
    return factor


def solve_spd_block_tridiagonal(
    diag_blocks: list[np.ndarray],
    couplings: list[tuple[int, int, np.ndarray]],
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve A x = rhs for SPD block-banded A.

    diag_blocks[t] is the (k_t, k_t) diagonal block. Each coupling (s, t,
    block) with s < t is the (k_t, k_s) block of A at block-row t,
    block-column s; A is symmetric, and pairs without a coupling are zero.
    Blocks may be empty (k_t = 0). rhs is the concatenated right-hand side.
    """
    nblocks = len(diag_blocks)
    sizes = [b.shape[0] for b in diag_blocks]
    off = [0, *accumulate(sizes)]
    for s, t, c in couplings:
        if not 0 <= s < t < nblocks or c.shape != (sizes[t], sizes[s]):
            raise ValueError(f"coupling ({s}, {t}) does not fit the diagonal blocks")
    n = off[-1]
    if rhs.shape[0] != n:
        raise ValueError("rhs length does not match total block size")
    if n == 0:
        return np.zeros(0)

    kd = max([k - 1 for k in sizes]
             + [off[t + 1] - 1 - off[s] for s, t, c in couplings if c.size])
    # band[j, i - j] = A[i, j] for j <= i <= j + kd: LAPACK's lower band
    # storage, transposed. `upper[j, i]` is band[j, i - j], so blocks of A's
    # upper triangle go in by slicing. A diagonal block's entries below its
    # diagonal (i < j) land in band[j - 1, width - (j - i)], past column kd.
    width = kd + max(sizes)
    band = np.zeros((n, width))
    upper = np.lib.stride_tricks.as_strided(
        band, shape=(n, n), strides=((width - 1) * band.itemsize, band.itemsize)
    )
    for t, d in enumerate(diag_blocks):
        upper[off[t]:off[t + 1], off[t]:off[t + 1]] = d
    for s, t, c in couplings:
        upper[off[s]:off[s + 1], off[t]:off[t + 1]] = c.T

    _, x, info = lapack.dpbsv(band[:, :kd + 1].T, rhs, lower=1)
    if info:
        raise _not_spd("dpbsv", info)
    if not np.isfinite(x).all():  # dpbsv's pivot test lets a NaN through
        raise np.linalg.LinAlgError("dpbsv returned a non-finite solution")
    return x
