"""Symmetric positive-definite solves on LAPACK's Cholesky routines.

Every SPD system in slowreg is a restricted ridge system
lambda_beta I + M_zz. The routines come from scipy's LAPACK wrappers
(`scipy.linalg._flapack`, `extensions.lapack`): `cho_factor` and
`cho_solve` are dpotrf and dpotrs, for the dense systems of general graphs,
and `solve_spd_block_tridiagonal` is one dpbsv call, for the block-tridiagonal
systems of chain graphs. A system that is not positive definite in floating
point raises LinAlgError.

A block-tridiagonal system with block sizes k_t has bandwidth
kd = max(k_t + k_{t+1}) - 1, so in LAPACK's band storage it takes
O(n * kd) memory and dpbsv solves it in O(n * kd^2) for n unknowns.
"""

from __future__ import annotations

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


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the lower Cholesky factor L of A = L L'."""
    return lapack.dpotrs(factor, b, lower=1)[0]


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
    n = sum(sizes)
    if rhs.shape[0] != n:
        raise ValueError("rhs length does not match total block size")
    if n == 0:
        return np.zeros(0)

    kd = max(map(sum, zip(sizes, sizes[1:] + [0]))) - 1
    # band[j, i - j] = A[i, j] for j <= i <= j + kd: LAPACK's lower band
    # storage, transposed. `upper[j, i]` is band[j, i - j], so blocks of A's
    # upper triangle go in by slicing. A diagonal block's entries below its
    # diagonal (i < j) land in band[j - 1, width - (j - i)], past column kd.
    width = kd + max(sizes)
    band = np.zeros((n, width))
    upper = np.lib.stride_tricks.as_strided(
        band, shape=(n, n), strides=((width - 1) * band.itemsize, band.itemsize)
    )
    start = 0
    for d, s in zip(diag_blocks, [*sub_blocks, None]):
        stop = start + d.shape[0]
        upper[start:stop, start:stop] = d
        if s is not None:
            upper[start:stop, stop:stop + s.shape[0]] = s.T
        start = stop

    _, x, info = lapack.dpbsv(band[:, :kd + 1].T, rhs, lower=1)
    if info:
        raise _not_spd("dpbsv", info)
    if not np.isfinite(x).all():  # dpbsv's pivot test lets a NaN through
        raise np.linalg.LinAlgError("dpbsv returned a non-finite solution")
    return x
