import numpy as np
import pytest

from slowreg.blocktri import cho_factor, cho_solve, solve_spd_block_tridiagonal


def random_block_tridiagonal(sizes, rng):
    """SPD block-tridiagonal system built to be diagonally dominant."""
    n = len(sizes)
    sub = [rng.standard_normal((sizes[t + 1], sizes[t])) for t in range(n - 1)]
    diag = []
    for t in range(n):
        k = sizes[t]
        sym = rng.standard_normal((k, k))
        sym = sym @ sym.T
        dom = 1.0
        if t > 0 and sizes[t - 1]:
            dom += np.abs(sub[t - 1]).sum()
        if t + 1 < n and sizes[t + 1]:
            dom += np.abs(sub[t]).sum()
        diag.append(sym + dom * np.eye(k))
    return diag, sub


def dense_from_blocks(diag, sub):
    sizes = [d.shape[0] for d in diag]
    off = np.concatenate([[0], np.cumsum(sizes)])
    a = np.zeros((off[-1], off[-1]))
    for t, d in enumerate(diag):
        a[off[t]:off[t + 1], off[t]:off[t + 1]] = d
    for t, o in enumerate(sub):
        a[off[t + 1]:off[t + 2], off[t]:off[t + 1]] = o
        a[off[t]:off[t + 1], off[t + 1]:off[t + 2]] = o.T
    return a


@pytest.mark.parametrize("sizes", [
    [3],
    [2, 2],
    [3, 1, 4],
    [2, 0, 3],          # empty middle block decouples the chain
    [0, 2, 2, 0],
    [1, 1, 1, 1, 1, 1],
    [4, 3, 2, 1, 2, 3, 4],
])
def test_matches_dense_solve(sizes):
    rng = np.random.default_rng(sum(sizes) + len(sizes))
    diag, sub = random_block_tridiagonal(sizes, rng)
    a = dense_from_blocks(diag, sub)
    b = rng.standard_normal(a.shape[0])
    x = solve_spd_block_tridiagonal(diag, sub, b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_random_sizes_bulk():
    rng = np.random.default_rng(99)
    for trial in range(30):
        sizes = [int(k) for k in rng.integers(0, 5, size=rng.integers(1, 8))]
        if sum(sizes) == 0:
            sizes[0] = 1
        diag, sub = random_block_tridiagonal(sizes, rng)
        a = dense_from_blocks(diag, sub)
        b = rng.standard_normal(a.shape[0])
        x = solve_spd_block_tridiagonal(diag, sub, b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-11)


def test_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        solve_spd_block_tridiagonal([np.eye(2)], [np.eye(2)], np.ones(2))
    with pytest.raises(ValueError):
        solve_spd_block_tridiagonal([np.eye(2)], [], np.ones(3))


def test_empty_system():
    x = solve_spd_block_tridiagonal([], [], np.zeros(0))
    assert x.shape == (0,)


def test_hundred_uneven_blocks_match_dense_solve():
    # sizes 0..5 in one system: empty blocks, and neighbours whose sizes differ
    rng = np.random.default_rng(5)
    sizes = [int(k) for k in rng.integers(0, 6, size=100)]
    sizes[:3] = [5, 0, 5]
    diag, sub = random_block_tridiagonal(sizes, rng)
    a = dense_from_blocks(diag, sub)
    b = rng.standard_normal(a.shape[0])
    x = solve_spd_block_tridiagonal(diag, sub, b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_indefinite_system_raises():
    rng = np.random.default_rng(8)
    diag, sub = random_block_tridiagonal([2, 3, 2], rng)
    diag[1] = diag[1] - 100.0 * np.eye(3)  # a negative pivot in the middle block
    with pytest.raises(np.linalg.LinAlgError):
        solve_spd_block_tridiagonal(diag, sub, np.ones(7))


def test_dense_cholesky_solves_and_rejects_indefinite():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((6, 6))
    a = g @ g.T + np.eye(6)
    b = rng.standard_normal(6)
    factor = cho_factor(a)
    assert np.allclose(factor, np.linalg.cholesky(a), rtol=1e-12, atol=1e-12)
    assert np.allclose(cho_solve(factor, b), np.linalg.solve(a, b), rtol=1e-10)
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(a - 100.0 * np.eye(6))
