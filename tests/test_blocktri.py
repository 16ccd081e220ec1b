import numpy as np
import pytest

from slowreg.blocktri import cho_factor, solve_spd_block_tridiagonal


def random_block_banded(sizes, pairs, rng):
    """SPD system with a coupling block per pair (s, t), diagonally dominant."""
    couplings = [(s, t, rng.standard_normal((sizes[t], sizes[s]))) for s, t in pairs]
    diag = []
    for t, k in enumerate(sizes):
        sym = rng.standard_normal((k, k))
        dom = 1.0 + sum(np.abs(c).sum() for s, u, c in couplings if t in (s, u))
        diag.append(sym @ sym.T + dom * np.eye(k))
    return diag, couplings


def random_block_tridiagonal(sizes, rng):
    return random_block_banded(sizes, [(t, t + 1) for t in range(len(sizes) - 1)], rng)


def dense_from_blocks(diag, couplings):
    sizes = [d.shape[0] for d in diag]
    off = np.concatenate([[0], np.cumsum(sizes)])
    a = np.zeros((off[-1], off[-1]))
    for t, d in enumerate(diag):
        a[off[t]:off[t + 1], off[t]:off[t + 1]] = d
    for s, t, c in couplings:
        a[off[t]:off[t + 1], off[s]:off[s + 1]] = c
        a[off[s]:off[s + 1], off[t]:off[t + 1]] = c.T
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
    diag, couplings = random_block_tridiagonal(sizes, rng)
    a = dense_from_blocks(diag, couplings)
    b = rng.standard_normal(a.shape[0])
    x = solve_spd_block_tridiagonal(diag, couplings, b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_random_sizes_bulk():
    rng = np.random.default_rng(99)
    for trial in range(30):
        sizes = [int(k) for k in rng.integers(0, 5, size=rng.integers(1, 8))]
        if sum(sizes) == 0:
            sizes[0] = 1
        n = len(sizes)
        pairs = [(s, t) for s in range(n) for t in range(s + 1, n) if rng.random() < 0.4]
        diag, couplings = random_block_banded(sizes, pairs, rng)
        a = dense_from_blocks(diag, couplings)
        b = rng.standard_normal(a.shape[0])
        x = solve_spd_block_tridiagonal(diag, couplings, b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-11)


def test_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        solve_spd_block_tridiagonal([np.eye(2)], [(0, 1, np.eye(2))], np.ones(2))
    with pytest.raises(ValueError):
        solve_spd_block_tridiagonal([np.eye(2)] * 2, [(1, 0, np.eye(2))], np.ones(4))
    with pytest.raises(ValueError):
        solve_spd_block_tridiagonal([np.eye(2)] * 2, [(0, 1, np.eye(3))], np.ones(4))
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
    diag, couplings = random_block_tridiagonal(sizes, rng)
    a = dense_from_blocks(diag, couplings)
    b = rng.standard_normal(a.shape[0])
    x = solve_spd_block_tridiagonal(diag, couplings, b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_indefinite_system_raises():
    rng = np.random.default_rng(8)
    diag, couplings = random_block_tridiagonal([2, 3, 2], rng)
    diag[1] = diag[1] - 100.0 * np.eye(3)  # a negative pivot in the middle block
    with pytest.raises(np.linalg.LinAlgError):
        solve_spd_block_tridiagonal(diag, couplings, np.ones(7))
    # a coupling between blocks 0 and 2 too strong for their diagonals
    diag = [np.eye(2), np.eye(1), np.eye(2)]
    with pytest.raises(np.linalg.LinAlgError):
        solve_spd_block_tridiagonal(diag, [(0, 2, 3.0 * np.eye(2))], np.ones(5))


def test_dense_cholesky_solves_and_rejects_indefinite():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((6, 6))
    a = g @ g.T + np.eye(6)
    b = rng.standard_normal(6)
    factor = cho_factor(a)
    assert np.allclose(factor, np.linalg.cholesky(a), rtol=1e-12, atol=1e-12)
    x = np.linalg.solve(factor.T, np.linalg.solve(factor, b))
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10)
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(a - 100.0 * np.eye(6))


@pytest.mark.parametrize("sizes, pairs", [
    ([2, 3, 2], [(0, 2)]),                              # only a non-adjacent pair
    ([2, 1, 3, 2], [(0, 1), (1, 2), (2, 3), (0, 3)]),   # a cycle: the full band
    ([3, 2, 2, 1], [(0, 1), (0, 2), (0, 3)]),           # a star on block 0
    ([0, 2, 3, 0, 2], [(0, 4), (1, 3), (1, 4)]),        # couplings to empty blocks
    ([2, 2, 2], [(0, 1), (0, 2), (1, 2)]),              # a triangle
])
def test_non_adjacent_couplings_match_dense_solve(sizes, pairs):
    rng = np.random.default_rng(sum(sizes) + 10 * len(pairs))
    diag, couplings = random_block_banded(sizes, pairs, rng)
    a = dense_from_blocks(diag, couplings)
    b = rng.standard_normal(a.shape[0])
    x = solve_spd_block_tridiagonal(diag, couplings, b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)

