"""Problem data for sparse regression with slowly varying coefficients.

A problem instance couples T per-vertex least-squares datasets through a
similarity graph. The objective being minimized over coefficient matrices
beta (one length-D vector per vertex) is

    sum_t ||y^t - X^t beta^t||^2
      + lambda_beta * sum_t ||beta^t||^2
      + lambda_delta * sum_{(s,t) in E} ||beta^t - beta^s||^2

subject to support budgets: at most K_L active features per vertex, at most
K_G distinct features overall, and at most K_C support differences summed
over the graph edges. `true_objective` evaluates this objective term by
term; the solvers work from its quadratic expansion, a `QuadForm`, and
`check_feasible` tests a support pattern against the budgets.

Coefficients are stored flat with vertex-major layout: entry (t, d) lives at
index t * D + d. There is no intercept column; center or standardize the data
beforehand if one is needed. lambda_beta must be strictly positive (the ridge
term is what keeps every restricted system invertible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import SimilarityGraph


class BudgetError(ValueError):
    """Raised when sparsity budgets are inconsistent with the instance."""


class WeightError(np.linalg.LinAlgError):
    """Raised when the weights leave a system that floating point cannot solve.

    The message names the weights. It is a LinAlgError, like the failed SPD
    solve it usually reports.
    """


@dataclass(frozen=True)
class SparsityBudget:
    """Budgets (K_L, K_G, K_C): per-vertex, global, and cross-edge support limits."""

    max_per_vertex: int
    max_global: int
    max_changes: int

    def validate(self, vertex_count: int, feature_count: int) -> None:
        k_l, k_g, k_c = self.max_per_vertex, self.max_global, self.max_changes
        if not (1 <= k_l <= k_g <= feature_count):
            raise BudgetError(
                f"need 1 <= K_L <= K_G <= D, got K_L={k_l}, K_G={k_g}, D={feature_count}"
            )
        if not (0 <= k_c <= 2 * k_l * vertex_count):
            raise BudgetError(
                f"need 0 <= K_C <= 2*K_L*T, got K_C={k_c}, K_L={k_l}, T={vertex_count}"
            )


@dataclass(frozen=True)
class ProblemInstance:
    graph: SimilarityGraph
    x_blocks: tuple[np.ndarray, ...]
    y_blocks: tuple[np.ndarray, ...]
    lambda_beta: float
    lambda_delta: float

    def __post_init__(self):
        T = self.graph.vertex_count
        if len(self.x_blocks) != T or len(self.y_blocks) != T:
            raise ValueError(
                f"expected {T} per-vertex data blocks, got "
                f"{len(self.x_blocks)} X and {len(self.y_blocks)} y"
            )
        xs = tuple(np.asarray(x, dtype=np.float64) for x in self.x_blocks)
        ys = tuple(np.asarray(y, dtype=np.float64).ravel() for y in self.y_blocks)
        d0 = xs[0].shape[1] if xs[0].ndim == 2 else -1
        for t, (x, y) in enumerate(zip(xs, ys)):
            if x.ndim != 2:
                raise ValueError(f"X block {t} is not a matrix")
            if x.shape[1] != d0:
                raise ValueError(f"X block {t} has {x.shape[1]} features, expected {d0}")
            if x.shape[0] != y.shape[0]:
                raise ValueError(
                    f"vertex {t}: {x.shape[0]} rows of X vs {y.shape[0]} targets"
                )
        if d0 < 1:
            raise ValueError("need at least one feature")
        if not 0.0 < self.lambda_beta < math.inf:
            raise ValueError("lambda_beta must be strictly positive and finite")
        if not 0.0 <= self.lambda_delta < math.inf:
            raise ValueError("lambda_delta must be nonnegative and finite")
        object.__setattr__(self, "x_blocks", xs)
        object.__setattr__(self, "y_blocks", ys)

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def feature_count(self) -> int:
        return self.x_blocks[0].shape[1]

    @property
    def row_counts(self) -> tuple[int, ...]:
        return tuple(x.shape[0] for x in self.x_blocks)

    def with_weights(self, lambda_beta: float, lambda_delta: float) -> ProblemInstance:
        """The same graph and data blocks (shared, not copied) under other weights."""
        return replace(self, lambda_beta=lambda_beta, lambda_delta=lambda_delta)


@dataclass(frozen=True)
class QuadForm:
    """Quadratic expansion of the objective.

    With M the TD x TD block matrix whose diagonal blocks are
    (X^t)' X^t + deg(t) * lambda_delta * I and whose (t, s) off-diagonal
    blocks are -lambda_delta * I for edges (s, t), and mu the stacked
    (X^t)' y^t, the objective satisfies

        f(beta) = const_term + beta'(M + lambda_beta I) beta - 2 mu' beta.

    Note M itself carries no lambda_beta; the ridge term enters separately.
    M is never stored, not even its D x D diagonal blocks: the form holds the
    instance's X blocks (shared, not copied) and the vertex degrees, and
    works from those. A k x k restricted diagonal block costs O(n_t * k^2)
    and `matvec` costs O(sum_t n_t * D + |E| * D), where n_t is the row
    count of vertex t. Building the form costs O(sum_t n_t * D) and
    allocates only mu.
    """

    graph: SimilarityGraph
    x_blocks: tuple[np.ndarray, ...]  # the instance's (n_t, D) blocks, shared
    degrees: np.ndarray               # (T,) vertex degrees in the graph
    mu: np.ndarray                    # (T*D,)
    const_term: float
    lambda_beta: float
    lambda_delta: float

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def feature_count(self) -> int:
        return self.x_blocks[0].shape[1]

    def diag_block(self, t: int, sel: np.ndarray) -> np.ndarray:
        """Rows and columns `sel` of the t-th diagonal block of M + lambda_beta I.

        X_t[:, sel]' X_t[:, sel], then deg(t) * lambda_delta and then
        lambda_beta added to the diagonal, in that order. O(n_t * k^2) for
        k = len(sel).
        """
        xs = self.x_blocks[t][:, sel]
        block = xs.T @ xs
        block.flat[::sel.size + 1] += self.degrees[t] * self.lambda_delta
        block.flat[::sel.size + 1] += self.lambda_beta
        return block

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M @ v from the X blocks, O(sum_t n_t * D + |E| * D)."""
        T, D = self.vertex_count, self.feature_count
        vg = v.reshape(T, D)
        out = np.empty((T, D))
        for t, x in enumerate(self.x_blocks):
            out[t] = x.T @ (x @ vg[t])
        out += (self.degrees * self.lambda_delta)[:, None] * vg
        for s, t in self.graph.edges:
            out[s] -= self.lambda_delta * vg[t]
            out[t] -= self.lambda_delta * vg[s]
        return out.ravel()


def build_quadform(instance: ProblemInstance) -> QuadForm:
    """The quadratic form of an instance: mu and const_term, O(sum_t n_t * D)."""
    D = instance.feature_count
    mu = np.empty(instance.vertex_count * D)
    const = 0.0
    for t, (x, y) in enumerate(zip(instance.x_blocks, instance.y_blocks)):
        mu[t * D:(t + 1) * D] = x.T @ y
        const += float(y @ y)
    return QuadForm(
        graph=instance.graph,
        x_blocks=instance.x_blocks,
        degrees=instance.graph.degrees(),
        mu=mu,
        const_term=const,
        lambda_beta=instance.lambda_beta,
        lambda_delta=instance.lambda_delta,
    )


def true_objective(instance: ProblemInstance, beta: np.ndarray) -> float:
    """Direct evaluation of the penalized objective, no quadratic-form shortcut."""
    T, D = instance.vertex_count, instance.feature_count
    bg = np.asarray(beta, dtype=np.float64).reshape(T, D)
    total = 0.0
    for t in range(T):
        r = instance.y_blocks[t] - instance.x_blocks[t] @ bg[t]
        total += float(r @ r)
        total += instance.lambda_beta * float(bg[t] @ bg[t])
    for s, t in instance.graph.edges:
        diff = bg[t] - bg[s]
        total += instance.lambda_delta * float(diff @ diff)
    return total


def check_feasible(
    z: np.ndarray, budget: SparsityBudget, graph: SimilarityGraph
) -> bool:
    """Whether a binary support pattern satisfies all three budgets.

    z is flat (T*D,) or grid (T, D); entries are interpreted as booleans.
    """
    T = graph.vertex_count
    zg = np.asarray(z).reshape(T, -1).astype(bool)
    if int(zg.sum(axis=1).max(initial=0)) > budget.max_per_vertex:
        return False
    if int(zg.any(axis=0).sum()) > budget.max_global:
        return False
    return support_change_count(zg, graph) <= budget.max_changes


def support_change_count(z: np.ndarray, graph: SimilarityGraph) -> int:
    """Sum over edges of the support symmetric-difference size."""
    zg = np.asarray(z).reshape(graph.vertex_count, -1).astype(bool)
    return sum(int(np.logical_xor(zg[s], zg[t]).sum()) for s, t in graph.edges)
