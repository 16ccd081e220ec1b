"""Problem data for sparse regression with slowly varying coefficients.

A problem instance couples T per-vertex least-squares datasets through a
similarity graph. The objective being minimized over coefficient matrices
beta (one length-D vector per vertex) is

    sum_t ||y^t - X^t beta^t||^2
      + lambda_beta * sum_t ||beta^t||^2
      + lambda_delta * sum_{(s,t) in E} ||beta^t - beta^s||^2

subject to support budgets: at most K_L active features per vertex, at most
K_G distinct features overall, and at most K_C support differences summed
over the graph edges.

Coefficients are stored flat with vertex-major layout: entry (t, d) lives at
index t * D + d. There is no intercept column; center or standardize the data
beforehand if one is needed. lambda_beta must be strictly positive (the ridge
term is what keeps every restricted system invertible).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import SimilarityGraph


class BudgetError(ValueError):
    """Raised when sparsity budgets are inconsistent with the instance."""


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
        if not self.lambda_beta > 0.0:
            raise ValueError("lambda_beta must be strictly positive")
        if self.lambda_delta < 0.0:
            raise ValueError("lambda_delta must be nonnegative")
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
    Only the T diagonal D x D blocks are stored; the full matrix is never
    materialized, and edge blocks act through matvec.
    """

    graph: SimilarityGraph
    gram: np.ndarray          # (T, D, D) diagonal blocks including the Laplacian part
    mu: np.ndarray            # (T*D,)
    const_term: float
    lambda_beta: float
    lambda_delta: float

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def feature_count(self) -> int:
        return self.gram.shape[1]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M @ v using the block structure, O(T*D^2 + |E|*D)."""
        T, D = self.vertex_count, self.feature_count
        vg = v.reshape(T, D)
        out = np.einsum("tij,tj->ti", self.gram, vg)
        for s, t in self.graph.edges:
            out[s] -= self.lambda_delta * vg[t]
            out[t] -= self.lambda_delta * vg[s]
        return out.ravel()

    def objective_at(self, beta: np.ndarray) -> float:
        """const_term + beta'(M + lambda_beta I)beta - 2 mu'beta via matvec."""
        b = np.asarray(beta, dtype=np.float64).ravel()
        return float(
            self.const_term
            + b @ self.matvec(b)
            + self.lambda_beta * (b @ b)
            - 2.0 * (self.mu @ b)
        )


def build_quadform(instance: ProblemInstance) -> QuadForm:
    T, D = instance.vertex_count, instance.feature_count
    deg = instance.graph.degrees()
    gram = np.empty((T, D, D))
    mu = np.empty(T * D)
    const = 0.0
    eye = np.eye(D)
    for t in range(T):
        x, y = instance.x_blocks[t], instance.y_blocks[t]
        gram[t] = x.T @ x + deg[t] * instance.lambda_delta * eye
        mu[t * D:(t + 1) * D] = x.T @ y
        const += float(y @ y)
    return QuadForm(
        graph=instance.graph,
        gram=gram,
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


def support_of(beta: np.ndarray, vertex_count: int, feature_count: int) -> np.ndarray:
    """Exact-nonzero support pattern of a flat coefficient vector, shape (T*D,) bool."""
    b = np.asarray(beta).ravel()
    if b.size != vertex_count * feature_count:
        raise ValueError("coefficient vector has wrong length")
    return b != 0.0


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
    changes = 0
    for s, t in graph.edges:
        changes += int(np.logical_xor(zg[s], zg[t]).sum())
    return changes <= budget.max_changes


def support_change_count(z: np.ndarray, graph: SimilarityGraph) -> int:
    """Sum over edges of the support symmetric-difference size."""
    zg = np.asarray(z).reshape(graph.vertex_count, -1).astype(bool)
    return sum(int(np.logical_xor(zg[s], zg[t]).sum()) for s, t in graph.edges)
