"""Synthetic benchmark suite: generators, baselines, tuning, and metrics.

Datasets are built in four seeded stages (graph, coefficients, design, noise)
so a run is bit-reproducible from its parameter set. Two generation modes are
provided: a temporal mode over a chain graph, where the coefficient vector
drifts along the chain and changes support at a few random vertices, and a
spatial mode over a uniform random graph, where each connected component
shares one base vector. The fitting side offers a static pooled baseline,
the stepwise heuristic, and the exact tree search, all tuned by holdout
grid search on the training split.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from numpy.lib.array_utils import byte_bounds

from . import fanout
from .graph import SimilarityGraph
from .highs import HIGHS_INFINITY
from .master import SolveLimits, SolveResult, solve_support_selection
from .problem import (
    ProblemInstance,
    SparsityBudget,
    build_quadform,
    check_feasible,
    support_change_count,
)
from .stepwise import greedy_start, sparse_ridge_greedy, stepwise_fit

MODES = ("temporal", "spatial")
METHODS = ("static", "stepwise", "cutplane")
_GEN_BLOCK = 1 << 17  # doubles per block of gen_x's second part (1 MiB)


@dataclass(frozen=True)
class SynthParams:
    """Parameters of one synthetic dataset.

    `n` rows are observed at every one of the `t` vertices, each with `d`
    features. Budgets follow the solver's convention: `k_l` nonzeros per
    vertex, `k_g` distinct features overall, `k_c` units of support change
    summed over edges. In temporal mode `k_g` and `e` are ignored (the chain
    generator realizes its own global support, recorded in the dataset
    metadata); in spatial mode both are required. `sigma_v` bounds the
    entrywise coefficient perturbation, `xi` is the signal-to-noise ratio,
    and `rho_t`, `rho_d` introduce correlation across vertices and features
    in the design.
    """

    n: int
    t: int
    d: int
    k_l: int
    k_c: int = 0
    k_g: int | None = None
    sigma_v: float = 0.0
    xi: float = 2.0
    rho_t: float = 0.0
    rho_d: float = 0.0
    e: int | None = None
    mode: str = "temporal"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n < 1 or self.t < 1 or self.d < 1:
            raise ValueError("n, t, d must all be positive")
        if not (1 <= self.k_l <= self.d):
            raise ValueError(f"need 1 <= k_l <= d, got k_l={self.k_l}, d={self.d}")
        if self.k_c < 0:
            raise ValueError("k_c must be nonnegative")
        if not 0.0 <= 2.0 * self.sigma_v < math.inf:  # the drift range is 2 sigma_v
            raise ValueError("sigma_v must be nonnegative, and 2 * sigma_v finite")
        if not 0.0 < self.xi < math.inf:
            raise ValueError("xi must be strictly positive and finite")
        for name, rho in (("rho_t", self.rho_t), ("rho_d", self.rho_d)):
            if not (0.0 <= rho < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {rho}")
        if self.mode == "spatial":
            if self.k_g is None:
                raise ValueError("spatial mode requires an explicit k_g")
            if not (self.k_l <= self.k_g <= self.d):
                raise ValueError(
                    f"need k_l <= k_g <= d, got k_g={self.k_g}, d={self.d}"
                )
            if self.e is None or self.e < 0:
                raise ValueError("spatial mode requires an edge count e >= 0")

    def to_dict(self) -> dict:
        return {
            "n": self.n, "t": self.t, "d": self.d,
            "k_l": self.k_l, "k_g": self.k_g, "k_c": self.k_c,
            "sigma_v": self.sigma_v, "xi": self.xi,
            "rho_t": self.rho_t, "rho_d": self.rho_d,
            "e": self.e, "mode": self.mode, "seed": self.seed,
        }


@dataclass(frozen=True)
class SynthDataset:
    """One generated dataset: training instance, held-out blocks, and truth."""

    params: SynthParams
    instance: ProblemInstance
    test_blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    beta_true: np.ndarray
    z_true: np.ndarray
    metadata: dict

    def with_lambdas(self, lambda_beta: float, lambda_delta: float) -> ProblemInstance:
        """The training instance under other weights (`instance.with_weights`)."""
        return self.instance.with_weights(lambda_beta, lambda_delta)


@dataclass
class MetricsReport:
    mae_coefficients: float
    oos_r2: float
    support_recovered_pct: float
    false_positive_pct: float
    fit_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def gen_graph_uniform(t: int, e: int, rng: np.random.Generator) -> SimilarityGraph:
    """Simple graph with exactly `e` edges drawn uniformly without replacement."""
    pairs = [(s, u) for s in range(t) for u in range(s + 1, t)]
    if e > len(pairs):
        raise ValueError(f"e={e} exceeds the {len(pairs)} possible edges on t={t}")
    if e == 0:
        return SimilarityGraph(t, ())
    idx = rng.choice(len(pairs), size=e, replace=False)
    return SimilarityGraph(t, tuple(pairs[i] for i in sorted(idx)))


def gen_beta_temporal(
    params: SynthParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Drifting coefficients over the chain 0-1-...-(t-1).

    Vertex 0 gets `k_l` entries drawn from {-1, +1}; each later vertex copies
    its predecessor, perturbs every supported entry by Uniform[-sigma_v,
    +sigma_v], and at a few vertices (chosen uniformly without replacement)
    changes support. The change budget is consumed exactly: floor(k_c/2)
    swaps (each worth two units across the incoming edge) plus, for odd k_c,
    one single-feature removal (one unit) placed at the last change vertex.
    Raises ValueError when the budget cannot be realized on distinct
    vertices or there are no unsupported features to swap in.
    """
    t, d, k_l, k_c = params.t, params.d, params.k_l, params.k_c
    if k_c > 0 and k_l == d:
        raise ValueError("k_l = d leaves no unsupported feature, so k_c must be 0")
    n_swaps, n_removals = k_c // 2, k_c % 2
    n_events = n_swaps + n_removals
    if n_events > t - 1:
        raise ValueError(
            f"k_c={k_c} needs {n_events} distinct change vertices, "
            f"but the chain has only {t - 1}"
        )
    if n_swaps > d - k_l:
        raise ValueError(
            f"k_c={k_c} needs {n_swaps} never-used features beyond the "
            f"initial support, but only {d - k_l} exist"
        )

    beta = np.zeros((t, d))
    support0 = np.sort(rng.choice(d, size=k_l, replace=False))
    beta[0, support0] = rng.choice([-1.0, 1.0], size=k_l)

    if n_events:
        events = np.sort(rng.choice(np.arange(1, t), size=n_events, replace=False))
    else:
        events = np.empty(0, dtype=np.int64)
    swap_at = set(events[:n_swaps].tolist())
    remove_at = set(events[n_swaps:].tolist())
    unused = np.setdiff1d(np.arange(d), support0)

    for v in range(1, t):
        beta[v] = beta[v - 1]
        supp = np.flatnonzero(beta[v])
        if params.sigma_v > 0.0 and supp.size:
            beta[v, supp] += rng.uniform(-params.sigma_v, params.sigma_v, supp.size)
        if v in swap_at:
            out = rng.choice(np.sort(np.flatnonzero(beta[v])))
            inc = rng.choice(unused)
            beta[v, out] = 0.0
            beta[v, inc] = rng.choice([-1.0, 1.0])
            unused = unused[unused != inc]
        elif v in remove_at:
            out = rng.choice(np.sort(np.flatnonzero(beta[v])))
            beta[v, out] = 0.0

    beta_flat = beta.ravel().copy()
    z = beta_flat != 0.0
    chain = SimilarityGraph.chain(t)
    audit = SparsityBudget(
        max_per_vertex=k_l, max_global=k_l + k_c, max_changes=k_c
    )
    assert check_feasible(z, audit, chain)
    assert support_change_count(z, chain) == k_c
    return beta_flat, z


def gen_beta_spatial(
    params: SynthParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, SimilarityGraph]:
    """Component-shared coefficients over a uniform random graph.

    A global feature pool of size `k_g` is drawn once; every connected
    component of the sampled graph gets one `k_l`-sparse base vector with
    {-1,+1} entries on features from that pool, and each vertex perturbs the
    base entrywise by Uniform[-sigma_v, +sigma_v]. Support swaps within the
    pool are then applied at randomly ordered vertices while the change
    budget allows (a swap at vertex v costs 2*deg(v) units), at most `k_c`
    swap events in total.
    """
    t, d, k_l, k_c = params.t, params.d, params.k_l, params.k_c
    k_g = int(params.k_g)
    graph = gen_graph_uniform(t, int(params.e), rng)
    pool = np.sort(rng.choice(d, size=k_g, replace=False))

    beta = np.zeros((t, d))
    for component in _components(graph):
        base_support = np.sort(rng.choice(pool, size=k_l, replace=False))
        base_vals = rng.choice([-1.0, 1.0], size=k_l)
        for v in component:
            noise = (
                rng.uniform(-params.sigma_v, params.sigma_v, k_l)
                if params.sigma_v > 0.0
                else 0.0
            )
            beta[v, base_support] = base_vals + noise

    degrees = graph.degrees()
    spent = 0
    swaps_done = 0
    for v in rng.permutation(t):
        if swaps_done >= k_c:
            break
        cost = 2 * int(degrees[v])
        if spent + cost > k_c:
            continue
        supp = np.flatnonzero(beta[v])
        swap_in_pool = np.setdiff1d(pool, supp)
        if swap_in_pool.size == 0:
            continue
        out = rng.choice(np.sort(supp))
        inc = rng.choice(swap_in_pool)
        beta[v, out] = 0.0
        sign = rng.choice([-1.0, 1.0])
        if params.sigma_v > 0.0:
            sign += rng.uniform(-params.sigma_v, params.sigma_v)
        beta[v, inc] = sign
        spent += cost
        swaps_done += 1

    beta_flat = beta.ravel().copy()
    z = beta_flat != 0.0
    audit = SparsityBudget(max_per_vertex=k_l, max_global=k_g, max_changes=k_c)
    assert check_feasible(z, audit, graph)
    return beta_flat, z, graph


def _components(graph: SimilarityGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by first vertex."""
    seen = [False] * graph.vertex_count
    out = []
    for start in range(graph.vertex_count):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in graph.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        out.append(sorted(comp))
    return out


def gen_x(params: SynthParams, rng: np.random.Generator) -> np.ndarray:
    """Design tensor of shape (n, t, d), the sum of two correlated parts.

    Both parts start i.i.d. standard normal; the first accumulates along the
    vertex axis (x[:, v+1, :] += rho_t * x[:, v, :]) and the second along the
    feature axis (x[:, :, j+1] += rho_d * x[:, :, j]).
    """
    n, t, d = params.n, params.t, params.d
    x = rng.standard_normal((n, t, d))
    for v in range(1, t):
        x[:, v, :] += params.rho_t * x[:, v - 1, :]
    # the second part is drawn and added a block of rows at a time, so only
    # one (n, t, d) array is held; standard_normal fills in C order, so the
    # blocks take the same stream as one (n, t, d) draw
    rows = max(1, _GEN_BLOCK // (t * d))
    for start in range(0, n, rows):
        xb = rng.standard_normal((min(rows, n - start), t, d))
        for j in range(1, d):
            xb[:, :, j] += params.rho_d * xb[:, :, j - 1]
        x[start : start + rows] += xb
    return x


def noise_variance(clean_y: np.ndarray, xi: float) -> float:
    """Per-entry noise variance giving E||noise||^2 = ||signal||^2 / xi^2.

    A signal or an xi beyond what a float holds gives inf, without a warning.
    """
    clean_y = np.asarray(clean_y)
    with np.errstate(over="ignore"):
        total = float(np.sum(clean_y ** 2))
    if total == 0.0:
        return 0.0
    scale = xi * xi * clean_y.size
    return total / scale if scale > 0.0 else math.inf


def add_noise(
    clean_y: np.ndarray, xi: float, rng: np.random.Generator
) -> np.ndarray:
    """Add i.i.d. centered Gaussian noise sized by the signal-to-noise ratio.

    An all-zero signal is returned unchanged (zero noise variance).
    """
    if not xi > 0.0:
        raise ValueError("xi must be strictly positive")
    clean_y = np.asarray(clean_y, dtype=np.float64)
    var = noise_variance(clean_y, xi)
    if var == 0.0:
        return clean_y.copy()
    return clean_y + math.sqrt(var) * rng.standard_normal(clean_y.shape)


def make_synthetic_dataset(params: SynthParams) -> SynthDataset:
    """Generate one seeded dataset: truth, train split, and test split.

    The generator stages run in a fixed order on one RNG stream (graph and
    coefficients, then the training design and its noise, then the test
    design and its noise), so every array is reproducible from the seed.
    Raises ValueError, naming sigma_v and xi, when the response's sum of
    squares is not finite, or when its X'y puts the exact solver's root
    bound at the tuning grid's weakest lambda_beta past `HIGHS_INFINITY`.
    """
    rng = np.random.default_rng(params.seed)
    if params.mode == "temporal":
        beta_flat, z_true = gen_beta_temporal(params, rng)
        graph = SimilarityGraph.chain(params.t)
    else:
        beta_flat, z_true, graph = gen_beta_spatial(params, rng)
    beta_mat = beta_flat.reshape(params.t, params.d)

    x_train = gen_x(params, rng)
    signal_train = np.einsum("nvd,vd->nv", x_train, beta_mat)
    y_train = add_noise(signal_train, params.xi, rng)

    x_test = gen_x(params, rng)
    signal_test = np.einsum("nvd,vd->nv", x_test, beta_mat)
    y_test = add_noise(signal_test, params.xi, rng)
    anchor = float(params.n)
    weakest = min(lambda_beta_grid(anchor))
    with np.errstate(over="ignore", invalid="ignore"):
        squares = float(np.vdot(y_train, y_train)) + float(np.vdot(y_test, y_test))
        # minus the exact solver's root bound at the grid's weakest lambda_beta
        mu = np.einsum("nvd,nv->vd", x_train, y_train)
        root = 0.5 * float(np.vdot(mu, mu)) / weakest
    if not math.isfinite(squares):
        raise ValueError(
            f"sigma_v={params.sigma_v:g} and xi={params.xi:g} give a response "
            "whose sum of squares is not finite"
        )
    if not root < HIGHS_INFINITY:
        raise ValueError(
            f"sigma_v={params.sigma_v:g} and xi={params.xi:g} give a response "
            f"whose X'y puts the root bound -mu'mu / (2 lambda_beta) at -{root:.3g} "
            f"for the tuning grid's lambda_beta={weakest:g}, which the LP solver "
            "reads as unbounded"
        )

    instance = ProblemInstance(
        graph=graph,
        x_blocks=tuple(x_train[:, v, :] for v in range(params.t)),
        y_blocks=tuple(y_train[:, v] for v in range(params.t)),
        lambda_beta=anchor,
        lambda_delta=anchor,
    )
    test_blocks = tuple(
        (x_test[:, v, :], y_test[:, v]) for v in range(params.t)
    )
    z_mat = z_true.reshape(params.t, params.d)
    realized_k_g = int(np.count_nonzero(z_mat.any(axis=0)))
    metadata = {
        "realized_k_g": realized_k_g,
        "realized_k_c": int(support_change_count(z_true, graph)),
        "edge_count": graph.edge_count,
        "noise_var_train": noise_variance(signal_train, params.xi),
        "noise_var_test": noise_variance(signal_test, params.xi),
    }
    return SynthDataset(
        params=params,
        instance=instance,
        test_blocks=test_blocks,
        beta_true=beta_flat,
        z_true=z_true,
        metadata=metadata,
    )


def solver_budget(dataset: SynthDataset) -> SparsityBudget:
    """Budgets handed to the fitting methods for this dataset.

    The per-vertex and change budgets are the requested ones. The global
    budget is the requested k_g in spatial mode; the temporal generator does
    not take a k_g, so the realized global support size stands in for it.
    """
    params = dataset.params
    k_g = params.k_g if params.mode == "spatial" else dataset.metadata["realized_k_g"]
    return SparsityBudget(
        max_per_vertex=params.k_l, max_global=int(k_g), max_changes=params.k_c
    )


def compute_metrics(
    beta_hat: np.ndarray,
    z_hat: np.ndarray,
    dataset: SynthDataset,
    fit_time_s: float = 0.0,
) -> MetricsReport:
    """Coefficient error, pooled out-of-sample R^2, and support accuracy."""
    t = dataset.params.t
    d = dataset.params.d
    beta = np.asarray(beta_hat, dtype=np.float64).ravel()
    if beta.size != t * d:
        raise ValueError(f"expected {t * d} coefficients, got {beta.size}")
    zh = np.asarray(z_hat).ravel().astype(bool)
    if zh.size != t * d:
        raise ValueError(f"expected {t * d} support flags, got {zh.size}")

    mae = float(np.mean(np.abs(beta - dataset.beta_true)))

    r2 = _pooled_r2(beta.reshape(t, d), dataset.test_blocks)

    zt = dataset.z_true
    true_count = int(np.count_nonzero(zt))
    hit = int(np.count_nonzero(zh & zt))
    recovery = 100.0 * hit / true_count if true_count else 100.0
    false_pos = 100.0 * int(np.count_nonzero(zh & ~zt)) / max(1, int(np.count_nonzero(zh)))

    return MetricsReport(
        mae_coefficients=mae,
        oos_r2=r2,
        support_recovered_pct=recovery,
        false_positive_pct=false_pos,
        fit_time_s=fit_time_s,
    )


def fit_static(
    instance: ProblemInstance, k: int, lambda_beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One shared sparse ridge fit: stack every vertex, broadcast the result.

    Returns the broadcast coefficient vector (length T*D) and its support
    flags. The baseline deliberately ignores the graph and all per-vertex
    structure.
    """
    x, y = np.vstack(instance.x_blocks), np.concatenate(instance.y_blocks)
    return _fit_stacked(x, y, instance.vertex_count, k, lambda_beta)


def _fit_stacked(
    x: np.ndarray, y: np.ndarray, t: int, k: int, lambda_beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """`fit_static` on rows already stacked, broadcast to t vertices."""
    if k > x.shape[1]:
        raise ValueError("k cannot exceed the number of features")
    _, beta_shared = sparse_ridge_greedy(x, y, k, lambda_beta)
    return np.tile(beta_shared, t), np.tile(beta_shared != 0.0, t)


def lambda_beta_grid(n_anchor: float) -> list[float]:
    """Seven geometrically spaced ridge weights anchored at the row count."""
    return [n_anchor * 3.0 ** (-k) for k in range(7)]


def lambda_delta_grid(n_anchor: float) -> list[float]:
    """Three geometrically spaced smoothness weights, same scheme."""
    return [n_anchor * 3.0 ** (-k) for k in range(3)]


def default_grid(n_anchor: float) -> list[tuple[float, float]]:
    """The full tuning grid: every (ridge, smoothness) pair."""
    return [
        (lb, ld)
        for lb in lambda_beta_grid(n_anchor)
        for ld in lambda_delta_grid(n_anchor)
    ]


def _holdout_rows(
    row_counts: tuple[int, ...], fraction: float, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-vertex (train_rows, holdout_rows) index pairs, seeded permutation."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("holdout fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    out = []
    for rows in row_counts:
        if rows < 2:
            raise ValueError("need at least 2 rows per vertex to hold some out")
        perm = rng.permutation(rows)
        n_hold = min(rows - 1, max(1, int(round(fraction * rows))))
        out.append((np.sort(perm[n_hold:]), np.sort(perm[:n_hold])))
    return out


@contextmanager
def _holdout_views(instance: ProblemInstance, fraction: float, seed: int):
    """The training rows as an instance (same weights) and the held-out blocks.

    Each vertex's rows are reordered in place as a stable partition,
    training rows first, then held-out rows, each group in its original
    order, so the training and held-out blocks are the views `x[:k]` and
    `x[k:]`: the same numbers in the same order as gathered copies, without
    a second copy of the data. The original order is written back on exit,
    also when the body or the reorder itself raises. Blocks that are
    read-only, or that share elements with another block (one reorder would
    move the other's rows too), are copied first, and the copies take the
    same reorder.
    """
    splits = _holdout_rows(instance.row_counts, fraction, seed)
    blocks = instance.x_blocks + instance.y_blocks
    if not (all(a.flags.writeable for a in blocks) and _disjoint(blocks)):
        blocks = tuple(a.copy() for a in blocks)
    orders = [np.concatenate(pair) for pair in splits] * 2
    moved = 0
    try:
        for a, order in zip(blocks, orders):
            # the gather may raise, the store does not, and no signal is
            # handled between the store and the count
            a[...] = a[order]
            moved += 1
        xs, ys = blocks[:len(splits)], blocks[len(splits):]
        ks = [tr.size for tr, _ in splits]
        yield (
            replace(instance, x_blocks=tuple(x[:k] for x, k in zip(xs, ks)),
                    y_blocks=tuple(y[:k] for y, k in zip(ys, ks))),
            [(x[k:], y[k:]) for x, y, k in zip(xs, ys, ks)],
        )
    finally:
        for a, order in zip(blocks[:moved], orders):
            a[order] = a.copy()


def _disjoint(arrays) -> bool:
    """Whether no two of `arrays` share an element.

    Only pairs whose byte bounds overlap are solved exactly
    (`np.shares_memory`); a pair too hard to decide counts as shared.
    """
    spans = sorted((byte_bounds(a), i) for i, a in enumerate(arrays))
    for k, ((_, high), i) in enumerate(spans):
        for (low, _), j in spans[k + 1:]:
            if low >= high:
                break
            try:
                if np.shares_memory(arrays[i], arrays[j]):
                    return False
            except np.exceptions.TooHardError:
                return False
    return True


def _pooled_r2(
    beta_mat: np.ndarray,
    blocks: list[tuple[np.ndarray, np.ndarray]],
) -> float:
    y_all = np.concatenate([y for _, y in blocks])
    pred = np.concatenate([x @ beta_mat[v] for v, (x, _) in enumerate(blocks)])
    ss_tot = float(np.sum((y_all - y_all.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - float(np.sum((y_all - pred) ** 2)) / ss_tot


@dataclass
class GridSearchResult:
    lambda_beta: float
    lambda_delta: float
    holdout_r2: float
    table: list = field(default_factory=list)
    fit: object = None
    instance: ProblemInstance | None = None


def grid_search(
    instance: ProblemInstance,
    budget: SparsityBudget,
    grid: list[tuple[float, float]] | None = None,
    holdout_fraction: float = 0.3,
    seed: int = 0,
) -> GridSearchResult:
    """Pick regularization weights by holdout R^2 of the stepwise heuristic.

    Each candidate pair is fit on a seeded 70/30-style per-vertex split and
    scored on the held-out rows (one pooled R^2). The best pair (first in
    grid order on ties) is refit on the full training data; that refit, the
    per-config table, and the reweighted full instance are all returned.

    The search holds one copy of the data: during the scoring each vertex's
    rows are reordered in place, training rows first, so that the split is
    a set of views of the instance's own blocks, and the original order is
    written back before the refit, also when a fit raises. The blocks are
    therefore written to while the search runs; do not share the instance
    with another thread meanwhile. Read-only blocks, or blocks that share
    elements (one array given for two vertices), are copied first.

    The pairs share what does not depend on their weights. The training
    quadform (mu and const_term, O(sum_t n_t * D)) is built once; each pair
    gets a copy that differs only in its two weights, and reads the shared
    training X blocks, so no D x D block is stored for any pair (a
    restricted block costs O(n_t * k^2), a matvec O(sum_t n_t * D)). The
    greedy phase of the stepwise heuristic depends only on lambda_beta, so
    it runs once per distinct lambda_beta.

    When the design holds `fanout.FORK_FLOOR_BYTES` or more, the
    lambda_beta groups (a greedy start and its fits) are shared by the
    parent and forked children, one process per allowed CPU at most; only
    the R^2 values come back, and the table, the best pair and the refit
    are the same bytes as a serial run's.
    """
    if grid is None:
        anchor = float(np.mean(instance.row_counts))
        grid = default_grid(anchor)
    if not grid:
        raise ValueError("the tuning grid is empty")
    with _holdout_views(instance, holdout_fraction, seed) as (train, hold_blocks):
        qf = build_quadform(train)

        def scores(indices):
            return _holdout_scores(indices, train, qf, hold_blocks, budget, grid, seed)

        r2s = _forked_scores(grid, sum(x.nbytes for x in instance.x_blocks), scores)

    best = _first_max(r2s)
    lb_best, ld_best = grid[best]
    full = instance.with_weights(lb_best, ld_best)
    final_fit = stepwise_fit(full, budget, seed=seed)
    return GridSearchResult(
        lambda_beta=lb_best,
        lambda_delta=ld_best,
        holdout_r2=r2s[best],
        table=[{"lambda_beta": lb, "lambda_delta": ld, "holdout_r2": r2}
               for (lb, ld), r2 in zip(grid, r2s)],
        fit=final_fit,
        instance=full,
    )


def _holdout_scores(indices, train, qf, hold_blocks, budget, grid, seed) -> list[float]:
    """Holdout R^2 of the stepwise fit at each grid pair in `indices`, in that order.

    The greedy start of each lambda_beta is made at its first pair and kept
    until its last one, so a grid that lists each lambda_beta's pairs
    together (the default grid) holds one start at a time.
    """
    t, d = train.vertex_count, train.feature_count
    last = {grid[i][0]: i for i in indices}
    starts = {}
    out = []
    for i in indices:
        lb, ld = grid[i]
        sub = train.with_weights(lb, ld)
        if lb not in starts:
            starts[lb] = greedy_start(sub, budget)
        start = starts.pop(lb) if last[lb] == i else starts[lb]
        res = stepwise_fit(
            sub, budget, seed=seed,
            qf=replace(qf, lambda_beta=lb, lambda_delta=ld), start=start,
        )
        out.append(_pooled_r2(res.beta.reshape(t, d), hold_blocks))
    return out


def _forked_scores(grid, size: int, scores) -> list[float]:
    """`scores` of every grid index, the lambda_beta groups shared over forks.

    `size` is the data's byte count. Group k of the grid (in first-seen
    order) goes to share k % count, the parent scores share 0, and each
    child sends back its R^2 values as one array. When one process should
    do it all, or any share fails, one serial pass scores the whole grid
    instead; after a failure it raises the error that a serial run raises,
    at the same pair.
    """
    groups: dict[float, list[int]] = {}
    for i, (lb, _) in enumerate(grid):
        groups.setdefault(lb, []).append(i)
    count = fanout.worker_count(size, len(groups))
    if count > 1:
        dealt = list(groups.values())
        shares = [sorted(sum(dealt[k::count], [])) for k in range(count)]

        def collect(children):
            r2s = np.empty(len(grid))
            r2s[shares[0]] = scores(shares[0])
            for child, share in zip(children, shares[1:]):
                part = np.empty(child.head())
                child.readinto(part)
                r2s[share] = part
            return r2s.tolist()

        with suppress(Exception):
            r2s = fanout.fan_out(count - 1, lambda k: scores(shares[k + 1]), collect)
            if r2s is not None:
                return r2s
    return scores(range(len(grid)))


def _first_max(scores: list[float]) -> int:
    """The index of the first of the largest scores (a tie goes to the earlier)."""
    return max(range(len(scores)), key=scores.__getitem__)


def tune_static(instance: ProblemInstance, k: int, seed: int = 0) -> tuple[float, float]:
    """Ridge weight for the static baseline by the same holdout protocol.

    The candidates are `lambda_beta_grid` at the mean row count, scored on a
    0.3 holdout split, which reorders each vertex's rows in place and
    restores them as `grid_search` does. The training rows are stacked once
    for the whole search.
    """
    t, d = instance.vertex_count, instance.feature_count
    grid = lambda_beta_grid(float(np.mean(instance.row_counts)))
    with _holdout_views(instance, 0.3, seed) as (train, hold_blocks):
        x, y = np.vstack(train.x_blocks), np.concatenate(train.y_blocks)
        r2s = [_pooled_r2(_fit_stacked(x, y, t, k, lb)[0].reshape(t, d), hold_blocks)
               for lb in grid]
    best = _first_max(r2s)
    return grid[best], r2s[best]


def run_benchmark(
    dataset: SynthDataset,
    time_limit: float = SolveLimits.time_limit,
    gap_tol: float = SolveLimits.gap_tol,
    methods: tuple[str, ...] = METHODS,
) -> dict:
    """Fit a generated dataset with each requested method.

    Returns a JSON-ready report: parameters, realized budgets, and one entry
    per method holding its metrics, its regularization weights, and (for the
    tree search) a solver summary.
    """
    bad = set(methods) - set(METHODS)
    if bad:
        raise ValueError(f"unknown methods: {sorted(bad)}")
    params = dataset.params
    budget = solver_budget(dataset)
    report = {
        "params": params.to_dict(),
        "budget": {
            "k_l": budget.max_per_vertex,
            "k_g": budget.max_global,
            "k_c": budget.max_changes,
        },
        "metadata": dict(dataset.metadata),
        "methods": {},
    }

    tuned = None
    if "stepwise" in methods or "cutplane" in methods:
        start = time.perf_counter()
        tuned = grid_search(dataset.instance, budget, seed=params.seed)
        tuning_time = time.perf_counter() - start

    if "static" in methods:
        start = time.perf_counter()
        lb_static, _ = tune_static(
            dataset.instance, budget.max_global, seed=params.seed
        )
        beta, z = fit_static(dataset.instance, budget.max_global, lb_static)
        elapsed = time.perf_counter() - start
        metrics = compute_metrics(beta, z, dataset, fit_time_s=elapsed)
        report["methods"]["static"] = {
            "lambda_beta": lb_static,
            "metrics": metrics.to_dict(),
        }

    if "stepwise" in methods:
        # the search's final refit is the stepwise fit at the tuned weights,
        # and its time includes the tuning, as for static
        fit = tuned.fit
        metrics = compute_metrics(fit.beta, fit.z, dataset, fit_time_s=tuning_time)
        report["methods"]["stepwise"] = {
            "lambda_beta": tuned.lambda_beta,
            "lambda_delta": tuned.lambda_delta,
            "metrics": metrics.to_dict(),
        }

    if "cutplane" in methods:
        qf = build_quadform(tuned.instance)
        limits = SolveLimits(time_limit=time_limit, gap_tol=gap_tol)
        res = solve_support_selection(
            qf, budget, warm_start=tuned.fit.z, limits=limits
        )
        metrics = compute_metrics(
            res.incumbent_beta, res.incumbent_z, dataset, fit_time_s=res.wall_time
        )
        report["methods"]["cutplane"] = {
            "lambda_beta": tuned.lambda_beta,
            "lambda_delta": tuned.lambda_delta,
            "metrics": metrics.to_dict(),
            "solver": solver_summary(res),
        }
    return report


_NOT_SCALAR = ("incumbent_z", "incumbent_beta", "history", "cuts")


def solver_summary(res: SolveResult) -> dict:
    """The JSON-safe slice of a SolveResult: its scalar fields (no arrays, no trace)."""
    return {f.name: getattr(res, f.name) for f in fields(res) if f.name not in _NOT_SCALAR}
