"""File formats: observation CSV, edge-list text, and key-value metadata.

The observation file is a CSV with header `vertex,y,x0,...,x{D-1}`, one row
per observation, vertices numbered from 0. Per-vertex row counts may differ.
Floats are written with `repr`, which round-trips exactly, so a dataset
survives dump/load bit-for-bit. The reader streams the rows from the open
file into one float array rather than through Python lists, and the
per-vertex blocks are views carved out of that array in place, so reading a
file costs about one copy of its numbers in memory.
The graph file holds one `s t` edge per line (0-based); the metadata
sidecar holds `key=value` lines.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from .graph import SimilarityGraph


def write_data_csv(path, x_blocks, y_blocks) -> None:
    """One row per observation, grouped by vertex, full float precision."""
    x_blocks = [np.asarray(x, dtype=np.float64) for x in x_blocks]
    y_blocks = [np.asarray(y, dtype=np.float64).ravel() for y in y_blocks]
    if len(x_blocks) != len(y_blocks):
        raise ValueError("need one y block per x block")
    d = x_blocks[0].shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "y"] + [f"x{j}" for j in range(d)])
        for v, (x, y) in enumerate(zip(x_blocks, y_blocks)):
            for i in range(x.shape[0]):
                writer.writerow(
                    [str(v), repr(float(y[i]))]
                    + [repr(float(val)) for val in x[i]]
                )


def read_data_csv(path):
    """Parse the observation CSV back into per-vertex (x, y) blocks.

    Vertices must cover 0..T-1 with at least one row each, and every y and
    x value must be finite; row order within a vertex follows file order.
    After the header, the body streams from the open file into one float
    array (`np.loadtxt`); a stable sort by vertex id, needed only when the
    file is not grouped by vertex, puts the rows in block order, and the
    blocks are contiguous views of that array. Any row that does not parse
    cleanly sends the reader back over the file line by line to name the
    first bad line.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty data file") from None
        if len(header) < 3 or header[0] != "vertex" or header[1] != "y":
            raise ValueError(
                f"{path}: header must start with vertex,y,x0,... got {header[:3]}"
            )
        d = len(header) - 2
        want = [f"x{j}" for j in range(d)]
        if header[2:] != want:
            raise ValueError(f"{path}: feature columns must be x0..x{d - 1} in order")
        try:
            with warnings.catch_warnings():
                # a header without rows is reported below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                body = np.loadtxt(
                    fh, delimiter=",", dtype=np.float64, ndmin=2, comments=None
                )
        except ValueError as exc:
            _raise_first_bad_row(path, d, str(exc))
    if body.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    vertex = body[:, 0]
    if body.shape[1] != d + 2 or not (
        np.isfinite(body).all() and np.all((vertex >= 0.0) & (vertex == np.floor(vertex)))
    ):
        _raise_first_bad_row(
            path, d,
            f"need {d + 2} fields, a nonnegative integer vertex id and finite numbers",
        )
    t = int(vertex.max()) + 1
    present = np.unique(vertex)
    if present.size < t:
        missing = np.setdiff1d(np.arange(min(t, present.size + 10)), present)[:10]
        extra = t - present.size - missing.size
        more = f" and {extra} more" if extra else ""
        raise ValueError(f"{path}: vertices {missing.tolist()}{more} have no rows")
    ids = vertex.astype(np.int64)
    if np.any(ids[1:] < ids[:-1]):
        body = body[np.argsort(ids, kind="stable")]
    y = body[:, 1].copy()  # before the move below overwrites the column
    # the features move down inside body's own buffer, row i to [i*d, (i+1)*d),
    # which lies below every row not yet moved; numpy buffers each overlapping
    # chunk of about 1 MiB, so the blocks come out C-contiguous without a
    # second full copy
    n = body.shape[0]
    x = body.reshape(-1)[: n * d].reshape(n, d)
    step = max(1, (1 << 17) // d)
    for start in range(0, n, step):
        x[start:start + step] = body[start:start + step, 2:]
    bounds = np.cumsum(np.bincount(ids))[:-1]
    return np.split(x, bounds), np.split(y, bounds)


def _raise_first_bad_row(path: Path, d: int, reason: str) -> NoReturn:
    """Re-read the rows one by one and raise for the first bad one."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(
                    f"{path}:{lineno}: expected {d + 2} fields, got {len(row)}"
                )
            try:
                v = int(row[0])
                values = [float(c) for c in row[1:]]
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            for c, value in zip(row[1:], values):
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: non-finite value {c!r}")
            if v < 0:
                raise ValueError(f"{path}:{lineno}: negative vertex id {v}")
    raise ValueError(f"{path}: unreadable data rows: {reason}")


def write_edge_list(path, graph: SimilarityGraph) -> None:
    with open(path, "w") as fh:
        for s, t in graph.edges:
            fh.write(f"{s} {t}\n")


def read_edge_list(path, vertex_count: int) -> SimilarityGraph:
    """Edge-per-line text file into a graph over the given vertex range."""
    path = Path(path)
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 's t', got {line.strip()!r}"
                )
            try:
                s, t = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer vertex in {line.strip()!r}"
                ) from None
            edges.append((s, t))
    return SimilarityGraph(vertex_count, tuple(edges))


def write_metadata(path, mapping: dict) -> None:
    """Flat key=value sidecar; None values are omitted."""
    with open(path, "w") as fh:
        for key, value in mapping.items():
            if value is None:
                continue
            if isinstance(value, float):
                fh.write(f"{key}={value!r}\n")
            else:
                fh.write(f"{key}={value}\n")


def read_metadata(path) -> dict:
    """The sidecar back as a string-to-string mapping."""
    path = Path(path)
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            out[key.strip()] = value.strip()
    return out


def write_beta_csv(path, beta: np.ndarray, vertex_count: int) -> None:
    """True or fitted coefficients, one row per vertex."""
    beta = np.asarray(beta, dtype=np.float64).reshape(vertex_count, -1)
    d = beta.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex"] + [f"beta{j}" for j in range(d)])
        for v in range(vertex_count):
            writer.writerow([str(v)] + [repr(float(val)) for val in beta[v]])


def dump_dataset(prefix, dataset) -> dict:
    """Write train/test/beta/graph/meta files sharing one path prefix.

    Returns the path of every file written, keyed by role.
    """
    prefix = str(prefix)
    params = dataset.params
    paths = {
        "train": f"{prefix}_train.csv",
        "test": f"{prefix}_test.csv",
        "beta": f"{prefix}_beta.csv",
        "graph": f"{prefix}_graph.txt",
        "meta": f"{prefix}_meta.txt",
    }
    write_data_csv(paths["train"], dataset.instance.x_blocks, dataset.instance.y_blocks)
    write_data_csv(
        paths["test"],
        [x for x, _ in dataset.test_blocks],
        [y for _, y in dataset.test_blocks],
    )
    write_beta_csv(paths["beta"], dataset.beta_true, params.t)
    write_edge_list(paths["graph"], dataset.instance.graph)
    meta = dict(params.to_dict())
    meta.update(dataset.metadata)
    write_metadata(paths["meta"], meta)
    return paths
