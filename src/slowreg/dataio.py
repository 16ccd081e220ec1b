"""File formats: observation CSV, edge-list text, and key-value metadata.

The observation file is a CSV with header `vertex,y,x0,...,x{D-1}`, one row
per observation, vertices numbered from 0. Per-vertex row counts may differ.
Floats are written with `repr`, which round-trips exactly, so a dataset
survives dump/load bit-for-bit. The reader parses the rows into one float
array rather than through Python lists, and the per-vertex blocks are views
carved out of that array in place, so reading a file costs about one copy
of its numbers in memory. A file of `fanout.FORK_FLOOR_BYTES` or more is
parsed on every allowed CPU: forked children parse one line-aligned byte
range each and send their raw rows down a pipe into that one array, so the
parent holds no second copy; the array lies on an anonymous mapping of its
own, which is unmapped when the blocks are freed. A smaller file is parsed
in process.
The graph file holds one `s t` edge per line (0-based); the metadata
sidecar holds `key=value` lines.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import mmap
import os
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import fanout
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

    Vertices must cover 0..T-1 with at least one row each, every y and x
    value must be finite, and so must each column's sum of squares; row
    order within a vertex follows file order. After the header, the body is
    parsed into one float array (`np.loadtxt`, by forked children over byte
    ranges of a large file); a stable sort by vertex id, needed only when
    the file is not grouped by vertex, puts the rows in block order, and
    the blocks are contiguous views of that array. Any row that does not
    parse cleanly sends the reader back over the file line by line to name
    the first bad line, so the errors do not depend on the split.
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
        body = _parse_forked(path, fh)
        if body is None:
            try:
                body = _parse_rows(fh)
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
    # every Gram and X'y entry is bounded by a column's sum of squares
    # (Cauchy-Schwarz), so finite sums keep them all finite
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->j", body[:, 1:], body[:, 1:])
    if not np.isfinite(squares).all():
        col = 1 + int(np.argmin(np.isfinite(squares)))
        row = int(np.argmax(np.abs(body[:, col])))
        raise ValueError(
            f"{path}:{_line_of_row(path, row)}: the squares of column {header[col]} "
            f"sum past the float range (largest value {float(body[row, col])!r})"
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


def _parse_rows(source) -> np.ndarray:
    """The rows of a text source as one 2-D float array (`np.loadtxt`)."""
    with warnings.catch_warnings():
        # a header without rows is reported by the caller, not warned about
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, delimiter=",", dtype=np.float64, ndmin=2, comments=None)


def _parse_forked(path: Path, fh) -> np.ndarray | None:
    """The body of the open file `fh` parsed by forked children, one
    line-aligned byte range each.

    Returns None, for the caller to parse the body from `fh` itself, when
    one process should do it, the header's line end is not a plain newline,
    a child fails, or the children disagree on the column count: the serial
    parse then gives the exact answer or error.
    """
    size = os.fstat(fh.fileno()).st_size
    count = fanout.worker_count(size)
    if count < 2:
        return None
    with open(path, "rb") as raw:
        first = raw.readline()
        if not first.endswith(b"\n") or b"\r" in first[:-2]:
            return None
        cuts = [len(first)]
        for k in range(1, count):
            raw.seek(max(cuts[-1], len(first) + (size - len(first)) * k // count) - 1)
            raw.readline()  # on to the next line start
            cuts.append(raw.tell())
        cuts.append(size)
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    if len(ranges) < 2:
        return None

    def work(i):
        start, stop = ranges[i]
        with open(path, "rb") as raw:
            raw.seek(start)
            chunk = io.BytesIO(raw.read(stop - start))
        # decoded as the serial parse decodes the open file
        rows = _parse_rows(io.TextIOWrapper(chunk, encoding=fh.encoding, newline=""))
        return rows.shape, rows

    def collect(shares):
        shapes = [share.head() for share in shares]
        widths = {cols for rows, cols in shapes if rows}
        if len(widths) > 1:
            raise ValueError("ranges disagree on the column count")
        body = _mapped_empty((sum(rows for rows, _ in shapes), widths.pop() if widths else 1))
        at = 0
        for share, (rows, _) in zip(shares, shapes):
            share.readinto(body[at:at + rows])
            at += rows
        return body

    try:
        return fanout.fan_out(len(ranges), work, collect)
    except (OSError, RuntimeError, ValueError):
        return None


def _mapped_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised float64 array on a private anonymous mapping of its own.

    Freeing the array unmaps it. A malloc'd array of this size may stay
    resident after it is freed: once glibc has freed one mapped block it
    serves blocks up to that size from its heap, and keeps a freed heap top
    under twice that size, so a process that reads same-sized files in turn
    (a benchmark, a service) would hold a parsed file's bytes between reads.
    """
    count = shape[0] * shape[1]
    buf = mmap.mmap(-1, max(1, count * 8), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=np.float64, count=count).reshape(shape)


def _line_of_row(path: Path, index: int) -> int:
    """The line number of data row `index`, counted as `_raise_first_bad_row` counts."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        lines = (lineno for lineno, row in enumerate(reader, start=2) if row)
        return next(itertools.islice(lines, index, None))


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
