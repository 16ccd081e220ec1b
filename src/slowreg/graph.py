"""Similarity graph over regression vertices.

Vertices are indexed 0..T-1. Edges are undirected, stored as (lo, hi) pairs
with lo < hi, sorted and deduplicated, so two graphs built from the same edge
set compare equal regardless of input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SimilarityGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    # sorted neighbours of each vertex, derived from `edges` once
    _neighbors: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        seen = set()
        norm = []
        for e in self.edges:
            s, t = int(e[0]), int(e[1])
            if s == t:
                raise ValueError(f"self-loop at vertex {s}")
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise ValueError(f"edge ({s},{t}) out of range for T={self.vertex_count}")
            lo, hi = (s, t) if s < t else (t, s)
            if (lo, hi) in seen:
                continue
            seen.add((lo, hi))
            norm.append((lo, hi))
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))
        adjacency = [[] for _ in range(self.vertex_count)]
        for s, t in norm:
            adjacency[s].append(t)
            adjacency[t].append(s)
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(a)) for a in adjacency))

    @classmethod
    def chain(cls, vertex_count: int) -> "SimilarityGraph":
        """Path graph 0-1-...-(T-1), the natural graph for time-ordered data."""
        return cls(vertex_count, tuple((t, t + 1) for t in range(vertex_count - 1)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self._neighbors], dtype=np.int64)

    def neighbors(self, vertex: int) -> tuple[int, ...]:
        """Sorted neighbours (index-ordered for reproducible sampling)."""
        return self._neighbors[vertex]

    def is_chain(self) -> bool:
        """True iff the edge set is exactly {(t, t+1) : 0 <= t < T-1}."""
        if self.vertex_count == 1:
            return len(self.edges) == 0
        want = tuple((t, t + 1) for t in range(self.vertex_count - 1))
        return self.edges == want
