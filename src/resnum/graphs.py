"""Immutable simple graphs on vertices 0..n-1 with bit-set adjacency rows.

Each row is a Python int whose bit j records adjacency to vertex j, so
neighborhood algebra is plain integer arithmetic and arbitrary orders fit
without a second representation.  Everything downstream (distances,
resolving machinery, enumeration) builds on this type.

Distances have one representation too: `distance_matrix` returns a
read-only n x n int32 numpy array, which callers build once per graph
and pass down to every routine that reads distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    Disconnected,
    IndexOutOfRange,
    InvalidEdge,
    InvalidPermutation,
)


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph; `adj[i]` has bit j set iff ij is an edge."""

    n: int
    adj: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def neighbors(self, u: int) -> Iterator[int]:
        return _bits(self.adj[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield u, v


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on n vertices from an iterable of index pairs.

    Duplicate edges collapse; self-loops and out-of-range indices raise.
    """
    if n < 1:
        raise IndexOutOfRange(f"graph order must be at least 1, got {n}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        for w in (u, v):
            if not 0 <= w < n:
                raise IndexOutOfRange(f"vertex {w} outside range 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel g by perm, where perm[old] is the new index of each vertex."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise InvalidPermutation(f"not a bijection on 0..{g.n - 1}: {perm!r}")
    rows = [0] * g.n
    for u in range(g.n):
        new_row = 0
        for v in _bits(g.adj[u]):
            new_row |= 1 << perm[v]
        rows[perm[u]] = new_row
    return Graph(g.n, tuple(rows))


def _bfs_distances(g: Graph, src: int) -> list[int]:
    dist = [-1] * g.n
    dist[src] = 0
    seen = 1 << src
    frontier = seen
    d = 0
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v]
        nxt &= ~seen
        d += 1
        for v in _bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def distance_matrix(g: Graph) -> np.ndarray:
    """`a[u, v]` = d(u, v) as one read-only n x n int32 array, by BFS from
    every vertex; raises Disconnected when any pair is unreachable."""
    rows = []
    for src in range(g.n):
        dist = _bfs_distances(g, src)
        if src == 0 and min(dist) < 0:
            raise Disconnected("distance matrix requires a connected graph")
        rows.append(dist)
    a = np.array(rows, dtype=np.int32)
    a.setflags(write=False)
    return a
