"""Immutable simple graphs on vertices 0..n-1 with bit-set adjacency rows.

Each row is a Python int whose bit j records adjacency to vertex j, so
neighborhood algebra is plain integer arithmetic and arbitrary orders fit
without a second representation.  Everything downstream (distances,
resolving machinery, enumeration) builds on this type.

Distances have two representations, and this module picks one by order.
Up to `SPHERE_CAP` = 64 vertices, where a vertex set fits one uint64 word,
a graph keeps the mask of the vertices equidistant from each pair x < y
in row-major order, their bit counts and its diameter, all from one pass
over its sphere planes.  The planes grow on the adjacency rows up to
order 16, in the one rows loop `_row_layers` that the enumeration's
sphere kernel and girth balls read too, and past it by the numpy ball
step of `_balls`, one pass per radius over every BFS ball at once.  Past
the cap the library reads the read-only n x n int32 array of
`distance_matrix`, which sums the same balls' misses, and the one
equidistance kernel `_equidistant` counts the pairs on it, so
`pair_counts` answers at every order.  The test oracles read only the
matrix, which every order can ask for.  Each of these is built on first
use and kept on the graph; a disconnected graph keeps nothing and raises
Disconnected on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    Disconnected,
    IndexOutOfRange,
    InvalidEdge,
    InvalidPermutation,
    TooLarge,
)


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Positions(dict):
    """mask -> the tuple of its set bit positions in increasing order,
    each computed on first lookup; a subscript costs less than a call.

    Only canon, enumeration and the one rows loop `_row_layers` read it.
    Canon and the enumeration engine pass masks below 2^n for n <=
    `canon.CANONICAL_CAP` = 16, at most 65,536 keys: the res-3 catalog
    fills keys below 2^10 and the tree ladder keys below 2^12.  The rows
    loop looks up the rows of the graph it is given, at most n keys per
    graph, and its callers (the sphere planes, the enumeration's sphere
    kernel and girth balls) pass graphs of order at most `_ROWS_CAP` = 16
    only, so its keys stay below 2^16 too.  The table only grows, so
    nothing that takes larger graphs, such as the numpy ball step, may
    read it; their masks go through `_bits`.
    """

    def __missing__(self, mask: int) -> tuple[int, ...]:
        self[mask] = positions = tuple(_bits(mask))
        return positions


_positions = _Positions()


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph; `adj[i]` has bit j set iff ij is an edge."""

    n: int
    adj: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(self._degrees) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def neighbors(self, u: int) -> Iterator[int]:
        return _bits(self.adj[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield u, v

    # kept in __dict__, written past the frozen __setattr__; no field, so == and hash skip them
    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    @cached_property
    def _distances(self) -> np.ndarray:
        return _all_pairs_bfs(self)

    @cached_property
    def _spheres(self) -> tuple[int, np.ndarray, np.ndarray]:
        return _sphere_pass(self)

    @cached_property
    def _counts(self) -> np.ndarray:
        return _slab_counts(distance_matrix(self))


# the largest order whose distances are kept as sphere planes and pair
# masks in place of a matrix; a sphere fits one uint64 word
SPHERE_CAP = 64
# the largest order whose spheres grow on the adjacency rows, which read
# their bit positions from `_positions` and so keep its keys below 2^16;
# there the rows loop takes 12 us a graph at orders 8..12 and 19 us at
# 13..16, against 25 and 29 us for the numpy ball step (2-core x86-64)
_ROWS_CAP = 16
# most bytes in one array of an equidistance chunk (slab or row gather)
SLAB_ENTRIES = 1 << 18
# the largest order a family builds or an edge list has: `resnum compute`
# reads K800's 319,600 edge lines in 1.3-1.7 s (2-core x86-64)
ORDER_CAP = 800


def check_order(n: int) -> int:
    """n itself; raises IndexOutOfRange unless n >= 1, the least graph
    order, and TooLarge past `ORDER_CAP`."""
    if n < 1:
        raise IndexOutOfRange(f"graph order must be at least 1, got {n}")
    if n > ORDER_CAP:
        raise TooLarge(f"graph order is capped at n <= {ORDER_CAP}, got {n}")
    return n


def order_of(digits: str) -> int:
    """The order an ASCII digit string names, through `check_order`.  Its
    length is read first: int() refuses strings of over 4300 digits."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(ORDER_CAP)):
        raise TooLarge(f"graph order is capped at n <= {ORDER_CAP}, got a {len(digits)}-digit order")
    return check_order(int(digits))


def vertex_of(n: int, digits: str) -> int:
    """The vertex an ASCII digit string names, through `check_vertex`,
    read as `order_of` reads an order: its length first."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(n - 1)):
        raise IndexOutOfRange(f"a {len(digits)}-digit vertex outside range 0..{n - 1}")
    return check_vertex(n, int(digits))


def check_vertex(n: int, v: int) -> int:
    """v itself; raises IndexOutOfRange unless 0 <= v < n."""
    if not 0 <= v < n:
        raise IndexOutOfRange(f"vertex {v} outside range 0..{n - 1}")
    return v


def check_edge(n: int, u: int, v: int) -> tuple[int, int]:
    """(u, v) itself; raises InvalidEdge on a self-loop and IndexOutOfRange
    on an index outside 0..n-1, the vertices of a graph of order n."""
    if u == v:
        raise InvalidEdge(f"self-loop at vertex {u}")
    return check_vertex(n, u), check_vertex(n, v)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on n vertices from an iterable of index pairs; n goes
    through `check_order`.

    Duplicate edges collapse; non-pairs, self-loops and bad indices raise.
    """
    rows = [0] * check_order(n)
    for edge in edges:
        if len(edge) != 2:
            raise InvalidEdge(f"edge {edge!r} is not two vertices")
        u, v = check_edge(n, *edge)
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


def distance_matrix(g: Graph) -> np.ndarray:
    """`a[u, v]` = d(u, v) as one read-only n x n int32 array; raises
    Disconnected when any pair is unreachable.  The first call for g runs
    the BFS and keeps the array on g for later calls; a disconnected graph
    keeps nothing and raises on every call.
    """
    return g._distances


def _balls(g: Graph) -> Iterator[np.ndarray]:
    """Every BFS ball of g at once, from radius 1 until each holds every
    vertex, packed as little-endian uint64 words: row u of each array
    holds B_r(u), as one word when n <= 64 (numpy gathers a 1-D array
    fastest).  The radius r+1 ball of u is the union of the radius r
    balls over the closed neighbourhood of u.  A radius that grows no
    ball while one still misses a vertex raises Disconnected."""
    n = g.n
    words = (n + 63) >> 6
    # the radius 1 balls are the closed neighbourhoods
    ball = np.frombuffer(
        b"".join((row | 1 << u).to_bytes(words << 3, "little") for u, row in enumerate(g.adj)),
        dtype="<u8",
    ).reshape((n, words) if words > 1 else n)
    full = np.frombuffer(((1 << n) - 1).to_bytes(words << 3, "little"), dtype="<u8")
    closed = np.unpackbits(ball.view(np.uint8).reshape(n, -1), axis=1, count=n, bitorder="little")
    # members[starts[u]:starts[u + 1]] is the closed neighbourhood of u; one
    # flat nonzero on a bool view costs less than a 2-D one on uint8
    flat = closed.view(bool).ravel().nonzero()[0]
    starts = flat.searchsorted(np.arange(0, n * n, n))
    members = flat % n
    while True:
        yield ball
        grown = np.bitwise_or.reduceat(ball.take(members, axis=0), starts, axis=0)
        if (grown == ball).all():
            if (ball == full).all():
                return
            raise Disconnected("distance matrix requires a connected graph")
        ball = grown


def _all_pairs_bfs(g: Graph) -> np.ndarray:
    """The distance matrix of g from scratch: d(u, v) is the number of
    radii r >= 0 whose ball B_r(u) misses v, B_0(u) being u alone."""
    n = g.n
    a = 1 - np.eye(n, dtype=np.int32)
    for ball in _balls(g):
        a += np.unpackbits(~ball.view(np.uint8).reshape(n, -1), axis=1, count=n, bitorder="little")
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs x < y of range(n) in row-major order, as int16 arrays xs, ys.

    An entry takes 2n(n - 1) bytes.  Every graph6 order 1..62 fits in the
    64 entries in under 0.2 MB; the worst case, 64 entries at
    `ORDER_CAP` = 800, is 1.3 MB each and 82 MB in all.
    """
    xs, ys = np.triu_indices(n, 1)
    return xs.astype(np.int16), ys.astype(np.int16)


# the bit count of each byte value; times 0x01..01 a word's top byte sums
# its eight bytes, and no partial sum carries, since none passes 64.
# Typed, since numpy 1.24 casts a uint64 mixed with a Python int to float64
_BYTE_BITS = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)
_H01, _S56 = np.uint64(0x0101010101010101), np.uint64(56)


def _popcount(x: np.ndarray) -> np.ndarray:
    """The bit count of each uint64 of x: each byte counted by table, then
    the eight counts of a word summed by one multiply (SWAR)."""
    return _BYTE_BITS.take(x.view(np.uint8)).view(np.uint64) * _H01 >> _S56


def _equidistant(narrow: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """`slab[k]` marks the vertices equidistant from xs[k] and ys[k]."""
    return narrow.take(xs, axis=0) == narrow.take(ys, axis=0)


def _slab_counts(dm: np.ndarray) -> np.ndarray:
    """`pair_counts` read off the distance matrix, a row-major chunk of
    pairs at a time, each array of a chunk at most `SLAB_ENTRIES` bytes
    or one row.  `narrow` holds the distances in the least unsigned type
    that takes n - 1, exact as no distance reaches n."""
    n = len(dm)
    narrow = dm.astype(np.min_scalar_type(n - 1))
    xs, ys = _pairs(n)
    step = max(1, SLAB_ENTRIES // (n * narrow.itemsize))
    counts = np.concatenate([
        # summing the bools as bytes counts them faster than count_nonzero
        _equidistant(narrow, xs[i:i + step], ys[i:i + step]).view(np.uint8).sum(1, np.uint64)
        for i in range(0, len(xs), step)
    ])
    counts.setflags(write=False)
    return counts


def _row_layers(rows: Sequence[int]) -> Iterator[list[int]]:
    """Yield the spheres of the graph with these adjacency rows, one layer
    per radius r = 1 up to its diameter: `layer[v]` is the mask of S_r(v).
    K1 yields none.

    S_r(v) is the union of the S_{r-1} of v's neighbours less the ball
    B_{r-1}(v).  Only the vertices whose ball still misses a vertex grow,
    and in a connected graph each of them gains one; one that gains none
    raises Disconnected, with the text of `distance_matrix`.  The rows
    are the first layer, yielded before the rest is set up, since most
    callers stop there.  It reads `_positions`, so its callers pass
    graphs of order at most `_ROWS_CAP`.
    """
    n = len(rows)
    if n < 2:
        return
    last = list(rows)
    yield last
    full = (1 << n) - 1
    nbrs = [_positions[row] for row in rows]
    ball = [row | 1 << v for v, row in enumerate(rows)]
    short = [v for v in range(n) if ball[v] != full]
    while short:
        sphere, still = [0] * n, []
        for v in short:
            reach = 0
            for u in nbrs[v]:
                reach |= last[u]
            reach &= ~ball[v]
            if not reach:
                raise Disconnected("distance matrix requires a connected graph")
            sphere[v] = reach
            ball[v] |= reach
            if ball[v] != full:
                still.append(v)
        yield sphere
        last, short = sphere, still


def _ball_spheres(g: Graph) -> np.ndarray:
    """The sphere planes of `_sphere_pass`, from the balls of `_balls`:
    S_r(v) is B_r(v) less B_{r-1}(v), one word per vertex."""
    last = np.left_shift(np.uint64(1), np.arange(g.n, dtype=np.uint64))
    planes = []
    for ball in _balls(g):
        planes.append(ball ^ last)
        last = ball
    return np.array(planes)


def _sphere_pass(g: Graph) -> tuple[int, np.ndarray, np.ndarray]:
    """The diameter of g, its pair masks and their bit counts.

    The spheres come as (radii x n) uint64 planes, `planes[r - 1][v]` the
    mask of the vertices at distance r from v, for r = 1 up to the
    diameter.  Up to order `_ROWS_CAP` they are the layers of the rows
    loop, past it the balls of the numpy step that the matrix runs.
    `masks[k]` marks the vertices equidistant from the k-th pair x < y of
    `_pairs(n)`, the union over r of S_r(x) & S_r(y), taken in one numpy
    pass over the planes, and `counts[k]` is its bit count.
    """
    n = g.n
    if n <= _ROWS_CAP:
        # the reshape keeps K1, which has no layer, two-dimensional
        planes = np.array(list(_row_layers(g.adj)), np.uint64).reshape(-1, n)
    else:
        planes = _ball_spheres(g)
    xs, ys = _pairs(n)
    both = planes.take(xs, axis=1)
    both &= planes.take(ys, axis=1)
    masks = np.bitwise_or.reduce(both, axis=0)
    counts = _popcount(masks)
    masks.setflags(write=False)
    counts.setflags(write=False)
    return len(planes), masks, counts


def diameter(g: Graph) -> int:
    """The largest distance in g, 0 for K1; raises Disconnected as
    `distance_matrix` does.  The number of sphere planes up to
    `SPHERE_CAP`, the matrix's largest entry past it."""
    if g.n <= SPHERE_CAP:
        return g._spheres[0]
    return int(distance_matrix(g).max())


def pair_masks(g: Graph) -> np.ndarray | None:
    """`masks[k]`, the uint64 mask of the vertices equidistant from the
    k-th pair x < y of range(n) in row-major order (never x or y), as one
    read-only array, and up to `SPHERE_CAP` Disconnected as
    `distance_matrix` raises it; None past the cap, where a mask does not
    fit a word."""
    return g._spheres[1] if g.n <= SPHERE_CAP else None


def pair_counts(g: Graph) -> np.ndarray:
    """`counts[k]`, how many vertices are equidistant from the k-th pair
    x < y of range(n) in row-major order, as one read-only uint64 array
    kept on g: the bit counts of `pair_masks(g)` up to `SPHERE_CAP`, the
    slab counts on `distance_matrix(g)` past it."""
    return g._spheres[2] if g.n <= SPHERE_CAP else g._counts
