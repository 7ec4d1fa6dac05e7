"""Resolving sets and the three dimension-style parameters built on them.

A vertex u resolves a pair {x, y} when d(u, x) != d(u, y).  The resolving
number of a connected graph is the least k such that *every* k-subset of
vertices resolves every pair.  It equals one plus the largest number of
vertices that fail to resolve some single pair, which turns the
exponential definition into one pass over the pairs; the subset-scan
oracle is kept alongside so the shortcut never has to be trusted blindly.

One res path serves every order: `graphs.pair_counts` counts the
vertices that fail to resolve each pair x < y in row-major order, its
first maximal count gives res and its pair, and `_equidistant_set`, the
helper of `non_resolvers`, the witness set.  Up to the sphere cap of 64
the pair masks also mark a single 2^n resolving-set table per graph,
read once for the metric dimension (least size of a resolving set), the
upper dimension (largest size of a minimal one) and res again for the
chain check; `DIM_CAP` is within that cap, so the table never reads a
matrix.  The table is a few Python ints with one bit per vertex subset,
so its set algebra is big-int shifts, ands and ors.  Each dimension
witness is the lowest integer bit mask among the sets of its kind.  A
graph's distances are built once and kept on it, so these routines and
their callers share one pass per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import DegeneratePair, TheoremViolation, TooLarge
from .graphs import Graph, _bits, _pairs, check_vertex, distance_matrix, pair_counts, pair_masks

ORACLE_CAP = 12
DIM_CAP = 16


@dataclass(frozen=True)
class ResolvingReport:
    """Resolving number plus the pair and vertex set witnessing it.

    The witness set is the set of vertices equidistant from both ends of
    the witness pair, so it never resolves that pair and its size is one
    less than the resolving number.  For the one-vertex graph there is no
    pair; the witness fields degenerate to None and the empty set.
    """

    res: int
    witness_pair: tuple[int, int] | None
    witness_nonresolving_set: frozenset[int]


@dataclass(frozen=True)
class DimensionReport:
    """Metric dimension and/or upper dimension with witness sets."""

    dim: int | None = None
    updim: int | None = None
    witness_min_set: tuple[int, ...] | None = None
    witness_max_minimal_set: tuple[int, ...] | None = None


def _check_pair(n: int, pair: tuple[int, int]) -> tuple[int, int]:
    vertices = sorted(check_vertex(n, w) for w in pair)
    if len(vertices) != 2 or vertices[0] == vertices[1]:
        raise DegeneratePair(f"pair must be two distinct vertices, got {pair}")
    return vertices[0], vertices[1]


def _equidistant_set(g: Graph, k: int, x: int, y: int) -> frozenset[int]:
    """The vertices equidistant from x and y, the k-th pair x < y of g in
    row-major order: its mask up to the sphere cap, its two matrix rows
    compared past it."""
    masks = pair_masks(g)
    if masks is not None:
        return frozenset(_bits(int(masks[k])))
    dm = distance_matrix(g)
    return frozenset(np.flatnonzero(dm[x] == dm[y]).tolist())


def non_resolvers(g: Graph, pair: tuple[int, int]) -> frozenset[int]:
    """Vertices equidistant from both members of pair (never x or y themselves)."""
    x, y = _check_pair(g.n, pair)
    # rows 0..x-1 of the pairs hold n-1, n-2, ..., n-x of them
    return _equidistant_set(g, x * (2 * g.n - x - 1) // 2 + y - x - 1, x, y)


def is_resolving_set(g: Graph, s: Iterable[int]) -> tuple[bool, tuple[int, int] | None]:
    """Definitional check; on failure also return the first unresolved pair."""
    members = [check_vertex(g.n, v) for v in sorted(set(s))]
    # vector[v]: the distances from v to the members, in member order
    vector = distance_matrix(g)[members].T.tolist()
    for x in range(g.n - 1):
        for y in range(x + 1, g.n):
            if vector[x] == vector[y]:
                return False, (x, y)
    return True, None


def resolving_number(g: Graph) -> ResolvingReport:
    """Exact resolving number from one pass over all vertex pairs.

    Among pairs maximizing the count of equidistant vertices the
    lexicographically smallest is reported.
    """
    if g.n == 1:
        return ResolvingReport(1, None, frozenset())
    counts = pair_counts(g)
    # the first argmax in row-major pair order is the smallest pair
    k = int(counts.argmax())
    xs, ys = _pairs(g.n)
    x, y = int(xs[k]), int(ys[k])
    return ResolvingReport(int(counts[k]) + 1, (x, y), _equidistant_set(g, k, x, y))


def resolving_number_oracle(g: Graph) -> int:
    """Scan subsets by increasing cardinality straight off the definition."""
    if g.n > ORACLE_CAP:
        raise TooLarge(f"subset-scan oracle is capped at n <= {ORACLE_CAP}, got {g.n}")
    if g.n == 1:
        return 1
    for k in range(1, g.n):
        if all(is_resolving_set(g, s)[0] for s in combinations(range(g.n), k)):
            return k
    return g.n - 1


def _lowest_subset(table: int, n: int) -> tuple[int, ...]:
    """The members of the subset S whose bit is the lowest one set in table."""
    s = (table & -table).bit_length() - 1
    return tuple(v for v in range(n) if s >> v & 1)


@lru_cache(maxsize=None)
def _subset_masks(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """`full`, `without[v]` and `size[k]` over the 2^n subsets of range(n),
    each an int in which bit S stands for the vertex subset S.

    `without[v]` marks the subsets that lack v: 2^v ones, then 2^v zeros,
    repeated.  It is doubled up from one period by shifted copies, since
    dividing a 2^n-bit int by (2^(2^(v+1)) - 1) is far slower.  `size[k]`
    marks the k-subsets, built vertex by vertex: a k-subset of range(v + 1)
    either lacks v or is a (k-1)-subset of range(v) with bit 2^v added.
    """
    span = 1 << n
    without = []
    for v in range(n):
        mask, period = (1 << (1 << v)) - 1, 2 << v
        while period < span:
            mask |= mask << period
            period *= 2
        without.append(mask)
    size = [1] + [0] * n
    for v in range(n):
        for k in range(v + 1, 0, -1):
            size[k] |= size[k - 1] << (1 << v)
    return (1 << span) - 1, tuple(without), tuple(size)


def _dimensions(g: Graph) -> DimensionReport:
    """dim, updim and both witnesses from one resolving-set table.

    The table is a few ints with one bit per vertex subset (bit S for the
    set S), so each pass below is a shift, an and and an or on 2^n bits.  A
    subset fails exactly when it sits inside the non-resolver mask of some
    pair, so marking every pair mask bad and closing the marks downward,
    one vertex bit per pass, leaves the resolving sets good.  Minimality
    only needs single-vertex deletions: supersets of resolving sets
    resolve, so a proper resolving subset implies a resolving subset one
    element smaller.  res is one more than the largest pair-mask size.
    """
    n = g.n
    if n > DIM_CAP:
        raise TooLarge(f"metric dimension is capped at n <= {DIM_CAP}, got {n}")
    if n == 1:
        return DimensionReport(dim=1, updim=1, witness_min_set=(0,), witness_max_minimal_set=(0,))
    # DIM_CAP is within the sphere cap, so the masks are there
    masks = pair_masks(g)
    full, without, size = _subset_masks(n)
    # scattered into a bool array and packed: or-ing each 1 << mask into an
    # int copies 2^n bits per pair
    table = np.zeros(1 << n, dtype=bool)
    table[masks] = True
    bad = int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")
    for v in range(n):
        # bit S moves to S - {v}, kept only where S held v
        bad |= bad >> (1 << v) & without[v]
    good = full & ~bad
    minimal = good
    for v in range(n):
        # a set holding v stays only if dropping v leaves a bad set
        minimal &= without[v] | bad << (1 << v)
    dim = next(k for k in range(n + 1) if good & size[k])
    updim = next(k for k in range(n, -1, -1) if minimal & size[k])
    res = 1 + int(pair_counts(g).max())
    if not dim <= updim <= res:
        raise TheoremViolation(
            f"dimension chain broken: dim={dim} updim={updim} res={res}"
        )
    # the lowest integer mask of each kind is the witness
    return DimensionReport(
        dim=dim,
        updim=updim,
        witness_min_set=_lowest_subset(good & size[dim], n),
        witness_max_minimal_set=_lowest_subset(minimal & size[updim], n),
    )


def metric_dimension(g: Graph) -> DimensionReport:
    """Minimum size of a resolving set, with one witness of that size."""
    rep = _dimensions(g)
    return DimensionReport(dim=rep.dim, witness_min_set=rep.witness_min_set)


def upper_dimension(g: Graph) -> DimensionReport:
    """Maximum size of a minimal resolving set, plus dim for the chain check."""
    return _dimensions(g)
