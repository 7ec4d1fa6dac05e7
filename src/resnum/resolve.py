"""Resolving sets and the three dimension-style parameters built on them.

A vertex u resolves a pair {x, y} when d(u, x) != d(u, y).  The resolving
number of a connected graph is the least k such that *every* k-subset of
vertices resolves every pair.  It equals one plus the largest number of
vertices that fail to resolve some single pair, which turns the
exponential definition into one distance-matrix scan; the subset-scan
oracle is kept alongside so the shortcut never has to be trusted blindly.

One equidistance kernel feeds everything else: for rows lo..hi-1 of the
distance array, the boolean slab ``a[lo:hi, None, :] == a[None, lo:, :]``
marks, for each pair {x, y} with y >= lo, the vertices that fail to
resolve it.  Pairs with y < lo sit in an earlier block as {y, x}, so the
slab skips them.  Rows go in blocks that keep a slab under `SLAB_ENTRIES`
entries, so a graph of order 62 is one slab.  The slab counts over pairs
x < y give the resolving number.  Weighted by vertex bits, the same
pairs give the pair masks of a single 2^n resolving-set table per graph,
read once for the metric dimension (least size of a resolving set), the
upper dimension (largest size of a minimal one) and res again for the
chain check.  Each dimension witness is the lowest integer bit mask
among the sets of its kind.

Distances come in as the read-only array of `graphs.distance_matrix`.
The public routines take it as `dm`, optional where they can build their
own, so a caller that already holds it never pays for a second BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import DegeneratePair, IndexOutOfRange, TheoremViolation, TooLarge
from .graphs import Graph, distance_matrix

ORACLE_CAP = 12
DIM_CAP = 16
UPDIM_CAP = 12
# most entries (bools, so bytes) in one equidistance slab
SLAB_ENTRIES = 1 << 20


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
    x, y = pair
    for w in (x, y):
        if not 0 <= w < n:
            raise IndexOutOfRange(f"vertex {w} outside range 0..{n - 1}")
    if x == y:
        raise DegeneratePair(f"pair must be two distinct vertices, got {pair}")
    return (x, y) if x < y else (y, x)


def _blocks(n: int) -> Iterator[tuple[int, int]]:
    """Row ranges [lo, hi) whose slabs hold at most SLAB_ENTRIES entries."""
    step = max(1, SLAB_ENTRIES // (n * n))
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def _equidistant(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """`slab[x - lo, y - lo]` marks the vertices that fail to resolve {x, y}."""
    return a[lo:hi, None, :] == a[None, lo:, :]


def non_resolvers(g: Graph, dm: np.ndarray, pair: tuple[int, int]) -> frozenset[int]:
    """Vertices equidistant from both members of pair (never x or y themselves)."""
    x, y = _check_pair(g.n, pair)
    return frozenset(np.flatnonzero(dm[x] == dm[y]).tolist())


def is_resolving_set(
    g: Graph, dm: np.ndarray, s: Iterable[int]
) -> tuple[bool, tuple[int, int] | None]:
    """Definitional check; on failure also return the first unresolved pair."""
    members = sorted(set(s))
    for v in members:
        if not 0 <= v < g.n:
            raise IndexOutOfRange(f"vertex {v} outside range 0..{g.n - 1}")
    # vector[v]: the distances from v to the members, in member order
    vector = dm[members].T.tolist()
    for x in range(g.n - 1):
        for y in range(x + 1, g.n):
            if vector[x] == vector[y]:
                return False, (x, y)
    return True, None


def resolving_number(g: Graph, dm: np.ndarray | None = None) -> ResolvingReport:
    """Exact resolving number from one scan over all vertex pairs.

    Among pairs maximizing the count of equidistant vertices the
    lexicographically smallest is reported.
    """
    if g.n == 1:
        return ResolvingReport(1, None, frozenset())
    if dm is None:
        dm = distance_matrix(g)
    n = g.n
    best = -1
    for lo, hi in _blocks(n):
        slab = _equidistant(dm, lo, hi)
        # summing the bools as bytes counts them faster than count_nonzero
        eq = slab.view(np.uint8).sum(axis=2, dtype=np.int32)
        # only pairs x < y count; row-major argmax keeps the smallest pair
        eq[np.arange(lo, n) <= np.arange(lo, hi)[:, None]] = -1
        i, j = divmod(int(np.argmax(eq)), n - lo)
        if int(eq[i, j]) > best:
            best = int(eq[i, j])
            best_pair = (lo + i, lo + j)
            witness = slab[i, j].copy()
    return ResolvingReport(
        best + 1, best_pair, frozenset(np.flatnonzero(witness).tolist())
    )


def resolving_number_oracle(g: Graph) -> int:
    """Scan subsets by increasing cardinality straight off the definition."""
    if g.n > ORACLE_CAP:
        raise TooLarge(f"subset-scan oracle is capped at n <= {ORACLE_CAP}, got {g.n}")
    if g.n == 1:
        return 1
    dm = distance_matrix(g)
    for k in range(1, g.n):
        if all(
            is_resolving_set(g, dm, s)[0] for s in combinations(range(g.n), k)
        ):
            return k
    return g.n - 1


def _members(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if int(mask) >> v & 1)


def _dimensions(g: Graph, dm: np.ndarray | None) -> DimensionReport:
    """dim, updim and both witnesses from one resolving-set table.

    A subset fails exactly when it sits inside the non-resolver mask of
    some pair, so marking every pair mask bad and closing the marks
    downward, one vertex bit per pass, leaves the resolving sets good.
    Minimality only needs single-vertex deletions: supersets of resolving
    sets resolve, so a proper resolving subset implies a resolving subset
    one element smaller.  res is one more than the largest pair-mask size.
    """
    n = g.n
    if n == 1:
        return DimensionReport(
            dim=1, updim=1, witness_min_set=(0,), witness_max_minimal_set=(0,)
        )
    a = distance_matrix(g) if dm is None else dm
    weights = 1 << np.arange(n, dtype=np.int64)
    above = np.arange(n) > np.arange(n)[:, None]
    pair_masks = np.concatenate(
        [(_equidistant(a, lo, hi) @ weights)[above[lo:hi, lo:]] for lo, hi in _blocks(n)]
    )
    bad = np.zeros(1 << n, dtype=bool)
    bad[pair_masks] = True
    popcount = np.zeros(1 << n, dtype=np.int8)
    for v in range(n):
        # [:, 1] holds the masks with bit v set, [:, 0] the same masks without it
        bad_v = bad.reshape(-1, 2, 1 << v)
        bad_v[:, 0] |= bad_v[:, 1]
        popcount.reshape(-1, 2, 1 << v)[:, 1] += 1
    good = ~bad
    minimal = good.copy()
    for v in range(n):
        minimal.reshape(-1, 2, 1 << v)[:, 1] &= bad.reshape(-1, 2, 1 << v)[:, 0]
    dim = int(popcount[good].min())
    updim = int(popcount[minimal].max())
    res = 1 + int(popcount[pair_masks].max())
    if not dim <= updim <= res:
        raise TheoremViolation(
            f"dimension chain broken: dim={dim} updim={updim} res={res}"
        )
    # the lowest integer mask of each kind is the witness
    return DimensionReport(
        dim=dim,
        updim=updim,
        witness_min_set=_members(np.flatnonzero(good & (popcount == dim))[0], n),
        witness_max_minimal_set=_members(
            np.flatnonzero(minimal & (popcount == updim))[0], n
        ),
    )


def metric_dimension(g: Graph, dm: np.ndarray | None = None) -> DimensionReport:
    """Minimum size of a resolving set, with one witness of that size."""
    if g.n > DIM_CAP:
        raise TooLarge(f"metric dimension is capped at n <= {DIM_CAP}, got {g.n}")
    rep = _dimensions(g, dm)
    return DimensionReport(dim=rep.dim, witness_min_set=rep.witness_min_set)


def upper_dimension(g: Graph, dm: np.ndarray | None = None) -> DimensionReport:
    """Maximum size of a minimal resolving set, plus dim for the chain check."""
    if g.n > UPDIM_CAP:
        raise TooLarge(f"upper dimension is capped at n <= {UPDIM_CAP}, got {g.n}")
    return _dimensions(g, dm)
