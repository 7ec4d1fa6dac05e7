"""Isomorph-free generation of small connected graphs.

Every connected graph on n >= 2 vertices has a vertex whose deletion
leaves it connected (a leaf of any spanning tree), so level n is grown
from level n - 1: each canonical parent gains one new vertex joined to a
nonempty set S of its vertices.  Maximum degree and girth survive that
deletion, so they prune S before the canonical form is ever computed:
the new vertex and every member of S must stay within the degree cap,
and two members of S at distance d would close a cycle of length d + 2,
so under a girth floor g no member of S may lie in the ball of another
of radius ceil(g) - 3, the union of the parent's first sphere layers
from the rows loop `graphs._row_layers`.

Each class is produced once, by McKay's canonical deletion (Isomorph-free
exhaustive generation, J. Algorithms 26 (1998)).  A parent is tried with
one S per orbit of its automorphism group, whose generators its canonical
form carries in the parent's own labels; two sets in one orbit give
isomorphic children.  A child is kept only when its new vertex lies in
the orbit of its canonical deletion: among the non-cut vertices that
maximise (degree, sorted neighbour degrees), the one at the smallest
canonical position.  That vertex picks one parent class and one orbit of
S per child class, so the children need no set to drop duplicates, and
the invariant, read off the child's rows and degrees, turns most other
children away before a `Graph` is built and canon runs.  Its degree part
is settled on the parent already: a non-cut vertex of the parent stays
non-cut in a child whose S has two or more vertices, so the degree
floor in `_joins` never builds a child where such a vertex outgrows the
new one, whose degree is |S|.  A cap on m2, the most vertices at
distance 1 from both ends of a pair or at distance 2 from both, passes
to the parent as well: deleting a non-cut vertex only lengthens the
distances among the rest, so no pair gains such a vertex.  It is tested
on the child's rows after the invariant and before canon, by the sphere
kernel `_most_equidistant` capped at radius 2, which counts on the same
layers, so pruning keeps exactly what filtering would.

Canon is needed only to break a tie.  When the new vertex is the only
deletable vertex with the top invariant, or every other one is its twin
(swapping twins is an automorphism, so they share one orbit), the rows
alone settle the deletion and the child is kept as built.  A canonical
level still canonicalises each such child, to sort the level and to hand
its forms on as parents.  A level that is no parent can skip that: with
`canonical=False` the stream yields each class once as the engine built
it, in generation order, and canon runs only on the children with other
ties (at order 7, 209 of the 902 that reach the tie test).

Trees, the case of infinite girth, need no parent level.  A tree rooted
at its centre, or at the end of its central edge that a size-then-order
rule picks, has one canonical level sequence, and the free-tree
generator of Wright, Richmond, Odlyzko and McKay, WROM below (Constant
time generation of free trees, SIAM J. Comput. 15 (1986)), walks just
those sequences.  So every tree class of order n is built once, and
canonicalised once in a canonical level.  A brute-force oracle in the tests (all edge
subsets, deduped by the minimum bit string over all permutations) guards
the graph engine at tiny orders; the tree counts and pairwise distinct
forms guard the tree generator up to the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from operator import attrgetter
from typing import Iterator, Sequence

from .canon import CanonicalForm, _orbits, _twins, canonical_form
from .errors import InputError, TooLarge
from .graphs import Graph, _positions, _row_layers

# the top order of each region grown, by (degree cap, girth floor); a
# request reaches the largest top among the rows whose caps it keeps
REACH = {(None, None): 7, (3, 5): 10, (None, math.inf): 12}


@dataclass(frozen=True)
class EnumConstraints:
    """What to enumerate: order, optional degree / girth / m2 caps, tree mode.

    A `min_girth` of infinity means acyclic and is treated as tree mode,
    which generates the trees of order n directly and drops those above
    `max_degree` or `max_m2`.  Other graphs are grown level by level.
    `REACH` holds the top order of each region.  A `max_m2` of k keeps
    the graphs where no pair has more than k vertices at distance 1 from
    both ends or at distance 2 from both, so each graph it drops has
    res >= k + 2; it moves no top order.  A girth floor above n means
    acyclic too, since no cycle is longer than n.

    With `canonical` (the default) the graphs come canonically labeled and
    sorted by canonical form.  Without it they come one per class still,
    in generation order, under labels that are not canonical but the same
    on every run, and a graph level needs canon only where its rows leave
    the deletion tied.
    """

    n: int
    max_degree: int | None = None
    min_girth: int | float | None = None
    trees_only: bool = False
    max_m2: int | None = None
    canonical: bool = True


def _region(c: EnumConstraints) -> tuple[int | None, int | float | None, int | None]:
    """Check domain and reach; return (max_degree, min_girth, max_m2), the
    level cache key.

    Trees, and a girth floor above n, which no cycle of n vertices
    reaches, become girth infinity; a girth floor of 3 or less, which every
    simple graph meets, becomes None, and a NaN floor is refused, so each
    floor `_joins` sees is finite and at most n.  A request keeps a row
    of `REACH` when its degree cap is at most the row's and its girth
    floor at least the row's, a None in the row asking nothing.
    """
    if c.n < 1:
        raise InputError(f"order must be at least 1, got {c.n}")
    if c.max_degree is not None and c.max_degree < 0:
        raise InputError(f"max_degree must be nonnegative, got {c.max_degree}")
    if c.max_m2 is not None and c.max_m2 < 0:
        raise InputError(f"max_m2 must be nonnegative, got {c.max_m2}")
    if c.min_girth is not None and math.isnan(c.min_girth):
        raise InputError("min_girth must be a number, got nan")
    min_girth = math.inf if c.trees_only or (c.min_girth or 0) > c.n else c.min_girth
    if min_girth is not None and min_girth <= 3:
        min_girth = None
    top = max(
        reach
        for (degree, girth), reach in REACH.items()
        if (degree is None or c.max_degree is not None and c.max_degree <= degree)
        and (girth is None or min_girth is not None and min_girth >= girth)
    )
    if c.n > top:
        rows = []
        for (degree, girth), reach in REACH.items():
            caps = [f"max_degree <= {degree}"] * (degree is not None)
            caps += [f"min_girth >= {girth}"] * (girth is not None)
            rows.append(f"n <= {reach}" + " with " * bool(caps) + " and ".join(caps))
        raise TooLarge(
            f"enumeration is capped at {', '.join(rows[:-1])}, or {rows[-1]}, got order {c.n}"
        )
    return c.max_degree, min_girth, c.max_m2


def _joins(
    g: Graph, deg: tuple[int, ...], max_degree: int | None, min_girth: int | float | None
) -> list[tuple[int, ...]]:
    """Every neighbour set S a new vertex may join without breaking a cap,
    given the degrees of g, less the sets of two or more that the degree
    floor shows cannot be the canonical deletion.

    Caps: under a girth floor, no member of S lies in another's ball of
    radius ceil(min_girth) - 3, the union of the first sphere layers of g.

    Floor: when |S| >= 2, a non-cut vertex v of g stays non-cut in the
    child, where its degree is deg[v], plus one if v is in S, and the new
    vertex's is |S|.  Let `top` be the largest degree of a non-cut vertex
    and `peak` the non-cut vertices of that degree: one of them beats the
    new vertex on degree when |S| < top, or when |S| = top and S meets
    `peak`.  Other rivals, a cut vertex of g among them, are left to
    `_deletion_ties`.  Automorphisms keep degrees and cut vertices, so the
    floor drops whole orbits.
    """
    free = [v for v in range(g.n) if max_degree is None or deg[v] < max_degree]
    largest = len(free) if max_degree is None else min(max_degree, len(free))
    top, peak = 0, 0
    for v in sorted(range(g.n), key=deg.__getitem__, reverse=True):
        if deg[v] < top:
            break
        if not _is_cut(g.adj, v):
            top = deg[v]
            peak |= 1 << v
    near = None
    if min_girth is not None and largest > 1:
        near = [0] * g.n
        for layer in islice(_row_layers(g.adj), math.ceil(min_girth) - 3):
            near = [a | b for a, b in zip(near, layer)]
    # at size top, the sets that miss `peak`
    off_peak = [v for v in free if not peak >> v & 1]
    return [
        s
        for size in (1, *range(max(2, top), largest + 1))
        for s in combinations(off_peak if size == top > 1 else free, size)
        if near is None or not any(near[a] >> b & 1 for a, b in combinations(s, 2))
    ]


def _centred(levels: list[int], m: int) -> bool:
    """True iff a canonical level sequence roots its tree at the centre,
    and at the end of the central edge that WROM picks when there are two.

    The root's first subtree spans levels[1:m] and is its highest, of
    height h; the root is a centre iff the rest reaches depth h or h - 1.
    At h - 1 the central edge joins the root to vertex 1, and either end
    may be the root: the one kept leaves the first subtree no larger than
    the rest, by order and then by level sequence, both read from their
    own roots.
    """
    h = max(levels[1:m])
    rest = max(levels[m:], default=0)
    if rest != h - 1:
        return rest == h
    return (m - 1, [d - 1 for d in levels[1:m]]) <= (len(levels) - m + 1, [0] + levels[m:])


def _free_trees(n: int) -> Iterator[Graph]:
    """Yield one tree of each isomorphism class of order n.

    A rooted tree is held as its canonical level sequence: the depth of
    each vertex in preorder, the subtrees of every vertex in decreasing
    order of their own sequences.  The Beyer–Hedetniemi successor (SIAM
    J. Comput. 9 (1980)) steps through these in decreasing order: it
    refills the sequence from its last vertex p deeper than 1 on, which
    lowers it the least.  WROM starts at the path rooted at its centre and
    yields the sequences that `_centred` accepts.  Vertex i of each tree
    is position i of its sequence.
    """
    if n == 1:
        yield Graph(1, (0,))
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        # the root's first subtree ends where its second child starts
        m = 2
        while m < n and levels[m] != 1:
            m += 1
        if _centred(levels, m):
            rows = [0] * n
            last = [0] * n  # last[d]: the latest vertex at depth d
            for v in range(1, n):
                u = last[levels[v] - 1]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                last[levels[v]] = v
            yield Graph(n, tuple(rows))
            p = n - 1
            while levels[p] == 1:
                p -= 1
            if p == 0:
                return  # the star comes last
            deep = False
        else:
            # the rest only gets smaller while the first subtree stays, so
            # no later sequence with it is centred: change the first subtree
            p = m - 1
            deep = levels[p] > 2
        # refill from p by repeating the sequence from p's parent on
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        for i in range(p, n):
            levels[i] = levels[i - p + q]
        if deep:
            # the refill left the root one child; the highest rest the new
            # first subtree allows is a path as deep as it
            h = max(levels)
            levels[n - h:] = range(1, h + 1)


def _orbit(mask: int, generators: tuple[tuple[int, ...], ...]) -> set[int]:
    """Images of a vertex set, given as a bit mask, under the generated group."""
    orbit = {mask}
    todo = [mask]
    while todo:
        m = todo.pop()
        for gen in generators:
            image = 0
            for v in _positions[m]:
                image |= 1 << gen[v]
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _is_cut(rows: Sequence[int], v: int) -> bool:
    """True iff deleting v disconnects the graph with these adjacency rows."""
    rest = (1 << len(rows)) - 1 & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        nxt = 0
        for u in _positions[frontier]:
            nxt |= rows[u]
        frontier = nxt & rest & ~seen
        seen |= frontier
    return seen != rest


def _deletion_ties(rows: list[int], deg: list[int]) -> list[int] | None:
    """The last vertex and the deletable vertices tied with it, or None
    when a deletable vertex beats it on (degree, sorted neighbour degrees).

    A vertex of higher degree beats it on degree alone, so it needs only
    the cut test; neighbour degrees are sorted only for equal degrees.
    """
    w = len(rows) - 1
    d = deg[w]
    top = None
    tied = [w]
    for v in range(w):
        if deg[v] < d:
            continue
        if deg[v] > d:
            if not _is_cut(rows, v):
                return None
            continue
        if top is None:
            top = sorted(deg[u] for u in _positions[rows[w]])
        k = sorted(deg[u] for u in _positions[rows[v]])
        if k >= top and not _is_cut(rows, v):
            if k > top:
                return None
            tied.append(v)
    return tied


def _most_equidistant(rows: Sequence[int], k: int, radius: int | None = None) -> int:
    """The most vertices equidistant from one pair, each within `radius`
    of it (at any distance by default), or the first count past k.

    The spheres come from the rows loop `graphs._row_layers`, and each
    pair adds |S_r(x) & S_r(y)| radius by radius, so the scan stops at
    the first pair past k.  A count of at most k is exact: res - 1 at any
    distance (the paper's equidistance theorem), and m2 within radius 2,
    the most vertices at distance 1 from both ends of a pair or at
    distance 2 from both.  Rows of a disconnected graph raise
    Disconnected once a layer past the rows is read.
    """
    n = len(rows)
    counts = [0] * (n * n)  # counts[x * n + y] for the pair x < y
    best = 0
    for sphere in islice(_row_layers(rows), radius):
        for x in range(n - 1):
            here = sphere[x]
            if here:
                at = x * n
                for y in range(x + 1, n):
                    c = counts[at + y] + (here & sphere[y]).bit_count()
                    counts[at + y] = c
                    if c > best:
                        if c > k:
                            return c
                        best = c
    return best


def _children(
    n: int, max_degree: int | None, min_girth: int | float | None, max_m2: int | None
) -> Iterator[tuple[Graph, CanonicalForm | None]]:
    """One graph per class of order n within the caps, in generation
    order, with its canonical form, or with None where no form was needed.

    K1, and the trees filtered by the degree and m2 caps, come as built,
    with None.  Other graphs are the children of the level below, each
    first held as its adjacency rows and degrees: a child whose new vertex
    another deletable vertex beats on (degree, sorted neighbour degrees),
    or that breaks the m2 cap, is turned away before a `Graph` is built.
    The rows settle the deletion, with None, when every other tied vertex
    is a twin of the new one: each swap is an automorphism, so they all
    share its orbit.  Else canon decides: the child is kept, with its
    form, when its new vertex lies in the orbit of the tied vertex at the
    smallest canonical position.
    """
    if n == 1:
        yield Graph(1, (0,)), None
        return
    if min_girth == math.inf:
        for t in _free_trees(n):
            if (max_degree is None or max(t.degrees()) <= max_degree) and (
                max_m2 is None or _most_equidistant(t.adj, max_m2, 2) <= max_m2
            ):
                yield t, None
        return
    w = n - 1
    for form in _level(w, max_degree, min_girth, max_m2):
        g = form.to_graph()
        deg = g.degrees()
        tried: set[int] = set()  # neighbour sets in the orbits tried so far
        for s in _joins(g, deg, max_degree, min_girth):
            mask = sum(1 << v for v in s)
            if mask in tried:
                continue
            tried |= _orbit(mask, form.generators)
            rows = list(g.adj)
            degs = list(deg)
            for v in s:
                rows[v] |= 1 << w
                degs[v] += 1
            rows.append(mask)
            degs.append(len(s))
            tied = _deletion_ties(rows, degs)
            if tied is None or max_m2 is not None and _most_equidistant(rows, max_m2, 2) > max_m2:
                continue
            child = Graph(n, tuple(rows))
            if all(_twins(rows, w, v) for v in tied[1:]):
                yield child, None
                continue
            kept = canonical_form(child)
            at = kept.labelling
            lowest = min(at[v] for v in tied)
            if _orbits(1 << at[w], kept.generators) >> lowest & 1:
                yield child, kept


def _grow(
    n: int, max_degree: int | None, min_girth: int | float | None, max_m2: int | None
) -> tuple[CanonicalForm, ...]:
    """Sorted canonical forms of the connected graphs of order n within the caps.

    Each child that `_children` yields without a form is canonicalised
    here, so every child that passes the tie test and the m2 cap costs one
    canon call, settled or not.  The sort makes the level independent of the order in
    which trees, parents and neighbour sets are visited, so a caller that
    shuffles `_free_trees`, `_level` or `_joins` gets the same tuple.  It
    reads `bits` alone: every form of a level has order n, so this is the
    forms' own order.
    """
    forms = (form or canonical_form(g) for g, form in _children(n, max_degree, min_girth, max_m2))
    return tuple(sorted(forms, key=attrgetter("bits")))


# each level built once per process
_level = lru_cache(maxsize=None)(_grow)


def enumerate_graphs(c: EnumConstraints) -> Iterator[Graph]:
    """Yield one representative per isomorphism class.

    With `c.canonical`, each representative is canonically labeled and the
    stream is sorted by canonical form, so it is independent of any
    internal exploration order; the level is built whole before the first
    graph and kept for the process.  Without it, the graphs stream in
    generation order as they are built, trees and children alike, under
    labels that are not canonical; the stream is still deterministic, and
    it holds the same classes, each once.
    """
    region = _region(c)
    if c.canonical:
        yield from (form.to_graph() for form in _level(c.n, *region))
    else:
        yield from (g for g, _ in _children(c.n, *region))
