"""Classical invariants of connected graphs used by the bound checks.

Girth uses infinity as its acyclic value so comparisons like ``girth > 5``
select trees without a sentinel integer; the JSON layer turns it into
null.  Girth grows the detour around each edge one frontier mask per
radius, while it can still beat the shortest cycle found.  The clique
number comes from a branch and bound over candidate bit masks, bounded
by greedy colour classes (Tomita and Seki, *An efficient
branch-and-bound algorithm for finding a maximum clique*, DMTCS 2003),
cross-checked against subset brute force and networkx in the tests.
Each colour class is one bit mask, as in San Segundo et al.'s BBMC (*An
exact bit-parallel algorithm for the maximum clique problem*, Computers
& OR 38 (2011)), so the bound is the number of classes left.  A vertex
joins its class with one mask step by the complement of its closed
neighbourhood, built once per search.  `invariant_summary` finds the
girth first and searches for cliques only when it is 3: a graph with no
triangle has clique number min(n, 2).  It reads the diameter from
`graphs.diameter`, which takes it from the sphere layers or the distance
matrix, whichever `graphs` keeps for the order, and a spider's legs are
walked on the adjacency rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, EmptySet
from .graphs import Graph, _bits, check_vertex, diameter, distance_matrix

INFINITE_GIRTH = math.inf


@dataclass(frozen=True)
class InvariantSummary:
    diameter: int
    girth: int | float
    omega: int
    max_degree: int
    is_tree: bool
    is_path: bool
    is_cycle: bool
    is_star: bool
    spider: tuple[int, int, int] | None


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or infinity for a forest.

    An edge whose ends share a neighbor closes a triangle, so one pass
    over the edges settles girth 3.  Otherwise the girth is the least
    1 + d(u, v) in g - uv over the edges uv, each d grown from u one
    frontier mask per radius while it can still beat the best cycle.
    """
    adj = g.adj
    if any(adj[u] & adj[v] for u, v in g.edges()):
        return 3
    best = INFINITE_GIRTH
    for u, v in g.edges():
        # v starts seen, so only its bit in `reach` ends the detour
        frontier = adj[u] ^ 1 << v
        seen = adj[u] | 1 << u
        d = 1
        while frontier and d + 2 < best:
            reach = 0
            for w in _bits(frontier):
                reach |= adj[w]
            d += 1
            if reach >> v & 1:
                best = d + 1
                break
            frontier = reach & ~seen
            seen |= frontier
        # a triangle-free graph has no shorter cycle
        if best == 4:
            break
    return best


def _colour_classes(cand: int, avoid: list[int]) -> list[int]:
    """cand split into greedy colour classes, one bit mask each, colours
    rising; each class is independent, so a clique meets it at most once.
    A class takes the candidates left in bit order, each one that no
    vertex already in it sees.  `avoid[v]` is the complement of v's closed
    neighbourhood, so one mask step drops v and its neighbours."""
    classes = []
    while cand:
        cls = 0
        avail = cand
        while avail:
            low = avail & -avail
            cls |= low
            avail &= avoid[low.bit_length() - 1]
        classes.append(cls)
        cand ^= cls
    return classes


def clique_number(g: Graph) -> int:
    """Exact maximum clique size by branch and bound over colour classes.

    Depth first over an explicit stack, so the clique size is not bounded
    by the interpreter's recursion limit.  Each frame holds a clique, its
    candidates still unexpanded and their colour classes as masks.  A
    clique takes at most one vertex per class, so a frame is expanded
    only while its size plus its class count can beat the best clique
    found so far; it expands the highest vertex of its top class and pops
    the class once it is empty.
    """
    adj = g.adj
    avoid = [~(row | 1 << v) for v, row in enumerate(adj)]
    best = 0
    full = (1 << g.n) - 1
    # [clique size, unexpanded candidates, their colour classes]
    stack = [[0, full, _colour_classes(full, avoid)]]
    while stack:
        frame = stack[-1]
        size, cand, classes = frame
        if size + len(classes) <= best:
            stack.pop()
            continue
        v = classes[-1].bit_length() - 1
        bit = 1 << v
        classes[-1] ^= bit
        if not classes[-1]:
            classes.pop()
        frame[1] = cand ^ bit
        sub = cand & adj[v]
        if sub:
            stack.append([size + 1, sub, _colour_classes(sub, avoid)])
        else:
            best = max(best, size + 1)
    return best


def spider_signature(g: Graph) -> tuple[int, int, int] | None:
    """Sorted leg lengths when g is a tree of three paths glued at one vertex.

    Each leg is walked on the rows from a neighbour of the centre through
    vertices of degree 2.  Off the centre no degree passes 2, so the legs
    are disjoint paths, and g is the spider exactly when each ends at a
    leaf and they cover every vertex.  Otherwise g, with its n - 1 edges,
    is disconnected and raises Disconnected, as every distance routine
    does.
    """
    degs = g.degrees()
    if g.m != g.n - 1 or max(degs) != 3 or degs.count(3) != 1:
        return None
    centre = degs.index(3)
    legs = []
    for v in _bits(g.adj[centre]):
        came, length = centre, 1
        while degs[v] == 2:
            came, v = v, (g.adj[v] & ~(1 << came)).bit_length() - 1
            length += 1
        if v == centre:
            break
        legs.append(length)
    if len(legs) < 3 or sum(legs) != g.n - 1:
        raise Disconnected("distance matrix requires a connected graph")
    return tuple(sorted(legs))  # type: ignore[return-value]


def distance_window(g: Graph, u: int, a: frozenset[int] | set[int]) -> tuple[int, bool]:
    """Distance from u to the set a, and whether every member sits within
    that distance plus the diameter of a."""
    if not a:
        raise EmptySet("distance to an empty vertex set is undefined")
    members = [check_vertex(g.n, v) for v in sorted(a)]
    check_vertex(g.n, u)
    dm = distance_matrix(g)
    to_a = dm[u, members]
    d = int(to_a.min())
    diam_a = int(dm[np.ix_(members, members)].max())
    ok = bool(((d <= to_a) & (to_a <= d + diam_a)).all())
    return d, ok


def path_cycle_star(g: Graph) -> tuple[bool, bool, bool]:
    """Whether a connected graph is a path (K1 included), a cycle, a star
    (K2 included), read off its degrees and edge count alone."""
    degs = g.degrees()
    n, top = g.n, max(degs)
    is_tree = g.m == n - 1
    return (
        is_tree and top <= 2,
        n >= 3 and min(degs) == top == 2,
        n >= 2 and is_tree and top == n - 1,
    )


def invariant_summary(g: Graph) -> InvariantSummary:
    """All invariants the bound suite consumes, in one pass."""
    is_tree = g.m == g.n - 1
    is_path, is_cycle, is_star = path_cycle_star(g)
    g_girth = INFINITE_GIRTH if is_tree else girth(g)
    return InvariantSummary(
        diameter=diameter(g),
        girth=g_girth,
        # a 3-clique is a triangle, so without one the clique is an edge or K1
        omega=clique_number(g) if g_girth == 3 else min(g.n, 2),
        max_degree=max(g.degrees()),
        is_tree=is_tree,
        is_path=is_path,
        is_cycle=is_cycle,
        is_star=is_star,
        spider=spider_signature(g),
    )
