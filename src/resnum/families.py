"""Constructors for the named graph families and the res <= 3 classifier.

Each constructor documents its order and resolving number; the test suite
recomputes both.  The four sporadic order-6/7 graphs built around a
4-clique come from an adjacency description rather than a drawing, so
they are verified to satisfy omega = res = 4 the first time they are
requested and a failure aborts loudly.  Every constructor checks its
parameters' domain, then `graphs.check_order`, before it builds anything
(an argument left of the edge list is evaluated first).  The dense ones,
complete graphs, a clique plus a pendant vertex and joins, build their
rows as masks rather than through Θ(n²) checked edges.  The spider, the
triangle tripod and the pendant odd cycle hang paths on a small core
through one builder, `_hang_legs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .canon import canonical_form
from .catalog import _SHAPE_RES, CatalogMember, _shape, load_default_catalog
from .errors import InvalidFamilyParam, NotApplicable, TheoremViolation
from .graphs import Graph, check_order, from_edge_list
from .invariants import clique_number, girth
from .resolve import resolving_number


def path_graph(n: int) -> Graph:
    """Path on n vertices; res is 1 for n <= 2 and 2 afterwards."""
    if n < 1:
        raise InvalidFamilyParam(f"path needs n >= 1, got {n}")
    return from_edge_list(check_order(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n vertices; res is 2 when n is odd, 3 when even."""
    if n < 3:
        raise InvalidFamilyParam(f"cycle needs n >= 3, got {n}")
    return from_edge_list(check_order(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    """Complete graph; res = n - 1 for n >= 2."""
    if n < 1:
        raise InvalidFamilyParam(f"complete graph needs n >= 1, got {n}")
    full = (1 << check_order(n)) - 1
    return Graph(n, tuple(full ^ 1 << v for v in range(n)))


def empty_graph(n: int) -> Graph:
    """Edgeless graph, used as a join operand."""
    if n < 1:
        raise InvalidFamilyParam(f"empty graph needs n >= 1, got {n}")
    return Graph(check_order(n), (0,) * n)


def star_graph(a: int) -> Graph:
    """Center 0 joined to a leaves (order a + 1); res = a."""
    if a < 1:
        raise InvalidFamilyParam(f"star needs a >= 1 leaves, got {a}")
    return from_edge_list(check_order(a + 1), [(0, i) for i in range(1, a + 1)])


def _hang_legs(n: int, core: list[tuple[int, int]], legs: list[tuple[int, int]]) -> Graph:
    """The core of order n and its edges, each (root, length) leg hung on
    it as a path of new vertices, numbered on from the core, leg by leg."""
    edges = list(core)
    for root, length in legs:
        path = [root, *range(n, n + length)]
        edges += zip(path, path[1:])
        n += length
    return from_edge_list(n, edges)


def spider_graph(a: int, b: int, c: int) -> Graph:
    """Three paths with a, b, c edges glued at one center (order a+b+c+1)."""
    if min(a, b, c) < 1:
        raise InvalidFamilyParam(f"spider legs must be >= 1, got {(a, b, c)}")
    check_order(a + b + c + 1)
    return _hang_legs(1, [], [(0, a), (0, b), (0, c)])


def clique_with_pendant(a: int, b: int) -> Graph:
    """Complete graph on a vertices plus one vertex joined to b of them.

    Order a + 1 and res = a; any choice of the b clique vertices gives an
    isomorphic graph, so the first b are used.
    """
    if not 1 <= b < a:
        raise InvalidFamilyParam(f"need 1 <= b < a, got a={a} b={b}")
    check_order(a + 1)
    clique = (1 << a) - 1
    rows = [clique ^ 1 << v | (1 << a if v < b else 0) for v in range(a)]
    return Graph(a + 1, (*rows, (1 << b) - 1))


def wheel_graph(rim: int) -> Graph:
    """Hub joined to every vertex of a cycle on rim vertices (order rim + 1)."""
    if rim < 3:
        raise InvalidFamilyParam(f"wheel rim needs >= 3 vertices, got {rim}")
    check_order(rim + 1)
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return from_edge_list(rim + 1, edges)


def pendant_odd_cycle(a: int) -> Graph:
    """Odd cycle on 2a+1 vertices with a pendant edge; girth 2a+1, res a+1."""
    if a < 3:
        raise InvalidFamilyParam(f"pendant cycle needs a >= 3, got {a}")
    check_order(2 * a + 2)
    n = 2 * a + 1
    return _hang_legs(n, [(i, (i + 1) % n) for i in range(n)], [(0, 1)])


def triangle_tripod(r: int) -> Graph:
    """Triangle with a path of r-2 edges on each corner; order 3(r-1), res r."""
    if r < 3:
        raise InvalidFamilyParam(f"triangle tripod needs r >= 3, got {r}")
    check_order(3 * (r - 1))
    return _hang_legs(3, [(0, 1), (1, 2), (0, 2)], [(corner, r - 2) for corner in range(3)])


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of g1 and g2 plus every edge between them."""
    off = g1.n
    n = check_order(off + g2.n)
    first = (1 << off) - 1
    second = ((1 << g2.n) - 1) << off
    rows = [row | second for row in g1.adj] + [row << off | first for row in g2.adj]
    return Graph(n, tuple(rows))


def _sporadic_raw(i: int) -> Graph:
    # 4-clique {0,1,2,3}; 4 sees {0,1}, 5 sees {1,2}; the order-7 ones add
    # 6 seeing {1,3}; among {4,5,6} either no edges or all three.
    clique = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    if i == 1:
        return from_edge_list(6, clique + [(4, 0), (4, 1), (5, 1), (5, 2), (4, 5)])
    if i == 2:
        return from_edge_list(6, clique + [(4, 0), (4, 1), (5, 1), (5, 2)])
    extra = [(4, 0), (4, 1), (5, 1), (5, 2), (6, 1), (6, 3)]
    if i == 3:
        return from_edge_list(7, clique + extra)
    if i == 4:
        return from_edge_list(7, clique + extra + [(4, 5), (5, 6), (4, 6)])
    raise InvalidFamilyParam(f"sporadic witness index must be 1..4, got {i}")


@lru_cache(maxsize=None)
def clique4_sporadic(i: int) -> Graph:
    """The i-th sporadic graph with omega = res = 4 (i in 1..4), verified."""
    g = _sporadic_raw(i)
    omega = clique_number(g)
    res = resolving_number(g).res
    if omega != 4 or res != 4:
        raise TheoremViolation(
            f"sporadic witness {i} failed verification: omega={omega} res={res}"
        )
    return g


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus parameters; `generate` builds the graph.

    Kinds and domains: path/cycle/complete/empty n, star a, spider
    (a,b,c), clique_pendant (a,b) with 1 <= b < a, wheel rim, pendant_cycle
    a >= 3, triangle_tripod r >= 3, sporadic i in 1..4.  Joins are built
    by `join` from two graphs.
    """

    kind: str
    params: tuple[int, ...] = ()


_BUILDERS = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "empty": (empty_graph, 1),
    "star": (star_graph, 1),
    "spider": (spider_graph, 3),
    "clique_pendant": (clique_with_pendant, 2),
    "wheel": (wheel_graph, 1),
    "pendant_cycle": (pendant_odd_cycle, 1),
    "triangle_tripod": (triangle_tripod, 1),
    "sporadic": (clique4_sporadic, 1),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a FamilySpec describes."""
    try:
        builder, arity = _BUILDERS[spec.kind]
    except KeyError:
        raise InvalidFamilyParam(
            f"unknown family {spec.kind!r}; known: {', '.join(family_names())}"
        )
    if len(spec.params) != arity:
        raise InvalidFamilyParam(
            f"family {spec.kind!r} takes {arity} parameter(s), got {len(spec.params)}"
        )
    return builder(*spec.params)


@dataclass(frozen=True)
class Category:
    """Structural classification tag together with the resolving number.

    `member` is the matching catalog entry on the Catalog* tags.
    """

    tag: str
    res: int
    member: CatalogMember | None = field(default=None, compare=False)


def classify_res(g: Graph) -> Category:
    """Classify a connected graph by its resolving number regime.

    A graph of res <= 3 with a shape of `catalog._shape` takes its tag
    and must have the res `_SHAPE_RES` gives it; a res-3 graph without
    one must be a catalog member, tagged by its girth.  Any other outcome
    raises TheoremViolation because it would falsify a proved statement.
    """
    res = resolving_number(g).res
    if res >= 4:
        return Category("ResAtLeast4", res)
    shape = _shape(g)
    if shape is not None or res < 3:
        if _SHAPE_RES.get(shape) != res:
            raise TheoremViolation(f"res = {res} on a graph of order {g.n} and shape {shape}")
        return Category(shape, res)
    member = load_default_catalog().lookup(canonical_form(g))
    if member is None:
        raise TheoremViolation(
            "res = 3 graph outside the derived catalog: "
            f"order {g.n}, girth {girth(g)}"
        )
    return Category(f"CatalogGirth{member.girth}", 3, member)


def clique_res_category(g: Graph) -> int:
    """Which of the five omega = res statements the graph instantiates (1..5).

    Requires omega(g) = res(g).  For res <= 3 the statement is res itself
    and `classify_res` checks the shape: with omega = res only K1, paths
    of order >= 3, odd cycles of order >= 5 and girth-3 catalog members
    are left.  Raises TheoremViolation if the graph matches no statement.
    """
    r = resolving_number(g).res
    omega = clique_number(g)
    if omega != r:
        raise NotApplicable(f"omega={omega} differs from res={r}")
    if r <= 3:
        return classify_res(g).res
    # with omega = r, order r + 1 is K_r plus one vertex joined to 1..r-1 of
    # it: statement 4 at r = 4, statement 5 for every larger r
    if g.n == r + 1:
        return min(r, 5)
    if r == 4 and g.n in (6, 7):
        form = canonical_form(g)
        if any(canonical_form(clique4_sporadic(i)) == form for i in range(1, 5)):
            return 4
    raise TheoremViolation(f"omega = res = {r} outside the characterized set")
