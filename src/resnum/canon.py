"""Exact canonical labeling for graphs of order at most 16.

The search places vertices one position at a time, keeping the
lexicographically least upper-triangle adjacency bit string over every
labeling it explores and cutting each prefix worse than the best string
found so far.  Neighbor lists are built once per call; the shifts the
cut reads are tabled per order at import.  The placed vertices hold
unique colors that sort first and never move; the free ones form an
ordered list of cells, and each round of refinement splits only the
cells of two or more vertices, by sorted neighbor colors, keeping the
groups in key order.  At the root, with nothing placed, round one's keys
are the degrees, so it buckets the vertices by degree and sorts no
neighbor key.  Each placement refines again from the two cells placed
and free: the order of the cells picks the first cell and so fixes the
labelling, and the parent's cells refined onward come out in another
order.

One loop places the vertices, each step in the first cell.  Mostly that
is round one's least cell, one vertex or a class of twins: cells only
nest and neither ever splits (an automorphism fixing the placed vertices
swaps two twins), so `_leader` reads it from the adjacency masks, and
`_refine` runs only when round one leaves another least cell.  A cell
has one row to the placed vertices, each of its own color, so a step
extends the string and cuts on it once.  Twins in the cell collapse to
one vertex; a step left with one places it and goes on, and only a step
left with more branches.  Two graphs receive equal forms iff they are
isomorphic; the permutation oracle in the tests pins that down at small
orders.  The form's bits are the graph6 triangle, and the form carries
the canonical adjacency rows too, written from the labelling in one pass
over the neighbour lists, so `CanonicalForm.to_graph` decodes nothing.

The search also prunes by the automorphisms it finds (the orbit pruning
of McKay and Piperno, *Practical graph isomorphism II*, 2014), kept as
vertex maps, each with the mask of the vertices it fixes: each later leaf
that ties the best string gives the map from the first best leaf onto
it, and each twin swap whose branch was skipped gives a transposition,
fixing all but its two vertices, unless earlier swaps already join them.
A candidate in the orbit of an explored sibling, under the maps found so
far that fix the placed vertices, is skipped; and a tied leaf sends the
search straight back to the node where its path left the first leaf's,
since its map fixes the prefix there and sends the subtree explored first
onto the current one.  Refinement commutes with automorphisms, so a
subtree skipped either way is the image of an earlier one under a product
of kept maps, and its leaves repeat strings already seen: the best string
and the first leaf reaching it do not move.

The form carries the labelling of that first leaf and every map found,
written in canonical positions.  They generate the whole group: the
automorphisms map the first best leaf one-to-one onto the leaves of the
unpruned search tree that tie it.  The prefix cut drops no such leaf,
since it cuts only strictly worse prefixes.  A tied leaf is reached, or
lies under a skipped twin branch, a skipped orbit or a jumped subtree,
and is then the image of an earlier tied leaf under a product of kept
maps; a swap left out is a product of kept ones, since the
transpositions along a spanning tree generate every transposition of its
vertices.  By induction in search order, every tied leaf is a product of
kept maps applied to the first one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import TooLarge
from .graphs import Graph, _positions

CANONICAL_CAP = 16
# _SHIFTS[n][p]: the triangle bits of n vertices past the first p + 1, so a
# string of p + 1 placed vertices compares with best >> _SHIFTS[n][p]
_SHIFTS = [
    [n * (n - 1) // 2 - (p + 1) * p // 2 for p in range(n)] for n in range(CANONICAL_CAP + 1)
]


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Upper-triangle adjacency bits of the canonical labeling.

    `bits` is the column-wise triangle as one int, slot (0,1) most
    significant, then (0,2), (1,2), (0,3), (1,3), (2,3), ...: the bit
    order of graph6.  Equal orders mean equal lengths, so comparing the
    ints compares the bit strings.
    """

    n: int
    bits: int
    # labelling[v] is the canonical position of input vertex v
    labelling: tuple[int, ...] = field(compare=False, repr=False)
    # position maps of automorphisms of to_graph() that generate its group
    generators: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    # adjacency rows of the canonically labeled graph, whose triangle is `bits`
    rows: tuple[int, ...] = field(compare=False, repr=False)

    def to_graph(self) -> Graph:
        """The canonically labeled graph, built on the rows the search wrote."""
        return Graph(self.n, self.rows)


def _refine(
    nbrs: list[tuple[int, ...]], colors: list[int], free: list[int], p: int
) -> list[list[int]]:
    """Split the free vertices, entering as the one cell [free] of color p,
    until a round splits no cell; return the cells, cell i of color p + i.

    Signatures read the previous round's colors: a round writes its
    colors only once every cell is split.  At the root, p = 0, every
    round-one key is (0,) * degree, so round one is a bucketing by degree.
    """
    color_of = colors.__getitem__
    cells = [free]
    if not p:
        by_degree: dict[int, list[int]] = {}
        for v in free:
            by_degree.setdefault(len(nbrs[v]), []).append(v)
        if len(by_degree) == 1:
            return cells
        cells = [by_degree[d] for d in sorted(by_degree)]
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c
    while True:
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                groups.setdefault(tuple(sorted(map(color_of, nbrs[v]))), []).append(v)
            split += [groups[key] for key in sorted(groups)]
        if len(split) == len(cells):
            return cells
        cells = split
        for c, cell in enumerate(cells, p):
            for v in cell:
                colors[v] = c


def _leader(adj: tuple[int, ...], placed: list[int], free: int) -> int | None:
    """Round one's least cell of `_refine`, as a mask, when no later round
    can split it: one vertex or a class of twins; else None.

    Round one keys a free vertex by its sorted placed-neighbour positions,
    then the free color len(placed) once per free neighbour, so the least
    key is read from masks: walking the placed vertices in order, a vertex
    adjacent to the next one sorts before one that is not, unless the
    latter's key has ended.  Cells only nest, a one-vertex cell never
    splits, and neither do twins, which an automorphism fixing the placed
    vertices swaps, so the cell is the final `cells[0]`.
    """
    if not free & (free - 1):
        return free
    cell, done = free, 0
    for u in placed:
        done |= 1 << u
        w = cell & adj[u]
        if w and w != cell:
            # a key with no placed neighbour to come and no free one has
            # ended, and a shorter key sorts first
            ended = 0
            for v in _positions[cell ^ w]:
                if not adj[v] & ~done:
                    ended |= 1 << v
            cell = ended or w
            if not cell & (cell - 1):
                return cell
    # the keys left differ only in their count of free neighbours
    least, fewest = 0, len(adj)
    for v in _positions[cell]:
        k = (adj[v] & free).bit_count()
        if k < fewest:
            least, fewest = 1 << v, k
        elif k == fewest:
            least |= 1 << v
    v = least.bit_length() - 1
    if all(_twins(adj, v, u) for u in _positions[least ^ 1 << v]):
        return least
    return None


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    # swapping u and v is an automorphism iff they agree off each other
    return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)


def _orbits(mask: int, perms: Sequence[tuple[int, ...]]) -> int:
    """The union of the orbits of the vertices in mask under the group perms generate."""
    todo = mask
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo ^= 1 << v
        for perm in perms:
            w = perm[v]
            if not mask >> w & 1:
                mask |= 1 << w
                todo |= 1 << w
    return mask


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of g; exact for n <= 16, TooLarge above."""
    n = g.n
    if n > CANONICAL_CAP:
        raise TooLarge(f"canonical form is capped at n <= {CANONICAL_CAP}, got {n}")
    if n == 1:
        return CanonicalForm(1, 0, (0,), (), (0,))
    adj = g.adj
    nbrs = [_positions[row] for row in adj]
    # the string of p placed vertices is their p(p-1)/2 triangle bits as one
    # int, position 0 first; best starts above every string of n vertices
    shift = _SHIFTS[n]
    best = 1 << n * (n - 1) // 2
    first: list[int] = []  # placement order of the first leaf reaching best
    autos: list[tuple[tuple[int, ...], int]] = []  # (vertex map, fixed-vertex mask)
    joined = list(range(n))  # union-find over the kept swaps
    everyone = (1 << n) - 1
    placed: list[int] = []

    def root(v: int) -> int:
        while joined[v] != v:
            joined[v] = v = joined[joined[v]]
        return v

    def keep(image: list[int]) -> None:
        fixed = 0
        for v, w in enumerate(image):
            if v == w:
                fixed |= 1 << v
        autos.append((tuple(image), fixed))

    def swap(a: int, b: int) -> None:
        # a spanning forest of twin swaps generates the same group
        if root(a) != root(b):
            joined[root(a)] = root(b)
            image = list(range(n))
            image[a], image[b] = b, a
            autos.append((tuple(image), everyone ^ (1 << a | 1 << b)))

    def row(v: int) -> int:
        # v's adjacency to the placed vertices, position 0 most significant
        r = 0
        for u in placed:
            r = r << 1 | (adj[v] >> u & 1)
        return r

    def search(s: int, free: int) -> int:
        """Explore below `placed`, holding string s and free mask free; return
        the depth to resume at: a caller branching at depth p passes on a
        depth below p, which only a tied leaf returns, and else goes on."""
        top = len(placed)
        back = n
        while free:
            p = len(placed)
            # `_leader`'s cell, whose lowest vertex stands for its twins, or
            # else the first cell refined, one vertex kept per class of twins
            cell = _leader(adj, placed, free)
            if cell is None:
                colors = [p] * n
                for i, v in enumerate(placed):
                    colors[v] = i
                reps: list[int] = []
                for v in _refine(nbrs, colors, list(_positions[free]), p)[0]:
                    twin = next((u for u in reps if _twins(adj, v, u)), None)
                    if twin is None:
                        reps.append(v)
                    else:
                        swap(twin, v)
            else:
                reps = [(cell & -cell).bit_length() - 1]
                for u in _positions[cell ^ 1 << reps[0]]:
                    swap(reps[0], u)
            s = s << p | row(reps[0])  # the row of every vertex of the cell
            if s > best >> shift[p]:
                break
            if len(reps) == 1:
                placed.append(reps[0])
                free ^= 1 << reps[0]
                continue
            prefix = everyone ^ free
            seen = 0  # explored vertices and their images under `autos` fixing placed
            for v in reps:
                if seen >> v & 1:
                    continue
                placed.append(v)
                back = search(s, free ^ 1 << v)
                placed.pop()
                if back < p:
                    break
                seen = _orbits(seen | 1 << v, [a for a, fixed in autos if prefix & ~fixed == 0])
            break
        else:
            back = leaf(s)
        del placed[top:]
        return back

    def leaf(s: int) -> int:
        nonlocal best, first
        if s < best:
            best, first = s, placed.copy()
            return n
        # a tie: first -> placed is an automorphism fixing their common
        # prefix, which maps the subtree first left there onto this one
        image = list(range(n))
        k = -1
        for i, (u, v) in enumerate(zip(first, placed)):
            image[u] = v
            if k < 0 and u != v:
                k = i
        keep(image)
        return k

    search(0, everyone)
    labelling = [0] * n
    for i, v in enumerate(first):
        labelling[v] = i
    generators = tuple([tuple([labelling[a[v]] for v in first]) for a, _ in autos])
    rows = [0] * n
    for v, vs in enumerate(nbrs):
        row = 0
        for u in vs:
            row |= 1 << labelling[u]
        rows[labelling[v]] = row
    return CanonicalForm(n, best, tuple(labelling), generators, tuple(rows))
