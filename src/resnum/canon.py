"""Exact canonical labeling for graphs of order at most 16.

The search places vertices one position at a time, keeping the
lexicographically least upper-triangle adjacency bit string over every
labeling it explores.  Iterated neighborhood refinement (re-run after each
placement) confines candidates to one invariant cell, interchangeable
twins collapse to a single branch, and prefixes worse than the best string
found so far are cut.  Neighbor lists are built once per call.  The placed
vertices hold unique colors that sort first and never move; the free ones
form an ordered list of cells, and each round splits only the cells of two
or more vertices, by sorted neighbor colors, keeping the groups in key
order.  Each placement refines again from the two cells placed and free:
the order of the cells picks the branching cell and so fixes the
labelling, and the parent's cells refined onward come out in another
order.  Most placements are forced: round one already splits off one
vertex as the least cell, and since cells only nest and a one-vertex cell
never splits, that vertex is the branch.  `_leader` finds it from the
adjacency masks, and `_refine` runs only when round one's least cell is
not a single vertex.  Two graphs receive equal forms iff they are
isomorphic; the permutation oracle in the tests pins that down at small
orders.

The form also carries what the search finds on the way: the labelling of
the first leaf that reaches the best string, and generators of the
automorphism group in canonical positions.  Each later leaf that ties the
best string gives one generator, and each twin swap whose branch was
skipped gives a transposition unless earlier swaps already join its two
vertices.  Together they generate the whole group: the automorphisms map
the first best leaf one-to-one onto the leaves of the unpruned search
tree that tie it.  Pruning drops no such leaf, since it cuts only
strictly worse prefixes, and a leaf under a skipped twin branch is the
image, under that twin swap, of a leaf under the explored branch.  A
swap left out is a product of kept ones, since the transpositions along
a spanning tree generate every transposition of its vertices.  So every
tied leaf is a product of recorded generators applied to the first one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TooLarge
from .graphs import Graph, _bits
from .serial import triangle_graph

CANONICAL_CAP = 16


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
    labelling: tuple[int, ...] = field(default=(), compare=False, repr=False)
    # position maps of automorphisms of to_graph() that generate its group
    generators: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False, repr=False
    )

    def to_graph(self) -> Graph:
        """Rebuild the canonically labeled graph."""
        return triangle_graph(self.n, self.bits)


def _refine(
    nbrs: list[tuple[int, ...]], colors: list[int], free: list[int], p: int
) -> list[list[int]]:
    """Split the free vertices, entering as the one cell [free] of color p,
    until a round splits no cell; return the cells, cell i of color p + i.

    Signatures read the previous round's colors: a round writes its
    colors only once every cell is split.
    """
    color_of = colors.__getitem__
    cells = [free]
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
    """The vertex round one of `_refine` splits off alone as the least cell,
    or None if that cell has two or more vertices.

    Round one keys a free vertex by its sorted placed-neighbour positions,
    then the free color len(placed) once per free neighbour, so the least
    key is read from masks: walking the placed vertices in order, a vertex
    adjacent to the next one sorts before one that is not, unless the
    latter's key has ended.  Cells only nest and a one-vertex cell never
    splits, so the vertex is the final `cells[0]`.
    """
    cell, done = free, 0
    for u in placed:
        done |= 1 << u
        w = cell & adj[u]
        if w and w != cell:
            # a key with no placed neighbour to come and no free one has
            # ended, and a shorter key sorts first
            ended = 0
            for v in _bits(cell ^ w):
                if not adj[v] & ~done:
                    ended |= 1 << v
            cell = ended or w
            if not cell & (cell - 1):
                return cell.bit_length() - 1
    # the keys left differ only in their count of free neighbours
    leader, fewest = None, len(adj)
    for v in _bits(cell):
        k = (adj[v] & free).bit_count()
        if k < fewest:
            leader, fewest = v, k
        elif k == fewest:
            leader = None
    return leader


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    # swapping u and v is an automorphism iff they agree off each other
    return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of g; exact for n <= 16, TooLarge above."""
    n = g.n
    if n > CANONICAL_CAP:
        raise TooLarge(f"canonical form is capped at n <= {CANONICAL_CAP}, got {n}")
    if n == 1:
        return CanonicalForm(1, 0, (0,))
    adj = g.adj
    nbrs = [tuple(_bits(row)) for row in adj]
    everyone = (1 << n) - 1
    # best[i] holds the i+1 adjacency bits of placement position i+1,
    # most significant bit toward position 0; list order is string order.
    best: list[int] | None = None
    first: list[int] = []  # placement order of the first leaf reaching best
    ties: list[list[int]] = []  # placement orders of later leaves equal to best
    swaps: list[tuple[int, int]] = []  # twins whose swap is an automorphism
    joined = list(range(n))  # union-find over the kept swaps

    def root(v: int) -> int:
        while joined[v] != v:
            joined[v] = v = joined[joined[v]]
        return v

    def search(placed: list[int], rows: list[int]) -> None:
        nonlocal best, first, ties
        p = len(placed)
        if p == n:
            if best is None or rows < best:
                best, first, ties = rows, placed, []
            elif rows == best:
                ties.append(placed)
            return
        free = everyone
        for v in placed:
            free ^= 1 << v
        # branch on the first cell; a one-vertex cell has one candidate
        leader = _leader(adj, placed, free)
        if leader is None:
            colors = [p] * n
            for i, v in enumerate(placed):
                colors[v] = i
            cell = _refine(nbrs, colors, list(_bits(free)), p)[0]
        else:
            cell = [leader]
        cands = []
        for v in cell:
            r = 0
            for u in placed:
                r = r << 1 | (adj[v] >> u & 1)
            cands.append((r, v))
        reps = cands  # a lone candidate has no twin to skip
        if len(cands) > 1:
            cands.sort()
            reps = []
            for r, v in cands:
                twin = next((v2 for r2, v2 in reps if r == r2 and _twins(adj, v, v2)), None)
                if twin is None:
                    reps.append((r, v))
                elif root(twin) != root(v):
                    # a spanning forest of swaps generates the same group
                    joined[root(twin)] = root(v)
                    swaps.append((twin, v))
        for r, v in reps:
            new_rows = rows + [r] if p else rows
            if p and best is not None and new_rows > best[: len(new_rows)]:
                continue
            search(placed + [v], new_rows)

    search([], [])
    assert best is not None
    bits = 0
    for i, r in enumerate(best):
        bits = bits << (i + 1) | r
    labelling = [0] * n
    for i, v in enumerate(first):
        labelling[v] = i
    generators = []
    for leaf in ties:
        at = [0] * n
        for i, v in enumerate(leaf):
            at[v] = i
        generators.append(tuple(at[v] for v in first))
    for a, b in sorted(swaps):
        swap = list(range(n))
        swap[labelling[a]], swap[labelling[b]] = labelling[b], labelling[a]
        generators.append(tuple(swap))
    return CanonicalForm(n, bits, tuple(labelling), tuple(generators))
