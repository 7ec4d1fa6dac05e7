"""Brute-force oracles that the tests hold the production code against.

Each one works straight off a definition and shares no logic with the
routine it checks: a reachability BFS for connectivity, permutation-minimum
forms against `canonical_form`, a permutation scan for the automorphisms
that `canonical_form` reports, one global ranking of every free vertex per
round against the cell-by-cell refinement of `canon._refine`, raw
edge-subset enumeration against the enumeration engine, the canonical
deletion pre-check on a `Graph`, with the full key for every rival and
its sphere sizes read from the distance matrix, against the one on rows
and degrees, the girth test on the distance
matrix and a degree comparison with every non-cut vertex against the
balls `_joins` takes from the rows loop `graphs._row_layers` and its
degree floor, subset brute force against `clique_number`, the m2 count
on the distance matrix against the sphere kernel on those layers,
`enumeration._most_equidistant`, capped at radius 2, first-fit
colouring vertex by vertex against the class-by-class greedy colouring
of `invariants._colour_classes`, the graph6 reader's triangle decoder
for the rows of the oracles' forms, a subset scan with
`is_resolving_set` against the resolving-set table behind the dimensions, the same table as
numpy arrays, one byte per subset, against the int-bitset table, and the
row-block equidistance kernel on the int32 matrix against the pair-list
kernel on narrow distances, and the values `graphs` reads off its sphere
layers (res, the first maximal pair, its witness set, the diameter, the
spider legs and the pair masks) read straight from the matrix, one pair
at a time, against both distance representations; `test_graphs` holds
the layers themselves against the matrix's spheres.  The spider, the
triangle tripod and the pendant odd cycle grown a vertex at a time, each
by its own loop, are held against the one leg builder of `families`, and
the counting lemma's failures counted on the distance matrix's columns
against those it reads from `non_resolvers`.
"""

from itertools import combinations, permutations, product

import numpy as np

from resnum.canon import CanonicalForm
from resnum.errors import TooLarge
from resnum.graphs import Graph, _bits, distance_matrix, from_edge_list, permute
from resnum.resolve import DimensionReport, ResolvingReport, is_resolving_set
from resnum.serial import _from_triangle

NAIVE_CAP = 6
# most entries in one slab of the row-block equidistance kernel
BLOCK_ENTRIES = 1 << 20


def _reach_mask(g: Graph, start: int) -> int:
    """Bit mask of vertices reachable from start."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    return _reach_mask(g, 0) == (1 << g.n) - 1


def _slot_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    s = 0
    for j in range(1, n):
        for i in range(j):
            idx[(i, j)] = s
            s += 1
    return idx


def triangle_graph(n: int, bits: int) -> Graph:
    """The graph of order n whose graph6 triangle is the int `bits`, slot
    (0,1) most significant, decoded by the graph6 reader's
    `serial._from_triangle`: the rows of an oracle's form."""
    nbits = n * (n - 1) // 2
    raw = np.unpackbits(np.frombuffer(bits.to_bytes((nbits + 7) // 8, "big"), np.uint8))
    return _from_triangle(n, raw[raw.size - nbits:])


def _bits_form(n: int, bits: int) -> CanonicalForm:
    """An oracle's form: its bits and the rows they spell, with no search
    behind it, so no labelling and no generators."""
    return CanonicalForm(n, bits, (), (), triangle_graph(n, bits).adj)


def permutation_min_form(g: Graph) -> CanonicalForm:
    """Minimum adjacency bit string over all n! relabelings.

    Independent of `canonical_form`; still satisfies equal iff isomorphic,
    so it doubles as a brute-force isomorphism oracle at small orders.
    """
    n = g.n
    if n > 8:
        raise TooLarge(f"permutation scan is capped at n <= 8, got {n}")
    if n == 1:
        return _bits_form(1, 0)
    idx = _slot_index(n)
    m = len(idx)
    edges = list(g.edges())
    best = None
    for pi in permutations(range(n)):
        val = 0
        for u, v in edges:
            a, b = pi[u], pi[v]
            s = idx[(a, b) if a < b else (b, a)]
            val |= 1 << (m - 1 - s)
        if best is None or val < best:
            best = val
    return _bits_form(n, best)


def automorphisms_oracle(g: Graph) -> set[tuple[int, ...]]:
    """Every automorphism of g as a map perm[old] = new, by permutation scan.

    An automorphism keeps degrees, so each vertex is sent only within its
    degree class; every such permutation is checked with `permute`.
    """
    n = g.n
    if n > 8:
        raise TooLarge(f"automorphism scan is capped at n <= 8, got {n}")
    classes: dict[int, list[int]] = {}
    for v, d in enumerate(g.degrees()):
        classes.setdefault(d, []).append(v)
    cells = list(classes.values())
    found = set()
    for images in product(*(permutations(cell) for cell in cells)):
        perm = [0] * n
        for cell, image in zip(cells, images):
            for v, w in zip(cell, image):
                perm[v] = w
        if permute(g, perm) == g:
            found.add(tuple(perm))
    return found


def refine_by_global_rank(
    nbrs: list[tuple[int, ...]], colors: list[int], free: list[int], p: int
) -> None:
    """Refine the free colors in place by ranking (color, sorted neighbor
    colors) over all free vertices at once, until the cell count is stable.

    The placed vertices hold 0..p-1 and the free ones enter with color p;
    the free ones are ranked from p upward each round.
    """
    ncells = 1
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in free]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)), p)}
        for v, s in zip(free, sigs):
            colors[v] = rank[s]
        if len(rank) == ncells:
            return
        ncells = len(rank)


def _is_cut(g: Graph, v: int) -> bool:
    """True iff deleting v disconnects g."""
    rest = (1 << g.n) - 1 & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= g.adj[u]
        frontier = nxt & rest & ~seen
        seen |= frontier
    return seen != rest


def joins_oracle(
    g: Graph,
    deg: tuple[int, ...],
    max_degree: int | None,
    min_girth: int | float | None,
    floor: bool = True,
) -> list[tuple[int, ...]]:
    """Every neighbour set S a new vertex may join without breaking a cap,
    given the degrees of g; with `floor`, less each S that some non-cut
    vertex of g beats on its degree in the child: any non-cut vertex when
    S has two or more vertices, and one other than s when S is {s}, whose
    new vertex is a leaf and makes s a cut vertex."""
    free = [v for v in range(g.n) if max_degree is None or deg[v] < max_degree]
    largest = len(free) if max_degree is None else min(max_degree, len(free))
    close = None
    if min_girth is not None and largest > 1:
        close = distance_matrix(g) < min_girth - 2
    deletable = [v for v in range(g.n) if not _is_cut(g, v)]
    return [
        s
        for size in range(1, largest + 1)
        for s in combinations(free, size)
        if close is None or not any(close[a, b] for a, b in combinations(s, 2))
        if not floor or all(deg[v] + (v in s) <= size for v in deletable if size > 1 or v not in s)
    ]


def deletion_ties_oracle(child: Graph) -> list[int] | None:
    """The last vertex and the non-cut vertices tied with it on (degree,
    sorted neighbour degrees, triangles, sphere sizes), or None when a
    non-cut vertex beats it.

    Every vertex of at least its degree gets the full key, whatever its
    degree: the triangles through v counted as the adjacent pairs of its
    neighbours, and |S_r(v)| for r = 2 up to v's eccentricity counted on
    the distance matrix's row.
    """
    w = child.n - 1
    deg = child.degrees()
    dm = distance_matrix(child)

    def key(v: int) -> tuple[int, list[int], int, list[int]]:
        nbrs = list(child.neighbors(v))
        triangles = sum(child.adj[a] >> b & 1 for a, b in combinations(nbrs, 2))
        spheres = [int((dm[v] == r).sum()) for r in range(2, int(dm[v].max()) + 1)]
        return deg[v], sorted(deg[u] for u in nbrs), triangles, spheres

    top = key(w)
    tied = [w]
    for v in range(w):
        if deg[v] < top[0]:
            continue
        k = key(v)
        if k >= top and not _is_cut(child, v):
            if k > top:
                return None
            tied.append(v)
    return tied


def m2_oracle(g: Graph) -> int:
    """The most vertices at distance 1 from both ends of one pair or at
    distance 2 from both, over all pairs; 0 below order 3."""
    dm = distance_matrix(g)
    near = (dm == 1) | (dm == 2)
    best = 0
    for x in range(g.n):
        same = (dm[x + 1:] == dm[x]) & near[x]
        best = max(best, int(same.sum(axis=1).max(initial=0)))
    return best


def naive_enumeration_oracle(n: int) -> frozenset[CanonicalForm]:
    """Every connected class on n vertices from raw edge-subset enumeration."""
    if n > NAIVE_CAP:
        raise TooLarge(f"naive oracle is capped at n <= {NAIVE_CAP}, got {n}")
    if n == 1:
        return frozenset({_bits_form(1, 0)})
    idx = _slot_index(n)
    m = len(idx)
    slots = sorted(idx, key=idx.get)
    # masks use bit (m-1-s) for slot s, so integer order is bit-string order
    connected = []
    for x in range(1 << m):
        rows = [0] * n
        for (i, j), s in idx.items():
            if x >> (m - 1 - s) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        if is_connected(Graph(n, tuple(rows))):
            connected.append(x)
    arr = np.asarray(connected, dtype=np.int64)
    running = arr.copy()
    for pi in permutations(range(n)):
        out = np.zeros_like(arr)
        for (i, j), s in idx.items():
            a, b = pi[i], pi[j]
            s2 = idx[(a, b) if a < b else (b, a)]
            out |= ((arr >> (m - 1 - s)) & 1) << (m - 1 - s2)
        np.minimum(running, out, out=running)
    forms = {_bits_form(n, v) for v in set(running.tolist())}
    return frozenset(forms)


def clique_number_oracle(g: Graph) -> int:
    """Subset brute force, for cross-checking at small orders."""
    for k in range(g.n, 1, -1):
        for s in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(s, 2)):
                return k
    return 1


def first_fit_classes(g: Graph, cand: int) -> list[int]:
    """The candidates coloured one vertex at a time in increasing order,
    each with the least colour no earlier neighbour holds, as one bit mask
    per colour, colours rising."""
    colour = {}
    for v in range(g.n):
        if cand >> v & 1:
            taken = {colour[u] for u in colour if g.has_edge(u, v)}
            colour[v] = next(c for c in range(len(taken) + 1) if c not in taken)
    classes = [0] * len(set(colour.values()))
    for v, c in colour.items():
        classes[c] |= 1 << v
    return classes


def subset_scan_dimensions(g: Graph) -> tuple:
    """(dim, min witness, updim, max minimal witness, res) over all nonempty subsets.

    Subsets are visited by increasing bit mask, so each witness is the
    lowest mask of its kind.  A set is minimal when no nonempty proper
    subset resolves; res is the least k whose k-subsets all resolve.
    """
    masks = range(1, 1 << g.n)

    def members(mask):
        return tuple(v for v in range(g.n) if mask >> v & 1)

    resolving = {m for m in masks if is_resolving_set(g, members(m))[0]}
    minimal = {
        m for m in resolving
        if not any(s in resolving for s in masks if s != m and s & m == s)
    }
    dim = min(bin(m).count("1") for m in resolving)
    updim = max(bin(m).count("1") for m in minimal)
    res = min(
        k for k in range(1, g.n + 1)
        if all(m in resolving for m in masks if bin(m).count("1") == k)
    )
    return (
        dim,
        members(min(m for m in resolving if bin(m).count("1") == dim)),
        updim,
        members(min(m for m in minimal if bin(m).count("1") == updim)),
        res,
    )


def dimension_table_oracle(g: Graph, pair_masks=None) -> DimensionReport:
    """dim, updim and the lowest-mask witnesses from a 2^n table of numpy
    arrays, indexed by subset mask.  The pair masks are computed one pair
    at a time unless given.

    Each pair's non-resolver mask is marked bad, and the marks are closed
    downward one vertex at a time over `reshape(-1, 2, 1 << v)` views,
    whose [:, 1] half holds the masks with bit v and [:, 0] the same masks
    without it.  A good set is minimal when each single-vertex deletion is
    bad.
    """
    n = g.n
    if n == 1:
        return DimensionReport(1, 1, (0,), (0,))
    dm = distance_matrix(g)
    weights = 1 << np.arange(n, dtype=np.int64)
    if pair_masks is None:
        pair_masks = [
            int((dm[x] == dm[y]) @ weights) for x in range(n) for y in range(x + 1, n)
        ]
    bad = np.zeros(1 << n, dtype=bool)
    bad[pair_masks] = True
    popcount = np.zeros(1 << n, dtype=np.int8)
    for v in range(n):
        bad_v = bad.reshape(-1, 2, 1 << v)
        bad_v[:, 0] |= bad_v[:, 1]
        popcount.reshape(-1, 2, 1 << v)[:, 1] += 1
    good = ~bad
    minimal = good.copy()
    for v in range(n):
        minimal.reshape(-1, 2, 1 << v)[:, 1] &= bad.reshape(-1, 2, 1 << v)[:, 0]
    dim = int(popcount[good].min())
    updim = int(popcount[minimal].max())

    def members(mask):
        return tuple(v for v in range(n) if int(mask) >> v & 1)

    return DimensionReport(
        dim,
        updim,
        members(np.flatnonzero(good & (popcount == dim))[0]),
        members(np.flatnonzero(minimal & (popcount == updim))[0]),
    )


def distance_oracle(g: Graph) -> tuple[ResolvingReport, int, tuple[int, ...] | None, list[int]]:
    """The resolving report, the diameter, the spider legs and the pair
    masks in row-major pair order, read from `distance_matrix(g)`.

    Each pair's mask is the set of vertices with equal entries in its two
    rows.  The report takes the first pair of the most equidistant
    vertices.  A spider is a tree whose only vertex of degree over 2 has
    degree 3, and its legs are its leaves' distances from that vertex.
    """
    n = g.n
    dm = distance_matrix(g).tolist()
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    masks = [sum(1 << v for v in range(n) if dm[x][v] == dm[y][v]) for x, y in pairs]
    report = ResolvingReport(1, None, frozenset())
    for (x, y), mask in zip(pairs, masks):
        if mask.bit_count() + 1 > report.res or report.witness_pair is None:
            report = ResolvingReport(
                mask.bit_count() + 1, (x, y), frozenset(v for v in range(n) if mask >> v & 1)
            )
    degs = g.degrees()
    spider = None
    if g.m == n - 1 and sorted(d for d in degs if d > 2) == [3]:
        centre = degs.index(3)
        spider = tuple(sorted(dm[centre][v] for v in range(n) if degs[v] == 1))
    return report, max(map(max, dm)), spider, masks


def _blocks(n: int):
    """Row ranges [lo, hi) whose slabs hold at most BLOCK_ENTRIES entries."""
    step = max(1, BLOCK_ENTRIES // (n * n))
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def _equidistant(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """`slab[x - lo, y - lo]` marks the vertices that fail to resolve {x, y}."""
    return a[lo:hi, None, :] == a[None, lo:, :]


def equidistance_blocks_oracle(dm: np.ndarray) -> tuple[ResolvingReport, list[int] | None]:
    """The resolving report and, up to order 62, the pair masks in row-major
    pair order, from row blocks of the int32 distance matrix.

    Rows lo..hi-1 are compared with every row from lo on, so each pair
    x < y sits in the block of row x; a triangle mask drops the pairs
    y <= x.  The first argmax of each block is its smallest pair, and a
    later block wins only with a strictly larger count.
    """
    n = len(dm)
    if n == 1:
        return ResolvingReport(1, None, frozenset()), []
    best = -1
    for lo, hi in _blocks(n):
        slab = _equidistant(dm, lo, hi)
        eq = slab.view(np.uint8).sum(axis=2, dtype=np.int32)
        eq[np.arange(lo, n) <= np.arange(lo, hi)[:, None]] = -1
        i, j = divmod(int(np.argmax(eq)), n - lo)
        if int(eq[i, j]) > best:
            best = int(eq[i, j])
            best_pair = (lo + i, lo + j)
            witness = slab[i, j].copy()
    report = ResolvingReport(
        best + 1, best_pair, frozenset(np.flatnonzero(witness).tolist())
    )
    if n > 62:
        return report, None
    weights = 1 << np.arange(n, dtype=np.int64)
    above = np.arange(n) > np.arange(n)[:, None]
    pair_masks = np.concatenate(
        [(_equidistant(dm, lo, hi) @ weights)[above[lo:hi, lo:]] for lo, hi in _blocks(n)]
    ).tolist()
    return report, pair_masks


def spider_oracle(a: int, b: int, c: int) -> Graph:
    """Three paths with a, b, c edges glued at centre 0, each leg grown a
    vertex at a time, numbered on from the last."""
    edges = []
    nxt = 1
    for leg in (a, b, c):
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return from_edge_list(a + b + c + 1, edges)


def triangle_tripod_oracle(r: int) -> Graph:
    """Triangle 0, 1, 2 with a path of r-2 edges grown on each corner in
    turn, a vertex at a time."""
    edges = [(0, 1), (1, 2), (0, 2)]
    nxt = 3
    for corner in range(3):
        prev = corner
        for _ in range(r - 2):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return from_edge_list(3 * (r - 1), edges)


def pendant_odd_cycle_oracle(a: int) -> Graph:
    """The cycle 0..2a in order plus the leaf 2a+1 on vertex 0."""
    n = 2 * a + 1
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges.append((0, n))
    return from_edge_list(n + 1, edges)


def lemma_failures_oracle(g: Graph, pairs: list[tuple[int, int]]) -> np.ndarray:
    """`fails[u]`, how many of the pairs x < y vertex u leaves unresolved,
    from columns x and y of the distance matrix; raises Disconnected as
    `distance_matrix` does, whatever the pairs."""
    dm = distance_matrix(g)
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    return np.count_nonzero(dm[:, xs] == dm[:, ys], axis=1)
