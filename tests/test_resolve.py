"""Resolving number, metric dimension, upper dimension.

The pair-count scan is the production path; the subset-scan oracle
reimplements the definition and anchors it.  Unit tests here stay at
orders where the oracle is instant; the full 996-class sweep lives in
the acceptance suite.
"""

import random
import weakref
from itertools import combinations

import pytest

from resnum import graphs
from resnum.errors import DegeneratePair, IndexOutOfRange, TooLarge
from resnum.graphs import (
    Graph,
    _bits,
    diameter,
    distance_matrix,
    from_edge_list,
    pair_masks,
    permute,
)
from resnum.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from resnum.invariants import spider_signature
from resnum import resolve
from resnum.resolve import (
    DimensionReport,
    _dimensions,
    is_resolving_set,
    metric_dimension,
    non_resolvers,
    resolving_number,
    resolving_number_oracle,
    upper_dimension,
)

from oracles import (
    dimension_table_oracle,
    distance_oracle,
    equidistance_blocks_oracle,
    subset_scan_dimensions,
)


@pytest.mark.parametrize(
    "g,expected",
    [
        (path_graph(1), 1),
        (path_graph(2), 1),
        (path_graph(3), 2),
        (path_graph(9), 2),
        (cycle_graph(5), 2),
        (cycle_graph(6), 3),
        (complete_graph(2), 1),
        (complete_graph(5), 4),
        (star_graph(4), 4),
    ],
)
def test_small_family_values(g, expected):
    assert resolving_number(g).res == expected
    assert resolving_number_oracle(g) == expected


def test_scan_matches_oracle_up_to_order_six(connected_by_order):
    for n in range(1, 7):
        for g in connected_by_order[n]:
            assert resolving_number(g).res == resolving_number_oracle(g)


def test_invariant_under_relabeling():
    rng = random.Random(7)
    g = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (1, 5)])
    base = resolving_number(g).res
    for _ in range(10):
        perm = list(range(7))
        rng.shuffle(perm)
        assert resolving_number(permute(g, perm)).res == base


def test_witness_pair_is_maximal_and_set_fails():
    g = cycle_graph(6)
    rep = resolving_number(g)
    # the report's witness set comes from non_resolvers' own helper, so the
    # oracle reads it off the matrix instead
    assert rep == distance_oracle(g)[0]
    assert len(rep.witness_nonresolving_set) == rep.res - 1
    ok, unresolved = is_resolving_set(g, rep.witness_nonresolving_set)
    assert not ok and unresolved is not None


def test_single_vertex_report():
    rep = resolving_number(path_graph(1))
    assert rep.res == 1
    assert rep.witness_pair is None
    assert rep.witness_nonresolving_set == frozenset()


def test_non_resolvers_excludes_the_pair():
    g = cycle_graph(5)
    for x in range(4):
        for y in range(x + 1, 5):
            r = non_resolvers(g, (x, y))
            assert x not in r and y not in r


def test_non_resolvers_validates_pair():
    g = path_graph(4)
    with pytest.raises(DegeneratePair):
        non_resolvers(g, (2, 2))
    with pytest.raises(IndexOutOfRange):
        non_resolvers(g, (0, 9))
    for pair in ((0,), (0, 1, 2)):
        with pytest.raises(DegeneratePair):
            non_resolvers(g, pair)


def test_is_resolving_set_basics():
    g = path_graph(5)
    assert is_resolving_set(g, {0})[0]
    assert is_resolving_set(g, {4})[0]
    ok, pair = is_resolving_set(g, {2})  # middle vertex sees the ends alike
    assert not ok and pair == (0, 4)
    assert is_resolving_set(g, set()) == (False, (0, 1))


def test_dimension_reports():
    rep = metric_dimension(cycle_graph(6))
    assert rep.dim == 2
    assert len(rep.witness_min_set) == 2

    rep = upper_dimension(cycle_graph(6))
    assert rep.dim == 2
    assert rep.updim == 2

    # K4: every pair resolves, every singleton fails
    rep = upper_dimension(complete_graph(4))
    assert (rep.dim, rep.updim) == (3, 3)

    rep = upper_dimension(path_graph(1))
    assert (rep.dim, rep.updim) == (1, 1)


def test_dimensions_match_subset_scan(connected_by_order):
    graphs = [g for n in range(1, 7) for g in connected_by_order[n]]
    graphs += [cycle_graph(6), complete_graph(4), path_graph(1)]
    for g in graphs:
        dim, min_set, updim, max_set, res = subset_scan_dimensions(g)
        assert metric_dimension(g) == DimensionReport(dim=dim, witness_min_set=min_set)
        assert upper_dimension(g) == DimensionReport(dim, updim, min_set, max_set)
        assert resolving_number(g).res == res
        # g holds its matrix by now; a fresh equal graph builds its own
        fresh = Graph(g.n, g.adj)
        assert metric_dimension(fresh) == metric_dimension(g)
        assert upper_dimension(fresh) == upper_dimension(g)


def _random_connected(n, rng, p):
    """A random spanning tree (a tree when p = 0) plus each other edge with
    probability p."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return from_edge_list(n, sorted(edges))


def test_dimensions_match_the_numpy_table_oracle(connected_by_order):
    rng = random.Random(2013)
    graphs = [g for n in range(1, 8) for g in connected_by_order[n]]
    for n in range(8, 17):
        graphs += [_random_connected(n, rng, p) for p in (0.0, 0.0, 0.15, 0.3, 0.6)]
        graphs += [cycle_graph(n), complete_graph(n), path_graph(n), star_graph(n - 1)]
    for g in graphs:
        assert _dimensions(g) == dimension_table_oracle(g)


def test_both_routines_read_the_table_up_to_the_cap():
    rng = random.Random(1316)
    graphs = [f(n) for f in (cycle_graph, path_graph) for n in range(13, 17)]
    graphs += [_random_connected(n, rng, p) for n in range(13, 17) for p in (0.0, 0.2, 0.5)]
    for g in graphs:
        table = dimension_table_oracle(g)
        assert upper_dimension(g) == table
        dim = metric_dimension(g)
        assert (dim.dim, dim.witness_min_set) == (table.dim, table.witness_min_set)


@pytest.mark.parametrize("n", range(1, 11))
def test_subset_masks_bit_by_bit(n):
    full, without, size = resolve._subset_masks(n)
    assert full == (1 << (1 << n)) - 1
    assert len(without) == n and len(size) == n + 1
    for s in range(1 << n):
        for k in range(n + 1):
            assert (size[k] >> s & 1) == (bin(s).count("1") == k)
        for v in range(n):
            assert (without[v] >> s & 1) == (not s >> v & 1)
    assert all(mask >> (1 << n) == 0 for mask in without + size)


def test_chain_holds_on_all_small_classes(connected_by_order):
    for n in range(2, 8):
        for g in connected_by_order[n]:
            dim = metric_dimension(g).dim
            updim = upper_dimension(g).updim
            res = resolving_number(g).res
            assert 1 <= dim <= updim <= res <= g.n - 1


def test_caps_raise():
    big = path_graph(17)
    with pytest.raises(TooLarge):
        metric_dimension(big)
    with pytest.raises(TooLarge):
        upper_dimension(big)
    with pytest.raises(TooLarge):
        resolving_number_oracle(path_graph(13))


def test_one_row_slabs_give_the_same_results(connected_by_order, monkeypatch):
    # the slabs scan the matrix past the sphere cap, from order 65 on
    gs = [g for n in range(2, 8) for g in connected_by_order[n]]
    gs += _seeded_by_order((65, 66))

    def results():
        out = []
        # fresh graphs, so the counts kept on the first ones are not read back
        for g in (Graph(g.n, g.adj) for g in gs):
            rep = resolving_number(g)
            pairs = [non_resolvers(g, (x, y)) for x in range(g.n) for y in range(x + 1, g.n)]
            out.append((rep, pairs, _dimensions(g) if g.n <= 16 else None))
        return out

    whole = results()
    monkeypatch.setattr(graphs, "SLAB_ENTRIES", 1)
    assert results() == whole


def test_pair_kernel_matches_the_block_oracle(connected_by_order):
    rng = random.Random(16)
    graphs = [g for n in range(1, 8) for g in connected_by_order[n]]
    graphs += [_random_connected(n, rng, p) for n in range(8, 13) for p in (0.0, 0.3)]
    graphs += [
        _random_connected(rng.randint(20, 62), rng, p)
        for p in (0.0, 0.02, 0.05, 0.1, 0.3, 0.6)
        for _ in range(3)
    ]
    # past order 256 distances no longer fit a byte
    for n in (255, 256, 257, 300):
        graphs += [path_graph(n), cycle_graph(n), _random_connected(n, rng, 0.01)]
    for g in graphs:
        dm = distance_matrix(g)
        report, pair_masks = equidistance_blocks_oracle(dm)
        assert resolving_number(g) == report
        if g.n <= 12:
            assert _dimensions(g) == dimension_table_oracle(g, pair_masks)


def _record_slabs(monkeypatch):
    """Wrap the kernel; return the bytes of each of its row gathers, as many
    as its slab's entries times the bytes of a distance, and, for each slab,
    how many earlier ones were still alive when it was made."""
    sizes, live, refs = [], [], []
    kernel = graphs._equidistant

    def recorded(narrow, xs, ys):
        live.append(sum(ref() is not None for ref in refs))
        slab = kernel(narrow, xs, ys)
        sizes.append(slab.size * narrow.itemsize)
        refs.append(weakref.ref(slab))
        return slab

    monkeypatch.setattr(graphs, "_equidistant", recorded)
    return sizes, live


def test_no_slab_exceeds_the_budget(monkeypatch):
    sizes, live = _record_slabs(monkeypatch)
    rep = resolving_number(path_graph(800))
    assert rep.res == 2 and rep.witness_pair == (0, 2)
    assert len(sizes) > 1 and max(sizes) <= graphs.SLAB_ENTRIES
    # each slab is dropped once its counts are summed, before the next is
    # made, and the witness compares two matrix rows instead of keeping one
    assert max(live) == 0


def test_each_pair_is_compared_once(monkeypatch):
    sizes, _ = _record_slabs(monkeypatch)
    # K65, the least complete graph past the sphere cap
    resolving_number(complete_graph(65))
    # n one-byte entries for each of the n(n - 1)/2 pairs, where row blocks
    # compared n^3
    assert sum(sizes) == 65 * (65 * 64 // 2) == 135_200


def _seeded_by_order(orders, seed=17):
    """Three seeded connected graphs of each order: a tree and two denser."""
    rng = random.Random(seed)
    return [_random_connected(n, rng, p) for n in orders for p in (0.0, 0.2, 0.5)]


def test_both_distance_representations_match_the_matrix_oracle(
    connected_by_order, trees_by_order, constrained_by_order
):
    gs = [g for n in range(1, 8) for g in connected_by_order[n]]
    gs += [g for n in range(8, 13) for g in trees_by_order[n]]
    gs += [g for n in (8, 9, 10) for g in constrained_by_order[n]]
    # the spheres grow on the rows up to order 16 and by the numpy ball
    # step past it; orders 63 to 65, past graph6, come as edge lists, and
    # order 65 is past the sphere cap, where the library reads the matrix
    gs += _seeded_by_order([*range(2, 21), 40, 62, 63, 64, 65, 66])
    for g in gs:
        report, diam, spider, masks = distance_oracle(g)
        assert resolving_number(g) == report
        assert (diameter(g), spider_signature(g)) == (diam, spider)
        kept = pair_masks(g)
        assert (kept is None) == (g.n > 64)
        if kept is not None:
            assert kept.tolist() == masks and not kept.flags.writeable


def test_non_resolvers_read_the_kept_masks_up_to_the_cap(count_calls):
    # both ways of growing the spheres, on the rows up to order 16 and by
    # the ball step past it, and no matrix beside them; the masks are held
    # against the matrix oracle above, so each pair must find its own here
    gs = _seeded_by_order(range(2, 65))
    bfs_runs = count_calls(graphs, "_all_pairs_bfs")
    found = [[non_resolvers(g, pair) for pair in combinations(range(g.n), 2)] for g in gs]
    assert bfs_runs() == 0
    for g, sets in zip(gs, found):
        assert sets == [frozenset(_bits(mask)) for mask in pair_masks(g).tolist()]


def test_the_dimensions_read_the_spheres_up_to_the_cap():
    for g in _seeded_by_order(range(13, 17)):
        assert _dimensions(g) == dimension_table_oracle(g)


def test_the_dimension_cap_is_within_the_sphere_cap():
    # the dimension table takes its pair masks only from the sphere layers
    assert resolve.DIM_CAP <= graphs.SPHERE_CAP
