"""Isomorph-free generation against frozen counts and the naive oracle.

Counts for unconstrained connected classes and for trees agree with the
standard published sequences; they were frozen here after the naive
permutation-minimum oracle reproduced them independently.
"""

import hashlib
import math
import sys
from dataclasses import replace
from functools import lru_cache
from itertools import product
from random import Random

import pytest

from resnum import canon, enumeration
from resnum.canon import canonical_form
from resnum.enumeration import EnumConstraints, enumerate_graphs
from resnum.errors import Disconnected, InputError, TooLarge
from resnum.graphs import Graph, permute
from resnum.invariants import girth
from resnum.resolve import resolving_number
from resnum.serial import write_graph6

from oracles import (
    deletion_ties_oracle,
    is_connected,
    joins_oracle,
    m2_oracle,
    naive_enumeration_oracle,
    permutation_min_form,
    triangle_graph,
)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
CONSTRAINED_COUNTS = {8: 29, 9: 69, 10: 201}
# sha256 of the graph6 lines, unseparated, of every stream below in order:
# connected n=1..7, trees n=1..12, then n=8..10 with max degree 3 and girth 5
STREAMS_SHA256 = "1bf0d07ec3d34b099e65720619ef44be9c0407df2dc7f820300f11c1e23d6aff"
# classes of order 2..7 with m2 <= k, by k
M2_COUNTS = {1: [1, 2, 1, 2, 1, 2], 2: [1, 2, 6, 7, 17, 23], 3: [1, 2, 6, 21, 44, 132]}
# connected d-regular classes by order, keyed by (d, girth floor), from the
# OEIS: A002851 (cubic), A014371 (cubic, girth >= 4), A014372 (cubic,
# girth >= 5) and A006820 (quartic); every order not listed has none
REGULAR_COUNTS = {
    (3, None): {4: 1, 6: 2, 8: 5, 10: 19},
    (3, 4): {6: 1, 8: 2, 10: 6},
    (3, 5): {10: 1, 12: 2},
    (4, None): {5: 1, 6: 1, 7: 2, 8: 6},
}
# each graph's m2 from the distance matrix, computed once per session
m2_of = lru_cache(maxsize=None)(m2_oracle)
# the tree ladder, and the regions the res-3 catalog scans without its m2 cap
LADDER = [EnumConstraints(n, trees_only=True) for n in range(1, 13)]
REGIONS = [EnumConstraints(n) for n in range(2, 8)]
REGIONS += [EnumConstraints(n, max_degree=3, min_girth=5) for n in (8, 9, 10)]


def test_connected_class_counts(connected_by_order):
    for n, graphs in connected_by_order.items():
        assert len(graphs) == CONNECTED_COUNTS[n]


def test_tree_counts(trees_by_order):
    for n, graphs in trees_by_order.items():
        assert len(graphs) == TREE_COUNTS[n]


def test_constrained_counts(constrained_by_order):
    for n, graphs in constrained_by_order.items():
        assert len(graphs) == CONSTRAINED_COUNTS[n]


def test_all_outputs_satisfy_constraints(constrained_by_order):
    for n, graphs in constrained_by_order.items():
        for g in graphs:
            assert g.n == n
            assert is_connected(g)
            assert max(g.degrees()) <= 3
            assert girth(g) >= 5


def test_trees_are_trees(trees_by_order):
    for n, graphs in trees_by_order.items():
        for g in graphs:
            assert g.m == n - 1 and is_connected(g)


def test_infinite_min_girth_means_trees(trees_by_order):
    got = tuple(enumerate_graphs(EnumConstraints(9, min_girth=math.inf)))
    assert got == trees_by_order[9]


def test_a_girth_floor_past_the_order_gives_the_trees(trees_by_order):
    # no cycle is longer than the order, so a floor past it asks for the
    # trees, the level of girth infinity, however large it is
    got = tuple(enumerate_graphs(EnumConstraints(8, max_degree=3, min_girth=10**9)))
    assert got == tuple(g for g in trees_by_order[8] if max(g.degrees()) <= 3)
    assert tuple(enumerate_graphs(EnumConstraints(8, max_degree=3, min_girth=10**30))) == got


def test_girth_floors_six_and_seven_past_order_seven(constrained_by_order):
    # balls of radius 3 and 4 on parents of order 7..9: under max degree 3
    # the levels grown with girth floors 6 and 7 are the girth-5 level
    # filtered by girth
    counts = []
    for n, graphs in constrained_by_order.items():
        for floor in (6, 7):
            expected = tuple(g for g in graphs if girth(g) >= floor)
            assert tuple(enumerate_graphs(EnumConstraints(n, 3, floor))) == expected
            counts.append(len(expected))
    assert counts == [18, 13, 35, 24, 90, 54]


def test_stream_is_canonically_sorted(connected_by_order):
    for graphs in connected_by_order.values():
        forms = [canonical_form(g) for g in graphs]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)


def test_matches_naive_oracle_to_order_five():
    for n in range(1, 6):
        ours = {
            canonical_form(g)
            for g in enumerate_graphs(EnumConstraints(n))
        }
        naive = naive_enumeration_oracle(n)
        # the oracle dedupes by permutation-minimum adjacency, ours by
        # refinement search; compare through a common representative
        assert len(ours) == len(naive)
        theirs = {canonical_form(triangle_graph(f.n, f.bits)) for f in naive}
        assert ours == theirs


@pytest.mark.parametrize("max_degree", [None, 2, 3, 4])
@pytest.mark.parametrize("min_girth", [None, 3, 4, 4.5, 5, 6, math.inf])
def test_pruning_equals_filtering(connected_by_order, max_degree, min_girth):
    # pruning while growing must keep exactly the graphs that filtering
    # the unconstrained stream by max degree, girth and m2 keeps
    for max_m2 in (None, 1, 2, 3):
        for n, graphs in connected_by_order.items():
            expected = tuple(
                g
                for g in graphs
                if (max_degree is None or max(g.degrees()) <= max_degree)
                and (min_girth is None or girth(g) >= min_girth)
                and (max_m2 is None or m2_of(g) <= max_m2)
            )
            c = EnumConstraints(n, max_degree, min_girth, max_m2=max_m2)
            assert tuple(enumerate_graphs(c)) == expected
            # each class is produced once: the level _grow built holds no duplicate
            level = enumeration._level(n, *enumeration._region(c))
            assert len(set(level)) == len(level)


def test_m2_class_counts(constrained_by_order, trees_by_order):
    for k, counts in M2_COUNTS.items():
        assert [len(enumeration._level(n, None, None, k)) for n in range(2, 8)] == counts
    # the sparse region the catalog scans at orders 8..10, pruned, and its
    # top levels equal to the unpruned ones filtered
    sparse = [EnumConstraints(n, 3, 5, max_m2=2) for n in range(1, 11)]
    assert [len(list(enumerate_graphs(c))) for c in sparse] == [1, 1, 1, 2, 3, 6, 10, 20, 41, 102]
    for c in sparse[7:]:
        expected = tuple(g for g in constrained_by_order[c.n] if m2_of(g) <= 2)
        assert tuple(enumerate_graphs(c)) == expected
    # trees past order 7 are filtered, not grown
    for n in range(8, 13):
        expected = tuple(g for g in trees_by_order[n] if m2_of(g) <= 2)
        assert tuple(enumerate_graphs(EnumConstraints(n, trees_only=True, max_m2=2))) == expected


def test_m2_from_the_rows_and_the_res_bound(connected_by_order, constrained_by_order):
    # every class to order 7 and on the unpruned sparse levels 8..10: the
    # sphere kernel on the rows gives the oracle's m2 at radius 2, and
    # res - 1 unbounded; capped at k, it stops with a count past k
    kernel = enumeration._most_equidistant
    for by_order in (connected_by_order, constrained_by_order):
        for g in (g for graphs in by_order.values() for g in graphs):
            m2, res = m2_of(g), resolving_number(g).res
            assert kernel(g.adj, g.n, 2) == m2 and kernel(g.adj, g.n) == res - 1 >= m2
            for k in range(4):
                assert kernel(g.adj, k, 2) == m2 if m2 <= k else kernel(g.adj, k, 2) > k
                assert kernel(g.adj, k) == res - 1 if res - 1 <= k else kernel(g.adj, k) > k


def test_the_kernel_refuses_a_disconnected_graph():
    # its spheres are `graphs._row_layers`, which raise where a ball stops
    # short of the order, as the matrix does; K3 and an isolated vertex
    k3_and_k1 = (0b110, 0b101, 0b011, 0)
    for radius in (None, 2):
        with pytest.raises(Disconnected, match="^distance matrix requires a connected graph$"):
            enumeration._most_equidistant(k3_and_k1, 4, radius)
    # the rows alone are the first layer, which no ball has outgrown yet
    assert enumeration._most_equidistant(k3_and_k1, 4, 1) == 1


def _shuffle_the_search(monkeypatch, seed):
    """Make `_grow` visit trees, parents and neighbour sets in a seeded
    random order, with every tree relabelled at random and no level cached."""
    rng = Random(seed)
    grow, joins, free_trees = enumeration._grow, enumeration._joins, enumeration._free_trees

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    monkeypatch.setattr(enumeration, "_level", lambda *region: shuffled(grow(*region)))
    monkeypatch.setattr(enumeration, "_joins", lambda *args: shuffled(joins(*args)))
    monkeypatch.setattr(
        enumeration,
        "_free_trees",
        lambda n: (permute(t, rng.sample(range(n), n)) for t in shuffled(free_trees(n))),
    )


def _grown(c):
    """The level `_grow` builds for c, as graphs."""
    return tuple(form.to_graph() for form in enumeration._grow(c.n, *enumeration._region(c)))


def test_order_insensitive_to_generation_sequence(
    monkeypatch, connected_by_order, constrained_by_order, trees_by_order
):
    for n, seed in ((5, 1234), (7, 4321)):
        _shuffle_the_search(monkeypatch, seed)
        assert _grown(EnumConstraints(n)) == connected_by_order[n]
    _shuffle_the_search(monkeypatch, 99)
    assert _grown(EnumConstraints(8, max_degree=3, min_girth=5)) == constrained_by_order[8]
    _shuffle_the_search(monkeypatch, 7)
    assert _grown(EnumConstraints(8, trees_only=True)) == trees_by_order[8]


def test_a_shuffled_tree_level_canonicalises_relabelled_trees(monkeypatch, trees_by_order):
    generated = set(enumeration._free_trees(8))
    seen = []
    real = enumeration.canonical_form
    monkeypatch.setattr(enumeration, "canonical_form", lambda g: seen.append(g) or real(g))
    _shuffle_the_search(monkeypatch, 7)
    assert _grown(EnumConstraints(8, trees_only=True)) == trees_by_order[8]
    # canon never sees a tree as the generator labelled it
    assert len(seen) == TREE_COUNTS[8]
    assert not set(seen) & generated


def test_row_precheck_matches_the_graph_oracle(monkeypatch):
    # every child the graph engine builds on the catalog regions without
    # their m2 cap, each checked for its degree list and its verdict:
    # rejected before canon (None) or the same tied vertices in the same order
    children = []
    real = enumeration._deletion_ties

    def record(rows, deg):
        tied = real(rows, deg)
        children.append((tuple(rows), tuple(deg), tied))
        return tied

    monkeypatch.setattr(enumeration, "_deletion_ties", record)
    monkeypatch.setattr(enumeration, "_level", lru_cache(maxsize=None)(enumeration._grow))
    for c in REGIONS:
        list(enumerate_graphs(c))
    rejected = 0
    for rows, deg, tied in children:
        child = Graph(len(rows), rows)
        assert deg == child.degrees()
        assert tied == deletion_ties_oracle(child)
        rejected += tied is None
    # the other 1,350 children reach canon; 898 were rejected before the
    # key read triangles and sphere sizes, and before the singleton floor,
    # 3,098 children were built and 1,638 of them rejected, and before the
    # degree floor on the joins, 5,548 and 4,088
    assert (len(children), rejected) == (2358, 1008)


def _recorded_joins(monkeypatch, build):
    """(g, deg, max_degree, min_girth, joins) for every parent the graph
    engine grows while `build()` runs from a cold level cache."""
    parents = []
    real = enumeration._joins

    def record(g, deg, max_degree, min_girth):
        joins = real(g, deg, max_degree, min_girth)
        parents.append((g, deg, max_degree, min_girth, joins))
        return joins

    monkeypatch.setattr(enumeration, "_joins", record)
    monkeypatch.setattr(enumeration, "_level", lru_cache(maxsize=None)(enumeration._grow))
    build()
    return parents


def _grown_parents(monkeypatch):
    """The parents on the catalog regions without their m2 cap and on
    orders <= 7 under each girth floor and degree cap."""
    regions = REGIONS + [
        EnumConstraints(n, max_degree, min_girth)
        for n in range(2, 8)
        for max_degree in (None, 2, 3, 4)
        for min_girth in (4, 4.5, 5, 6)
    ]
    return _recorded_joins(monkeypatch, lambda: [list(enumerate_graphs(c)) for c in regions])


def _sparse_parents(monkeypatch):
    """The parents of the sparse region (max degree 3, girth 5, m2 2)
    grown to order 11, past `REACH`."""
    return _recorded_joins(monkeypatch, lambda: enumeration._level(11, 3, 5, 2))


def _child(rows, mask):
    """The graph with these rows and a new last vertex joined to mask."""
    n = len(rows)
    return Graph(n + 1, tuple(row | (mask >> v & 1) << n for v, row in enumerate(rows)) + (mask,))


def test_joins_match_the_distance_matrix_oracle(monkeypatch):
    # the same neighbour sets, in the same order, as the girth test on the
    # distance matrix and the degree comparison with every non-cut vertex
    parents = _grown_parents(monkeypatch)
    for g, deg, max_degree, min_girth, joins in parents:
        assert joins == joins_oracle(g, deg, max_degree, min_girth)
    # 363 of the 506 parents grow under a girth floor
    assert len(parents) == 506
    assert sum(min_girth is not None for _, _, _, min_girth, _ in parents) == 363


def test_the_degree_floor_drops_only_children_the_deletion_oracle_rejects(monkeypatch):
    # pruning by the floor keeps exactly what filtering the children keeps:
    # every set it drops from the capped ones gives a child whose new
    # vertex is not its canonical deletion (5,285 sets before singletons
    # met the floor)
    dropped = 0
    for g, deg, max_degree, min_girth, joins in _grown_parents(monkeypatch):
        kept = set(joins)
        for s in joins_oracle(g, deg, max_degree, min_girth, floor=False):
            if s not in kept:
                assert deletion_ties_oracle(_child(g.adj, sum(1 << v for v in s))) is None
                dropped += 1
    assert dropped == 6842


def test_backtracked_joins_equal_the_combinations_filter_past_the_reach(monkeypatch):
    # joins grown under the girth floor come in the order the filter over
    # `combinations` gives, on every parent of the sparse region to order 10
    parents = _sparse_parents(monkeypatch)
    per_order = [sum(g.n == n for g, *_ in parents) for n in range(1, 11)]
    assert per_order == [1, 1, 1, 2, 3, 6, 10, 20, 41, 102]
    for g, deg, max_degree, min_girth, joins in parents:
        assert joins == joins_oracle(g, deg, max_degree, min_girth)


def test_the_parent_table_gives_each_childs_m2(monkeypatch):
    # every child whose m2 is read from its parent's table gets the
    # verdict of the distance matrix: orders <= 8 under girth floors 4.5,
    # 5 and 6, order 9 of the res-4 region (max degree 4, girth 5, m2 3),
    # where a pair inside S alone refuses some children, as none in the
    # grid does, and the sparse region to order 11
    judged = []
    table = enumeration._m2_breaks

    def record(rows, cap):
        breaks = table(rows, cap)

        def judge(s, mask):
            verdict = breaks(s, mask)
            judged.append((rows, mask, cap, verdict))
            return verdict

        return judge

    monkeypatch.setattr(enumeration, "_m2_breaks", record)
    kernel = enumeration._most_equidistant
    kernel_calls = []
    monkeypatch.setattr(
        enumeration, "_most_equidistant", lambda *args: kernel_calls.append(args) or kernel(*args)
    )
    _sparse_parents(monkeypatch)
    for max_degree, min_girth, cap in product((None, 3, 4), (4.5, 5, 6), range(4)):
        enumeration._level(8, max_degree, min_girth, cap)
    enumeration._level(9, 4, 5, 3)
    # under these floors no child reaches the sphere kernel
    assert kernel_calls == []
    for rows, mask, cap, verdict in judged:
        assert verdict == (m2_oracle(_child(rows, mask)) > cap)
    # (2,627 and 882 before the deletion key read triangles and sphere sizes)
    assert (len(judged), sum(v for *_, v in judged)) == (2265, 817)


def test_regular_graphs_of_the_capped_levels_match_published_counts(monkeypatch):
    # filtered to its d-regular graphs, a level grown under the degree cap
    # d holds as many classes as the OEIS counts: an independent check of
    # the joins, the deletion key and canon past `REACH`.  As in the
    # catalog, each row's top order streams in generation order and the
    # orders below, its parents, are canonical levels
    monkeypatch.setattr(enumeration, "_level", lru_cache(maxsize=None)(enumeration._grow))
    for (d, floor), counts in REGULAR_COUNTS.items():
        top = max(counts)
        for n in range(2, top + 1):
            if n < top:
                graphs = [form.to_graph() for form in enumeration._level(n, d, floor, None)]
            else:
                graphs = [g for g, _ in enumeration._children(n, d, floor, None)]
            assert sum(set(g.degrees()) == {d} for g in graphs) == counts.get(n, 0), (d, floor, n)


def test_exactly_one_cubic_graph_survives_at_order_ten(constrained_by_order):
    cubic = [
        g for g in constrained_by_order[10] if set(g.degrees()) == {3}
    ]
    assert len(cubic) == 1
    assert girth(cubic[0]) == 5


def test_caps():
    # one message states every row of the reach table, whichever a request breaks
    caps = (
        "enumeration is capped at n <= 7, n <= 10 with max_degree <= 3 and "
        "min_girth >= 5, or n <= 12 with min_girth >= inf"
    )
    # and both modes check the request before they build anything
    for canonical in (True, False):
        for c in (
            EnumConstraints(8),
            EnumConstraints(8, max_degree=3),
            EnumConstraints(11, max_degree=3, min_girth=5),
            EnumConstraints(11, max_degree=2, min_girth=11),
            EnumConstraints(13, trees_only=True),
            EnumConstraints(13, max_degree=2, min_girth=math.inf),
            EnumConstraints(13, min_girth=14),
        ):
            with pytest.raises(TooLarge) as exc:
                list(enumerate_graphs(replace(c, canonical=canonical)))
            assert str(exc.value) == f"{caps}, got order {c.n}"
        for trees_only in (False, True):
            k1 = EnumConstraints(1, trees_only=trees_only, canonical=canonical)
            with pytest.raises(InputError):
                list(enumerate_graphs(replace(k1, n=0)))
            with pytest.raises(InputError):
                list(enumerate_graphs(replace(k1, max_degree=-1)))
            with pytest.raises(InputError, match="^max_m2 must be nonnegative, got -1$"):
                list(enumerate_graphs(replace(k1, max_m2=-1)))
            # NaN is neither above the order nor at most 3, so no rule places it
            with pytest.raises(InputError, match="^min_girth must be a number, got nan$"):
                list(enumerate_graphs(replace(k1, min_girth=math.nan)))
    with pytest.raises(TooLarge):
        naive_enumeration_oracle(7)
    big_tree = next(iter(enumerate_graphs(EnumConstraints(9, trees_only=True))))
    with pytest.raises(TooLarge):
        permutation_min_form(big_tree)


def test_the_joins_read_finite_girth_floors_up_to_the_order(monkeypatch):
    # `_region` sends a floor past the order to the tree level, so every
    # floor `_joins` reads its girth balls to is finite and at most the
    # order requested, over the catalog regions and the pruning grid from
    # a cold level cache, and a floor past the order never reaches it
    joins, floors = enumeration._joins, []

    def record(g, deg, max_degree, min_girth):
        floors.append(min_girth)
        return joins(g, deg, max_degree, min_girth)

    monkeypatch.setattr(enumeration, "_joins", record)
    monkeypatch.setattr(enumeration, "_level", lru_cache(maxsize=None)(enumeration._grow))
    grid = [
        EnumConstraints(n, max_degree, min_girth, max_m2=max_m2)
        for max_degree, min_girth, max_m2, n in product(
            [None, 2, 3, 4], [None, 3, 4, 4.5, 5, 6, math.inf], [None, 1, 2, 3], range(1, 8)
        )
    ]
    seen = set()
    for c in REGIONS + grid:
        floors.clear()
        list(enumerate_graphs(c))
        girth_floors = {f for f in floors if f is not None}
        assert all(math.isfinite(f) and f <= c.n for f in girth_floors), c
        seen |= girth_floors
    assert seen == {4, 4.5, 5, 6}
    for floor in (10**9, 10**30):
        floors.clear()
        list(enumerate_graphs(EnumConstraints(8, 3, floor)))
        assert floors == []


def _written_rule(c):
    """The reach rule written out case by case: trees to 12, n <= 10 with
    max_degree <= 3 and min_girth >= 5, any other graph to 7; a girth
    floor above n asks for trees, since no cycle is longer than n."""
    if c.n < 1 or c.max_degree is not None and c.max_degree < 0:
        raise InputError
    if c.max_m2 is not None and c.max_m2 < 0:
        raise InputError
    if c.trees_only or c.min_girth is not None and c.min_girth > c.n:
        if c.n > 12:
            raise TooLarge
        return c.max_degree, math.inf, c.max_m2
    min_girth = None if c.min_girth is None or c.min_girth <= 3 else c.min_girth
    sparse = c.max_degree is not None and c.max_degree <= 3 and (min_girth or 0) >= 5
    if c.n > (10 if sparse else 7):
        raise TooLarge
    return c.max_degree, min_girth, c.max_m2


def _outcome(region, c):
    try:
        return region(c)
    except (InputError, TooLarge) as exc:
        return type(exc)


def test_the_reach_table_keeps_the_written_rule():
    girths = (None, 0, 3, 4, 4.5, 5, 5.5, 6, 9, math.inf)
    grid = list(product(range(15), (None, *range(-1, 6)), girths, (False, True), (None, 2)))
    assert len(grid) == 4800
    for n, max_degree, min_girth, trees_only, max_m2 in grid:
        c = EnumConstraints(n, max_degree, min_girth, trees_only, max_m2)
        assert _outcome(enumeration._region, c) == _outcome(_written_rule, c), c


def test_degree_cap_applies_to_trees(trees_by_order):
    capped = tuple(
        enumerate_graphs(EnumConstraints(7, max_degree=3, trees_only=True))
    )
    assert all(max(g.degrees()) <= 3 for g in capped)
    assert len(capped) < len(trees_by_order[7])


def test_streams_match_golden_digest(connected_by_order, trees_by_order, constrained_by_order):
    # pins the canonical labelling of all 2,282 classes, not just their count
    h = hashlib.sha256()
    for by_order in (connected_by_order, trees_by_order, constrained_by_order):
        for graphs in by_order.values():
            for g in graphs:
                h.update(write_graph6(g).encode())
    assert h.hexdigest() == STREAMS_SHA256


def test_free_trees_yield_each_class_once():
    # A000055(n) pairwise non-isomorphic trees of order n are all of them
    for n in range(1, 13):
        trees = list(enumeration._free_trees(n))
        assert len(trees) == TREE_COUNTS[n]
        assert all(t.n == n and t.m == n - 1 and is_connected(t) for t in trees)
        assert len({canonical_form(t) for t in trees}) == TREE_COUNTS[n]


@pytest.mark.parametrize("max_degree", [1, 2, 3])
def test_tree_degree_cap_equals_filtering(trees_by_order, max_degree):
    # past order 7 the unconstrained engine is capped; the tree stream is the reference
    for n in range(8, 13):
        expected = tuple(g for g in trees_by_order[n] if max(g.degrees()) <= max_degree)
        capped = EnumConstraints(n, max_degree, trees_only=True)
        assert tuple(enumerate_graphs(capped)) == expected


def _calls_per_order(count_calls, constraints, module=enumeration, name="canonical_form"):
    """Calls of `module.name` each enumerate_graphs call makes, from a cold
    level cache; by default the canonical_form calls."""
    calls = count_calls(module, name)
    out = []
    for c in constraints:
        list(enumerate_graphs(c))
        out.append(calls())
    return out


def test_each_tree_class_is_canonicalised_once(count_calls):
    calls = _calls_per_order(count_calls, LADDER)
    assert calls == [TREE_COUNTS[n] for n in range(1, 13)]
    assert sum(calls) == 987
    # a tree level needs no parent level
    assert _calls_per_order(count_calls, [EnumConstraints(12, trees_only=True)]) == [551]


def test_the_tree_walk_jumps_past_rejected_first_subtrees(count_calls):
    # level sequences examined per order; stepping one sequence at a time
    # would examine 3,106 at n = 12, and jumping without resetting the
    # tail to a path 2,153
    examined = _calls_per_order(count_calls, LADDER, enumeration, "_centred")
    assert examined == [0, 1, 1, 2, 3, 7, 13, 28, 57, 126, 274, 627]


def test_canonical_form_calls_unconstrained(count_calls):
    # one neighbour set per orbit, and only children that pass the cheap
    # deletion test reach canon: 1,012 calls for the 996 classes (1,047
    # with the key of degree and sorted neighbour degrees alone)
    calls = _calls_per_order(count_calls, [EnumConstraints(n) for n in range(1, 8)])
    assert calls == [1, 1, 2, 6, 21, 112, 869]


def _representatives(constraints):
    return [replace(c, canonical=False) for c in constraints]


def test_representatives_hold_each_class_once():
    # the same classes as the canonical level, each exactly once: the
    # catalog regions without and with their m2 cap, the m2-capped orders
    # and the tree ladder
    regions = REGIONS + [EnumConstraints(n, 3, 5, max_m2=2) for n in range(1, 11)]
    regions += [EnumConstraints(n, max_m2=k) for k in M2_COUNTS for n in range(2, 8)]
    for c in regions + LADDER:
        stream = [canonical_form(g) for g in enumerate_graphs(replace(c, canonical=False))]
        assert sorted(stream) == list(enumeration._level(c.n, *enumeration._region(c))), c


def test_settled_children_pass_the_orbit_test():
    # a child the rows settle, its new vertex tied with none but its twins,
    # is one canon keeps: its new vertex lies in the orbit of the tied
    # vertex at the smallest canonical position; every child to order 7
    # and on the sparse region to order 10
    settled = []
    for c in REGIONS:
        for g, kept in enumeration._children(c.n, *enumeration._region(c)):
            if kept is None:
                tied = deletion_ties_oracle(g)
                form = canonical_form(g)
                at = form.labelling
                lowest = min(at[v] for v in tied)
                assert canon._orbits(1 << at[g.n - 1], form.generators) >> lowest & 1
                settled.append((g.n, len(tied) > 1))
    # at order 7, 471 children tie with no vertex and 249 only with twins
    # of the new one, of the 869 that canon decides in a canonical level;
    # 975 of the 1,351 on these regions (457, 236 and 893 of 902 and
    # 1,461 with the key of degree and sorted neighbour degrees alone)
    assert (settled.count((7, False)), settled.count((7, True))) == (471, 249)
    assert len(settled) == 975


def test_canonical_form_calls_of_representatives(count_calls):
    # the top order streamed after its canonical parent levels: canon runs
    # on the children whose deletion stays tied, 149 of the 869 at order 7
    # and 44 of the 102 on the m2-capped sparse order 10, and never on a
    # tree (209 of 902 and 115 of 143 with the key of degree and sorted
    # neighbour degrees alone)
    unconstrained = [EnumConstraints(n) for n in range(1, 8)]
    calls = _calls_per_order(count_calls, unconstrained[:-1] + _representatives(unconstrained[-1:]))
    assert calls == [1, 1, 2, 6, 21, 112, 149]
    sparse = [EnumConstraints(n, 3, 5, max_m2=2) for n in range(1, 11)]
    assert _calls_per_order(count_calls, sparse[:-1] + _representatives(sparse[-1:]))[-1] == 44
    assert _calls_per_order(count_calls, _representatives(LADDER)) == [0] * 12


def test_canonical_form_calls_catalog_regions(count_calls):
    # the regions the res-3 catalog scans, without its m2 cap: 1,294 classes
    # (1,462 calls with the key of degree and sorted neighbour degrees alone)
    assert sum(_calls_per_order(count_calls, REGIONS)) == 1352


def _profiled(monkeypatch, constraints, count):
    """Enumerate every level of `constraints` from a cold level cache with
    `count` as the profile function."""
    monkeypatch.setattr(enumeration, "_level", lru_cache(maxsize=None)(enumeration._grow))
    sys.setprofile(count)
    try:
        for c in constraints:
            list(enumerate_graphs(c))
    finally:
        sys.setprofile(None)


def test_search_nodes_on_the_tree_ladder(monkeypatch):
    # an inner search node calls `_leader` once and a leaf calls the nested
    # `leaf`; before the search skipped branches by the automorphisms it
    # finds, the ladder took 17,025 inner nodes and 1,901 leaves
    leaf = next(
        c for c in canon.canonical_form.__code__.co_consts
        if getattr(c, "co_name", None) == "leaf"
    )
    counts = {canon._leader.__code__: 0, leaf: 0}

    def count(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    _profiled(monkeypatch, LADDER, count)
    assert list(counts.values()) == [14209, 1406]


def test_refine_sorts_on_the_tree_ladder_and_the_catalog_regions(monkeypatch):
    # `sorted` calls made from `_refine` frames; before round one at the
    # root bucketed the vertices by degree, sorting every key there, the
    # tree ladder took 46,177 and the catalog regions 34,005; the catalog
    # regions took 27,672 before the deletion key read triangles and
    # sphere sizes
    sorts = 0

    def count(frame, event, arg):
        nonlocal sorts
        if event == "c_call" and arg is sorted and frame.f_code is canon._refine.__code__:
            sorts += 1

    _profiled(monkeypatch, LADDER, count)
    assert sorts == 35249
    sorts = 0
    _profiled(monkeypatch, REGIONS, count)
    assert sorts == 24715


def test_refine_runs_only_where_round_ones_least_cell_may_still_split(count_calls):
    # every other search node branches on the cell `_leader` reads from
    # masks, one vertex or a class of twins; refining at every node took
    # 17,025 calls on the tree ladder and 17,480 on the catalog regions,
    # and refining wherever that cell was not one vertex 4,329 and 3,325;
    # the catalog regions took 1,552 before the deletion key read
    # triangles and sphere sizes
    assert sum(_calls_per_order(count_calls, LADDER, canon, "_refine")) == 1426
    assert sum(_calls_per_order(count_calls, REGIONS, canon, "_refine")) == 1414
