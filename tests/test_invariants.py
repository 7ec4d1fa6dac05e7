import math
import random
from itertools import combinations

import networkx as nx
import pytest

from resnum import invariants
from resnum.errors import Disconnected, EmptySet, IndexOutOfRange
from resnum.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    pendant_odd_cycle,
    spider_graph,
    star_graph,
    triangle_tripod,
    wheel_graph,
)
from resnum.graphs import Graph, from_edge_list
from resnum.invariants import (
    INFINITE_GIRTH,
    clique_number,
    distance_window,
    girth,
    invariant_summary,
    spider_signature,
)

from oracles import clique_number_oracle, first_fit_classes, is_connected


def test_girth_values():
    assert girth(path_graph(6)) == INFINITE_GIRTH
    assert math.isinf(girth(star_graph(5)))
    assert girth(cycle_graph(7)) == 7
    assert girth(complete_graph(4)) == 3
    assert girth(wheel_graph(6)) == 3
    for a in range(3, 8):
        assert girth(pendant_odd_cycle(a)) == 2 * a + 1


def test_girth_matches_networkx():
    rng = random.Random(31)
    cases = []
    while len(cases) < 50:
        n = rng.randint(3, 16)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        if is_connected(from_edge_list(n, edges)):
            cases.append((n, edges))
    # triangle-free graphs reach the per-edge search
    for _ in range(30):
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        p = rng.uniform(0.2, 0.8)
        edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < p]
        cases.append((a + b, edges))
    cases += [(k, list(cycle_graph(k).edges())) for k in range(4, 21)]
    cases.append((10, list(nx.petersen_graph().edges())))
    for _ in range(30):
        n = rng.randint(4, 30)
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        T = nx.Graph(tree)
        far = [
            (u, v)
            for u, row in nx.all_pairs_shortest_path_length(T)
            for v, d in row.items()
            if u < v and d >= 3
        ]
        if far:
            cases.append((n, tree + [rng.choice(far)]))
    # orders 20..62 of the graph6 stream: a random spanning tree plus
    # G(n, p) extras at each stream density, and the same with only the
    # extras that join the tree's two sides, which keeps it triangle-free
    for p in (0.02, 0.05, 0.1, 0.3, 0.6):
        for _ in range(6):
            n = rng.randint(20, 62)
            tree = [(rng.randrange(v), v) for v in range(1, n)]
            side = [0] * n
            for u, v in tree:
                side[v] = 1 - side[u]
            extras = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
            cases.append((n, tree + extras))
            cases.append((n, tree + [(u, v) for u, v in extras if side[u] != side[v]]))
    # long thin trees with a few chords, whose cycles are long
    for k in (1, 2, 3):
        for _ in range(8):
            n = rng.randint(20, 62)
            tree = [(rng.randrange(max(0, v - 3), v), v) for v in range(1, n)]
            cases.append((n, tree + [tuple(rng.sample(range(n), 2)) for _ in range(k)]))
    # a 9-cycle and an 8-cycle through vertex 8, the 9-cycle first in edge
    # order, so the 8-cycle's detours run up to the cutoff the 9 sets
    nine = [(v, (v + 1) % 9) for v in range(9)]
    cases.append((16, nine + [(8, 9), *((v, v + 1) for v in range(9, 15)), (15, 8)]))
    # the longest cycles a graph6 line holds, girth 61, 62 and 61 with a
    # leaf, then girth 6, 6 and 5, and the Tutte-Coxeter cage of girth 8
    cases += [(61, list(cycle_graph(61).edges())), (62, list(cycle_graph(62).edges()))]
    cases.append((62, list(pendant_odd_cycle(30).edges())))
    for G in (
        nx.heawood_graph(),
        nx.desargues_graph(),
        nx.dodecahedral_graph(),
        nx.LCF_graph(30, [-13, -9, 7, -7, 9, 13], 5),
    ):
        cases.append((len(G), list(G.edges())))
    for n, edges in cases:
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        theirs = nx.girth(G)
        ours = girth(from_edge_list(n, edges))
        assert (math.isinf(ours) and theirs == math.inf) or ours == theirs


def test_clique_number_against_subset_oracle(connected_by_order):
    for n in range(1, 7):
        for g in connected_by_order[n]:
            assert clique_number(g) == clique_number_oracle(g)


def test_clique_number_past_the_recursion_limit():
    # K1000, past the order cap of `from_edge_list`, built from its rows
    n = 1000
    g = Graph(n, tuple((1 << n) - 1 ^ 1 << v for v in range(n)))
    assert clique_number(g) == n


def test_clique_number_matches_networkx_on_the_stream_mix(count_calls):
    # orders 20..62 by the six densities of the compute benchmark, each a
    # random spanning tree plus every other pair with probability p
    colourings = count_calls(invariants, "_colour_classes")
    rng = random.Random(2003)
    for n in (20 + 42 * i // 19 for i in range(20)):
        for p in (0.0, 0.02, 0.05, 0.1, 0.3, 0.6):
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            G = nx.Graph(edges)
            expected = max(len(c) for c in nx.find_cliques(G))
            assert clique_number(from_edge_list(n, edges)) == expected
    # the search and its colour classes are pinned, not only its result
    assert colourings() == 2223


def test_colour_classes_are_the_first_fit_colouring():
    # orders past 64 put the rows and candidate masks across machine words
    rng = random.Random(2011)
    for n in range(1, 131):
        p = rng.random()
        g = from_edge_list(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        # as `clique_number` builds it: the complement of each closed neighbourhood
        avoid = [~(row | 1 << v) for v, row in enumerate(g.adj)]
        for _ in range(3):
            cand = rng.getrandbits(n)
            classes = invariants._colour_classes(cand, avoid)
            union = 0
            for cls in classes:
                members = [v for v in range(n) if cls >> v & 1]
                assert members and not cls & union
                assert not any(g.has_edge(u, v) for u, v in combinations(members, 2))
                union |= cls
            assert union == cand
            # each vertex sits in the first class, in bit order, that it fits
            assert classes == first_fit_classes(g, cand)


def test_clique_number_matches_networkx_past_one_word():
    # rows of 63..96 bits, around and past one 64-bit word, at the two
    # densities whose searches branch most on the stream mix; at order 120
    # and p = 0.6 `find_cliques` alone takes over a second
    rng = random.Random(2011)
    for n in (63, 64, 65, 96):
        for p in (0.3, 0.6):
            edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
            G = nx.Graph(edges)
            G.add_nodes_from(range(n))
            expected = max(len(c) for c in nx.find_cliques(G))
            assert clique_number(from_edge_list(n, edges)) == expected


def test_clique_number_spot_values():
    assert clique_number(complete_graph(7)) == 7
    assert clique_number(cycle_graph(8)) == 2
    assert clique_number(wheel_graph(5)) == 3
    assert clique_number(wheel_graph(3)) == 4  # hub + triangle
    assert clique_number(triangle_tripod(4)) == 3


def test_spider_signatures():
    assert spider_signature(spider_graph(2, 3, 1)) == (1, 2, 3)
    assert spider_signature(star_graph(3)) == (1, 1, 1)
    assert spider_signature(path_graph(5)) is None
    assert spider_signature(star_graph(4)) is None  # four legs
    assert spider_signature(cycle_graph(6)) is None
    # K1,3 plus a disjoint triangle has n - 1 edges and one degree-3 vertex
    # but is no tree: its legs miss the triangle
    star_and_triangle = from_edge_list(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 4)])
    with pytest.raises(Disconnected):
        spider_signature(star_and_triangle)


def test_a_leg_walk_that_returns_to_the_centre_is_no_spider():
    # a triangle on the centre with a pendant, beside a path of 4: n - 1
    # edges and one degree-3 vertex, and the walks around the triangle
    # (3 and 3) with the pendant (1) add up to n - 1
    shape = from_edge_list(8, [(0, 1), (1, 2), (2, 0), (0, 3), (4, 5), (5, 6), (6, 7)])
    with pytest.raises(Disconnected):
        spider_signature(shape)


def test_invariant_summary_flags():
    inv = invariant_summary(path_graph(4))
    assert inv.is_tree and inv.is_path and not inv.is_cycle and not inv.is_star
    assert inv.diameter == 3
    assert math.isinf(inv.girth)

    inv = invariant_summary(cycle_graph(5))
    assert inv.is_cycle and not inv.is_tree
    assert inv.girth == 5 and inv.diameter == 2

    inv = invariant_summary(star_graph(4))
    assert inv.is_star and inv.is_tree and not inv.is_path
    assert inv.max_degree == 4
    assert inv.spider is None

    one = path_graph(1)
    inv = invariant_summary(one)
    assert inv.is_path and inv.is_tree and not inv.is_star
    assert inv.diameter == 0 and inv.omega == 1


def test_invariant_summary_omega_is_the_clique_number():
    # the summary skips the clique search when there is no triangle
    rng = random.Random(5)
    graphs = [path_graph(1), path_graph(2), complete_graph(5), wheel_graph(6)]
    graphs += [path_graph(n) for n in range(3, 9)] + [cycle_graph(n) for n in range(3, 12)]
    graphs.append(from_edge_list(10, list(nx.petersen_graph().edges())))
    for _ in range(20):
        n = rng.randint(2, 30)
        graphs.append(from_edge_list(n, [(rng.randrange(v), v) for v in range(1, n)]))
    for g in graphs:
        assert invariant_summary(g).omega == clique_number(g)


def test_invariant_summary_knows_a_tree_is_acyclic(monkeypatch):
    def no_search(g):
        raise AssertionError("girth searched on a tree")

    monkeypatch.setattr("resnum.invariants.girth", no_search)
    for tree in (path_graph(1), path_graph(7), star_graph(5), spider_graph(1, 2, 3)):
        assert invariant_summary(tree).girth == INFINITE_GIRTH


def test_distance_window_examples():
    g = path_graph(6)
    d, ok = distance_window(g, 0, {2, 4})
    assert d == 2 and ok
    d, ok = distance_window(g, 3, {3})
    assert d == 0 and ok


def test_distance_window_holds_on_random_samples(connected_by_order):
    rng = random.Random(8381)
    pool = [g for graphs in connected_by_order.values() for g in graphs if g.n >= 2]
    for _ in range(500):
        g = rng.choice(pool)
        u = rng.randrange(g.n)
        size = rng.randint(1, g.n)
        a = frozenset(rng.sample(range(g.n), size))
        _, ok = distance_window(g, u, a)
        assert ok


def test_distance_window_errors():
    g = path_graph(4)
    with pytest.raises(EmptySet):
        distance_window(g, 0, set())
    with pytest.raises(IndexOutOfRange):
        distance_window(g, 0, {5})
    with pytest.raises(IndexOutOfRange):
        distance_window(g, 9, {1})
