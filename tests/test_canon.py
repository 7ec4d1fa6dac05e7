import random

import pytest

from resnum.canon import CANONICAL_CAP, CanonicalForm, canonical_form
from resnum.errors import TooLarge
from resnum.families import complete_graph, cycle_graph
from resnum.graphs import Graph, from_edge_list, permute

from oracles import automorphisms_oracle, is_connected, permutation_min_form


def _random_connected(rng, n):
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        ]
        g = from_edge_list(n, edges)
        if is_connected(g):
            return g


def test_invariant_under_relabeling():
    rng = random.Random(2024)
    for _ in range(80):
        n = rng.randint(1, 9)
        g = _random_connected(rng, n)
        form = canonical_form(g)
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(permute(g, perm)) == form


def test_distinct_classes_get_distinct_forms():
    a = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])       # path
    b = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])       # star
    c = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # cycle
    forms = {canonical_form(g) for g in (a, b, c)}
    assert len(forms) == 3


def test_to_graph_is_a_representative():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    form = canonical_form(g)
    rep = form.to_graph()
    assert canonical_form(rep) == form
    assert rep.m == g.m


def test_form_orders_by_size_then_bits():
    small = canonical_form(from_edge_list(2, [(0, 1)]))
    bigger = canonical_form(from_edge_list(3, [(0, 1), (1, 2)]))
    assert small < bigger
    assert isinstance(small, CanonicalForm)


def test_cap_enforced():
    n = CANONICAL_CAP + 1
    with pytest.raises(TooLarge):
        canonical_form(Graph(n, (0,) * n))


def test_twin_heavy_graphs():
    # complete multipartite-ish graphs stress the twin pruning path
    g = from_edge_list(6, [(u, v) for u in range(3) for v in range(3, 6)])
    h = permute(g, [5, 3, 4, 0, 2, 1])
    assert canonical_form(g) == canonical_form(h)


def _closure(generators, n):
    """Every product of the generators, as position maps."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for gen in generators:
            q = tuple(gen[i] for i in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def test_labelling_and_generators_match_the_automorphism_oracle(
    connected_by_order, trees_by_order
):
    rng = random.Random(11)
    graphs = [g for n in range(1, 7) for g in connected_by_order[n]]
    graphs += [g for n in range(1, 9) for g in trees_by_order[n]]
    graphs += [complete_graph(7), cycle_graph(7)]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permute(g, perm)
        form = canonical_form(h)
        rep = form.to_graph()
        assert permute(h, form.labelling) == rep
        for gen in form.generators:
            assert permute(rep, gen) == rep
        assert _closure(form.generators, g.n) == automorphisms_oracle(rep)


def test_twin_swaps_form_a_spanning_forest(trees_by_order):
    # S_k needs k - 1 transpositions; K_8 has one twin class of 8
    assert len(canonical_form(complete_graph(8)).generators) == 7
    for n in range(2, 11):
        for g in trees_by_order[n]:
            form = canonical_form(g)
            swaps = [
                tuple(i for i, v in enumerate(gen) if i != v)
                for gen in form.generators
                if sum(i != v for i, v in enumerate(gen)) == 2
            ]
            # union-find: no recorded swap joins two already joined vertices
            joined = list(range(n))

            def root(v):
                while joined[v] != v:
                    v = joined[v]
                return v

            for a, b in swaps:
                assert root(a) != root(b)
                joined[root(a)] = root(b)


def test_search_data_stay_out_of_equality(connected_by_order):
    rng = random.Random(3)
    for g in connected_by_order[5]:
        form = canonical_form(g)
        bare = CanonicalForm(form.n, form.bits)
        assert bare == form and hash(bare) == hash(form) and repr(bare) == repr(form)
        perm = list(range(g.n))
        rng.shuffle(perm)
        oracle = permutation_min_form(permute(g, perm))
        assert oracle == permutation_min_form(g)
        assert canonical_form(oracle.to_graph()) == form
