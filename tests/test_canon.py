import random

import pytest

from resnum.canon import CANONICAL_CAP, CanonicalForm, canonical_form
from resnum.errors import TooLarge
from resnum.graphs import Graph, from_edge_list, permute

from oracles import is_connected


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
