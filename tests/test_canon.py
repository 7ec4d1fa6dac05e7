import hashlib
import random
from itertools import chain

import pytest

from resnum import canon
from resnum.canon import CANONICAL_CAP, CanonicalForm, _refine, canonical_form
from resnum.errors import TooLarge
from resnum.families import complete_graph, cycle_graph
from resnum.graphs import Graph, _bits, from_edge_list, permute
from resnum.serial import write_graph6

from oracles import (
    automorphisms_oracle,
    is_connected,
    permutation_min_form,
    refine_by_global_rank,
    triangle_graph,
)


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


def _petersen():
    rim = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    star = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, rim + spokes + star)


def _cube():
    return from_edge_list(8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1])


def _prism():
    return from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


@pytest.mark.parametrize(
    "g, order",
    [(_petersen(), 120), (_cube(), 48), (cycle_graph(8), 16), (_prism(), 12)],
    ids=["petersen", "cube", "C8", "prism"],
)
def test_generators_span_vertex_transitive_groups_without_twins(g, order):
    # no two vertices are twins, so every generator comes from a tied leaf;
    # the closure is a subgroup of Aut of the known order, hence all of it
    rng = random.Random(order)
    for _ in range(4):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permute(g, perm)
        form = canonical_form(h)
        rep = form.to_graph()
        assert permute(h, form.labelling) == rep
        assert all(permute(rep, gen) == rep for gen in form.generators)
        assert len(_closure(form.generators, g.n)) == order


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
        bare = CanonicalForm(form.n, form.bits, (), (), ())
        assert bare == form and hash(bare) == hash(form) and repr(bare) == repr(form)
        perm = list(range(g.n))
        rng.shuffle(perm)
        oracle = permutation_min_form(permute(g, perm))
        assert oracle == permutation_min_form(g)
        assert canonical_form(triangle_graph(oracle.n, oracle.bits)) == form


def test_a_form_carries_its_graph():
    # bits alone would give equal forms whose to_graph() has no rows
    form = canonical_form(cycle_graph(5))
    with pytest.raises(TypeError):
        CanonicalForm(5, form.bits)
    assert form.to_graph() == triangle_graph(5, form.bits)


def _search_nodes():
    """2,000 seeded search nodes: a random graph of order 1..12, disconnected
    ones and isolated vertices included, and a random placed prefix, with
    neighbour lists, entry colors and free vertices as `search` builds them."""
    rng = random.Random(41)
    for _ in range(2000):
        n = rng.randint(1, 12)
        density = rng.random()
        g = from_edge_list(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        )
        nbrs = [tuple(_bits(row)) for row in g.adj]
        placed = rng.sample(range(n), rng.randrange(n))
        p = len(placed)
        colors = [p] * n
        for i, v in enumerate(placed):
            colors[v] = i
        free = [v for v in range(n) if colors[v] == p]
        yield g, nbrs, placed, colors, free


def _root_node(g):
    """The search's root node of g: nothing placed, every vertex free."""
    return g, [tuple(_bits(row)) for row in g.adj], [], [0] * g.n, list(range(g.n))


def test_cell_refinement_matches_the_global_rank_oracle(trees_by_order):
    # root nodes, which refine from the degree classes: trees, which split
    # for several rounds after them, and regular graphs, one degree class
    # that must come back as [free] with its colors untouched; G(n, p)
    # roots rarely have either shape
    roots = [g for n in range(1, 13) for g in trees_by_order[n]]
    roots += [cycle_graph(8), complete_graph(7), _cube(), _petersen()]
    for g, nbrs, placed, colors, free in chain(_search_nodes(), map(_root_node, roots)):
        p = len(placed)
        expected = colors.copy()
        refine_by_global_rank(nbrs, expected, free, p)
        cells = _refine(nbrs, colors, free, p)
        assert colors == expected
        # the cells come in color order, p first, and partition the free vertices
        assert [sorted(cell) for cell in cells] == [
            [v for v in free if expected[v] == c] for c in range(p, p + len(cells))
        ]
        # each placed vertex has its own color, so a cell has one row to them
        placed_mask = sum(1 << v for v in placed)
        assert all(len({g.adj[v] & placed_mask for v in cell}) == 1 for cell in cells)


# sha256 over repr((bits, labelling)) of every form in `shuffled_forms`, in
# order, taken from the search before it pruned by automorphisms: pruning
# keeps the first leaf that reaches the best string, so neither may move
LABELLING_SHA256 = "41d490e5f35956eacf6dc4dd46d1a9d5ac3c1d44ec0398a9d0006a6494162b3c"


def _forms(graphs):
    return [(f.bits, f.labelling, f.generators, f.to_graph()) for f in map(canonical_form, graphs)]


@pytest.fixture(scope="module")
def shuffled_forms(connected_by_order, trees_by_order, constrained_by_order):
    """Every class to order 7, the trees to 12 and the constrained orders
    8..10, each under a random relabelling, with their search results."""
    rng = random.Random(5)
    graphs = [g for n in range(1, 8) for g in connected_by_order[n]]
    graphs += [g for n in range(1, 13) for g in trees_by_order[n]]
    graphs += [g for n in (8, 9, 10) for g in constrained_by_order[n]]
    shuffled = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled.append(permute(g, perm))
    return shuffled, _forms(shuffled)


def test_canonical_forms_match_under_the_global_rank_oracle(shuffled_forms, monkeypatch):
    shuffled, cellwise = shuffled_forms

    def by_global_rank(nbrs, colors, free, p):
        refine_by_global_rank(nbrs, colors, free, p)
        return [
            [v for v in free if colors[v] == c]
            for c in range(p, max(colors[v] for v in free) + 1)
        ]

    monkeypatch.setattr(canon, "_refine", by_global_rank)
    assert _forms(shuffled) == cellwise


def test_leader_is_round_ones_least_cell_when_no_later_round_splits_it():
    for g, nbrs, placed, colors, free in _search_nodes():
        # round one of `_refine`, spelled out: the free vertices of least key
        keys = {v: sorted(colors[u] for u in nbrs[v]) for v in free}
        least_key = min(keys.values())
        least = [v for v in free if keys[v] == least_key]
        # a lone vertex, or twins: no automorphism-invariant round splits them
        settled = all(canon._twins(g.adj, least[0], v) for v in least[1:])
        leader = canon._leader(g.adj, placed, sum(1 << v for v in free))
        assert leader == (sum(1 << v for v in least) if settled else None)
        if leader is not None:
            assert _refine(nbrs, colors, free, len(placed))[0] == least


def test_forms_hold_without_the_leader_shortcut(shuffled_forms, monkeypatch):
    shuffled, with_leader = shuffled_forms
    monkeypatch.setattr(canon, "_leader", lambda adj, placed, free: None)
    assert _forms(shuffled) == with_leader


def test_labelling_matches_golden_digest(shuffled_forms):
    h = hashlib.sha256()
    for bits, labelling, _, _ in shuffled_forms[1]:
        h.update(repr((bits, labelling)).encode())
    assert h.hexdigest() == LABELLING_SHA256


def test_the_rows_a_form_carries_spell_its_bits(shuffled_forms):
    # the graph6 line of the rows, its six-bit groups read back as one int
    # less the padding, is the form's triangle
    for bits, _, _, g in shuffled_forms[1]:
        line = write_graph6(g)
        acc = 0
        for ch in line[1:]:
            acc = acc << 6 | ord(ch) - 63
        assert (ord(line[0]) - 63, acc >> (-(g.n * (g.n - 1) // 2) % 6)) == (g.n, bits)
