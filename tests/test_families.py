import sys
from collections import Counter
from itertools import product

import pytest

from resnum import catalog, families, invariants
from resnum.canon import canonical_form
from resnum.catalog import load_default_catalog
from resnum.errors import InvalidFamilyParam, NotApplicable, TooLarge
from resnum.families import (
    Category,
    FamilySpec,
    classify_res,
    clique4_sporadic,
    clique_res_category,
    clique_with_pendant,
    complete_graph,
    cycle_graph,
    empty_graph,
    family_names,
    generate,
    join,
    path_graph,
    pendant_odd_cycle,
    spider_graph,
    star_graph,
    triangle_tripod,
    wheel_graph,
)
from resnum.graphs import ORDER_CAP, from_edge_list
from resnum.invariants import clique_number, girth
from resnum.resolve import resolving_number
from resnum.serial import write_graph6

from oracles import pendant_odd_cycle_oracle, spider_oracle, triangle_tripod_oracle


def test_constructor_shapes():
    assert (path_graph(6).n, path_graph(6).m) == (6, 5)
    assert (cycle_graph(6).n, cycle_graph(6).m) == (6, 6)
    assert (complete_graph(5).n, complete_graph(5).m) == (5, 10)
    assert (star_graph(7).n, star_graph(7).m) == (8, 7)
    assert (spider_graph(1, 2, 3).n, spider_graph(1, 2, 3).m) == (7, 6)
    assert (wheel_graph(5).n, wheel_graph(5).m) == (6, 10)
    g = clique_with_pendant(5, 3)
    assert (g.n, g.m) == (6, 13)
    g = pendant_odd_cycle(4)
    assert (g.n, g.m) == (10, 10)
    assert girth(g) == 9
    g = triangle_tripod(5)
    assert (g.n, g.m) == (12, 12)
    assert empty_graph(3).m == 0


def test_join_shapes():
    g = join(complete_graph(1), path_graph(4))
    assert (g.n, g.m) == (5, 7)
    h = join(complete_graph(2), empty_graph(2))
    assert (h.n, h.m) == (4, 5)


def test_dense_families_build_their_rows_without_an_edge_list(monkeypatch):
    # the rows equal the checked edge-list build at small parameters
    for n in range(1, 12):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert complete_graph(n) == from_edge_list(n, pairs)
    for a in range(2, 10):
        for b in range(1, a):
            edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
            edges += [(i, a) for i in range(b)]
            assert clique_with_pendant(a, b) == from_edge_list(a + 1, edges)
    small = [complete_graph(1), empty_graph(2), path_graph(4), cycle_graph(5), star_graph(3)]
    for g1 in small:
        for g2 in small:
            off = g1.n
            edges = list(g1.edges()) + [(u + off, v + off) for u, v in g2.edges()]
            edges += [(u, v + off) for u in range(g1.n) for v in range(g2.n)]
            assert join(g1, g2) == from_edge_list(off + g2.n, edges)

    def refuse(*args):
        raise AssertionError("built through an edge list")

    # so K800 costs no 319,600 checked edges before the graph6 writer's cap
    monkeypatch.setattr(families, "from_edge_list", refuse)
    assert complete_graph(ORDER_CAP).m == ORDER_CAP * (ORDER_CAP - 1) // 2
    assert clique_with_pendant(ORDER_CAP - 1, 1).degrees()[-1] == 1
    half = ORDER_CAP // 2
    assert join(empty_graph(half), empty_graph(half)).m == half * half


def test_join_proof_graphs_are_catalog_members():
    # the two joins used as existence witnesses in the girth-3 analysis
    catalog = load_default_catalog()
    for g in (join(complete_graph(1), path_graph(4)),
              join(complete_graph(2), empty_graph(2))):
        assert resolving_number(g).res == 3
        assert catalog.lookup(canonical_form(g)) is not None


def test_parameter_validation():
    with pytest.raises(InvalidFamilyParam):
        cycle_graph(2)
    with pytest.raises(InvalidFamilyParam):
        star_graph(0)
    with pytest.raises(InvalidFamilyParam):
        spider_graph(0, 1, 1)
    with pytest.raises(InvalidFamilyParam):
        clique_with_pendant(4, 4)  # b must stay below a
    with pytest.raises(InvalidFamilyParam):
        clique_with_pendant(4, 0)
    with pytest.raises(InvalidFamilyParam):
        wheel_graph(2)
    with pytest.raises(InvalidFamilyParam):
        pendant_odd_cycle(2)
    with pytest.raises(InvalidFamilyParam):
        triangle_tripod(2)
    with pytest.raises(InvalidFamilyParam):
        clique4_sporadic(5)
    with pytest.raises(InvalidFamilyParam):
        path_graph(0)
    with pytest.raises(InvalidFamilyParam):
        complete_graph(0)
    with pytest.raises(InvalidFamilyParam):
        empty_graph(0)


def test_constructors_refuse_an_order_past_the_cap_before_building(monkeypatch):
    # params of order ORDER_CAP + 1 or + 2; nothing may reach an edge list
    past = {
        "path": (801,),
        "cycle": (801,),
        "complete": (801,),
        "empty": (801,),
        "star": (800,),
        "spider": (1, 1, 799),
        "clique_pendant": (801, 1),
        "wheel": (800,),
        "pendant_cycle": (400,),
        "triangle_tripod": (268,),
    }
    assert ORDER_CAP == 800
    assert sorted(past) == sorted(set(family_names()) - {"sporadic"})
    full, one = empty_graph(ORDER_CAP), path_graph(1)

    def refuse(*args):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(families, "from_edge_list", refuse)
    monkeypatch.setattr(families, "Graph", refuse)
    for kind, params in past.items():
        with pytest.raises(TooLarge, match=f"^graph order is capped at n <= {ORDER_CAP}, got 80[12]$"):
            generate(FamilySpec(kind=kind, params=params))
    with pytest.raises(TooLarge):
        join(full, one)


def test_the_leg_builder_matches_the_leg_loops():
    # the same labels, so the same adjacency rows, as a vertex-at-a-time loop
    for a, b, c in product(range(1, 7), repeat=3):
        assert spider_graph(a, b, c) == spider_oracle(a, b, c)
    for r in range(3, 41):
        assert triangle_tripod(r) == triangle_tripod_oracle(r)
    for a in range(3, 31):
        assert pendant_odd_cycle(a) == pendant_odd_cycle_oracle(a)


def test_the_extremal_families_keep_their_graph6():
    assert write_graph6(spider_graph(1, 2, 3)) == "Fp_GG"
    assert write_graph6(triangle_tripod(4)) == "H{D?H?@"
    assert write_graph6(pendant_odd_cycle(3)) == "GhCKK?"


def test_registry_generate():
    assert "path" in family_names()
    g = generate(FamilySpec(kind="clique_pendant", params=(4, 2)))
    assert g == clique_with_pendant(4, 2)
    with pytest.raises(InvalidFamilyParam):
        generate(FamilySpec(kind="nonesuch", params=()))
    # a join is built by `join` from two graphs, not named by a spec
    assert "join" not in family_names()
    with pytest.raises(InvalidFamilyParam, match="^unknown family 'join'"):
        generate(FamilySpec(kind="join"))
    with pytest.raises(InvalidFamilyParam):
        generate(FamilySpec(kind="path", params=(1, 2)))


def test_sporadic_graphs_self_verify():
    seen = set()
    for i in (1, 2, 3, 4):
        g = clique4_sporadic(i)
        assert clique_number(g) == 4
        assert resolving_number(g).res == 4
        seen.add(canonical_form(g))
    assert len(seen) == 4  # pairwise non-isomorphic


@pytest.mark.parametrize(
    "g,tag,res",
    [
        (path_graph(1), "TrivialPath", 1),
        (path_graph(2), "TrivialPath", 1),
        (path_graph(11), "Path", 2),
        (cycle_graph(7), "OddCycle", 2),
        (cycle_graph(4), "EvenCycle", 3),
        (cycle_graph(10), "EvenCycle", 3),
        (star_graph(3), "Star3", 3),
        (complete_graph(4), "CatalogGirth3", 3),
        (wheel_graph(5), "CatalogGirth3", 3),
        (join(complete_graph(1), path_graph(4)), "CatalogGirth3", 3),
        (star_graph(4), "ResAtLeast4", 4),
        (complete_graph(6), "ResAtLeast4", 5),
        (pendant_odd_cycle(3), "ResAtLeast4", 4),
    ],
)
def test_classification(g, tag, res):
    cat = classify_res(g)
    assert (cat.tag, cat.res) == (tag, res)


def test_a_res_4_graph_is_classified_without_invariants(count_calls):
    # ResAtLeast4 reads only res, so no shape, clique or girth work is done
    reads = [count_calls(catalog, "path_cycle_star")]
    reads += [count_calls(families, name) for name in ("clique_number", "girth")]
    assert classify_res(complete_graph(5)) == Category("ResAtLeast4", 4)
    assert [read() for read in reads] == [0, 0, 0]


def _tagged_91():
    """The 17 catalog members, C3..C39 and P3..P39, each with its category."""
    tagged = [(m.form.to_graph(), f"CatalogGirth{m.girth}") for m in load_default_catalog().members]
    tagged += [(cycle_graph(n), "OddCycle" if n % 2 else "EvenCycle") for n in range(3, 40)]
    tagged += [(path_graph(n), "Path") for n in range(3, 40)]
    return tagged


def _clique_res_or_none(g):
    try:
        return clique_res_category(g)
    except NotApplicable:
        return None


def test_classification_computes_no_clique_or_spider(monkeypatch):
    # res <= 3 is decided by res, degrees, edge count and the catalog
    tagged = _tagged_91()
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "resnum"]
    for name in ("clique_number", "spider_signature"):
        real = getattr(invariants, name)

        def counted(g, name=name, real=real):
            calls[name] += 1
            return real(g)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    assert [classify_res(g).tag for g, _ in tagged] == [tag for _, tag in tagged]
    assert calls == Counter()


def test_categories_match_the_named_families(connected_by_order):
    catalog = load_default_catalog()

    def by_isomorphism(g):
        if resolving_number(g).res >= 4:
            return "ResAtLeast4"
        form = canonical_form(g)
        if form == canonical_form(path_graph(g.n)):
            return "TrivialPath" if g.n <= 2 else "Path"
        if g.n >= 3 and form == canonical_form(cycle_graph(g.n)):
            return "OddCycle" if g.n % 2 else "EvenCycle"
        if form == canonical_form(star_graph(3)):
            return "Star3"
        return f"CatalogGirth{catalog.lookup(form).girth}"

    small = [g for n in range(1, 8) for g in connected_by_order[n]]
    tags = [classify_res(g).tag for g in small]
    assert tags == [by_isomorphism(g) for g in small]
    assert Counter(tags) == {
        "TrivialPath": 2, "Path": 5, "OddCycle": 3, "EvenCycle": 2, "Star3": 1,
        "CatalogGirth3": 13, "CatalogGirth5": 2, "ResAtLeast4": 968,
    }
    assert Counter(map(_clique_res_or_none, small)) == {
        None: 960, 1: 1, 2: 7, 3: 12, 4: 7, 5: 9,
    }
    tagged = _tagged_91()
    assert [classify_res(g).tag for g, _ in tagged] == [tag for _, tag in tagged]
    assert Counter(_clique_res_or_none(g) for g, _ in tagged) == {None: 24, 2: 55, 3: 12}


def test_clique_res_category_defers_to_classify_res(connected_by_order):
    small = [g for n in range(1, 8) for g in connected_by_order[n]]
    seen = Counter()
    for g in small + [g for g, _ in _tagged_91()]:
        res = resolving_number(g).res
        if clique_number(g) != res:
            seen["not applicable"] += 1
            with pytest.raises(NotApplicable):
                clique_res_category(g)
        elif res <= 3:
            seen["res <= 3"] += 1
            assert clique_res_category(g) == classify_res(g).res
        else:
            seen["res >= 4"] += 1
            assert clique_res_category(g) == min(res, 5)
    assert seen == {"not applicable": 984, "res <= 3": 87, "res >= 4": 16}


def test_classification_girth5_members():
    catalog = load_default_catalog()
    for member in catalog.slice_by_girth(5):
        assert classify_res(member.form.to_graph()).tag == "CatalogGirth5"


def test_clique_res_statements():
    assert clique_res_category(path_graph(1)) == 1
    assert clique_res_category(path_graph(5)) == 2
    assert clique_res_category(cycle_graph(7)) == 2
    assert clique_res_category(wheel_graph(5)) == 3
    for i in (1, 2, 3, 4):
        assert clique_res_category(clique4_sporadic(i)) == 4
    for b in (1, 2, 3):
        assert clique_res_category(clique_with_pendant(4, b)) == 4
    for b in (1, 2, 3, 4):
        assert clique_res_category(clique_with_pendant(5, b)) == 5
    assert clique_res_category(clique_with_pendant(7, 3)) == 5
    # order 17, past the canonical-form cap: decided by its order alone
    assert clique_res_category(clique_with_pendant(16, 2)) == 5


def test_clique_res_requires_equality():
    with pytest.raises(NotApplicable):
        clique_res_category(cycle_graph(4))  # omega 2, res 3
    with pytest.raises(NotApplicable):
        clique_res_category(star_graph(3))  # omega 2, res 3
    with pytest.raises(NotApplicable):
        clique_res_category(complete_graph(4))  # omega 4, res 3
