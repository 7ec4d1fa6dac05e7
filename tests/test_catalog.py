"""The derived res = 3 catalog.

The 17 canonical members below were frozen after three independent
derivations agreed: the production scan over the enumeration stream, the
definitional subset oracle over the same stream, and a from-scratch
recount through networkx's complete order-7 atlas.  The published
count for the girth-3 family is 14 graphs; only 13 pairwise
non-isomorphic ones exist (the likely culprit is a duplicate entry:
the join of an edge with two isolated vertices is isomorphic to the
clique-plus-vertex graph on 4 vertices, both being K4 minus an edge).
"""

import math
import random

import pytest

from resnum import catalog, enumeration, graphs
from resnum.bounds import _order_upper_rhs
from resnum.canon import canonical_form
from resnum.catalog import (
    Res3Catalog,
    build_res3_catalog,
    clique_equals_res_report,
    load_default_catalog,
    load_fixture_text,
    render_fixture,
)
from resnum.errors import CatalogMissing, MalformedGraph6
from resnum.families import complete_graph, cycle_graph, star_graph, wheel_graph
from resnum.graphs import from_edge_list
from resnum.invariants import invariant_summary
from resnum.resolve import resolving_number
from resnum.serial import parse_graph6

FROZEN_MEMBERS = (
    "Cj", "Cz", "C~", "DjC", "DrK", "DzK",
    "EiGW", "EjGO", "EjGW", "EqKW", "EyKW", "EzSo", "E{Sw", "E|Ww",
    "FiGWG", "GqKOOK", "IqK__OD?o",
)


def test_default_catalog_matches_frozen_members():
    cat = load_default_catalog()
    assert tuple(m.graph6 for m in cat.members) == FROZEN_MEMBERS


@pytest.fixture(scope="module")
def candidates():
    """The catalog's candidate stream, read once for the row tests."""
    return list(catalog._candidate_stream())


def test_rebuild_reproduces_the_fixture(derived_catalog):
    assert render_fixture(derived_catalog) == render_fixture(load_default_catalog())
    # the scan keeps no set of forms: the stream yields each class once
    forms = [m.form for m in derived_catalog.members]
    assert len(set(forms)) == len(forms)


def test_scan_covers_every_region_the_bounds_admit(monkeypatch):
    """A res-3 graph other than a path or a cycle has girth at most 2res-1
    (Girth), maximum degree at most 3res-4 at girth 3 and res above it
    (MaxDeg), and order from res+1 up to `_order_upper_rhs` (OrderBounds);
    a non-path tree has order at most 3res-5 (OrderTree) and degree at
    most res (MaxDegTree).  Every such region the catalog scan skips is
    enumerated here and holds no res-3 non-cycle outside the fixture.  A
    region scanned under an m2 cap of k holds every graph of res <= k + 1
    there, since each vertex m2 counts is equidistant from its pair."""
    res = 3
    scanned = []
    monkeypatch.setattr(
        enumeration, "enumerate_graphs", lambda c: scanned.append(c) or iter(())
    )
    list(catalog._candidate_stream())
    monkeypatch.undo()

    # (order, degree cap, girth)
    regions = [
        (n, 3 * res - 4 if girth == 3 else res, girth)
        for girth in range(3, 2 * res)
        for n in range(res + 1, _order_upper_rhs(res, girth, res) + 1)
    ]
    regions += [(n, res, math.inf) for n in range(res + 1, 3 * res - 4)]

    def covered(n, max_degree, girth):
        return any(
            c.n == n
            and (c.max_degree is None or max_degree <= c.max_degree)
            and (c.min_girth is None or girth >= c.min_girth)
            and (c.max_m2 is None or res <= c.max_m2 + 1)
            for c in scanned
        )

    skipped = [r for r in regions if not covered(*r)]
    assert skipped == [(8, 3, 4)]
    fixture = load_default_catalog()
    found = []
    for n, max_degree, girth in skipped:
        forms = enumeration._level(n, max_degree, girth, None)
        assert len(forms) == 87
        for form in forms:
            g = form.to_graph()
            if resolving_number(g).res == 3:
                found.append(form)
                if not invariant_summary(g).is_cycle:
                    assert fixture.lookup(form) is not None
    assert len(found) == 2 and canonical_form(cycle_graph(8)) in found


def _kernel_agrees(g, k=2):
    """1 + the unbounded kernel count is res(g), and the count capped at k
    is the same count up to k and some count past k above it; returns the
    unbounded count."""
    count = enumeration._most_equidistant(g.adj, g.n)
    capped = enumeration._most_equidistant(g.adj, k)
    assert resolving_number(g).res == 1 + count
    assert capped == count if count <= k else capped > k
    return count


def test_the_row_test_rules_out_only_res_4_and_above(candidates):
    # the catalog candidates, then the 87 classes of the (8, 3, 4) region
    # the scan skips (the test above): the sphere kernel on the rows gives
    # res - 1 on each, rules out 1,123 and 84 of them and keeps 35
    # candidates, the 22 of res 3 (the 17 members, C4, C6, C8, C10 and the
    # 3-star) besides 12 of res 2 and K1
    assert len(candidates) == 1158
    gap = [form.to_graph() for form in enumeration._level(8, 3, 4, None)]
    assert len(gap) == 87
    counts = [_kernel_agrees(g) for g in candidates + gap]
    assert (sum(c > 2 for c in counts[:1158]), sum(c > 2 for c in counts[1158:])) == (1123, 84)
    assert [counts[:1158].count(c) for c in (0, 1, 2)] == [1, 12, 22]


def test_the_distance_two_test_rules_out_only_res_4_and_above(candidates):
    # the kernel capped at radius 2, the m2 prune: it rules out only
    # res >= 4, and 939 of the 1,123 candidates the full kernel rules out;
    # the other 184 (the sparse orders are grown under m2 <= 2) need spheres
    # of radius 3 or more
    near = [g for g in candidates if enumeration._most_equidistant(g.adj, 2, 2) > 2]
    assert len(near) == 939
    assert all(resolving_number(g).res >= 4 for g in near)


def test_the_row_test_holds_beyond_the_scanned_orders():
    # the kernel gives res - 1 on seeded connected graphs of order 11..16:
    # cycles with up to two chords, where res is often 2 or 3, and random
    # trees with extra edges, from trees to dense
    rng = random.Random(20241)
    low = 0
    for _ in range(300):
        n = rng.randint(11, 16)
        if rng.random() < 0.5:
            order = rng.sample(range(n), n)
            edges = {(order[i - 1], order[i]) for i in range(n)}
            edges |= {tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2))}
        else:
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            p = rng.choice((0.0, 0.05, 0.15, 0.4))
            edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
        low += _kernel_agrees(from_edge_list(n, edges)) <= 2
    assert low >= 50
    # and on the members, every cycle to C40 and the 3-star, of res 2 or 3
    small = [m.form.to_graph() for m in load_default_catalog().members]
    small += [cycle_graph(n) for n in range(4, 41)] + [star_graph(3)]
    assert all(_kernel_agrees(g) <= 2 for g in small)


def test_only_candidates_the_rows_leave_reach_resolving_number(count_calls):
    # none: the kernel decides every candidate on its rows, where 151 of
    # them reached the scan before it, and all 1,294 before any row test;
    # nor does the build make a distance matrix
    calls = count_calls(catalog, "resolving_number")
    bfs_runs = count_calls(graphs, "_all_pairs_bfs")
    build_res3_catalog()
    assert (calls(), bfs_runs()) == (0, 0)


def test_canonical_form_calls_per_catalog_build(count_calls):
    # the m2 cap on orders 8..10 turns children away before canon: the
    # same regions without it take 1,352 calls (test_enumeration); and the
    # top orders 7 and 10 stream one representative per class, with canon
    # only where the rows leave a deletion tied: 149 and 44 calls, where
    # their sorted canonical levels took 869 and 102, 1,199 in all; the
    # deletion key of (degree, sorted neighbour degrees) alone took 575,
    # and 209 and 115 at the top orders
    calls = count_calls(enumeration, "canonical_form")
    build_res3_catalog()
    assert calls() == 421


def test_sphere_kernel_calls_per_catalog_build(count_calls):
    # one count per candidate, read by the catalog, and none in the
    # enumeration: every m2-capped order has a girth floor of 5, so each
    # child's m2 is read from its parent's table (386 kernel calls before);
    # the catalog imports the kernel by name, so each module's name is wrapped
    children = count_calls(enumeration, "_most_equidistant")
    candidates = count_calls(catalog, "_most_equidistant")
    build_res3_catalog()
    assert (candidates(), children()) == (1158, 0)


def test_girth_split():
    cat = load_default_catalog()
    g3 = cat.slice_by_girth(3)
    g5 = cat.slice_by_girth(5)
    assert len(g3) == 13
    assert len(g5) == 4
    assert len(cat.slice_by_girth(4)) == 0
    assert sorted(m.n for m in g5) == [6, 7, 8, 10]
    assert set(g3) | set(g5) == set(cat.members)


def test_member_metadata_consistency():
    for m in load_default_catalog().members:
        g = parse_graph6(m.graph6)
        assert m.n == g.n
        assert m.form == canonical_form(g)
        assert m.degree_sequence == tuple(sorted(g.degrees()))


def test_largest_member_is_not_regular():
    # three 5-cycles sharing a vertex and pairwise sharing an edge at it
    big = load_default_catalog().members[-1]
    assert big.n == 10
    assert big.girth == 5
    assert big.degree_sequence == (2, 2, 2, 2, 2, 2, 3, 3, 3, 3)


def test_lookup():
    cat = load_default_catalog()
    assert cat.lookup(canonical_form(complete_graph(4))).graph6 == "C~"
    assert cat.lookup(canonical_form(wheel_graph(5))) is not None
    assert cat.lookup(canonical_form(cycle_graph(6))) is None


def test_fixture_text_roundtrip():
    cat = load_default_catalog()
    text = render_fixture(cat)
    assert text.endswith("\n")
    again = load_fixture_text(text)
    assert render_fixture(again) == text


def test_fixture_rejects_non_members():
    with pytest.raises(CatalogMissing, match="^line 2: "):
        load_fixture_text("C~\nCh\n")  # P4 has res 2
    with pytest.raises(MalformedGraph6, match="^line 1: byte outside graph6 range"):
        load_fixture_text("XYZ!\n")
    with pytest.raises(CatalogMissing):
        load_fixture_text("\n\n")


def test_clique_equals_res_report():
    rep = clique_equals_res_report(load_default_catalog())
    assert rep["derived_size"] == 12
    assert rep["discrepancy_flagged"]
    assert [e["graph6"] for e in rep["excluded"]] == ["C~"]
    assert rep["excluded"][0]["omega"] == 4
    assert len(rep["derived"]) == 12


def test_catalog_is_value_like():
    a = load_default_catalog()
    b = Res3Catalog(a.members)
    assert a == b
