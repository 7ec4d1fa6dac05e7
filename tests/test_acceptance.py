"""Acceptance suite.

One criterion per test, one verdict line per criterion on the real
stdout (pytest capture is bypassed) so a plain run shows the scoreboard.
Where a published expectation could not be reproduced, the verdict line
says so explicitly; the derivation is asserted instead, after being
confirmed through independent routes.  Nothing is silently weakened.
"""

import math
import random
import statistics
import sys
import time
from importlib import resources

from resnum.bounds import counting_lemma_check, verify_bounds, vertex_pairs
from resnum.canon import canonical_form
from resnum.catalog import (
    clique_equals_res_report,
    load_default_catalog,
    render_fixture,
)
from resnum.enumeration import EnumConstraints, enumerate_graphs
from resnum.families import (
    clique4_sporadic,
    clique_with_pendant,
    complete_graph,
    cycle_graph,
    path_graph,
    pendant_odd_cycle,
    spider_graph,
    star_graph,
    triangle_tripod,
    wheel_graph,
)
from resnum.graphs import distance_matrix, from_edge_list
from resnum.invariants import clique_number, girth, invariant_summary
from resnum.resolve import resolving_number, resolving_number_oracle
from resnum.serial import parse_graph6, write_graph6


def _report(capsys, num: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {title}"
    if detail:
        line += f" | {detail}"
    with capsys.disabled():  # the scoreboard must reach the terminal
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_oracle_equivalence(capsys, connected_by_order):
    budget_s = 300  # pinned: "< 5 minutes on a laptop"
    start = time.perf_counter()
    total = 0
    mismatches = 0
    for graphs in connected_by_order.values():
        for g in graphs:
            total += 1
            if resolving_number(g).res != resolving_number_oracle(g):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = total == 996 and mismatches == 0 and elapsed < budget_s
    _report(
        capsys,
        1,
        "scan equals subset oracle on every connected class to order 7",
        ok,
        f"{total} classes, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_family_formulas(capsys):
    bad = []

    def expect(g, want, label):
        got = resolving_number(g).res
        if got != want:
            bad.append(f"{label}: got {got}, want {want}")

    for n in range(3, 51):
        expect(path_graph(n), 2, f"path {n}")
        expect(cycle_graph(n), 2 if n % 2 else 3, f"cycle {n}")
    for n in range(2, 41):
        expect(complete_graph(n), n - 1, f"complete {n}")
    for a in range(2, 31):
        expect(star_graph(a), a, f"star {a}")
    for a in range(3, 13):
        for b in range(1, a):
            expect(clique_with_pendant(a, b), a, f"clique+pendant {a},{b}")
    for a in range(3, 11):
        g = pendant_odd_cycle(a)
        expect(g, a + 1, f"pendant cycle {a}")
        if girth(g) != 2 * a + 1:
            bad.append(f"pendant cycle {a}: girth {girth(g)}")
    for r in range(3, 11):
        g = triangle_tripod(r)
        expect(g, r, f"triangle tripod {r}")
        if g.n != 3 * (r - 1):
            bad.append(f"triangle tripod {r}: order {g.n}")
    expect(wheel_graph(5), 3, "wheel rim 5")

    _report(
        capsys,
        2,
        "closed-form values across every pinned family range",
        not bad,
        bad[0] if bad else "paths/cycles to 50, cliques to 40, stars to 30, "
        "clique+pendant to a=12, pendant cycles and tripods to 10",
    )


def test_criterion_03_bound_suite(capsys, 
    connected_by_order, trees_by_order, constrained_by_order
):
    violations = []
    checked = 0

    def sweep(graphs):
        nonlocal checked
        for g in graphs:
            inv = invariant_summary(g)
            res = resolving_number(g).res
            for row in verify_bounds(g, inv, res):
                if row.applicable:
                    checked += 1
                    if not row.holds:
                        violations.append((write_graph6(g), row.prop_id, row.part))

    for graphs in connected_by_order.values():
        sweep(graphs)
    for n in range(3, 13):
        sweep(trees_by_order[n])
    for graphs in constrained_by_order.values():
        sweep(graphs)

    _report(
        capsys,
        3,
        "zero violations over classes to order 7, trees to 12, sparse regime to 10",
        not violations,
        f"{checked} applicable verdict rows" if not violations else str(violations[:3]),
    )


def test_criterion_04_catalog_derivation(capsys, connected_by_order, derived_catalog):
    derived = derived_catalog
    g3 = derived.slice_by_girth(3)
    g5 = derived.slice_by_girth(5)
    big = max(derived.members, key=lambda m: m.n)

    problems = []
    if len(derived.members) != 17 or len(g3) != 13 or len(g5) != 4:
        problems.append(
            f"split {len(g3)}/{len(g5)} of {len(derived.members)}"
        )
    if sorted(m.n for m in g5) != [6, 7, 8, 10]:
        problems.append(f"girth-5 orders {sorted(m.n for m in g5)}")
    if derived.slice_by_girth(4):
        problems.append("girth-4 slice not empty")

    # the only res-3 graph of girth 4 at any order up to 7 is the 4-cycle
    girth4 = {
        canonical_form(g)
        for graphs in connected_by_order.values()
        for g in graphs
        if girth(g) == 4 and resolving_number(g).res == 3
    }
    if girth4 != {canonical_form(cycle_graph(4))}:
        problems.append(f"girth-4 res-3 classes: {len(girth4)}")

    if big.n != 10 or big.degree_sequence != (2,) * 6 + (3,) * 4:
        problems.append(f"order-10 member degrees {big.degree_sequence}")

    _report(
        capsys,
        4,
        "catalog re-derivation complete and duplicate-free",
        not problems,
        "derived 17 = 13 girth-3 + 4 girth-5, orders {6,7,8,10}; "
        "FLAGGED: published count is 14 girth-3 (18 total) but only "
        "13 non-isomorphic graphs exist (confirmed by 3 independent routes); "
        "FLAGGED: order-10 member has degrees 2^6 3^4, not 3-regular"
        if not problems
        else "; ".join(problems),
    )


def test_criterion_05_res2_equivalence(capsys, connected_by_order):
    wrong = []
    for graphs in connected_by_order.values():
        for g in graphs:
            res = resolving_number(g).res
            inv = invariant_summary(g)
            low = res <= 2
            structural = inv.is_path or (inv.is_cycle and g.n % 2 == 1)
            if low != structural:
                wrong.append(write_graph6(g))
    _report(
        capsys,
        5,
        "res <= 2 exactly on paths and odd cycles, both directions",
        not wrong,
        f"996 classes, 0 counterexamples" if not wrong else str(wrong[:5]),
    )


def test_criterion_06_clique_characterization(capsys, connected_by_order):
    derived4, derived5 = set(), set()
    for graphs in connected_by_order.values():
        for g in graphs:
            r = resolving_number(g).res
            if r in (4, 5) and clique_number(g) == r:
                (derived4 if r == 4 else derived5).add(canonical_form(g))

    built4 = {canonical_form(clique4_sporadic(i)) for i in (1, 2, 3, 4)}
    built4 |= {canonical_form(clique_with_pendant(4, b)) for b in (1, 2, 3)}
    built5 = {canonical_form(clique_with_pendant(5, b)) for b in (1, 2, 3, 4)}

    rep = clique_equals_res_report(load_default_catalog())
    problems = []
    if derived4 != built4:
        problems.append("clique-4 set mismatch")
    if derived5 != built5:
        problems.append("clique-5 set mismatch")
    if rep["derived_size"] != 12 or not rep["discrepancy_flagged"]:
        problems.append(f"statement-3 report {rep['derived_size']}")
    if [e["graph6"] for e in rep["excluded"]] != ["C~"]:
        problems.append("K4 not the flagged exclusion")

    _report(
        capsys,
        6,
        "clique-equals-res sets match the characterized families",
        not problems,
        "7 classes at value 4, 4 at value 5; value-3 set derived as 12 "
        "with K4 flagged (the published 14-graph count would imply 13)"
        if not problems
        else "; ".join(problems),
    )


def test_criterion_07_tree_extremals(capsys, trees_by_order):
    eq = {"DiamTree": set(), "OrderTree": set(), "MaxDegTree": set()}
    for n in range(3, 13):
        for g in trees_by_order[n]:
            inv = invariant_summary(g)
            if inv.is_path:
                continue
            res = resolving_number(g).res
            for row in verify_bounds(g, inv, res):
                if row.prop_id in eq and row.equality:
                    eq[row.prop_id].add(canonical_form(g))

    want_diam = set()
    for b in range(1, 6):
        for a in range(1, b + 1):
            if 1 + a + 2 * b <= 12:
                want_diam.add(canonical_form(spider_graph(a, b, b)))
    want_order = {
        canonical_form(spider_graph(a, a, a)) for a in (1, 2, 3)
    }
    want_star = {canonical_form(star_graph(a)) for a in range(3, 12)}

    ok = (
        eq["DiamTree"] == want_diam
        and eq["OrderTree"] == want_order
        and eq["MaxDegTree"] == want_star
    )
    _report(
        capsys,
        7,
        "tree equality cases are exactly the characterized spiders and stars",
        ok,
        f"diameter {len(eq['DiamTree'])}/{len(want_diam)}, "
        f"order {len(eq['OrderTree'])}/{len(want_order)}, "
        f"degree {len(eq['MaxDegTree'])}/{len(want_star)}",
    )


def test_criterion_08_lemma_invariants(capsys, connected_by_order):
    rng = random.Random(60208)
    pool = [
        g for graphs in connected_by_order.values() for g in graphs if g.n >= 2
    ]
    window_failures = 0
    for _ in range(10_000):
        g = rng.choice(pool)
        u = rng.randrange(g.n)
        a = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        from resnum.invariants import distance_window

        if not distance_window(g, u, a)[1]:
            window_failures += 1

    budget_breaks = 0
    for i in range(1_000):
        g = rng.choice(pool)
        dm = distance_matrix(g)
        res = resolving_number(g).res
        all_pairs = sorted(vertex_pairs(range(g.n)))
        pairs = rng.sample(all_pairs, rng.randint(1, len(all_pairs)))
        order = list(range(g.n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, g.n), rng.randint(0, g.n - 1)))
        partition = [
            order[lo:hi]
            for lo, hi in zip([0] + cuts, cuts + [g.n])
        ]
        # per-part floor of true failure counts keeps the hypothesis honest
        k = []
        for part in partition:
            k.append(
                min(
                    sum(
                        1
                        for x, y in pairs
                        if dm[u, x] == dm[u, y]
                    )
                    for u in part
                )
            )
        if i % 5 == 0 and max(k) > 0:  # exercise the refuted-hypothesis path
            k[k.index(max(k))] += 1
        hyp, ineq = counting_lemma_check(g, res, pairs, partition, k)
        if hyp and not ineq:
            budget_breaks += 1

    ok = window_failures == 0 and budget_breaks == 0
    _report(
        capsys,
        8,
        "distance windows and counting budgets never violated",
        ok,
        f"10000 window samples, 1000 counting certificates "
        f"({window_failures} window / {budget_breaks} budget failures)",
    )


def _random_connected(rng, n, extra_edges):
    edges = [(v, rng.randrange(v)) for v in range(1, n)]  # random spanning tree
    while len(edges) < n - 1 + extra_edges:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return from_edge_list(n, edges)


def test_criterion_09_performance(capsys):
    limit_s = 2.0  # pinned tolerance
    ratio_limit = 12.0  # pinned tolerance, cubic growth with slack
    rng = random.Random(1333)

    g300 = _random_connected(rng, 300, 1200)
    start = time.perf_counter()
    resolving_number(g300)
    t300 = time.perf_counter() - start

    def median_time(n):
        g = _random_connected(rng, n, n * 4)
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            resolving_number(g)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    t100 = median_time(100)
    t200 = median_time(200)
    ratio = t200 / t100
    ok = t300 < limit_s and ratio <= ratio_limit
    _report(
        capsys,
        9,
        "order-300 run under 2s with polynomial scaling",
        ok,
        f"n=300 in {t300 * 1000:.0f}ms, t(200)/t(100) = {ratio:.1f}",
    )


def test_criterion_10_serialization(capsys, connected_by_order, derived_catalog):
    bad = 0
    count = 0
    for graphs in connected_by_order.values():
        for g in graphs:
            count += 1
            if parse_graph6(write_graph6(g)) != g:
                bad += 1
    rng = random.Random(88)
    for _ in range(1_000):
        n = rng.randint(1, 30)
        p = rng.random()
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = from_edge_list(n, edges)
        count += 1
        if parse_graph6(write_graph6(g)) != g:
            bad += 1

    packaged = (
        resources.files("resnum").joinpath("data/res3_catalog.g6").read_text()
    )
    regenerated = render_fixture(derived_catalog)
    byte_identical = regenerated == packaged

    ok = bad == 0 and byte_identical
    _report(
        capsys,
        10,
        "graph6 round-trips exactly and the catalog regenerates byte-identically",
        ok,
        f"{count} round-trips, fixture match {byte_identical}",
    )
