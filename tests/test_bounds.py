import random

import pytest

from resnum import graphs
from resnum.bounds import (
    PROP_IDS,
    counting_lemma_check,
    verify_bounds,
    vertex_pairs,
)
from resnum.errors import InputError, InvalidPartition
from resnum.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    pendant_odd_cycle,
    spider_graph,
    star_graph,
    wheel_graph,
)
from resnum.graphs import distance_matrix
from resnum.invariants import invariant_summary
from resnum.resolve import resolving_number


def _rows(g):
    inv = invariant_summary(g)
    res = resolving_number(g).res
    return {(r.prop_id, r.part): r for r in verify_bounds(g, inv, res)}


def test_row_set_is_fixed():
    rows = _rows(complete_graph(4))
    assert {k[0] for k in rows} == set(PROP_IDS)
    assert {k[1] for k in rows if k[0] == "Chain"} == {
        "unit_le_dim",
        "dim_le_updim",
        "updim_le_res",
        "res_le_order",
    }
    assert {k[1] for k in rows if k[0] == "OrderBounds"} == {"lower", "upper"}


def test_inapplicable_rows_carry_reason_and_no_values():
    rows = _rows(path_graph(5))
    diam = rows[("DiamTree", None)]
    assert not diam.applicable and diam.reason
    assert diam.lhs is diam.rhs is diam.holds is diam.equality is None
    # paths are trees, so the non-tree girth row is off too
    assert not rows[("Girth", None)].applicable
    assert not rows[("OrderBounds", "lower")].applicable
    assert not rows[("MaxDeg", None)].applicable


def test_clique_upper_bound_rows():
    r = _rows(complete_graph(5))[("CliqueUB", None)]
    assert (r.lhs, r.rhs, r.holds, r.equality, r.extremal_match) == (5, 5, True, True, True)
    r = _rows(cycle_graph(6))[("CliqueUB", None)]
    assert (r.lhs, r.rhs, r.equality, r.extremal_match) == (2, 4, False, False)


def test_spider_rows_match_characterizations():
    rows = _rows(spider_graph(2, 2, 2))  # res 4
    r = rows[("OrderTree", None)]
    assert (r.lhs, r.rhs, r.equality, r.extremal_match) == (7, 7, True, True)
    r = rows[("DiamTree", None)]
    assert (r.lhs, r.rhs, r.equality, r.extremal_match) == (4, 4, True, True)

    rows = _rows(spider_graph(1, 2, 2))  # still diameter-extremal, not order-extremal
    r = rows[("DiamTree", None)]
    assert (r.equality, r.extremal_match) == (True, True)
    r = rows[("OrderTree", None)]
    assert (r.equality, r.extremal_match) == (False, False)


def test_star_rows():
    rows = _rows(star_graph(5))  # res 5
    r = rows[("MaxDegTree", None)]
    assert (r.lhs, r.rhs, r.equality, r.extremal_match) == (5, 5, True, True)
    r = rows[("DiamTree", None)]
    assert (r.lhs, r.rhs, r.equality) == (2, 6, False)


def test_girth_row_tightness():
    rows = _rows(pendant_odd_cycle(3))  # girth 7, res 4
    r = rows[("Girth", None)]
    assert (r.lhs, r.rhs, r.holds, r.equality) == (7, 7, True, True)


def test_max_degree_guard_switches_on_girth():
    r = _rows(wheel_graph(5))[("MaxDeg", None)]
    assert (r.lhs, r.rhs, r.equality) == (5, 5, True)  # girth 3 branch
    r = _rows(pendant_odd_cycle(3))[("MaxDeg", None)]
    assert (r.lhs, r.rhs) == (3, 4)  # girth 7 branch uses res itself


def test_order_bounds_rows():
    rows = _rows(wheel_graph(5))  # n 6, res 3, girth 3
    lower = rows[("OrderBounds", "lower")]
    upper = rows[("OrderBounds", "upper")]
    assert (lower.lhs, lower.rhs, lower.holds) == (4, 6, True)
    assert (upper.lhs, upper.rhs, upper.equality) == (6, 6, True)

    rows = _rows(star_graph(4))  # tree: infinite girth row, max degree 4
    upper = rows[("OrderBounds", "upper")]
    assert (upper.lhs, upper.rhs) == (5, 5 * 4 - 9)

    rows = _rows(spider_graph(1, 1, 2))  # tree with max degree 3
    upper = rows[("OrderBounds", "upper")]
    assert (upper.lhs, upper.rhs) == (5, 6 * 4 - 8)


def test_chain_rows_and_cap():
    rows = _rows(cycle_graph(6))
    assert rows[("Chain", "dim_le_updim")].holds
    assert rows[("Chain", "res_le_order")].lhs == 3

    rows = _rows(path_graph(1))
    assert not rows[("Chain", "unit_le_dim")].applicable

    rows = _rows(path_graph(17))
    chain = rows[("Chain", "updim_le_res")]
    assert not chain.applicable and "capped" in chain.reason
    # the reason is the table's own TooLarge message
    assert chain.reason == "metric dimension is capped at n <= 16, got 17"


def test_an_unknown_prop_is_an_input_error():
    g = cycle_graph(5)
    inv = invariant_summary(g)
    with pytest.raises(InputError, match="^unknown prop 'Bogus'; known: all, DiamTree, Girth, "):
        verify_bounds(g, inv, resolving_number(g).res, prop="Bogus")


def test_a_graph_gets_the_same_row_objects_twice():
    g = spider_graph(1, 2, 3)
    inv = invariant_summary(g)
    res = resolving_number(g).res
    first, again = verify_bounds(g, inv, res), verify_bounds(g, inv, res)
    assert len(first) == 12 and all(a is b for a, b in zip(first, again))


def test_vertex_pairs_helper():
    assert vertex_pairs([3, 1, 2]) == frozenset({(1, 2), (1, 3), (2, 3)})
    assert vertex_pairs([5]) == frozenset()
    assert vertex_pairs([2, 2, 4]) == frozenset({(2, 4)})


def test_counting_lemma_spec_instances():
    c4 = cycle_graph(4)
    assert counting_lemma_check(c4, 3, {(0, 2), (1, 3)}, [range(4)], [1]) == (True, True)
    # weighted sum hits the budget exactly: 4 * 1 == 2 * (3 - 1)
    w = wheel_graph(5)
    tri = vertex_pairs([0, 1, 2])  # hub and an adjacent rim pair
    assert counting_lemma_check(w, 3, tri, [range(6)], [1]) == (True, True)
    assert counting_lemma_check(c4, 3, {(0, 1)}, [range(4)], [0]) == (True, True)


def test_counting_lemma_false_hypothesis():
    # leaves of a path resolve every pair along it
    p = path_graph(4)
    hyp, _ = counting_lemma_check(
        p, 2, vertex_pairs(range(4)), [range(4)], [1]
    )
    assert not hyp


def test_counting_lemma_reads_the_callers_matrix(connected_by_order, monkeypatch):
    # the caller's distance_matrix call keeps the matrix on g, and the check
    # reads that matrix rather than running a BFS of its own
    rng = random.Random(8)
    cases = []
    for n in (2, 3, 4, 5):
        for g in connected_by_order[n]:
            all_pairs = sorted(vertex_pairs(range(n)))
            pairs = rng.sample(all_pairs, rng.randint(1, len(all_pairs)))
            args = (g, rng.randint(1, n), pairs, [range(n)], [rng.randint(0, 2)])
            cases.append((args, distance_matrix(g), counting_lemma_check(*args)))

    def no_rebuild(g):
        raise AssertionError("counting_lemma_check rebuilt the caller's matrix")

    monkeypatch.setattr(graphs, "_all_pairs_bfs", no_rebuild)
    for args, dm, verdict in cases:
        assert counting_lemma_check(*args) == verdict
        assert distance_matrix(args[0]) is dm
    assert len({verdict for _, _, verdict in cases}) > 1


def test_counting_lemma_partition_validation():
    g = cycle_graph(4)
    pairs = {(0, 2)}
    with pytest.raises(InvalidPartition):
        counting_lemma_check(g, 3, pairs, [[0, 1], [1, 2, 3]], [0, 0])
    with pytest.raises(InvalidPartition):
        counting_lemma_check(g, 3, pairs, [[0, 1]], [0])
    with pytest.raises(InvalidPartition):
        counting_lemma_check(g, 3, pairs, [[0, 1, 2, 3]], [0, 1])
    with pytest.raises(InvalidPartition):
        counting_lemma_check(g, 3, pairs, [[0, 1, 2, 3]], [-1])
    with pytest.raises(InvalidPartition):
        counting_lemma_check(g, 3, pairs, [[0, 1, 2, 9]], [0])
    with pytest.raises(InvalidPartition):
        counting_lemma_check(g, 3, {(2, 2)}, [[0, 1, 2, 3]], [0])
    with pytest.raises(InvalidPartition):
        counting_lemma_check(g, 3, {(0, 9)}, [[0, 1, 2, 3]], [0])


def test_zero_violations_on_small_sweep(connected_by_order):
    for n in (1, 2, 3, 4, 5):
        for g in connected_by_order[n]:
            inv = invariant_summary(g)
            res = resolving_number(g).res
            for r in verify_bounds(g, inv, res):
                if r.applicable:
                    assert r.holds, (n, r)
