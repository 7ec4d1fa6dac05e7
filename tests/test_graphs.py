import random

import networkx as nx
import numpy as np
import pytest

from resnum import graphs
from resnum.errors import (
    Disconnected,
    IndexOutOfRange,
    InvalidEdge,
    InvalidPermutation,
)
from resnum.graphs import (
    Graph,
    _row_layers,
    diameter,
    distance_matrix,
    from_edge_list,
    pair_counts,
    pair_masks,
    permute,
)

from oracles import is_connected


def test_from_edge_list_basic():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.has_edge(1, 2)
    assert not g.has_edge(0, 2)
    assert g.degrees() == (1, 2, 2, 1)
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_from_edge_list_refuses_an_edge_that_is_not_two_vertices():
    for edge in [(0, 1, 2), (0,), ()]:
        with pytest.raises(InvalidEdge, match="is not two vertices"):
            from_edge_list(3, [(0, 1), edge])


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_self_loop_rejected():
    with pytest.raises(InvalidEdge):
        from_edge_list(3, [(1, 1)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(IndexOutOfRange):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(IndexOutOfRange):
        from_edge_list(3, [(-1, 0)])


def test_permute_roundtrip():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    perm = [3, 0, 4, 1, 2]
    h = permute(g, perm)
    assert h.m == g.m
    inverse = [0] * 5
    for old, new in enumerate(perm):
        inverse[new] = old
    assert permute(h, inverse) == g


def test_permute_rejects_non_bijection():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(InvalidPermutation):
        permute(g, [0, 0, 1])
    with pytest.raises(InvalidPermutation):
        permute(g, [0, 1])


def test_connectivity():
    assert is_connected(from_edge_list(1, []))
    assert is_connected(from_edge_list(3, [(0, 1), (1, 2)]))
    assert not is_connected(from_edge_list(3, [(0, 1)]))


def test_distance_matrix_requires_connected():
    cases = [
        (4, [(0, 1), (2, 3)]),
        (2, []),
        # an isolated last vertex, alone in the second word of its row
        (65, [(u, u + 1) for u in range(63)]),
        # two paths of 100 vertices
        (200, [(u, u + 1) for u in range(99)] + [(u, u + 1) for u in range(100, 199)]),
    ]
    for n, edges in cases:
        with pytest.raises(Disconnected):
            distance_matrix(from_edge_list(n, edges))


def _layers_agree(g):
    """Layer r of each vertex v is the mask of the vertices at distance r
    from v in the matrix, and there are as many layers as the diameter."""
    dm = distance_matrix(g)
    layers = list(_row_layers(g.adj))
    assert len(layers) == dm.max()
    for r, layer in enumerate(layers, 1):
        assert layer == [sum(1 << u for u in np.flatnonzero(row == r).tolist()) for row in dm]


def test_the_row_layers_are_the_spheres_of_the_matrix(connected_by_order, constrained_by_order):
    # every class to order 7, the unpruned sparse levels 8..10, then seeded
    # connected graphs of order 11..16, the last order whose planes grow on
    # the rows, from trees to dense
    for by_order in (connected_by_order, constrained_by_order):
        for g in (g for graphs in by_order.values() for g in graphs):
            _layers_agree(g)
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(11, 16)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        p = rng.choice((0.0, 0.05, 0.15, 0.4, 0.8))
        edges += [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        _layers_agree(from_edge_list(n, edges))
    # K1 has no sphere past its centre
    assert list(_row_layers((0,))) == []


def test_the_row_layers_refuse_an_isolated_vertex():
    # a path on the other n - 1 vertices, the isolated one placed at random
    rng = random.Random(17)
    for n in range(2, 17):
        lone = rng.randrange(n)
        rest = [v for v in range(n) if v != lone]
        g = from_edge_list(n, zip(rest, rest[1:]))
        with pytest.raises(Disconnected, match="^distance matrix requires a connected graph$"):
            list(_row_layers(g.adj))


def test_distance_matrix_is_built_once_per_graph():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dm = distance_matrix(g)
    assert distance_matrix(g) is dm
    assert not dm.flags.writeable
    # the memo is no field: equality and hashing still read n and adj
    twin = Graph(g.n, g.adj)
    assert twin == g and hash(twin) == hash(g)
    assert distance_matrix(twin) is not dm
    assert (distance_matrix(twin) == dm).all()
    h = permute(g, [4, 3, 2, 1, 0])
    assert h == g and distance_matrix(h) is not dm
    h = permute(g, [2, 0, 1, 3, 4])
    assert distance_matrix(h) is not dm
    assert distance_matrix(h)[2, 4] == 4 and dm[0, 4] == 4
    split = from_edge_list(4, [(0, 1), (2, 3)])
    for _ in range(2):
        with pytest.raises(Disconnected):
            distance_matrix(split)


def test_degrees_are_counted_once_per_graph():
    g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degrees() is g.degrees() == (3, 1, 1, 1)
    assert g.m == 3
    # the memo is no field either
    twin = Graph(g.n, g.adj)
    assert twin == g and hash(twin) == hash(g)
    assert "_degrees" in vars(g) and "_degrees" not in vars(twin)


def test_distances_match_networkx_on_random_graphs():
    rng = random.Random(1105)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 24)
        p = rng.uniform(0.1, 0.6)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = from_edge_list(n, edges)
        if not is_connected(g):
            continue
        checked += 1
        dm = distance_matrix(g)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        expected = dict(nx.all_pairs_shortest_path_length(G))
        for u in range(n):
            for v in range(n):
                assert dm[u, v] == expected[u][v]


def test_eccentricity_and_symmetry():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    dm = distance_matrix(g)
    assert dm.shape == (4, 4) and dm.dtype == np.int32
    assert not dm.flags.writeable
    with pytest.raises(ValueError):
        dm[0, 3] = 0
    assert dm[0, 3] == dm[3, 0] == 3
    assert dm[0].max() == 3
    assert dm[1].max() == 2


def test_graph_value_semantics():
    a = from_edge_list(3, [(0, 1)])
    b = from_edge_list(3, [(1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != from_edge_list(3, [(0, 2)])
    assert Graph(1, (0,)).n == 1


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 200])
def test_distances_match_networkx_across_word_boundaries(n):
    # ball rows span (n + 63) // 64 words; a tree and a sparse graph per order
    rng = random.Random(n)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    for edges in (tree, tree + [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 4)]):
        edges = [(u, v) for u, v in edges if u != v]
        dm = distance_matrix(from_edge_list(n, edges))
        expected = dict(nx.all_pairs_shortest_path_length(nx.Graph(edges)))
        assert dm.tolist() == [[expected[u][v] for v in range(n)] for u in range(n)]


def test_distance_matrix_of_k1():
    dm = distance_matrix(from_edge_list(1, []))
    assert dm.tolist() == [[0]] and dm.dtype == np.int32 and not dm.flags.writeable


def test_k1_has_diameter_zero_and_no_pairs():
    k1 = from_edge_list(1, [])
    assert diameter(k1) == 0 and pair_masks(k1).tolist() == []


@pytest.mark.parametrize("n", (2, 4, 16, 17, 64, 65))
def test_distance_accessors_refuse_a_disconnected_graph_on_every_call(n):
    # a path on n - 1 vertices and an isolated vertex: both sides of the
    # sphere cap, and both ways of growing the spheres below it, raise the
    # matrix's text and keep nothing on the graph
    split = from_edge_list(n, [(v - 1, v) for v in range(1, n - 1)])
    reads = (diameter, distance_matrix, pair_counts) + ((pair_masks,) if n <= 64 else ())
    for _ in range(2):
        for read in reads:
            with pytest.raises(Disconnected, match="^distance matrix requires a connected graph$"):
                read(split)
    assert not {"_spheres", "_distances", "_counts"} & set(vars(split))
    # past the cap there are no masks to read
    assert n <= 64 or pair_masks(split) is None


@pytest.mark.parametrize("n", (2, 16, 17, 40, 63, 64))
def test_the_kept_counts_are_the_bit_counts_of_the_masks(n):
    # both ways of growing the spheres, up to masks that use bit 63
    rng = random.Random(n)
    graphs = [from_edge_list(n, [(u, v) for v in range(n) for u in range(v)])]
    for p in (0.0, 0.1, 0.5):
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        graphs.append(from_edge_list(n, edges))
    for g in graphs:
        masks, counts = pair_masks(g), pair_counts(g)
        assert counts.tolist() == [mask.bit_count() for mask in masks.tolist()]
        assert not counts.flags.writeable and pair_counts(g) is counts
    # in K_n the n - 2 other vertices are equidistant from each pair
    top = graphs[0]
    assert set(pair_counts(top).tolist()) == {n - 2}
    assert n < 3 or pair_masks(top)[0] >> np.uint64(n - 1) == 1


@pytest.mark.parametrize("n", (65, 66, 257))
def test_the_counts_past_the_cap_are_swept_once_from_the_matrix(n, monkeypatch):
    # a tree and a sparse graph; past order 256 distances no longer fit a byte
    rng = random.Random(n)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    sweeps = []
    real = graphs._slab_counts
    monkeypatch.setattr(graphs, "_slab_counts", lambda dm: sweeps.append(dm) or real(dm))
    for edges in (tree, tree + [(rng.randrange(v), v) for v in range(1, n, 4)]):
        g = from_edge_list(n, edges)
        sweeps.clear()
        # the diameter reads the matrix alone
        dm = distance_matrix(g)
        assert diameter(g) == dm.max() and sweeps == []
        counts = pair_counts(g)
        xs, ys = np.triu_indices(n, 1)
        assert counts.tolist() == (dm[xs] == dm[ys]).sum(axis=1).tolist()
        assert not counts.flags.writeable and pair_counts(g) is counts
        assert len(sweeps) == 1 and sweeps[0] is dm


def test_the_spheres_are_grown_once_per_graph():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    masks = pair_masks(g)
    assert pair_masks(g) is masks and diameter(g) == 4
    assert "_distances" not in vars(g)
    twin = Graph(g.n, g.adj)
    assert twin == g and pair_masks(twin) is not masks
