"""Isomorph-free generation of small graphs.

The general engine grows edge sets level by level on a fixed vertex
count, keeping one canonical form per class at each level; degree and
girth constraints prune before the canonical form is ever computed, which
is sound because both survive edge deletion.  Trees get a cheaper ladder
that attaches one leaf per step.  A brute-force oracle in the tests (all
edge subsets, deduped by the minimum bit string over all permutations)
guards the engine at tiny orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterator

from .canon import CanonicalForm, canonical_form
from .errors import TooLarge
from .graphs import Graph, _bfs_distances, from_edge_list, is_connected

EXHAUSTIVE_CAP = 7
CONSTRAINED_CAP = 10
TREES_CAP = 12


@dataclass(frozen=True)
class EnumConstraints:
    """What to enumerate: order, optional degree / girth caps, tree mode.

    A `min_girth` of infinity means acyclic and is treated as tree mode.
    Orders 8..10 are reachable only with max_degree <= 3 and
    min_girth >= 5; the unconstrained space is capped at 7.
    """

    n: int
    max_degree: int | None = None
    min_girth: int | float | None = None
    connected_only: bool = True
    trees_only: bool = False


def _mode(c: EnumConstraints) -> str:
    if c.n < 1:
        raise TooLarge(f"order must be at least 1, got {c.n}")
    tree_mode = c.trees_only or (
        c.min_girth is not None and math.isinf(c.min_girth)
    )
    if tree_mode:
        if c.n > TREES_CAP:
            raise TooLarge(f"tree enumeration is capped at n <= {TREES_CAP}, got {c.n}")
        return "trees"
    if c.n <= EXHAUSTIVE_CAP:
        return "edges"
    if (
        c.n <= CONSTRAINED_CAP
        and c.max_degree is not None
        and c.max_degree <= 3
        and c.min_girth is not None
        and c.min_girth >= 5
    ):
        return "edges"
    raise TooLarge(
        f"order {c.n} needs max_degree <= 3 and min_girth >= 5 "
        f"(unconstrained enumeration stops at n <= {EXHAUSTIVE_CAP})"
    )


def _extension_ok(
    g: Graph, u: int, v: int, max_degree: int | None, min_girth: int | float | None
) -> bool:
    if max_degree is not None and (
        g.degree(u) + 1 > max_degree or g.degree(v) + 1 > max_degree
    ):
        return False
    if min_girth is not None and min_girth > 3:
        d = _bfs_distances(g, u)[v]
        if 0 <= d < min_girth - 1:
            return False
    return True


def _edge_levels_impl(
    n: int,
    max_degree: int | None,
    min_girth: int | float | None,
    rng: Random | None = None,
) -> list[list[CanonicalForm]]:
    empty = canonical_form(Graph(n, (0,) * n))
    levels = [[empty]]
    current = [empty]
    while current:
        nxt: set[CanonicalForm] = set()
        parents = list(current)
        if rng is not None:
            rng.shuffle(parents)
        for form in parents:
            g = form.to_graph()
            pairs = [
                (u, v)
                for u in range(n - 1)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
            if rng is not None:
                rng.shuffle(pairs)
            for u, v in pairs:
                if _extension_ok(g, u, v, max_degree, min_girth):
                    nxt.add(canonical_form(g.with_edge(u, v)))
        current = sorted(nxt)
        if current:
            levels.append(current)
    return levels


@lru_cache(maxsize=None)
def _edge_levels(
    n: int, max_degree: int | None, min_girth: int | float | None
) -> tuple[tuple[CanonicalForm, ...], ...]:
    return tuple(tuple(lv) for lv in _edge_levels_impl(n, max_degree, min_girth))


@lru_cache(maxsize=None)
def _tree_forms(k: int) -> tuple[CanonicalForm, ...]:
    """Trees on k vertices: attach one leaf everywhere on every smaller tree."""
    if k == 1:
        return (canonical_form(Graph(1, (0,))),)
    out: set[CanonicalForm] = set()
    for form in _tree_forms(k - 1):
        t = form.to_graph()
        base = list(t.edges())
        for v in range(t.n):
            out.add(canonical_form(from_edge_list(k, base + [(v, k - 1)])))
    return tuple(sorted(out))


def enumerate_graphs(
    c: EnumConstraints, _shuffle_seed: int | None = None
) -> Iterator[Graph]:
    """Yield one canonically labeled representative per isomorphism class.

    The stream is sorted by canonical form, so it is independent of any
    internal exploration order.
    """
    mode = _mode(c)
    if mode == "trees":
        forms = _tree_forms(c.n)
        for form in forms:
            t = form.to_graph()
            if c.max_degree is not None and max(t.degrees()) > c.max_degree:
                continue
            yield t
        return
    if _shuffle_seed is None:
        levels = _edge_levels(c.n, c.max_degree, c.min_girth)
    else:
        levels = _edge_levels_impl(
            c.n, c.max_degree, c.min_girth, Random(_shuffle_seed)
        )
    forms = sorted(f for lv in levels for f in lv)
    for form in forms:
        g = form.to_graph()
        if c.connected_only and not is_connected(g):
            continue
        yield g
