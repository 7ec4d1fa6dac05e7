"""Machine-checkable verdicts for the inequality suite.

Each verdict row carries raw lhs/rhs integers so a report can be audited
without re-deriving the arithmetic.  Compound statements (the order
sandwich, the four-link parameter chain) expand into one row per
inequality, tied together by prop_id and distinguished by part.
Inapplicability is data, never an error.  Each statement's rows come from
its own builder in `_ROWS`, so a request for one prop builds that prop's
rows alone, and only the Chain rows build the 2^n dimension table.

Rows are interned: `_na` and `_row` build each distinct row once and
hand the same frozen object to every graph that has it, so a row compares
and hashes by identity.  Value equality would let a row holding True and
one holding 1 meet as one key, though they render differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, InvalidPartition, NotApplicable, TooLarge
from .graphs import Graph, distance_matrix
from .invariants import InvariantSummary
from .resolve import upper_dimension


@dataclass(frozen=True, eq=False)
class BoundVerdict:
    prop_id: str
    part: str | None
    applicable: bool
    reason: str | None
    lhs: int | None
    rhs: int | None
    holds: bool | None
    equality: bool | None
    extremal_match: bool | None


# the reasons are a finite set of fixed texts and cap messages
@lru_cache(maxsize=None)
def _na(prop_id: str, reason: str, part: str | None = None) -> BoundVerdict:
    return BoundVerdict(prop_id, part, False, reason, None, None, None, None, None)


# typed: a row built from 1 must not be served for one built from True
@lru_cache(maxsize=4096, typed=True)
def _row(
    prop_id: str,
    lhs: int,
    rhs: int,
    part: str | None = None,
    extremal_match: bool | None = None,
) -> BoundVerdict:
    return BoundVerdict(
        prop_id,
        part,
        True,
        None,
        int(lhs),
        int(rhs),
        lhs <= rhs,
        lhs == rhs,
        extremal_match,
    )


def _order_upper_rhs(res: int, g: int | float, max_degree: int) -> int:
    # guard order matters: girth rows first, then the high-girth degree split
    if g == 3:
        return 3 * res - 3
    if g == 4:
        return 4 * res - 4
    if g == 5:
        return 5 * res - 5
    if max_degree > 3:
        return 5 * res - 9
    return 6 * res - 8


def _diam_tree(g: Graph, inv: InvariantSummary, res: int) -> tuple[BoundVerdict, ...]:
    if not inv.is_tree or inv.is_path:
        return (_na("DiamTree", "tree bound; needs a non-path tree"),)
    sig = inv.spider
    match = sig is not None and sig[1] == sig[2] == res - 2 and sig[0] <= sig[1]
    return (_row("DiamTree", inv.diameter, 2 * res - 4, extremal_match=match),)


def _girth(g: Graph, inv: InvariantSummary, res: int) -> tuple[BoundVerdict, ...]:
    if inv.is_tree or inv.is_cycle:
        return (_na("Girth", "needs a cycle-containing non-cycle graph"),)
    return (_row("Girth", int(inv.girth), 2 * res - 1),)


def _clique_ub(g: Graph, inv: InvariantSummary, res: int) -> tuple[BoundVerdict, ...]:
    return (_row("CliqueUB", inv.omega, res + 1, extremal_match=inv.omega == g.n),)


def _order_bounds(g: Graph, inv: InvariantSummary, res: int) -> tuple[BoundVerdict, ...]:
    if inv.is_path or inv.is_cycle:
        reason = "excludes paths and cycles"
        return (_na("OrderBounds", reason, part="lower"), _na("OrderBounds", reason, part="upper"))
    rhs = _order_upper_rhs(res, inv.girth, inv.max_degree)
    return (
        _row("OrderBounds", res + 1, g.n, part="lower"),
        _row("OrderBounds", g.n, rhs, part="upper"),
    )


def _order_tree(g: Graph, inv: InvariantSummary, res: int) -> tuple[BoundVerdict, ...]:
    if not inv.is_tree or inv.is_path:
        return (_na("OrderTree", "tree bound; needs a non-path tree"),)
    sig = inv.spider
    match = sig is not None and sig[0] == sig[1] == sig[2] == res - 2
    return (_row("OrderTree", g.n, 3 * res - 5, extremal_match=match),)


def _max_deg(g: Graph, inv: InvariantSummary, res: int) -> tuple[BoundVerdict, ...]:
    if inv.is_path or inv.is_cycle:
        return (_na("MaxDeg", "excludes paths and cycles"),)
    rhs = 3 * res - 4 if inv.girth == 3 else res
    return (_row("MaxDeg", inv.max_degree, rhs),)


def _max_deg_tree(g: Graph, inv: InvariantSummary, res: int) -> tuple[BoundVerdict, ...]:
    if not inv.is_tree or inv.is_path:
        return (_na("MaxDegTree", "tree bound; needs a non-path tree"),)
    return (_row("MaxDegTree", inv.max_degree, res, extremal_match=inv.is_star),)


def _chain(g: Graph, inv: InvariantSummary, res: int) -> tuple[BoundVerdict, ...]:
    """The only rows that build the 2^n dimension table."""
    try:
        if g.n < 2:
            raise NotApplicable("single vertex has no vertex pair")
        dims = upper_dimension(g)
    except (NotApplicable, TooLarge) as exc:
        parts = ("unit_le_dim", "dim_le_updim", "updim_le_res", "res_le_order")
        return tuple(_na("Chain", str(exc), part=part) for part in parts)
    return (
        _row("Chain", 1, dims.dim, part="unit_le_dim"),
        _row("Chain", dims.dim, dims.updim, part="dim_le_updim"),
        _row("Chain", dims.updim, res, part="updim_le_res"),
        _row("Chain", res, g.n - 1, part="res_le_order"),
    )


# each statement's rows, in PROP_IDS order
_ROWS = {
    "DiamTree": _diam_tree,
    "Girth": _girth,
    "CliqueUB": _clique_ub,
    "OrderBounds": _order_bounds,
    "OrderTree": _order_tree,
    "MaxDeg": _max_deg,
    "MaxDegTree": _max_deg_tree,
    "Chain": _chain,
}
PROP_IDS = tuple(_ROWS)


def verify_bounds(
    g: Graph, inv: InvariantSummary, res: int, prop: str = "all"
) -> tuple[BoundVerdict, ...]:
    """All verdict rows for one graph in fixed order, or, for a prop id
    of PROP_IDS, that statement's rows alone; any other prop is an
    InputError."""
    if prop == "all":
        return tuple(row for rows in _ROWS.values() for row in rows(g, inv, res))
    if prop not in _ROWS:
        raise InputError(f"unknown prop {prop!r}; known: all, {', '.join(PROP_IDS)}")
    return _ROWS[prop](g, inv, res)


def vertex_pairs(vertices: Iterable[int]) -> frozenset[tuple[int, int]]:
    """All unordered pairs over a vertex collection."""
    vs = sorted(set(vertices))
    return frozenset(combinations(vs, 2))


def _normalize_pairs(g: Graph, pairs) -> list[tuple[int, int]]:
    out = set()
    for pair in pairs:
        x, y = pair
        for v in (x, y):
            if not 0 <= v < g.n:
                raise InvalidPartition(f"pair vertex {v} outside 0..{g.n - 1}")
        if x == y:
            raise InvalidPartition(f"pair ({x},{y}) is degenerate")
        out.add((min(x, y), max(x, y)))
    return sorted(out)


def counting_lemma_check(
    g: Graph,
    res: int,
    pairs,
    partition: Sequence[Iterable[int]],
    k: Sequence[int],
) -> tuple[bool, bool]:
    """Check a failure-count certificate against the global counting budget.

    hypothesis_ok: every vertex of part i leaves at least k[i] of the given
    pairs unresolved.  inequality_ok: sum(|part_i| * k_i) stays within
    |pairs| * (res - 1).  The second is a theorem whenever the first holds,
    so a (True, False) outcome signals a bug upstream, not new mathematics.
    """
    parts = [sorted(set(p)) for p in partition]
    if len(parts) != len(k):
        raise InvalidPartition(
            f"{len(parts)} parts but {len(k)} failure counts"
        )
    if any(ki < 0 for ki in k):
        raise InvalidPartition("failure counts must be nonnegative")
    seen: set[int] = set()
    for part in parts:
        for v in part:
            if not 0 <= v < g.n:
                raise InvalidPartition(f"vertex {v} outside 0..{g.n - 1}")
            if v in seen:
                raise InvalidPartition(f"vertex {v} appears in two parts")
            seen.add(v)
    if len(seen) != g.n:
        raise InvalidPartition("parts do not cover every vertex")

    norm = _normalize_pairs(g, pairs)
    dm = distance_matrix(g)
    xs = [x for x, _ in norm]
    ys = [y for _, y in norm]
    # fails[u]: how many of the given pairs vertex u leaves unresolved
    fails = np.count_nonzero(dm[:, xs] == dm[:, ys], axis=1)
    hypothesis_ok = all(
        fails[u] >= ki for part, ki in zip(parts, k) for u in part
    )

    weighted = sum(len(part) * ki for part, ki in zip(parts, k))
    inequality_ok = weighted <= len(norm) * (res - 1)
    return hypothesis_ok, inequality_ok
