"""Machine-checkable verdicts for the inequality suite.

Each verdict row carries raw lhs/rhs integers so a report can be audited
without re-deriving the arithmetic.  Compound statements (the order
sandwich, the four-link parameter chain) expand into one row per
inequality, tied together by prop_id and distinguished by part.
Inapplicability is data, never an error.

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

from .errors import InvalidPartition, NotApplicable, TooLarge
from .graphs import Graph, distance_matrix
from .invariants import InvariantSummary
from .resolve import upper_dimension

PROP_IDS = (
    "DiamTree",
    "Girth",
    "CliqueUB",
    "OrderBounds",
    "OrderTree",
    "MaxDeg",
    "MaxDegTree",
    "Chain",
)


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


def verify_bounds(g: Graph, inv: InvariantSummary, res: int) -> tuple[BoundVerdict, ...]:
    """All verdict rows for one graph, in fixed order."""
    out: list[BoundVerdict] = []
    tree_not_path = inv.is_tree and not inv.is_path
    general = not inv.is_path and not inv.is_cycle

    if tree_not_path:
        sig = inv.spider
        match = (
            sig is not None
            and sig[1] == sig[2] == res - 2
            and sig[0] <= sig[1]
        )
        out.append(
            _row("DiamTree", inv.diameter, 2 * res - 4, extremal_match=match)
        )
    else:
        out.append(_na("DiamTree", "tree bound; needs a non-path tree"))

    if not inv.is_tree and not inv.is_cycle:
        out.append(_row("Girth", int(inv.girth), 2 * res - 1))
    else:
        out.append(_na("Girth", "needs a cycle-containing non-cycle graph"))

    out.append(_row("CliqueUB", inv.omega, res + 1, extremal_match=inv.omega == g.n))

    if general:
        out.append(_row("OrderBounds", res + 1, g.n, part="lower"))
        rhs = _order_upper_rhs(res, inv.girth, inv.max_degree)
        out.append(_row("OrderBounds", g.n, rhs, part="upper"))
    else:
        out.append(_na("OrderBounds", "excludes paths and cycles", part="lower"))
        out.append(_na("OrderBounds", "excludes paths and cycles", part="upper"))

    if tree_not_path:
        sig = inv.spider
        match = sig is not None and sig[0] == sig[1] == sig[2] == res - 2
        out.append(_row("OrderTree", g.n, 3 * res - 5, extremal_match=match))
    else:
        out.append(_na("OrderTree", "tree bound; needs a non-path tree"))

    if general:
        rhs = 3 * res - 4 if inv.girth == 3 else res
        out.append(_row("MaxDeg", inv.max_degree, rhs))
    else:
        out.append(_na("MaxDeg", "excludes paths and cycles"))

    if tree_not_path:
        out.append(
            _row("MaxDegTree", inv.max_degree, res, extremal_match=inv.is_star)
        )
    else:
        out.append(_na("MaxDegTree", "tree bound; needs a non-path tree"))

    try:
        if g.n < 2:
            raise NotApplicable("single vertex has no vertex pair")
        dims = upper_dimension(g)
    except (NotApplicable, TooLarge) as exc:
        for part in ("unit_le_dim", "dim_le_updim", "updim_le_res", "res_le_order"):
            out.append(_na("Chain", str(exc), part=part))
    else:
        out.append(_row("Chain", 1, dims.dim, part="unit_le_dim"))
        out.append(_row("Chain", dims.dim, dims.updim, part="dim_le_updim"))
        out.append(_row("Chain", dims.updim, res, part="updim_le_res"))
        out.append(_row("Chain", res, g.n - 1, part="res_le_order"))

    return tuple(out)


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
