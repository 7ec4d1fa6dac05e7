"""The derived catalog of res = 3 graphs beyond even cycles and the 3-star.

Order bounds confine such graphs to n <= 6 at girth 3 and, at girth 5,
to n <= 10 with maximum degree 3, so a scan of every connected graph to
order 7 plus a degree/girth-capped scan of orders 8..10, both grown one
vertex at a time by `enumeration`, re-derives the catalog instead of
transcribing drawings.  The result is frozen as a fixture of sorted
graph6 lines; rebuilding must reproduce it byte for byte.

No candidate gets a distance matrix.  The res of a graph is one more
than the most vertices equidistant from a single pair, and
`enumeration._most_equidistant` counts them on the spheres that
`graphs._row_layers` grows from the adjacency rows, radius by radius,
stopping at the first pair with three:
res is 3 iff the count is exactly 2.  The scan of orders 8..10 grows
only graphs with m2 <= 2, the same count capped at radius 2.  The
fixture load re-verifies each member through `resolving_number`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator

from . import enumeration
from .canon import CanonicalForm, canonical_form
from .errors import CatalogMissing, TheoremViolation
from .enumeration import _most_equidistant
from .graphs import Graph
from .invariants import clique_number, girth, path_cycle_star
from .resolve import resolving_number
from .serial import numbered, parse_graph6, write_graph6

FIXTURE_NAME = "res3_catalog.g6"


@dataclass(frozen=True)
class CatalogMember:
    form: CanonicalForm
    graph6: str
    n: int
    girth: int
    degree_sequence: tuple[int, ...]


@dataclass(frozen=True)
class Res3Catalog:
    """Sorted members; girth 3 and girth 5 slices partition the set."""

    members: tuple[CatalogMember, ...]

    def lookup(self, form: CanonicalForm) -> CatalogMember | None:
        for member in self.members:
            if member.form == form:
                return member
        return None

    def slice_by_girth(self, value: int) -> tuple[CatalogMember, ...]:
        return tuple(m for m in self.members if m.girth == value)


def _member_from_graph(g: Graph) -> CatalogMember:
    form = canonical_form(g)
    canonical = form.to_graph()
    gg = girth(canonical)
    if gg not in (3, 5):
        raise TheoremViolation(
            f"catalog candidate of order {g.n} has girth {gg}; "
            "only 3 and 5 can occur"
        )
    return CatalogMember(
        form=form,
        graph6=write_graph6(canonical),
        n=canonical.n,
        girth=int(gg),
        degree_sequence=tuple(sorted(canonical.degrees())),
    )


def _structural(g: Graph) -> bool:
    """Whether a connected res-3 graph is an even cycle or the 3-leaf star."""
    _, is_cycle, is_star = path_cycle_star(g)
    return is_cycle or is_star and g.n == 4


def _candidate_stream() -> Iterator[Graph]:
    # enumerate_graphs is looked up on its module at call time, so a
    # wrapper installed there (a tracer, a timer) sees every candidate
    for n in range(2, 8):
        yield from enumeration.enumerate_graphs(enumeration.EnumConstraints(n))
    # a res-3 graph has m2 <= 2, so the sparse orders are pruned by it
    for n in (8, 9, 10):
        yield from enumeration.enumerate_graphs(
            enumeration.EnumConstraints(n, max_degree=3, min_girth=5, max_m2=2)
        )


def build_res3_catalog() -> Res3Catalog:
    """Scan the bounded space and keep every res-3 class that needs cataloging.

    The sparse orders are grown under m2 <= 2, and every candidate is
    decided on its adjacency rows: res = 3 iff the most vertices
    equidistant from one pair number exactly 2, a count the sphere kernel
    stops as soon as it passes 2, so no distance matrix is built.  Even
    cycles and the 3-leaf star are classified structurally, so they stay
    out of the member list.  The stream yields each class once, so no
    member repeats.
    """
    members = (
        _member_from_graph(g)
        for g in _candidate_stream()
        if _most_equidistant(g.adj, 2) == 2 and not _structural(g)
    )
    return Res3Catalog(tuple(sorted(members, key=lambda m: m.graph6)))


def render_fixture(catalog: Res3Catalog) -> str:
    return "".join(m.graph6 + "\n" for m in catalog.members)


def _fixture_member(line: str) -> CatalogMember:
    g = parse_graph6(line)
    if resolving_number(g).res != 3:
        raise CatalogMissing(f"graph {line!r} does not have res = 3")
    if _structural(g):
        raise CatalogMissing(
            f"graph {line!r} is an even cycle or the 3-star, which are "
            "classified structurally, not catalog members"
        )
    return _member_from_graph(g)


def load_fixture_text(text: str | Iterable[str]) -> Res3Catalog:
    """Rebuild a catalog from fixture text or lines, re-verifying every member.

    An error names its fixture line and keeps its class.  Even cycles and
    the 3-star have res = 3 but are classified structurally, so a line
    holding one is bad input, not a catalog member.
    """
    members = sorted(numbered(text, _fixture_member), key=lambda m: m.graph6)
    if not members:
        raise CatalogMissing("fixture contains no members")
    return Res3Catalog(tuple(members))


@lru_cache(maxsize=1)
def load_default_catalog() -> Res3Catalog:
    """The packaged fixture, parsed and verified once per process."""
    try:
        text = (
            resources.files("resnum").joinpath("data").joinpath(FIXTURE_NAME)
        ).read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise CatalogMissing(
            f"packaged fixture {FIXTURE_NAME} is unavailable: {exc}"
        )
    return load_fixture_text(text)


def clique_equals_res_report(catalog: Res3Catalog) -> dict:
    """Derived omega = res = 3 set, flagging the one girth-3 member it excludes.

    The characterization of omega = res = 3 by the full girth-3 slice
    cannot be taken literally: the slice contains the complete graph on 4
    vertices, whose clique number is 4.  The report carries the derived
    set and the excluded members explicitly.
    """
    derived = []
    excluded = []
    for member in catalog.slice_by_girth(3):
        omega = clique_number(member.form.to_graph())
        if omega == 3:
            derived.append(member.graph6)
        else:
            excluded.append({"graph6": member.graph6, "omega": omega})
    return {
        "derived_size": len(derived),
        "derived": derived,
        "excluded": excluded,
        "discrepancy_flagged": bool(excluded),
    }
