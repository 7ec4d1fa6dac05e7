"""Command line front end.

Every report is newline-delimited JSON with sorted keys, one line per
graph, so output can be piped and diffed; a command's report function
returns its line, and `verify` joins the memoised encodings of its
interned rows.  graph6 input streams: each line is read, reported and
flushed before the next one is read.  Every input, from a file or stdin,
is read as bytes a line at a time and decoded as ASCII whatever the
locale.  Exit codes: 0 success, 1 stdout closed by its reader, 2 bad
input, 3 size cap exceeded, 4 theorem violation (reserved for outcomes
that would falsify a published result; seeing it means a bug).  An error
on an input line names that line; `serial.numbered` writes the prefix.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import string
import sys
from typing import Callable, Iterator

from .bounds import PROP_IDS, BoundVerdict, verify_bounds
from .catalog import (
    build_res3_catalog,
    clique_equals_res_report,
    load_default_catalog,
    load_fixture_text,
    render_fixture,
)
from .enumeration import EnumConstraints, enumerate_graphs
from .errors import InputError, InvalidFamilyParam, TheoremViolation, TooLarge
from .families import FamilySpec, classify_res, family_names, generate
from .graphs import Graph
from .invariants import invariant_summary
from .resolve import resolving_number, upper_dimension
from .serial import numbered, parse_edge_list, parse_graph6, to_json_line, write_graph6


def integer(text: str) -> int:
    """ASCII -?[0-9]+ between ASCII whitespace, else ValueError: int() also
    takes "_", "+", non-ASCII digits and Unicode whitespace."""
    s = text.strip(string.whitespace)
    if not re.fullmatch("-?[0-9]+", s):
        raise ValueError(text)
    return int(s)


def _read_lines(path: str) -> Iterator[str]:
    """Each line of the file, or of stdin for "-", as it arrives, decoded as
    ASCII; a byte past ASCII stays a lone surrogate for its line's reader."""
    try:
        if path == "-" and sys.stdin is None:  # fd 0 was closed at start
            raise OSError("stdin is closed")
        with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as lines:
            for line in lines:
                yield line.decode("ascii", "surrogateescape")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _report_each(args: argparse.Namespace, report: Callable[[Graph], str]) -> int:
    """Print `report(g)`, one JSON line per input graph.  graph6 input is
    read a line at a time, and each report is flushed before the next
    line is read, so a pipe gets each report as soon as its line has
    arrived, and the reports of the lines before a bad one."""
    if args.format == "edgelist":
        print(report(parse_edge_list(_read_lines(args.input))))
        return 0
    reports = numbered(_read_lines(args.input), lambda line: report(parse_graph6(line)))
    count = 0
    for count, line in enumerate(reports, start=1):
        print(line, flush=True)
    if not count:
        raise InputError(f"no graph6 lines found in {args.input}")
    return 0


def _jsonable_girth(value) -> int | None:
    return None if math.isinf(value) else int(value)


def _cmd_compute(args: argparse.Namespace) -> int:
    def report(g: Graph) -> str:
        rep = resolving_number(g)
        inv = invariant_summary(g)
        out = {
            "n": g.n,
            "m": g.m,
            "res": rep.res,
            "witness_pair": list(rep.witness_pair) if rep.witness_pair else None,
            "diameter": inv.diameter,
            "girth": _jsonable_girth(inv.girth),
            "is_tree": inv.is_tree,
            "omega": inv.omega,
            "max_degree": inv.max_degree,
        }
        if args.dim or args.updim:
            dims = upper_dimension(g)
            if args.dim:
                out["dim"] = dims.dim
            if args.updim:
                out["updim"] = dims.updim
        return to_json_line(out)

    return _report_each(args, report)


def _cmd_classify(args: argparse.Namespace) -> int:
    def report(g: Graph) -> str:
        cat = classify_res(g)
        out = {"category": cat.tag, "res": cat.res}
        if cat.tag.startswith("Catalog"):
            out["catalog_member"] = cat.member.graph6
        return to_json_line(out)

    return _report_each(args, report)


@functools.lru_cache(maxsize=4096)
def _row_line(row: BoundVerdict) -> str:
    """One verdict row's JSON, encoded once per interned row."""
    return to_json_line(vars(row))


def _cmd_verify(args: argparse.Namespace) -> int:
    def report(g: Graph) -> str:
        inv = invariant_summary(g)
        res = resolving_number(g).res
        rows = verify_bounds(g, inv, res, args.prop)
        # the encoder writes a list as its items' encodings joined by ","
        return "[" + ",".join(map(_row_line, rows)) + "]"

    return _report_each(args, report)


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        params = tuple(map(integer, args.params.split(","))) if args.params else ()
    except ValueError:
        raise InvalidFamilyParam(f"params must be comma-separated integers, got {args.params!r}")
    print(write_graph6(generate(FamilySpec(kind=args.family, params=params))))
    return 0


def _cmd_enum(args: argparse.Namespace) -> int:
    constraints = EnumConstraints(
        n=args.n,
        max_degree=args.max_deg,
        min_girth=args.min_girth,
        trees_only=args.trees,
    )
    for g in enumerate_graphs(constraints):
        print(write_graph6(g))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.res != 3:
        raise InputError(f"only the res = 3 catalog is derivable, got --res {args.res}")
    derived = build_res3_catalog()
    if args.fixture:
        expected = load_fixture_text(_read_lines(args.fixture))
    else:
        expected = load_default_catalog()
    match = render_fixture(derived) == render_fixture(expected)
    g5 = derived.slice_by_girth(5)
    out = {
        "members": len(derived.members),
        "girth3": len(derived.slice_by_girth(3)),
        "girth5": len(g5),
        "girth5_orders": sorted(m.n for m in g5),
        "fixture_match": match,
        "clique_equals_res": clique_equals_res_report(derived),
    }
    print(to_json_line(out))
    return 0 if match else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call and kept: `parse_args` never writes to it."""
    parser = argparse.ArgumentParser(
        prog="resnum",
        description="Resolving-number computations, classifications, and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="file path, or - for stdin")
        p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")

    p = sub.add_parser("compute", help="resolving number plus invariant summary")
    add_input(p)
    p.add_argument("--dim", action="store_true", help="include metric dimension")
    p.add_argument("--updim", action="store_true", help="include upper dimension")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("classify", help="structural category of the resolving number")
    add_input(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="bound verdicts")
    add_input(p)
    p.add_argument("--prop", default="all", choices=("all",) + PROP_IDS)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a named family member as graph6")
    p.add_argument("--family", required=True, choices=family_names())
    p.add_argument("--params", default="", help="comma-separated integers")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("enum", help="stream connected graphs as graph6")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--max-deg", type=integer, default=None)
    p.add_argument("--min-girth", type=integer, default=None)
    p.add_argument("--trees", action="store_true")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("catalog", help="derive and validate the res = 3 catalog")
    p.add_argument("--res", type=integer, required=True)
    p.add_argument("--fixture", default=None, help="fixture path to validate against")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        print(end="", flush=True)  # a closed pipe raises here, not at exit; skips a None stdout
        return code
    except BrokenPipeError:  # the Python `signal` docs' recipe: the rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 4
    except TooLarge as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
