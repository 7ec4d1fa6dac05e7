"""graph6 and edge-list serialization plus deterministic JSON rendering.

The graph6 codec is written out long-hand for orders up to 62 (one header
byte): the upper triangle is read column by column, packed six bits per
byte, each byte offset by 63; the reader turns the bytes into bit text
in one `str.translate`.  Both directions hold the triangle as one int
with slot (0,1) most significant, the layout of `CanonicalForm.bits`,
and `triangle_graph` is the one decoder of it.  Round trips are exercised
heavily in the tests, including against an independent decoder.
"""

from __future__ import annotations

import json
import re
import string
from typing import Callable, Iterator, TypeVar

from .errors import MalformedGraph6, MalformedLine, ResnumError, TooLarge
from .graphs import Graph, check_edge, check_order, from_edge_list

GRAPH6_CAP = 62
# parsing sets this cap: `resnum compute` takes 1.6-1.9 s on K800, 1.3 s of it
# reading 319,600 edge lines; a path 0.8-0.9 s, a star 0.3-0.4 s (2-core x86-64)
EDGE_LIST_CAP = 800
# each graph6 byte to its six bits, most significant first
_SIX = {63 + v: format(v, "06b") for v in range(64)}
# only these split lines, fields and numbers: str.splitlines(), str.split()
# and int() also take \x1c..\x1f, Unicode spaces and digits, signs and "_"
_LINE_BREAK = re.compile(r"\r\n?|\n")
_SPACES = re.compile(f"[{re.escape(string.whitespace)}]+")
_DIGITS = re.compile("[0-9]+")
T = TypeVar("T")


def triangle_graph(n: int, bits: int) -> Graph:
    """The graph whose column-wise upper triangle is `bits`, slot (0,1) most
    significant; the rows are filled column by column from the set bits."""
    rows = [0] * n
    shift = n * (n - 1) // 2
    for j in range(1, n):
        shift -= j
        col = bits >> shift & ((1 << j) - 1)
        while col:
            low = col & -col
            # bit k of column j is row j-1-k
            i = j - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            col ^= low
    return Graph(n, tuple(rows))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (order at most 62)."""
    s = line.strip(string.whitespace)
    if not s:
        raise MalformedGraph6("empty line")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
        if not s:
            raise MalformedGraph6("no graph after the >>graph6<< header")
    body = s.translate(_SIX)
    # a character outside 63..126 stays one character, not six bits
    if len(body) != 6 * len(s):
        raise MalformedGraph6(f"byte outside graph6 range in {line!r}")
    n = ord(s[0]) - 63
    if n == 63:
        raise MalformedGraph6("multi-byte order header (n > 62) not supported")
    if n < 1:
        raise MalformedGraph6("graph6 order must be at least 1")
    nbits = n * (n - 1) // 2
    expect = 1 + (nbits + 5) // 6
    if len(s) != expect:
        raise MalformedGraph6(
            f"expected {expect} bytes for order {n}, got {len(s)}"
        )
    if "1" in body[6 + nbits:]:
        raise MalformedGraph6("nonzero padding bits")
    return triangle_graph(n, int(body[6:6 + nbits] or "0", 2))


def write_graph6(g: Graph) -> str:
    """Encode a graph of order at most 62 as one graph6 line (no newline)."""
    if g.n > GRAPH6_CAP:
        raise TooLarge(f"graph6 writer is capped at n <= {GRAPH6_CAP}, got {g.n}")
    acc = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
    nbits = g.n * (g.n - 1) // 2
    pad = -nbits % 6
    acc <<= pad
    return chr(g.n + 63) + "".join(
        chr((acc >> s & 63) + 63) for s in range(nbits + pad - 6, -1, -6)
    )


def numbered(text: str, read: Callable[[str], T]) -> Iterator[T]:
    """Yield `read(line)` for each nonblank line of text.  An error that
    `read` raises comes out as its own class with the line number, counted
    from 1, in front: the one place an input error names its line."""
    for lineno, line in enumerate(_LINE_BREAK.split(text), start=1):
        if line.strip(string.whitespace):
            try:
                item = read(line)
            except ResnumError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
            yield item


def parse_graph6_lines(text: str) -> Iterator[Graph]:
    """Decode every nonempty line of a graph6 stream; errors name their line."""
    return numbered(text, parse_graph6)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    The first significant line is ``n <order>``; every following line is
    ``u v``.  Blank lines and lines starting with ``#`` are skipped.
    Orders above `EDGE_LIST_CAP` raise TooLarge before anything is built.
    Every error on a line, a self-loop or an out-of-range vertex too,
    names that line.
    """
    n = None

    def read(raw: str) -> tuple[int, int] | None:
        nonlocal n
        line = raw.strip(string.whitespace)
        if line.startswith("#"):
            return None
        parts = _SPACES.split(line)
        if n is None:
            if len(parts) != 2 or parts[0] != "n" or not _DIGITS.fullmatch(parts[1]):
                raise MalformedLine(f"expected header 'n <order>', got {raw!r}")
            # digit count first: int() refuses strings of over 4300 digits
            digits = parts[1].lstrip("0") or "0"
            if len(digits) > len(str(EDGE_LIST_CAP)) or int(digits) > EDGE_LIST_CAP:
                raise TooLarge(f"edge-list order is capped at n <= {EDGE_LIST_CAP}")
            n = check_order(int(digits))
            return None
        if len(parts) != 2:
            raise MalformedLine(f"expected 'u v', got {raw!r}")
        try:
            # a part that is no digit string leaves too few values to unpack
            u, v = (int(p) for p in parts if _DIGITS.fullmatch(p))
        except ValueError:
            raise MalformedLine(f"non-integer vertex in {raw!r}")
        return check_edge(n, u, v)

    edges = [edge for edge in numbered(text, read) if edge]
    if n is None:
        raise MalformedLine("missing 'n <order>' header line")
    return from_edge_list(n, edges)


def to_json_line(obj) -> str:
    """Render a report deterministically: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
