"""graph6 and edge-list serialization plus deterministic JSON rendering.

The graph6 codec is written out long-hand for orders up to 62 (one header
byte): the upper triangle is read column by column, packed six bits per
byte, each byte offset by 63.  `_cells` is the one statement of that slot
order, as the two cells of each slot in an n x 64 bit matrix whose rows
pack into the 64-bit words of the int adjacency rows.  `_from_triangle`
scatters a triangle's bits into both cells and packs the rows; the reader
(one `bytes.translate` checks the line and moves each byte's six bits to
its top, and numpy unpacks them) decodes through it.
`CanonicalForm.to_graph` needs no decoding, since a form carries its
rows; the tests' forms built from their bits alone decode through it.
The writer gathers the upper cells from the unpacked rows.
Round trips are exercised heavily in the tests, including against
networkx.
"""

from __future__ import annotations

import json
import re
import string
from functools import lru_cache
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import MalformedGraph6, MalformedLine, ResnumError, TooLarge
from .graphs import Graph, check_edge, order_of, vertex_of

GRAPH6_CAP = 62
# each graph6 byte (63..126) to its six bits, shifted to the top of the
# byte; every other byte to 1, which no graph6 byte maps to
_TOP_SIX = bytes((c - 63) << 2 if 63 <= c <= 126 else 1 for c in range(256))
# only \r\n, \r and \n split lines and only these split fields and numbers:
# str.splitlines(), str.split() and int() also take \x1c..\x1f, Unicode
# spaces and digits, signs and "_"
_SPACES = re.compile(f"[{re.escape(string.whitespace)}]+")
_DIGITS = re.compile("[0-9]+")
# how much of a bad line an error message quotes
_ECHO_CHARS = 32
T = TypeVar("T")


def _echo(line: str) -> str:
    """The line quoted, or its first `_ECHO_CHARS` characters quoted and the
    count of the rest, so that a message stays short on any input."""
    if len(line) <= _ECHO_CHARS:
        return repr(line)
    return f"{line[:_ECHO_CHARS]!r} and {len(line) - _ECHO_CHARS} more characters"


@lru_cache(maxsize=None)
def _cells(n: int) -> np.ndarray:
    """The two flat cells of each triangle slot in an n x 64 matrix, upper
    (i*64 + j) then lower (j*64 + i), slots in graph6 order; int16 keeps
    the cache of the 62 orders small (n*64 <= 3968 fits)."""
    j = np.repeat(np.arange(1, n), np.arange(1, n))
    i = np.arange(j.size) - j * (j - 1) // 2
    return np.stack([i * 64 + j, j * 64 + i]).astype(np.int16)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (order at most 62)."""
    s = line.strip(string.whitespace)
    if not s:
        raise MalformedGraph6("empty line")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
        if not s:
            raise MalformedGraph6("no graph after the >>graph6<< header")
    # UTF-8 spells every non-ASCII character, a lone surrogate too, in
    # bytes of 128 or more
    top = s.encode(errors="surrogatepass").translate(_TOP_SIX)
    if 1 in top:
        raise MalformedGraph6(f"byte outside graph6 range in {_echo(line)}")
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
    # the padding is the low -nbits % 6 bits of the last byte
    if ord(s[-1]) - 63 & (1 << -nbits % 6) - 1:
        raise MalformedGraph6("nonzero padding bits")
    body = np.frombuffer(top, np.uint8, offset=1)
    bits = np.unpackbits(body[:, None], axis=1, count=6).ravel()
    return _from_triangle(n, bits[:nbits])


def _from_triangle(n: int, bits: np.ndarray) -> Graph:
    """The graph of order n whose triangle slots, in graph6 order, hold
    `bits`, a 0/1 uint8 array of n(n-1)/2 entries."""
    cells = np.zeros(n * 64, np.uint8)
    # bits broadcasts over both rows of `_cells(n)`, upper and lower cells;
    # numpy scatters faster through intp indices than through int16 ones
    cells[_cells(n).astype(np.intp)] = bits
    return Graph(n, tuple(np.packbits(cells, bitorder="little").view("<u8").tolist()))


def write_graph6(g: Graph) -> str:
    """Encode a graph of order at most 62 as one graph6 line (no newline)."""
    n = g.n
    if n > GRAPH6_CAP:
        raise TooLarge(f"graph6 writer is capped at n <= {GRAPH6_CAP}, got {n}")
    cells = np.unpackbits(np.array(g.adj, "<u8").view(np.uint8), bitorder="little")
    nbits = n * (n - 1) // 2
    # the slots then the zero padding, six bits to a byte
    six = np.zeros(nbits + -nbits % 6, np.uint8)
    six[:nbits] = cells[_cells(n)[0]]
    body = (np.packbits(six.reshape(-1, 6), axis=1) >> 2) + 63
    return chr(n + 63) + body.tobytes().decode("ascii")


def numbered(text: str | Iterable[str], read: Callable[[str], T]) -> Iterator[T]:
    """Yield `read(line)` for each nonblank line of text, given whole or
    as pieces that each end at a line feed but the last, such as the lines
    of a file as they arrive; a line ends at CR LF, CR or LF.  An error
    that `read` raises comes out as its own class with the line number,
    counted from 1, in front: the one place an input error names its line."""
    lineno = 0
    for piece in (text,) if isinstance(text, str) else text:
        lines = piece.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        # a piece that ends at a break leaves an empty line after it
        if not lines[-1]:
            lines.pop()
        for line in lines:
            lineno += 1
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
    Orders past `graphs.ORDER_CAP` raise TooLarge before anything is built.
    Every error on a line, a self-loop or an out-of-range vertex too,
    names that line.
    """
    # the header sizes the rows, so they stay empty until it is read
    rows: list[int] = []

    def read(raw: str) -> None:
        line = raw.strip(string.whitespace)
        if line.startswith("#"):
            return
        parts = _SPACES.split(line)
        if not rows:
            if len(parts) != 2 or parts[0] != "n" or not _DIGITS.fullmatch(parts[1]):
                raise MalformedLine(f"expected header 'n <order>', got {_echo(raw)}")
            rows.extend([0] * order_of(parts[1]))
            return
        if len(parts) != 2:
            raise MalformedLine(f"expected 'u v', got {_echo(raw)}")
        if not all(map(_DIGITS.fullmatch, parts)):
            raise MalformedLine(f"non-integer vertex in {_echo(raw)}")
        # checked here, once, so that the error names its line
        n = len(rows)
        u, v = check_edge(n, vertex_of(n, parts[0]), vertex_of(n, parts[1]))
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    for _ in numbered(text, read):
        pass
    if not rows:
        raise MalformedLine("missing 'n <order>' header line")
    return Graph(len(rows), tuple(rows))


# json.dumps builds an encoder per call unless every option is the default
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def to_json_line(obj) -> str:
    """Render a report deterministically: sorted keys, no whitespace."""
    return _JSON.encode(obj)
