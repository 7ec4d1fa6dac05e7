"""graph6 codec and text formats.

The four short encodings asserted here were worked out by hand from the
format definition (column-wise upper-triangle bits, six per byte, each
offset by 63) and double-checked against networkx before freezing.
"""

import random

import networkx as nx
import pytest

from resnum import graphs, serial
from resnum.errors import (
    IndexOutOfRange,
    InvalidEdge,
    MalformedGraph6,
    MalformedLine,
    TooLarge,
)
from resnum.families import complete_graph
from resnum.graphs import ORDER_CAP, Graph, from_edge_list
from resnum.serial import (
    parse_edge_list,
    parse_graph6,
    parse_graph6_lines,
    to_json_line,
    write_graph6,
)

from oracles import triangle_graph


@pytest.mark.parametrize(
    "line,n,edges",
    [
        ("C~", 4, {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)}),
        ("Ch", 4, {(0, 1), (1, 2), (2, 3)}),
        ("Dhc", 5, {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}),
        ("@", 1, set()),
    ],
)
def test_frozen_encodings(line, n, edges):
    g = parse_graph6(line)
    assert g.n == n
    assert set(g.edges()) == edges
    assert write_graph6(g) == line


def test_optional_header_prefix_is_stripped():
    assert parse_graph6(">>graph6<<Ch") == parse_graph6("Ch")


def test_roundtrip_on_enumerated_classes(connected_by_order):
    for graphs in connected_by_order.values():
        for g in graphs:
            assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_on_random_labeled_graphs():
    rng = random.Random(417)
    for _ in range(300):
        n = rng.randint(1, 30)
        p = rng.random()
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = from_edge_list(n, edges)
        assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_agrees_with_networkx():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 20)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = from_edge_list(n, edges)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert write_graph6(g) == theirs
        back = nx.from_graph6_bytes(write_graph6(g).encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()}


def test_parse_agrees_with_networkx_at_every_order():
    # empty, complete and random graphs; the triangle as one int, the bits of
    # a canonical form, taken here straight from the graph6 bytes, decodes
    # through the reader's `serial._from_triangle`; the writer's line, padding
    # bits included, is networkx's
    rng = random.Random(62)
    for n in range(1, 63):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        p = rng.random()
        for edges in ([], pairs, [e for e in pairs if rng.random() < p]):
            built = from_edge_list(n, edges)
            line = write_graph6(built)
            h = nx.empty_graph(n)
            h.add_edges_from(edges)
            assert line.encode() + b"\n" == nx.to_graph6_bytes(h, header=False)
            acc = 0
            for ch in line[1:]:
                acc = acc << 6 | ord(ch) - 63
            bits = acc >> (-len(pairs) % 6)
            theirs = nx.from_graph6_bytes(line.encode())
            g = parse_graph6(line)
            assert g.n == theirs.number_of_nodes() == n
            assert set(g.edges()) == {(min(e), max(e)) for e in theirs.edges()} == set(edges)
            assert g == built == triangle_graph(n, bits)


def test_write_rejects_large_orders():
    with pytest.raises(TooLarge):
        write_graph6(Graph(63, (0,) * 63))


_OUTSIDE = "byte outside graph6 range in "
MALFORMED = {
    "": "empty line",  # no order byte
    "C": "expected 2 bytes for order 4, got 1",  # missing adjacency bytes
    "Chh": "expected 2 bytes for order 4, got 3",  # trailing bytes
    # control bytes are no whitespace, though str.strip() takes \x1c..\x1f
    "C\x1f": _OUTSIDE + "'C\\x1f'",
    "\x1f": _OUTSIDE + "'\\x1f'",
    "\x1cCh": _OUTSIDE + "'\\x1cCh'",
    "C>": _OUTSIDE + "'C>'",  # 62, just below the range
    "C\x7f": _OUTSIDE + "'C\\x7f'",  # byte above 126
    "Cé": _OUTSIDE + "'Cé'",  # a code point past ASCII
    "!C": _OUTSIDE + "'!C'",  # an order byte below 63
    "?": "graph6 order must be at least 1",
    "@?": "expected 1 bytes for order 1, got 2",
    "~??": "multi-byte order header (n > 62) not supported",
    ">>graph6<<": "no graph after the >>graph6<< header",
    " >>graph6<< ": "no graph after the >>graph6<< header",
}


@pytest.mark.parametrize("line", list(MALFORMED))
def test_malformed_graph6(line):
    with pytest.raises(MalformedGraph6) as exc:
        parse_graph6(line)
    assert str(exc.value) == MALFORMED[line]


def test_nonzero_padding_rejected():
    # P3 uses 3 of 6 bits; set a padding bit: 101001 -> 'h' valid, 101101 invalid
    with pytest.raises(MalformedGraph6):
        parse_graph6("B" + chr(63 + 0b101101))


@pytest.mark.parametrize("n", range(2, 13))
def test_padding_checked_at_every_width(n):
    # 1, 3, 6, 10, ... triangle bits leave 5, 3, 0, 2, ... padding bits
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    pad = 6 * nbytes - nbits
    head = chr(n + 63) + "?" * (nbytes - 1)
    for k in range(pad):
        with pytest.raises(MalformedGraph6):
            parse_graph6(head + chr(63 + (1 << k)))
    # the bit above the padding is the last slot, (n-2, n-1)
    assert list(parse_graph6(head + chr(63 + (1 << pad))).edges()) == [(n - 2, n - 1)]


def test_parse_lines_skips_blanks():
    graphs = list(parse_graph6_lines("C~\n\nCh\n"))
    assert [g.n for g in graphs] == [4, 4]


def test_edge_list_examples():
    g = parse_edge_list("n 3\n0 1\n1 2")
    assert set(g.edges()) == {(0, 1), (1, 2)}
    # disconnected input is representable; resolving ops reject it later
    assert parse_edge_list("n 2\n").m == 0
    with pytest.raises(IndexOutOfRange):
        parse_edge_list("n 3\n0 3")


def test_edge_list_comments_and_garbage():
    g = parse_edge_list("# path\nn 3\n\n0 1\n# mid comment\n1 2\n")
    assert g.m == 2
    with pytest.raises(MalformedLine):
        parse_edge_list("3\n0 1")
    with pytest.raises(MalformedLine):
        parse_edge_list("n 3\n0 1 2")
    with pytest.raises(MalformedLine):
        parse_edge_list("n 3\nx y")
    with pytest.raises(MalformedLine):
        parse_edge_list("n \u00b2\n")  # a digit to isdigit(), not to int()
    # int(), str.split() or str.splitlines() take each of these; an edge
    # list takes only ASCII digits and ASCII whitespace, and the error names
    # its line
    bad = {
        "n 11\n0 1_0": 2,
        "n 3\n+0 1": 2,
        "n 3\n0 -1": 2,
        "n 3\n0 \u0661": 2,  # ARABIC-INDIC DIGIT ONE
        "n \u0663\n0 1": 1,
        "n 3\n0 1\x1c1 2": 2,  # one line, two to str.splitlines()
        "n 3\n0\x1f1": 2,
        "n 3\n0\u00a01": 2,
        "n 3\n\n0 1\u20281 2": 3,
    }
    for text, lineno in bad.items():
        with pytest.raises(MalformedLine, match=f"^line {lineno}: "):
            parse_edge_list(text)
    # \r\n, \r and \n all end a line; \v and \f are ASCII whitespace
    assert parse_edge_list("n 3\r\n0 1\r1 2\n").m == 2
    assert parse_edge_list("n 3\n0\v1\f\n1\t2").m == 2


def test_edge_list_vertex_errors_name_their_line():
    with pytest.raises(IndexOutOfRange, match="^line 4: vertex 7 outside range 0..2$"):
        parse_edge_list("n 3\n0 1\n# c\n1 7\n")
    with pytest.raises(InvalidEdge, match="^line 3: self-loop at vertex 1$"):
        parse_edge_list("n 3\n0 1\n1 1\n")
    with pytest.raises(IndexOutOfRange, match="^line 2: graph order must be at least 1, got 0$"):
        parse_edge_list("# c\nn 0\n0 1\n")
    # zero-padded vertices are plain integers
    assert list(parse_edge_list("n 2\n0 00000001\n").edges()) == [(0, 1)]


def test_edge_list_vertices_are_read_like_the_order():
    # int() refuses strings of over 4300 digits, so leading zeros go first
    # and a number longer than n - 1 is out of range by its digit count
    zeros = "0" * 5000
    g = parse_edge_list(f"n {zeros}3\n0 1\n1 {zeros}2\n")
    assert list(g.edges()) == [(0, 1), (1, 2)]
    for big in ("1" * 5000, "9" * 5000):
        with pytest.raises(IndexOutOfRange) as exc:
            parse_edge_list(f"n 3\n0 {big}\n")
        assert str(exc.value) == "line 2: a 5000-digit vertex outside range 0..2"


def test_edge_list_checks_each_edge_once(monkeypatch):
    n = 40
    text = f"n {n}\n" + "".join(f"{u} {v}\n# c\n" for v in range(n) for u in range(v))
    kn = complete_graph(n)
    calls = 0
    real = graphs.check_edge

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(graphs, "check_edge", counted)
    monkeypatch.setattr(serial, "check_edge", counted)
    assert parse_edge_list(text) == kn
    assert calls == n * (n - 1) // 2


def test_edge_list_order_cap():
    assert parse_edge_list(f"n {ORDER_CAP:05d}\n").n == ORDER_CAP
    # past 4300 digits int() refuses the string, so its length is read first
    # an order of more digits than the cap's is named by its digit count
    for order, got in ((str(ORDER_CAP + 1), str(ORDER_CAP + 1)), ("9" * 5000, "a 5000-digit order")):
        with pytest.raises(TooLarge, match=f"^line 1: graph order is capped at n <= {ORDER_CAP}, got {got}$"):
            parse_edge_list(f"n 0{order}\n0 1\n")


def test_json_lines_are_deterministic():
    a = to_json_line({"b": 1, "a": [2, 3], "c": None})
    assert a == '{"a":[2,3],"b":1,"c":null}'
