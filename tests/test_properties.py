"""Property tests: invariants under relabelling, and bad input that never
escapes as anything but a documented error or exit code."""

import contextlib
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resnum.canon import canonical_form
from resnum.cli import main
from resnum.errors import MalformedLine, ResnumError
from resnum.graphs import distance_matrix, from_edge_list, permute
from resnum.invariants import clique_number
from resnum.resolve import metric_dimension, resolving_number, upper_dimension
from resnum.serial import numbered, parse_edge_list, parse_graph6, write_graph6

GRAPH6_CHARS = "".join(chr(c) for c in range(63, 127))
# the line breaks of every stream: \r\n, a lone \r and \n
LINE_BREAK = re.compile(r"\r\n?|\n")


@st.composite
def connected_graphs(draw, max_n=10):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges += [(u, v) for u, v in extra if u != v]
    return from_edge_list(n, edges)


@given(connected_graphs(), st.data())
def test_invariants_survive_relabelling(g, data):
    h = permute(g, data.draw(st.permutations(range(g.n))))
    assert canonical_form(h) == canonical_form(g)
    assert resolving_number(h).res == resolving_number(g).res
    assert metric_dimension(h).dim == metric_dimension(g).dim
    assert upper_dimension(h).updim == upper_dimension(g).updim


@given(connected_graphs(max_n=70), st.data())
def test_distance_kernels_survive_relabelling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = permute(g, perm)
    dm_g, dm_h = distance_matrix(g), distance_matrix(h)
    # d_h(perm[u], perm[v]) = d_g(u, v)
    assert (dm_h[np.ix_(perm, perm)] == dm_g).all()
    assert resolving_number(h).res == resolving_number(g).res
    assert clique_number(h) == clique_number(g)


# every code point, lone surrogates included; with no category filter
# hypothesis also skips building its unicode table on a cold start
@given(st.text(st.characters(exclude_categories=()), max_size=80))
def test_parsers_raise_only_resnum_errors(text):
    for parse in (parse_graph6, parse_edge_list):
        try:
            parse(text)
        except ResnumError:
            pass


@given(st.lists(st.sampled_from(["a", "b", " ", "\r", "\n", "\r\n"]), max_size=40).map("".join))
def test_numbered_splits_lines_like_the_line_break_regex(text):
    # the nonblank pieces, each with its line number counted from 1
    pieces = [(i, p) for i, p in enumerate(LINE_BREAK.split(text), 1) if p.strip()]
    # the text whole, and as the lines a POSIX stdin yields, split at LF alone
    for source in (text, io.StringIO(text, newline="\n").readlines()):
        assert list(numbered(source, str)) == [p for _, p in pieces]
        for j, (lineno, _) in enumerate(pieces):
            countdown = iter(range(j, -1, -1))

            def read(line):
                # fails on the (j + 1)-th nonblank piece
                if next(countdown) == 0:
                    raise MalformedLine("bad")

            with pytest.raises(MalformedLine, match=f"^line {lineno}: bad$"):
                list(numbered(source, read))


@given(
    st.sampled_from(["compute", "verify", "classify"]),
    st.sampled_from(["graph6", "edgelist"]),
    st.one_of(
        st.binary(max_size=64),
        # graph6 and edge-list alphabets, so that some inputs parse
        st.text(st.sampled_from(GRAPH6_CHARS + "\n"), max_size=64).map(str.encode),
        st.text(st.sampled_from("n0123456789 \n#"), max_size=64).map(str.encode),
        # good graph6 lines, possibly followed by a bad one
        st.tuples(
            st.lists(connected_graphs().map(write_graph6), min_size=1, max_size=3),
            st.text(st.sampled_from(GRAPH6_CHARS), max_size=8),
        ).map(lambda parts: "\n".join(parts[0] + [parts[1]]).encode()),
    ),
)
def test_cli_maps_any_file_to_an_exit_code(command, fmt, raw):
    fd, path = tempfile.mkstemp(suffix=".in")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(raw)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([command, "--input", path, "--format", fmt])
    finally:
        os.unlink(path)
    assert code in (0, 2, 3, 4)
