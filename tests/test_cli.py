import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest

import resnum
from resnum import bounds, canon, catalog, cli, enumeration, families, graphs, resolve
from resnum.bounds import PROP_IDS, verify_bounds
from resnum.catalog import build_res3_catalog, load_default_catalog
from resnum.cli import build_parser, main
from resnum.enumeration import EnumConstraints, enumerate_graphs
from resnum.errors import CatalogMissing
from resnum.families import path_graph
from resnum.graphs import ORDER_CAP, from_edge_list
from resnum.invariants import invariant_summary
from resnum.resolve import resolving_number
from resnum.serial import parse_graph6, to_json_line, write_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def stdin_of(text: str) -> io.TextIOWrapper:
    """A stand-in for sys.stdin: text over bytes, as Python's stdin is."""
    return io.TextIOWrapper(io.BytesIO(text.encode()))


def test_compute_graph6_file(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("C~\nCh\n")
    code, out, _ = run(capsys, "compute", "--input", str(f))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert (first["n"], first["res"], first["omega"]) == (4, 3, 4)
    second = json.loads(lines[1])
    assert second["girth"] is None and second["is_tree"] is True


def test_compute_stdin_with_dims(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of("Dhc\n"))
    code, out, _ = run(capsys, "compute", "--input", "-", "--dim", "--updim")
    assert code == 0
    rep = json.loads(out)
    assert (rep["res"], rep["dim"], rep["updim"]) == (2, 2, 2)


def test_compute_edgelist(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("n 4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "compute", "--input", str(f), "--format", "edgelist")
    assert code == 0
    assert json.loads(out)["res"] == 2


def test_json_keys_sorted(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("C~\n")
    _, out, _ = run(capsys, "compute", "--input", str(f))
    keys = list(json.loads(out).keys())
    assert keys == sorted(keys)


def test_classify(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("C~\n")
    code, out, _ = run(capsys, "classify", "--input", str(f))
    assert code == 0
    rep = json.loads(out)
    assert rep == {"catalog_member": "C~", "category": "CatalogGirth3", "res": 3}


def test_classify_canonicalises_each_member_once(tmp_path, capsys, monkeypatch):
    members = load_default_catalog().members
    f = tmp_path / "members.g6"
    f.write_text("".join(m.graph6 + "\n" for m in members))
    calls = 0
    real = canon.canonical_form

    def counted(g):
        nonlocal calls
        calls += 1
        return real(g)

    # every module that bound the function by name, as the tracer does
    for name, module in list(sys.modules.items()):
        if name.startswith("resnum") and getattr(module, "canonical_form", None) is real:
            monkeypatch.setattr(module, "canonical_form", counted)
    code, out, _ = run(capsys, "classify", "--input", str(f))
    assert code == 0
    assert calls == len(members) == 17
    assert out == "".join(
        f'{{"catalog_member":{json.dumps(m.graph6)},"category":"CatalogGirth{m.girth}","res":3}}\n'
        for m in members
    )


def test_verify_filtered(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("C~\n")
    code, out, _ = run(capsys, "verify", "--input", str(f), "--prop", "CliqueUB")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["prop_id"] == "CliqueUB"
    assert rows[0]["equality"] is True


def test_verify_all_props(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("Dhc\n")
    code, out, _ = run(capsys, "verify", "--input", str(f))
    rows = json.loads(out)
    assert code == 0
    assert {r["prop_id"] for r in rows} == {
        "DiamTree", "Girth", "CliqueUB", "OrderBounds",
        "OrderTree", "MaxDeg", "MaxDegTree", "Chain",
    }


def test_dimensions_read_the_matrix_the_command_built(tmp_path, capsys, monkeypatch):
    # the res scan or the invariants grow each graph's spheres once; the
    # dimensions (verify's Chain rows among them) then find its pair masks
    # on the graph, and no command builds a matrix below the sphere cap
    f = tmp_path / "g.g6"
    f.write_text("@\nC~\nDhc\n")
    commands = [("verify",), ("compute", "--dim"), ("compute", "--dim", "--updim")]
    before = [run(capsys, cmd, "--input", str(f), *flags) for cmd, *flags in commands]
    assert all(code == 0 for code, _, _ in before)

    real_pass, real_bfs = graphs._sphere_pass, graphs._all_pairs_bfs
    real_dimensions = resolve._dimensions
    grown, built, found = [], [], []

    def sphere_pass(g):
        grown.append(g)
        return real_pass(g)

    def bfs(g):
        built.append(g)
        return real_bfs(g)

    def dimensions(g):
        found.append("_spheres" in vars(g))
        return real_dimensions(g)

    monkeypatch.setattr(graphs, "_sphere_pass", sphere_pass)
    monkeypatch.setattr(graphs, "_all_pairs_bfs", bfs)
    monkeypatch.setattr(resolve, "_dimensions", dimensions)
    for (cmd, *flags), expected in zip(commands, before):
        grown.clear()
        found.clear()
        assert run(capsys, cmd, "--input", str(f), *flags) == expected
        assert len({id(g) for g in grown}) == len(grown) == 3, cmd
        assert found and all(found), cmd
    assert built == []
    # past the dimension cap the spheres still serve the res scan and the
    # invariants, grown by the numpy ball step
    f.write_text(write_graph6(path_graph(17)) + "\n")
    grown.clear()
    assert run(capsys, "verify", "--input", str(f))[0] == 0
    assert (len(grown), len(built)) == (1, 0)
    # past the sphere cap they share one matrix
    e = tmp_path / "g.txt"
    e.write_text("n 65\n" + "".join(f"{v - 1} {v}\n" for v in range(1, 65)))
    grown.clear()
    assert run(capsys, "verify", "--input", str(e), "--format", "edgelist")[0] == 0
    assert (len(grown), len(built)) == (0, 1)


def test_each_graph_runs_one_bfs(tmp_path, capsys, count_calls):
    # the res scan, the invariants, the dimensions and the Chain rows share
    # the spheres that the first read of a graph's distances grew; up to
    # order 64 no command runs a BFS
    catalog = load_default_catalog()
    lines = ["@", "C~", "Dhc", catalog.members[0].graph6, write_graph6(path_graph(12))]
    f = tmp_path / "g.g6"
    f.write_text("\n".join(lines) + "\n")
    bfs_runs = count_calls(graphs, "_all_pairs_bfs")
    passes = count_calls(graphs, "_sphere_pass")
    for cmd, *flags in [("compute", "--dim", "--updim"), ("verify",), ("classify",)]:
        code, out, _ = run(capsys, cmd, "--input", str(f), *flags)
        assert (code, len(out.splitlines())) == (0, len(lines))
        # K1's res and shape need no distances, so classify grows no spheres for it
        assert (passes(), bfs_runs()) == (len(lines) - (cmd == "classify"), 0), cmd
    # past the dimension cap, up to graph6's top order and as edge lists up
    # to the sphere cap; from order 65 on each graph runs one BFS instead
    big = [write_graph6(g) for g in _seeded_graphs(7, (17, 40, 62))]
    f.write_text("\n".join(big) + "\n")
    for cmd in ("compute", "verify", "classify"):
        code, out, _ = run(capsys, cmd, "--input", str(f))
        assert (code, len(out.splitlines())) == (0, len(big))
        assert (passes(), bfs_runs()) == (len(big), 0), cmd
    e = tmp_path / "g.txt"
    for n in (63, 64, 65):
        e.write_text(f"n {n}\n" + "".join(f"{v - 1} {v}\n" for v in range(1, n)))
        for cmd in ("compute", "verify", "classify"):
            assert run(capsys, cmd, "--input", str(e), "--format", "edgelist")[0] == 0
            assert (passes(), bfs_runs()) == ((1, 0) if n <= 64 else (0, 1)), (cmd, n)
    # the build decides its candidates on their rows (151 of them reached
    # the res scan before the sphere kernel), the 17 fixture lines are
    # re-verified, and the clique report on the 13 girth-3 members reads no
    # distances
    load_default_catalog.cache_clear()
    assert run(capsys, "catalog", "--res", "3")[0] == 0
    assert (passes(), bfs_runs()) == (17, 0)


def test_verify_builds_the_dimension_table_only_for_chain(tmp_path, capsys, count_calls):
    lines = [write_graph6(g) for g in _seeded_graphs(6, range(2, 13))]
    f = tmp_path / "g.g6"
    f.write_text("\n".join(lines) + "\n")
    tables = count_calls(resolve, "_dimensions")
    for prop, made in [("Girth", 0), ("CliqueUB", 0), ("Chain", len(lines)), ("all", len(lines))]:
        code, out, _ = run(capsys, "verify", "--input", str(f), "--prop", prop)
        assert (code, len(out.splitlines()), tables()) == (0, len(lines), made), prop


@pytest.mark.parametrize("n", (4, 16, 17))
def test_a_disconnected_line_is_one_input_error_on_both_sides_of_the_sphere_cap(n, tmp_path, capsys):
    # a path on n - 1 vertices and an isolated vertex, after a good line
    split = from_edge_list(n, [(v - 1, v) for v in range(1, n - 1)])
    f = tmp_path / "g.g6"
    f.write_text("C~\n" + write_graph6(split) + "\n")
    for cmd in ("compute", "verify", "classify"):
        code, out, err = run(capsys, cmd, "--input", str(f))
        assert (code, len(out.splitlines())) == (2, 1), cmd
        assert err == "input error: line 2: distance matrix requires a connected graph\n", cmd


def test_gen_and_enum(capsys):
    code, out, _ = run(capsys, "gen", "--family", "complete", "--params", "4")
    assert (code, out.strip()) == (0, "C~")
    code, out, _ = run(capsys, "enum", "--n", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["gen", "--family", "wheel", "--params", "5"]
    env = {**os.environ, "PYTHONPATH": str(Path(resnum.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "resnum", *argv], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


def test_the_parser_is_built_on_first_use_and_kept():
    env = {**os.environ, "PYTHONPATH": str(Path(resnum.__file__).parent.parent)}
    code = "import resnum.cli; print(resnum.cli.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (0, "0\n")
    parser = build_parser()
    assert main(["gen", "--family", "path", "--params", "3"]) == 0
    assert main(["enum", "--n", "3"]) == 0
    assert build_parser() is parser


def test_a_kept_parser_parses_each_call_as_a_fresh_one(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("C~\nDhc\nEhEG\n")
    calls = [
        ["compute", "--input", str(f), "--dim", "--updim"],
        ["compute", "--input", str(f)],
        ["verify", "--input", str(f), "--prop", "Girth"],
        ["verify", "--input", str(f)],
        ["classify", "--input", str(f)],
        ["gen", "--family", "wheel", "--params", "5"],
        ["enum", "--n", "4"],
        ["compute", "--format", "edgelist"],
        ["--help"],
        ["verify", "--help"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(call(argv))
    assert [code for code, _, _ in alone] == [0] * 7 + [2, 0, 0]
    build_parser.cache_clear()
    assert [call(argv) for argv in calls] == alone


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _verify_rows(g):
    return verify_bounds(g, invariant_summary(g), resolving_number(g).res)


def test_reports_render_as_json_dumps_does(tmp_path, capsys, monkeypatch):
    lines = ["@", "C~", "Dhc", write_graph6(path_graph(12))]
    f = tmp_path / "g.g6"
    f.write_text("\n".join(lines) + "\n")
    encoded = []

    def keep(obj):
        encoded.append(obj)
        return to_json_line(obj)

    monkeypatch.setattr(cli, "to_json_line", keep)
    cli._row_line.cache_clear()
    reports = {}
    for argv in (
        ["compute", "--dim", "--updim", "--input", str(f)],
        ["classify", "--input", str(f)],
        ["catalog", "--res", "3"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        reports[argv[0]] = out.splitlines()
        # one encoder call per report, each report encoded whole
        assert reports[argv[0]] == [_dumps(obj) for obj in encoded]
        encoded.clear()
    assert [len(reports[c]) for c in ("compute", "classify", "catalog")] == [4, 4, 1]
    code, out, _ = run(capsys, "verify", "--input", str(f))
    assert code == 0
    rows = [_verify_rows(parse_graph6(line)) for line in lines]
    assert out.splitlines() == [_dumps([vars(r) for r in rs]) for rs in rows]
    # one encoder call per distinct row, 29 for the 48 rows: 38 calls in
    # all, where encoding each report whole made 13
    assert [vars(r) for r in {r: None for rs in rows for r in rs}] == encoded
    assert len(encoded) == 29 and sum(map(len, rows)) == 48


def _seeded_graphs(seed: int, orders) -> list:
    """Three random connected graphs of each order: a random recursive tree
    plus edges drawn at densities 0, 0.2 and 0.5."""
    rng = Random(seed)
    out = []
    for n in orders:
        for p in (0.0, 0.2, 0.5):
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
            out.append(from_edge_list(n, edges))
    return out


def test_verify_lines_encode_the_rows_whole(tmp_path, capsys):
    gs = _seeded_graphs(17, range(1, 18))
    f = tmp_path / "g.g6"
    f.write_text("".join(write_graph6(g) + "\n" for g in gs))
    rows = [_verify_rows(g) for g in gs]
    # past DIM_CAP the chain rows carry the table's cap message
    assert {r.reason for r in rows[-1] if r.prop_id == "Chain"} == {
        "metric dimension is capped at n <= 16, got 17"
    }
    for prop in ("all",) + PROP_IDS:
        code, out, _ = run(capsys, "verify", "--input", str(f), "--prop", prop)
        assert code == 0
        kept = [[r for r in rs if prop in ("all", r.prop_id)] for rs in rows]
        assert out.splitlines() == [to_json_line([vars(r) for r in rs]) for rs in kept]


def test_rows_apart_only_by_true_and_one_render_apart():
    flag, one = (bounds._row("CliqueUB", 2, 3, extremal_match=m) for m in (True, 1))
    assert flag is not one and vars(flag) == vars(one)
    line = cli._row_line(flag)
    assert '"extremal_match":true,' in line and line == to_json_line(vars(flag))
    assert cli._row_line(one) == line.replace('"extremal_match":true,', '"extremal_match":1,')


def test_verify_builds_each_distinct_row_once():
    bounds._row.cache_clear()
    bounds._na.cache_clear()
    rows = [r for g in _seeded_graphs(30, range(1, 18)) for r in _verify_rows(g)]
    built = bounds._row.cache_info().currsize + bounds._na.cache_info().currsize
    assert (len(rows), len(set(rows)), built) == (612, 286, 286)
    assert bounds._row.cache_info().maxsize is not None


def test_enum_with_a_huge_girth_floor_returns_the_trees():
    env = {**os.environ, "PYTHONPATH": str(Path(resnum.__file__).parent.parent)}

    def enum(floor):
        argv = [sys.executable, "-m", "resnum", "enum", "--n", "6", "--min-girth", floor]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
        return done.returncode, done.stdout, done.stderr

    code, out, err = enum("1000000000")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 6
    assert (code, out, err) == enum("7")


def test_a_girth_floor_above_the_order_asks_for_the_trees(capsys):
    # no cycle is longer than the order, so such a floor reaches as far as
    # trees do: the 47 trees of order 9 and the 551 of order 12, and
    # order 13 is one past the tree row of the reach table
    trees = run(capsys, "enum", "--n", "12", "--trees")
    assert trees[0] == 0 and len(trees[1].splitlines()) == 551
    assert run(capsys, "enum", "--n", "12", "--min-girth", "13") == trees
    code, out, _ = run(capsys, "enum", "--n", "9", "--min-girth", "10")
    assert code == 0 and len(out.splitlines()) == 47
    code, out, err = run(capsys, "enum", "--n", "13", "--min-girth", "14")
    assert (code, out) == (3, "") and "n <= 12 with min_girth >= inf" in err


def test_enum_trees(capsys):
    code, out, _ = run(capsys, "enum", "--n", "7", "--trees")
    assert code == 0
    assert len(out.strip().splitlines()) == 11


def test_catalog_command(capsys, monkeypatch, derived_catalog):
    # the report on the session's one build; other tests here run the
    # command on a build of its own
    monkeypatch.setattr(cli, "build_res3_catalog", lambda: derived_catalog)
    code, out, _ = run(capsys, "catalog", "--res", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["members"] == 17
    assert (rep["girth3"], rep["girth5"]) == (13, 4)
    assert rep["girth5_orders"] == [6, 7, 8, 10]
    assert rep["fixture_match"] is True
    assert rep["clique_equals_res"]["derived_size"] == 12


def test_a_theorem_violation_exits_4(tmp_path, capsys, monkeypatch):
    # a res scan that read 1 on P3 would falsify the res = 1 statement
    real = families.resolving_number
    monkeypatch.setattr(families, "resolving_number", lambda g: replace(real(g), res=1))
    f = tmp_path / "p3.g6"
    f.write_text(write_graph6(path_graph(3)) + "\n")
    code, out, err = run(capsys, "classify", "--input", str(f))
    assert (code, out) == (4, "")
    assert err == "theorem violation: line 1: res = 1 on a graph of order 3 and shape Path\n"


def test_a_missing_fixture_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "FIXTURE_NAME", "absent.g6")
    load_default_catalog.cache_clear()
    try:
        with pytest.raises(CatalogMissing, match="^packaged fixture absent.g6 is unavailable: "):
            load_default_catalog()
        code, out, err = run(capsys, "catalog", "--res", "3")
        assert (code, out) == (2, "")
        assert err.startswith("input error: packaged fixture absent.g6 is unavailable: ")
    finally:
        load_default_catalog.cache_clear()


def test_the_position_table_holds_only_masks_of_enumerated_orders(tmp_path, capsys, monkeypatch):
    # canon and enumeration fill the memo table, the tree ladder up to
    # 2^12; compute and verify on an order-40 graph must add no key
    graphs._positions.clear()
    monkeypatch.setattr(enumeration, "_level", lru_cache(maxsize=None)(enumeration._grow))
    build_res3_catalog()
    for n in range(1, 13):
        list(enumerate_graphs(EnumConstraints(n, trees_only=True)))
    # bipartite, so girth runs its BFS past the triangle pass
    rng = Random(40)
    edges = [(v, rng.randrange(1 - v % 2, v, 2)) for v in range(1, 40)]
    edges += [(rng.randrange(0, 40, 2), rng.randrange(1, 40, 2)) for _ in range(20)]
    f = tmp_path / "g.g6"
    f.write_text(write_graph6(from_edge_list(40, edges)) + "\n")
    for command in ("compute", "verify"):
        assert run(capsys, command, "--input", str(f))[0] == 0
    assert max(graphs._positions).bit_length() == 12


def test_compute_on_the_benchmark_stream_adds_no_position_key(tmp_path, capsys, monkeypatch):
    # the position table only grows, so the numpy ball step that grows the
    # spheres past order 16 must not read it; the stream is the benchmark's
    # compute_stream, seed 1, 30 batches of 48 graphs of order 20..62
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from inputs import batch, graph6

    f = tmp_path / "g.g6"
    f.write_text("".join(
        graph6(n, edges) + "\n" for i in range(30) for n, _, edges in batch(1, i, (20, 62), 8)
    ))
    before = set(graphs._positions)
    assert run(capsys, "compute", "--input", str(f))[0] == 0
    assert set(graphs._positions) == before


def test_the_pair_cache_stays_within_its_bound(tmp_path, capsys):
    resolve._pairs.cache_clear()
    rng = Random(62)
    f = tmp_path / "g.g6"
    f.write_text("".join(
        write_graph6(from_edge_list(n, [(rng.randrange(v), v) for v in range(1, n)])) + "\n"
        for n in range(20, 63)
    ))
    assert run(capsys, "compute", "--input", str(f))[0] == 0
    e = tmp_path / "g.txt"
    e.write_text("n 300\n" + "".join(f"{v - 1} {v}\n" for v in range(1, 300)))
    assert run(capsys, "compute", "--input", str(e), "--format", "edgelist")[0] == 0
    info = resolve._pairs.cache_info()
    assert info.misses == 44 and info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_catalog_against_explicit_fixture(tmp_path, capsys, monkeypatch, derived_catalog):
    monkeypatch.setattr(cli, "build_res3_catalog", lambda: derived_catalog)
    good = tmp_path / "good.g6"
    from resnum.catalog import load_default_catalog, render_fixture

    good.write_text(render_fixture(load_default_catalog()))
    code, out, _ = run(capsys, "catalog", "--res", "3", "--fixture", str(good))
    assert code == 0 and json.loads(out)["fixture_match"] is True


def test_catalog_with_wrong_res(capsys):
    code, _, err = run(capsys, "catalog", "--res", "4")
    assert code == 2
    assert "res = 3" in err


def test_exit_code_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of("not graph6 \x01\n"))
    code, _, err = run(capsys, "compute", "--input", "-")
    assert code == 2 and "input error" in err

    code, _, err = run(capsys, "compute", "--input", "/no/such/file")
    assert code == 2


def test_graph6_error_names_its_line(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("C~\nCh\nC\x7f\n")
    code, out, err = run(capsys, "compute", "--input", str(f))
    # K4 and P4 stream out before the bad third line stops the run
    assert code == 2 and "line 3" in err
    assert [json.loads(line)["m"] for line in out.splitlines()] == [6, 3]


def test_only_line_breaks_split_a_graph6_file(tmp_path, capsys):
    # str.splitlines() would split line 1 at \x1e into C~ and Ch, then
    # blame line 3 for the file's line 2
    f = tmp_path / "g.g6"
    f.write_text("C~\x1eCh\nC\x7f\n")
    code, out, err = run(capsys, "compute", "--input", str(f))
    assert (code, out) == (2, "")
    assert err == "input error: line 1: byte outside graph6 range in 'C~\\x1eCh'\n"


@pytest.mark.parametrize("command", ["compute", "verify", "classify"])
def test_a_bare_graph6_header_names_its_line(tmp_path, capsys, command):
    good = tmp_path / "good.g6"
    good.write_text(">>graph6<<C~\n")
    code, expected, _ = run(capsys, command, "--input", str(good))
    assert code == 0 and len(expected.splitlines()) == 1
    bad = tmp_path / "bad.g6"
    bad.write_text(">>graph6<<C~\n>>graph6<<\n")
    code, out, err = run(capsys, command, "--input", str(bad))
    assert code == 2 and out == expected
    assert err == "input error: line 2: no graph after the >>graph6<< header\n"


def test_a_bare_graph6_header_in_a_fixture_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "fixture.g6"
    f.write_text(">>graph6<<\n")
    code, out, err = run(capsys, "catalog", "--res", "3", "--fixture", str(f))
    assert code == 2 and out == ""
    assert err == "input error: line 1: no graph after the >>graph6<< header\n"


@pytest.mark.parametrize("graph6", ["EhEG", "Cs"], ids=["C6", "K1,3"])
def test_a_structurally_classified_graph_in_a_fixture_is_an_input_error(
    tmp_path, capsys, graph6
):
    # res 3, but not a catalog member: bad input (2), not a theorem violation (4)
    f = tmp_path / "fixture.g6"
    f.write_text(f"C~\n\n{graph6}\n")
    code, out, err = run(capsys, "catalog", "--res", "3", "--fixture", str(f))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: line 3: graph '{graph6}' is an even cycle or the 3-star")


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_good_lines_print_before_a_bad_one(tmp_path, capsys, command):
    good = tmp_path / "good.g6"
    good.write_text("C~\nCh\n")
    code, expected, _ = run(capsys, command, "--input", str(good))
    assert code == 0 and len(expected.splitlines()) == 2
    bad = tmp_path / "bad.g6"
    bad.write_text("C~\nCh\nC\x7f\n")
    code, out, err = run(capsys, command, "--input", str(bad))
    assert code == 2 and out == expected and "line 3" in err


@pytest.mark.parametrize("command", ["compute", "verify", "classify"])
def test_a_graph_error_names_its_line(tmp_path, capsys, command):
    good = tmp_path / "good.g6"
    good.write_text("A_\nBw\n")
    code, expected, _ = run(capsys, command, "--input", str(good))
    assert code == 0 and len(expected.splitlines()) == 2
    # the third line parses but is disconnected, so only its report fails
    bad = tmp_path / "bad.g6"
    bad.write_text("A_\nBw\nA?\n")
    code, out, err = run(capsys, command, "--input", str(bad))
    assert code == 2 and out == expected
    assert err == "input error: line 3: distance matrix requires a connected graph\n"


def test_a_size_cap_names_its_line(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("C~\n" + write_graph6(path_graph(17)) + "\n")
    code, out, err = run(capsys, "compute", "--input", str(f), "--dim")
    assert code == 3 and json.loads(out)["dim"] == 3
    assert err.startswith("size cap: line 2: metric dimension is capped")


def test_input_without_graphs_exits_2(tmp_path, capsys):
    f = tmp_path / "blank.g6"
    f.write_text("\n  \n")
    code, out, err = run(capsys, "compute", "--input", str(f))
    assert code == 2 and out == "" and "no graph6 lines" in err


def test_non_ascii_input_file_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_bytes(b"B\xc3\xa9\n")
    code, _, err = run(capsys, "compute", "--input", str(f))
    assert code == 2 and "input error" in err and "line 1:" in err


def test_a_file_decodes_as_stdin_does_under_any_locale(tmp_path):
    # a good line is reported, then a byte past ASCII is named by its line,
    # whether or not it is valid UTF-8 and whatever stdin's encoding
    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    base["PYTHONPATH"] = str(Path(resnum.__file__).parent.parent)
    envs = [{**base, "LC_ALL": "C"}, {**base, "PYTHONIOENCODING": "utf-8:strict"}, base]
    f = tmp_path / "g.g6"

    def compute(env, path, stdin=None):
        argv = [sys.executable, "-m", "resnum", "compute", "--input", path]
        done = subprocess.run(argv, input=stdin, capture_output=True, env=env)
        return done.returncode, done.stdout, done.stderr

    for data, reports, lineno in [(b"C~\nC\xff\n", 1, 2), (b"B\xc3\xa9\n", 0, 1)]:
        f.write_bytes(data)
        for env in envs:
            code, out, err = compute(env, str(f))
            assert (code, out, err) == compute(env, "-", data)
            assert (code, len(out.splitlines())) == (2, reports)
            assert err.startswith(b"input error: line %d: byte outside graph6 range" % lineno)


def test_exit_code_disconnected(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("n 2\n")
    code, _, err = run(capsys, "compute", "--input", str(f), "--format", "edgelist")
    assert code == 2


def test_exit_code_cap(capsys):
    code, _, err = run(capsys, "enum", "--n", "20")
    assert code == 3 and "cap" in err.lower()


ENUM_DOMAIN_CASES = [
    (("--n", "0"), "input error"),
    (("--n", "1", "--max-deg", "-1"), "input error"),
    (("--n", "1", "--max-deg", "-1", "--trees"), "input error"),
    # int() would read these as 10, 3 and 5: only ASCII -?[0-9]+ is an integer
    (("--n", "1_0", "--max-deg", "3", "--min-girth", "5"), "invalid integer value"),
    (("--n", "\u0663"), "invalid integer value"),
    (("--n", "5", "--min-girth", "+5"), "invalid integer value"),
]


@pytest.mark.parametrize(
    ("flags", "message"), ENUM_DOMAIN_CASES, ids=[f"flags{i}" for i in range(len(ENUM_DOMAIN_CASES))]
)
def test_enum_rejects_out_of_domain_constraints(capsys, flags, message):
    if message == "input error":
        code, out, err = run(capsys, "enum", *flags)
    else:
        # argparse refuses a value that is no integer
        with pytest.raises(SystemExit) as exc:
            main(["enum", *flags])
        code, (out, err) = exc.value.code, capsys.readouterr()
    assert code == 2 and out == "" and message in err


def test_edge_list_order_cap(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(f"n {ORDER_CAP + 1}\n")
    code, out, err = run(capsys, "compute", "--input", str(f), "--format", "edgelist")
    assert (code, out) == (3, "")
    assert err == f"size cap: line 1: graph order is capped at n <= {ORDER_CAP}, got {ORDER_CAP + 1}\n"


def test_an_edge_list_vertex_error_names_its_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of("n 3\n0 1\n# c\n1 7\n"))
    code, out, err = run(capsys, "compute", "--input", "-", "--format", "edgelist")
    assert (code, out) == (2, "")
    assert err == "input error: line 4: vertex 7 outside range 0..2\n"


@pytest.mark.parametrize(
    "text, fmt, left_out",
    [
        ("n 3\n0 " + "x" * 5000 + "\n", "edgelist", 4970),  # non-integer vertex
        ("n 3\n" + "0 1 " * 1250 + "\n", "edgelist", 4968),  # not 'u v'
        ("n " + "x" * 5000 + "\n", "edgelist", 4970),  # not a header
        ("C~" + "!" * 5000 + "\n", "graph6", 4970),  # bytes outside graph6
    ],
)
def test_an_error_quotes_a_bounded_prefix_of_a_long_line(capsys, monkeypatch, text, fmt, left_out):
    monkeypatch.setattr("sys.stdin", stdin_of(text))
    code, out, err = run(capsys, "compute", "--input", "-", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err.endswith(f"' and {left_out} more characters\n")


class _Pipe(io.RawIOBase):
    """A pipe whose writer has sent one chunk each time it is read."""

    def __init__(self, *chunks: bytes):
        self.chunks = list(chunks)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = self.chunks.pop(0) if self.chunks else b""
        buffer[: len(chunk)] = chunk
        return len(chunk)


def test_compute_reports_each_stdin_line_before_the_next_arrives(monkeypatch):
    # a producer such as geng writes a line at a time into the pipe
    class Out(io.StringIO):
        flushed = 0

        def flush(self):
            self.flushed = self.getvalue().count("\n")

    class Watched(_Pipe):
        def readinto(self, buffer):
            # how many reports had reached the reader when this read began
            seen.append(out.flushed)
            return super().readinto(buffer)

    out, seen = Out(), []
    raw = Watched(b"C~\n", b"Ch\r\n", b"\n", b"Dhc")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BufferedReader(raw)))
    monkeypatch.setattr("sys.stdout", out)
    assert main(["compute", "--input", "-"]) == 0
    # the last line has no line feed, so its report waits for the end of input
    assert seen == [0, 1, 2, 2, 2, 3]
    assert [json.loads(line)["n"] for line in out.getvalue().splitlines()] == [4, 4, 5]


def test_undecodable_stdin_is_an_input_error(capsys, monkeypatch):
    # stdin's own strict decoder is not used: each line's bytes are decoded
    # alone, so C~ is reported whether the bad byte arrives with it or after
    for raw in [io.BytesIO(b"C~\nC\xff\n"), _Pipe(b"C~\n", b"C\xff\n")]:
        stdin = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "compute", "--input", "-")
        assert code == 2 and err.startswith("input error: line 2: byte outside graph6 range")
        assert [json.loads(line)["n"] for line in out.splitlines()] == [4]


def _cli_argv(*argv: str) -> tuple[list[str], dict]:
    """`python -m resnum argv` and an environment that imports this resnum."""
    env = {**os.environ, "PYTHONPATH": str(Path(resnum.__file__).parent.parent)}
    return [sys.executable, "-m", "resnum", *argv], env


def test_a_closed_stdout_ends_the_command_with_exit_1_and_no_traceback():
    # the reader takes one report and closes the pipe, as `head -1` does
    argv, env = _cli_argv("compute", "--input", "-")
    pipe = subprocess.PIPE
    with subprocess.Popen(argv, stdin=pipe, stdout=pipe, stderr=pipe, env=env) as proc:
        proc.stdin.write(b"C~\n")
        proc.stdin.flush()
        assert json.loads(proc.stdout.readline())["n"] == 4
        proc.stdout.close()
        # the report of this line meets the closed pipe
        proc.stdin.write(b"C~\n")
        proc.stdin.close()
        assert (proc.wait(timeout=30), proc.stderr.read()) == (1, b"")
    # fd 1 closed from the start: Python sets sys.stdout to None, print skips it
    argv, env = _cli_argv("enum", "--n", "3")
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], capture_output=True, env=env)
    assert (done.returncode, done.stderr) == (0, b"")


def test_a_closed_stdin_is_an_input_error():
    # Python sets sys.stdin to None when fd 0 is closed at start
    argv, env = _cli_argv("compute", "--input", "-")
    done = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", *argv], capture_output=True, env=env)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"input error: cannot read -: stdin is closed\n"


def test_gen_rejects_bad_params(capsys):
    code, _, err = run(capsys, "gen", "--family", "cycle", "--params", "x")
    assert code == 2
    code, _, err = run(capsys, "gen", "--family", "cycle", "--params", "2")
    assert code == 2
    # int() would read these as 10, 3 and 4: only ASCII -?[0-9]+ is an integer
    for params in ("1_0", "\u0663", "\u00a04", "+4", "1,1_0,1"):
        family = "spider" if "," in params else "path"
        code, out, err = run(capsys, "gen", "--family", family, "--params", params)
        assert (code, out) == (2, "")
        assert err == f"input error: params must be comma-separated integers, got {params!r}\n"
    # ASCII whitespace around a field is stripped
    assert run(capsys, "gen", "--family", "spider", "--params", " 1, 1 ,1\t") == (0, "Cs\n", "")


def test_gen_refuses_an_order_past_the_cap_before_building(capsys):
    # each order would take minutes and gigabytes to build
    for family, params, order in [
        ("path", "99999999", 99999999),
        ("complete", "100000", 100000),
        ("spider", "1,1,99999999", 100000002),
    ]:
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "--family", family, "--params", params)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"size cap: graph order is capped at n <= {ORDER_CAP}, got {order}\n"
    # past the graph6 cap and up to this one, the graph is built and the writer refuses it
    code, out, err = run(capsys, "gen", "--family", "path", "--params", str(ORDER_CAP))
    assert (code, out) == (3, "")
    assert err == f"size cap: graph6 writer is capped at n <= 62, got {ORDER_CAP}\n"
    # a parameter outside a family's domain stays bad input
    for family, params, message in [
        ("sporadic", "99", "sporadic witness index must be 1..4, got 99"),
        ("clique_pendant", "99999999,99999999", "need 1 <= b < a, got a=99999999 b=99999999"),
    ]:
        code, out, err = run(capsys, "gen", "--family", family, "--params", params)
        assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_unknown_family_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "nonesuch", "--params", "1"])
    assert exc.value.code == 2


def test_gen_offers_no_join(capsys):
    # join takes two subspecs, which a command line of integers cannot pass
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "join", "--params", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'join'" in capsys.readouterr().err
