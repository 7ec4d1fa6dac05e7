"""The public surface: every exported name resolves, test oracles stay out,
no public routine takes a parameter only tests would set, every error
class maps to one exit code,
every top-level definition in the package has a caller or is exported,
every name a module imports is read there or re-exported, one routine
writes the line number in front of an input error, and each size cap is
read only in the module that defines it."""

import ast
import inspect
from pathlib import Path

import resnum
import resnum.enumeration
import resnum.errors
import resnum.families
import resnum.graphs
import resnum.invariants
import resnum.serial

TEST_ONLY = {
    resnum.enumeration: ("naive_enumeration_oracle", "permutation_min_form", "_slot_index"),
    resnum.graphs: ("DistanceMatrix", "is_connected", "_reach_mask"),
    resnum.invariants: ("clique_number_oracle",),
    resnum.serial: ("GraphDocument", "graphs_to_lines"),
    # a family spec is a kind and its integers; joins are built by `join`
    resnum.families.FamilySpec: ("parts", "build"),
}


def test_every_exported_name_resolves():
    for name in resnum.__all__:
        assert getattr(resnum, name) is not None, name


def test_oracles_and_dead_api_are_not_in_the_package():
    for module, names in TEST_ONLY.items():
        for name in names:
            assert name not in resnum.__all__
            assert not hasattr(resnum, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_no_public_routine_takes_a_distance_matrix():
    # routines read distances from `distance_matrix`, which builds them once
    # per graph; a parameter only tests would set has no place in the API
    routines = [
        (name, obj)
        for name in resnum.__all__
        if callable(obj := getattr(resnum, name))
        # the error classes take a builtin exception's arguments
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    ]
    assert len(routines) > 20
    refused = [
        f"{name}.{param}"
        for name, obj in routines
        for param in inspect.signature(obj).parameters
        if param == "dm" or param.startswith("_")
    ]
    assert refused == []


def test_every_error_maps_to_one_exit_code():
    # the CLI catches the three branches, for exits 2, 3 and 4, and nothing else
    branches = (resnum.errors.InputError, resnum.errors.TooLarge, resnum.errors.TheoremViolation)
    classes = [
        obj
        for obj in vars(resnum.errors).values()
        if isinstance(obj, type) and issubclass(obj, resnum.errors.ResnumError)
    ]
    assert len(classes) > 10
    stray = [
        cls.__name__
        for cls in classes
        if cls is not resnum.errors.ResnumError and not issubclass(cls, branches)
    ]
    assert stray == []


def _used_names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_top_level_definition_is_used_or_exported():
    # (module, top-level statement, names the statement reads)
    statements = []
    for path in sorted(Path(resnum.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append((path.name, stmt, _used_names(stmt)))
    dead = [
        f"{module}:{stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in resnum.__all__
        and not any(stmt.name in used for _, other, used in statements if other is not stmt)
    ]
    assert dead == []


def test_every_import_is_read_or_exported():
    # a module reads each name it imports; the package re-exports each one
    unread = []
    for path in sorted(Path(resnum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        if path.name == "__init__.py":
            read = set(resnum.__all__)
        else:
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unread += [f"{path.name}:{name}" for name in imported if name not in read]
    assert unread == []


def test_only_serial_numbered_writes_a_line_prefix():
    # f-strings that open with "line ", as (module, line of source)
    sites = [
        (path.name, node.lineno)
        for path in sorted(Path(resnum.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.JoinedStr)
        and isinstance(first := node.values[0], ast.Constant)
        and first.value.startswith("line ")
    ]
    assert [module for module, _ in sites] == ["serial.py"]
    source, start = inspect.getsourcelines(resnum.serial.numbered)
    assert start <= sites[0][1] < start + len(source)


def test_no_module_reads_a_cap_of_another():
    # a cap decides one routine's limit, so only its own module reads it
    reads = [
        f"{path.name}:{name}"
        for path in sorted(Path(resnum.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.attr] if isinstance(node, ast.Attribute)
            else []
        )
        if name.endswith("_CAP")
    ]
    assert reads == []
