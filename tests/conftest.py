from functools import lru_cache

import pytest
from hypothesis import settings

from resnum import enumeration
from resnum.catalog import build_res3_catalog
from resnum.enumeration import EnumConstraints, enumerate_graphs

# the same examples on every run, a bounded number of them, no example
# database to replay and no per-example deadline on a box whose speed swings
settings.register_profile(
    "tier1", derandomize=True, max_examples=60, database=None, deadline=None
)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def connected_by_order():
    """All connected isomorphism classes, keyed by order, up to 7."""
    return {
        n: tuple(enumerate_graphs(EnumConstraints(n))) for n in range(1, 8)
    }


@pytest.fixture(scope="session")
def trees_by_order():
    return {
        n: tuple(enumerate_graphs(EnumConstraints(n, trees_only=True)))
        for n in range(1, 13)
    }


@pytest.fixture(scope="session")
def constrained_by_order():
    # the degree/girth regime that stays tractable past order 7
    return {
        n: tuple(
            enumerate_graphs(EnumConstraints(n, max_degree=3, min_girth=5))
        )
        for n in (8, 9, 10)
    }


@pytest.fixture(scope="session")
def derived_catalog():
    """One res-3 catalog build, shared by the tests that only read it; a
    test that counts the work of a build makes its own."""
    return build_res3_catalog()


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(module, name)` wraps `module.name` in a counter on a cold
    level cache, so enumeration work is counted in full, and returns a
    function that reads the calls made since its last read."""

    def install(module, name):
        calls = 0
        real = getattr(module, name)

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        def read():
            nonlocal calls
            made, calls = calls, 0
            return made

        monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(enumeration, "_level", lru_cache(maxsize=None)(enumeration._grow))
        return read

    return install
