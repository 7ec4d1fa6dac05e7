"""The public surface: every exported name resolves, test oracles stay out."""

import resnum
import resnum.enumeration
import resnum.invariants
import resnum.serial

TEST_ONLY = {
    resnum.enumeration: ("naive_enumeration_oracle", "permutation_min_form", "_slot_index"),
    resnum.invariants: ("clique_number_oracle",),
    resnum.serial: ("GraphDocument", "graphs_to_lines"),
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
