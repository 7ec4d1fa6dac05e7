"""Exact resolving-number computations on small graphs.

The resolving number of a connected graph is the least k such that every
k-subset of vertices is a resolving set.  This package computes it in
polynomial time from the sets of vertices equidistant from each pair,
computes the companion parameters (metric and upper dimension), verifies
the inequality suite relating them to classical invariants, and re-derives
the complete catalog of resolving-number-3 graphs by isomorph-free search.
"""

from .bounds import BoundVerdict, counting_lemma_check, verify_bounds, vertex_pairs
from .canon import CanonicalForm, canonical_form
from .catalog import (
    CatalogMember,
    Res3Catalog,
    build_res3_catalog,
    clique_equals_res_report,
    load_default_catalog,
)
from .enumeration import EnumConstraints, enumerate_graphs
from .errors import (
    CatalogMissing,
    Disconnected,
    InputError,
    ResnumError,
    TheoremViolation,
    TooLarge,
)
from .families import (
    Category,
    FamilySpec,
    classify_res,
    clique4_sporadic,
    clique_res_category,
    clique_with_pendant,
    complete_graph,
    cycle_graph,
    family_names,
    generate,
    join,
    path_graph,
    pendant_odd_cycle,
    spider_graph,
    star_graph,
    triangle_tripod,
    wheel_graph,
)
from .graphs import Graph, distance_matrix, from_edge_list, permute
from .invariants import (
    INFINITE_GIRTH,
    InvariantSummary,
    clique_number,
    distance_window,
    girth,
    invariant_summary,
    spider_signature,
)
from .resolve import (
    DimensionReport,
    ResolvingReport,
    is_resolving_set,
    metric_dimension,
    non_resolvers,
    resolving_number,
    resolving_number_oracle,
    upper_dimension,
)
from .serial import (
    parse_edge_list,
    parse_graph6,
    parse_graph6_lines,
    write_graph6,
)

__version__ = "0.1.0"

__all__ = [
    "BoundVerdict",
    "CanonicalForm",
    "CatalogMember",
    "CatalogMissing",
    "Category",
    "DimensionReport",
    "Disconnected",
    "EnumConstraints",
    "FamilySpec",
    "Graph",
    "INFINITE_GIRTH",
    "InputError",
    "InvariantSummary",
    "Res3Catalog",
    "ResnumError",
    "ResolvingReport",
    "TheoremViolation",
    "TooLarge",
    "build_res3_catalog",
    "canonical_form",
    "classify_res",
    "clique4_sporadic",
    "clique_equals_res_report",
    "clique_number",
    "clique_res_category",
    "clique_with_pendant",
    "complete_graph",
    "counting_lemma_check",
    "cycle_graph",
    "distance_matrix",
    "distance_window",
    "enumerate_graphs",
    "family_names",
    "from_edge_list",
    "generate",
    "girth",
    "invariant_summary",
    "is_resolving_set",
    "join",
    "load_default_catalog",
    "metric_dimension",
    "non_resolvers",
    "parse_edge_list",
    "parse_graph6",
    "parse_graph6_lines",
    "path_graph",
    "pendant_odd_cycle",
    "permute",
    "resolving_number",
    "resolving_number_oracle",
    "spider_graph",
    "spider_signature",
    "star_graph",
    "triangle_tripod",
    "upper_dimension",
    "verify_bounds",
    "vertex_pairs",
    "wheel_graph",
    "write_graph6",
]
