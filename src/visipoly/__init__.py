"""Visibility polynomials of simple undirected graphs.

The coefficient of x^k in the visibility polynomial counts the
mutual-visibility sets of cardinality k: vertex sets in which every pair is
connected by some shortest path with no internal vertex inside the set.
The package provides the membership test, two enumeration engines, closed
forms and composition laws for the standard graph families, graph6
ingestion, and a batch pipeline that groups graphs by polynomial.
"""

from .classes import (
    ClassSpec,
    Complete,
    CompleteBipartite,
    Cycle,
    DisjointUnion,
    Join,
    Path,
    Raw,
    Star,
    build_class,
    parse_class_spec,
    spec_label,
)
from .closed_forms import (
    poly_complete,
    poly_complete_bipartite,
    poly_cycle,
    poly_disconnected,
    poly_for_class,
    poly_join,
    poly_path,
    poly_star,
    r_mu_cycle,
)
from .enumeration import (
    count_by_size_and_diameter,
    iter_mv_sets,
    polynomial_bruteforce,
    polynomial_pruned,
)
from .errors import FormatError, GuardrailError, ParameterError, VisipolyError
from .graph import (
    Graph,
    complement,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    delete_edge,
    diamond_graph,
    disjoint_union,
    empty_graph,
    iter_bits,
    join,
    parse_edge_list,
    path_graph,
    paw_graph,
    star_graph,
)
from .graph6 import encode_graph6, load_graph6_file, parse_graph6
from .polynomial import Polynomial
from .batch import BatchReport, run_batch, run_batch_file
from .verify import paper_suite, run_verify
from .visibility import (
    VisStats,
    VisibilityContext,
    clique_count,
    compute_stats,
    is_mutual_visibility_set,
)

__version__ = "0.1.0"

__all__ = [
    "BatchReport",
    "ClassSpec",
    "Complete",
    "CompleteBipartite",
    "Cycle",
    "DisjointUnion",
    "FormatError",
    "Graph",
    "GuardrailError",
    "Join",
    "ParameterError",
    "Path",
    "Polynomial",
    "Raw",
    "Star",
    "VisStats",
    "VisibilityContext",
    "VisipolyError",
    "build_class",
    "clique_count",
    "complement",
    "complete_bipartite_graph",
    "complete_graph",
    "components",
    "compute_stats",
    "count_by_size_and_diameter",
    "cycle_graph",
    "delete_edge",
    "diamond_graph",
    "disjoint_union",
    "empty_graph",
    "encode_graph6",
    "is_mutual_visibility_set",
    "iter_bits",
    "iter_mv_sets",
    "join",
    "load_graph6_file",
    "paper_suite",
    "parse_class_spec",
    "parse_edge_list",
    "parse_graph6",
    "path_graph",
    "paw_graph",
    "poly_complete",
    "poly_complete_bipartite",
    "poly_cycle",
    "poly_disconnected",
    "poly_for_class",
    "poly_join",
    "poly_path",
    "poly_star",
    "polynomial_bruteforce",
    "polynomial_pruned",
    "r_mu_cycle",
    "run_batch",
    "run_batch_file",
    "run_verify",
    "spec_label",
    "star_graph",
]
