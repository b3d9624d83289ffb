"""Contract a graph, with at most k edge contractions, to a connected graph
that is within ell extra edges of a tree.

Library surface: exact oracle, randomized / exhaustive / derandomized
coloring solvers, splitter and universal coloring families, and an
alpha-lossy kernelization with solution lifting.  The CLI lives in
neartree.harness (entry point: `neartree`).
"""

from .errors import InputError, InternalError, ParseError, SizeCapError
from .families import (
    FunctionFamily,
    build_hash_splitter,
    build_interval_splitter,
    build_universal_greedy,
    coloring_family,
    compose_universal,
    verify_family,
)
from .graph import (
    ConnectivityReport,
    Graph,
    Instance,
    analyze_connectivity,
    biconnected_blocks,
    complete_graph,
    contract_edges,
    cycle_graph,
    edge,
    excess,
    is_near_tree,
    near_tree_coloring,
    palette_size,
    path_graph,
    star_graph,
)
from .cvc import Shatter, min_connected_vertex_cover, min_shatter
from .kernel import (
    HIRPartition,
    KernelTrace,
    kernelize,
    kernelize_exact,
    lift_solution,
    partition_hir,
    size_bound,
)
from .oracle import exact_decide, exact_opt
from .solver import (
    Coloring,
    ComponentCase,
    ExhaustiveColorings,
    FamilyColorings,
    RandomColorings,
    classify_component,
    monochromatic_components,
    refine_coloring,
    solve,
    solve_2connected,
)
from .witness import (
    ContractionSolution,
    WitnessCheck,
    WitnessStructure,
    normalize_leaves,
    quotient,
    solution_edges,
    verify_witness,
    witness_from_solution,
)

__all__ = [
    "Coloring",
    "ComponentCase",
    "ConnectivityReport",
    "ContractionSolution",
    "ExhaustiveColorings",
    "FamilyColorings",
    "FunctionFamily",
    "Graph",
    "HIRPartition",
    "InputError",
    "InternalError",
    "Instance",
    "KernelTrace",
    "ParseError",
    "RandomColorings",
    "Shatter",
    "SizeCapError",
    "WitnessCheck",
    "WitnessStructure",
    "analyze_connectivity",
    "biconnected_blocks",
    "build_hash_splitter",
    "build_interval_splitter",
    "build_universal_greedy",
    "classify_component",
    "coloring_family",
    "complete_graph",
    "compose_universal",
    "contract_edges",
    "cycle_graph",
    "edge",
    "exact_decide",
    "exact_opt",
    "excess",
    "is_near_tree",
    "kernelize",
    "kernelize_exact",
    "lift_solution",
    "min_connected_vertex_cover",
    "min_shatter",
    "monochromatic_components",
    "near_tree_coloring",
    "normalize_leaves",
    "palette_size",
    "partition_hir",
    "path_graph",
    "quotient",
    "refine_coloring",
    "size_bound",
    "solution_edges",
    "solve",
    "solve_2connected",
    "star_graph",
    "verify_family",
    "verify_witness",
    "witness_from_solution",
]
