"""Exact inertia of edge-weighted trees, forests, unicyclic and bicyclic graphs.

The structural solver computes the triple (i+, i-, i0) from matchings, local
rewrites and closed-form case tables; an exact congruence-diagonalization
oracle over rationals provides ground truth for any graph.

The names below are the documented entry points; everything else (result
and trace types, the case table, the generator) is imported from its module.
"""

from .closed_forms import cycle_inertia, forest_inertia, infinity_inertia, theta_inertia
from .core import GraphError, Inertia, ParseError
from .graph import WeightedGraph, adjacency_matrix, classify, parse_graph, serialize_graph
from .matrix import congruent_diagonalize
from .oracle import inertia_oracle
from .reduction import reduce_to_core
from .solver import solve
from .structure import describe_base, hanging_trees, max_matching_forest, two_core

__all__ = [
    "WeightedGraph",
    "Inertia",
    "GraphError",
    "ParseError",
    "parse_graph",
    "serialize_graph",
    "classify",
    "adjacency_matrix",
    "congruent_diagonalize",
    "inertia_oracle",
    "max_matching_forest",
    "two_core",
    "describe_base",
    "hanging_trees",
    "reduce_to_core",
    "forest_inertia",
    "cycle_inertia",
    "infinity_inertia",
    "theta_inertia",
    "solve",
]

__version__ = "0.1.0"
