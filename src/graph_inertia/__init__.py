"""Exact inertia of edge-weighted trees, forests, unicyclic and bicyclic graphs.

The structural solver computes the triple (i+, i-, i0) from matchings, local
rewrites and closed-form case tables; an exact congruence-diagonalization
oracle over rationals provides ground truth for any graph.

The names below are the documented entry points; everything else (result
and trace types, the case table, the generator) is imported from its module.
"""

from .closed_forms import (
    cycle_inertia,
    forest_inertia,
    infinity_base_inertia,
    infinity_condition,
    infinity_inertia,
    theta_base_inertia,
    theta_inertia,
)
from .core import GraphError, Inertia, ParseError
from .graph import (
    GraphClass,
    WeightedGraph,
    adjacency_matrix,
    classify,
    connected_components,
    parse_graph,
    serialize_graph,
)
from .matrix import SymRationalMatrix, congruent_diagonalize
from .oracle import inertia_oracle
from .reduction import (
    ReductionRule,
    contract_degree2_path,
    delete_pendant_pair,
    reduce_to_core,
)
from .solver import Method, solve
from .structure import (
    BaseKind,
    describe_base,
    hanging_trees,
    max_matching_forest,
    two_core,
)

__version__ = "0.1.0"
