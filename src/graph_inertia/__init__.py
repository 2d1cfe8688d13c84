"""Exact inertia of edge-weighted trees, forests, unicyclic and bicyclic graphs.

The structural solver computes the triple (i+, i-, i0) from matchings, local
rewrites and closed-form case tables; an exact congruence-diagonalization
oracle over rationals provides ground truth for any graph.
"""

from .closed_forms import (
    INFINITY_TABLE,
    CaseCondition,
    ClosedFormUnavailable,
    InfinityRow,
    cycle_inertia,
    forest_inertia,
    infinity_base_inertia,
    infinity_condition,
    infinity_inertia,
    theta_base_inertia,
    theta_inertia,
)
from .core import GraphError, Inertia, ParseError, parse_rational
from .graph import (
    Classification,
    ComponentClass,
    GraphClass,
    GraphFormat,
    WeightedGraph,
    adjacency_matrix,
    classify,
    connected_components,
    parse_graph,
    serialize_graph,
)
from .matrix import (
    DiagonalizationResult,
    EcmoStep,
    SymRationalMatrix,
    congruent_diagonalize,
    ecmo_add,
    ecmo_scale,
    ecmo_swap,
)
from .oracle import inertia_oracle
from .reduction import (
    ReductionRule,
    ReductionStep,
    ReductionTrace,
    contract_degree2_path,
    delete_pendant_pair,
    reduce_to_core,
)
from .solver import (
    JoinDecision,
    Method,
    SolveResult,
    joining_decompose,
    solve,
    solve_bicyclic,
    solve_unicyclic,
)
from .structure import (
    BaseDescriptor,
    BaseKind,
    HangingTree,
    describe_base,
    hanging_trees,
    is_mismatched,
    max_matching_forest,
    two_core,
)
from .testgen import GenSpec, generate

__version__ = "0.1.0"
