"""Top-level structural inertia computation.

Each connected component is dispatched on its class.  Forests are a matching
count.  A unicyclic or bicyclic component either has a core vertex whose
hanging tree matches it (type I: split that tree off and recurse on the rest)
or has none (type II: cut the whole core out and evaluate it in closed form).
The result always equals the congruence oracle; the oracle is also the
explicit fallback for components outside the supported classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .closed_forms import (
    cycle_inertia,
    forest_inertia,
    infinity_base_inertia,
    theta_base_inertia,
)
from .core import GraphError, Inertia
from .graph import (
    ComponentClass,
    WeightedGraph,
    _component_class,
    _component_vertices,
    connected_components,
)
from .oracle import inertia_oracle
from .reduction import ReductionRule, ReductionStep, ReductionTrace
from .structure import BaseKind, _peel, _tree_vertices, describe_base, is_mismatched

__all__ = ["Method", "SolveResult", "JoinDecision", "solve", "solve_unicyclic", "solve_bicyclic", "joining_decompose"]


class Method(Enum):
    FOREST = "Forest"
    CYCLE_CLOSED_FORM = "CycleClosedForm"
    UNICYCLIC_TYPE_I = "UnicyclicTypeI"
    UNICYCLIC_TYPE_II = "UnicyclicTypeII"
    BICYCLIC_TYPE_I = "BicyclicTypeI"
    BICYCLIC_TYPE_II = "BicyclicTypeII"
    ORACLE_FALLBACK = "OracleFallback"


@dataclass(frozen=True)
class SolveResult:
    inertia: Inertia
    methods: tuple[Method, ...]
    trace: ReductionTrace


def _forest_part(n: int, matching: int) -> Inertia:
    return Inertia(matching, matching, n - 2 * matching)


# (type I, type II) method tags of each cyclic component class.
_CYCLIC_METHODS = {
    ComponentClass.UNICYCLIC: (Method.UNICYCLIC_TYPE_I, Method.UNICYCLIC_TYPE_II),
    ComponentClass.BICYCLIC: (Method.BICYCLIC_TYPE_I, Method.BICYCLIC_TYPE_II),
}

_BASE_CLOSED_FORMS = {
    BaseKind.CYCLE: lambda d: cycle_inertia(d.a),
    BaseKind.INFINITY: infinity_base_inertia,
    BaseKind.THETA: theta_base_inertia,
}


def solve_unicyclic(g: WeightedGraph) -> SolveResult:
    """Inertia of a connected unicyclic graph by matched-root splitting or a
    cycle cut, never by matrix work."""
    if g.m != g.n or len(_component_vertices(g)) != 1:
        raise GraphError("solve_unicyclic requires a connected unicyclic graph")
    return _solve_cyclic(g, ComponentClass.UNICYCLIC)


def solve_bicyclic(g: WeightedGraph) -> SolveResult:
    """Inertia of a connected bicyclic graph; type I splits recurse into
    unicyclic graphs and trees, type II cuts out the whole base."""
    if g.m != g.n + 1 or len(_component_vertices(g)) != 1:
        raise GraphError("solve_bicyclic requires a connected bicyclic graph")
    return _solve_cyclic(g, ComponentClass.BICYCLIC)


def _solve_cyclic(g: WeightedGraph, kind: ComponentClass) -> SolveResult:
    """Type I splits off the matched hanging tree with the least root (core
    order is ``g``'s vertex order) and solves the rest: a forest when ``g`` is
    unicyclic, otherwise whatever ``solve`` makes of it.  Type II cuts out the
    whole core; deleting a mismatched root keeps its tree's matching number,
    so the forest left outside the core matches what the peel matched.  One
    leaf peel gives the core, the trees, their matchings and their roots."""
    type_i, type_ii = _CYCLIC_METHODS[kind]
    live, parent, matched = _peel(g)
    if kind is ComponentClass.UNICYCLIC and len(live) == g.n:
        d = describe_base(g)
        return SolveResult(cycle_inertia(d.a), (Method.CYCLE_CLOSED_FORM,), ReductionTrace())
    # ``live`` keeps g's vertex order, so this is the least matched root.
    choice = next((v for v in live if v in matched), None)
    if choice is not None:
        tree = _tree_vertices(live, parent)[choice]
        removed = tuple(sorted(tree, key=g.vertex_index))
        part = _forest_part(len(removed), sum(v in matched for v in tree) // 2)
        step = ReductionStep(ReductionRule.TYPE_I_DECOMPOSE, removed=removed, offset=part.pn)
        if kind is ComponentClass.UNICYCLIC:
            rest = SolveResult(forest_inertia(g.without(removed)), (), ReductionTrace())
        else:
            rest = solve(g.without(removed))
        return SolveResult(
            part + rest.inertia,
            (type_i,) + rest.methods,
            ReductionTrace((step,) + rest.trace.steps),
        )
    core = g.induced(live)
    d = describe_base(core)
    base_part = _BASE_CLOSED_FORMS[d.kind](d)
    step = ReductionStep(ReductionRule.TYPE_II_CUT, removed=core.vertices, offset=base_part.pn)
    return SolveResult(
        base_part + _forest_part(g.n - core.n, len(matched) // 2),
        (type_ii,),
        ReductionTrace((step,)),
    )


def solve(g: WeightedGraph) -> SolveResult:
    """Structural inertia of any graph; components are solved independently
    and summed.  Components denser than bicyclic fall back to the oracle.

    Trees, unicyclic and bicyclic components cost O(n + m) apart from
    sorting vertex subsets and the closed forms' rational arithmetic.
    """
    comps = connected_components(g)
    total = Inertia(0, 0, 0)
    methods: list[Method] = []
    steps: list[ReductionStep] = []
    if len(comps) > 1:
        steps.append(ReductionStep(ReductionRule.COMPONENT_SPLIT))
    for comp in comps:
        kind = _component_class(comp.n, comp.m)
        if kind is ComponentClass.TREE:
            sub = SolveResult(forest_inertia(comp), (Method.FOREST,), ReductionTrace())
        elif kind in _CYCLIC_METHODS:
            sub = _solve_cyclic(comp, kind)
        else:
            sub = SolveResult(inertia_oracle(comp), (Method.ORACLE_FALLBACK,), ReductionTrace())
        total = total + sub.inertia
        methods.extend(sub.methods)
        steps.extend(sub.trace.steps)
    return SolveResult(total, tuple(methods), ReductionTrace(tuple(steps)))


@dataclass(frozen=True)
class JoinDecision:
    """Which additive identity applies when a tree is edge-joined at ``u``.

    With ``u`` matched in the tree, the join splits as tree + rest; with ``u``
    mismatched it splits as tree + (rest plus u with its joining edges).
    """

    matched: bool
    tree_inertia: Inertia


def joining_decompose(t: WeightedGraph, u: str, rest: WeightedGraph, k: int) -> JoinDecision:
    """Decide the split for a k-joining of tree ``t`` at ``u`` to ``rest``."""
    if set(t.vertices) & set(rest.vertices):
        raise GraphError("join parts must be disjoint")
    if not 1 <= k <= rest.n:
        raise GraphError(f"join edge count {k} out of range 1..{rest.n}")
    return JoinDecision(matched=not is_mismatched(t, u), tree_inertia=forest_inertia(t))
