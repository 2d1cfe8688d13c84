"""Top-level structural inertia computation; ``solve`` is the one entry point.

Each connected component is dispatched on its class.  Forests are a matching
count.  A unicyclic or bicyclic component either has a core vertex whose
hanging tree matches it (type I: split that tree off and solve the rest) or
has none (type II: cut the whole core out and evaluate it in closed form).
Components and type-I rests append their methods and trace steps to one pair
of lists, so the result is built once.  The result always equals the
congruence oracle, which is also the fallback for components denser than
bicyclic.
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
from .core import Inertia
from .graph import ComponentClass, WeightedGraph, _component_class, connected_components
from .oracle import inertia_oracle
from .reduction import ReductionRule, ReductionStep, ReductionTrace
from .structure import BaseKind, _hanging_tree, _peel, describe_base

__all__ = ["Method", "SolveResult", "solve"]


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


def _solve_cyclic(
    g: WeightedGraph, kind: ComponentClass, methods: list[Method], steps: list[ReductionStep]
) -> Inertia:
    """Type I splits off the matched hanging tree with the least root (core
    order is ``g``'s vertex order) and solves the rest: a forest when ``g`` is
    unicyclic, else through the component loop.  Type II cuts out the whole
    core; deleting a mismatched root keeps its tree's matching number, so the
    forest left outside the core matches what the peel matched.  One leaf
    peel gives the core, the matching and the matched roots; the chosen tree
    is walked down from its root."""
    type_i, type_ii = _CYCLIC_METHODS[kind]
    live, parent, matched = _peel(g)
    if kind is ComponentClass.UNICYCLIC and len(live) == g.n:
        methods.append(Method.CYCLE_CLOSED_FORM)
        return cycle_inertia(describe_base(g).a)
    # ``live`` keeps g's vertex order, so this is the least matched root.
    choice = next((v for v in live if v in matched), None)
    if choice is not None:
        tree = _hanging_tree(g._adjacency(), parent, choice)
        removed = tuple(sorted(tree, key=g.vertex_index))
        q = sum(v in matched for v in tree) // 2
        methods.append(type_i)
        steps.append(ReductionStep(ReductionRule.TYPE_I_DECOMPOSE, removed=removed, offset=(q, q)))
        rest = g.without(removed)
        if kind is ComponentClass.UNICYCLIC:
            rest_part = forest_inertia(rest)
        else:
            rest_part = _solve_components(rest, methods, steps)
        return Inertia(q, q, len(removed) - 2 * q) + rest_part
    core = g.induced(live)
    d = describe_base(core)
    base = _BASE_CLOSED_FORMS[d.kind](d)
    q = len(matched) // 2
    methods.append(type_ii)
    steps.append(ReductionStep(ReductionRule.TYPE_II_CUT, removed=core.vertices, offset=base.pn))
    return base + Inertia(q, q, g.n - core.n - 2 * q)


def _solve_components(g: WeightedGraph, methods: list[Method], steps: list[ReductionStep]) -> Inertia:
    """Sum of the components' inertias; their methods and trace steps are
    appended in component order after one split step, if ``g`` splits."""
    comps = connected_components(g)
    if len(comps) > 1:
        steps.append(ReductionStep(ReductionRule.COMPONENT_SPLIT))
    total = Inertia(0, 0, 0)
    for comp in comps:
        kind = _component_class(comp.n, comp.m)
        if kind is ComponentClass.TREE:
            methods.append(Method.FOREST)
            total = total + forest_inertia(comp)
        elif kind in _CYCLIC_METHODS:
            total = total + _solve_cyclic(comp, kind, methods, steps)
        else:
            methods.append(Method.ORACLE_FALLBACK)
            total = total + inertia_oracle(comp)
    return total


def solve(g: WeightedGraph) -> SolveResult:
    """Structural inertia of any graph; components are solved independently
    and summed.  Components denser than bicyclic fall back to the oracle.

    Trees, unicyclic and bicyclic components cost O(n + m) apart from
    sorting vertex subsets and the closed forms' rational arithmetic.
    """
    methods: list[Method] = []
    steps: list[ReductionStep] = []
    inertia = _solve_components(g, methods, steps)
    return SolveResult(inertia, tuple(methods), ReductionTrace(tuple(steps)))
