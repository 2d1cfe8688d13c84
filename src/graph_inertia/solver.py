"""Top-level structural inertia computation; ``solve`` is the one entry point.

Each connected component is dispatched on its class.  Forests are a matching
count.  A unicyclic or bicyclic component either has a core vertex whose
hanging tree matches it (type I: split that tree off and solve the rest) or
has none (type II: cut the whole core out and evaluate it in closed form).
One leaves-first peel of the whole input serves every component and every
rest: a type-I split deletes its root and continues the same peel, and a
type-II core is read in place on the input's adjacency, so no subgraph is
rebuilt or peeled again; only a component denser than bicyclic is built
as a graph, for the oracle.  One loop over a stack of components applies
these rules, depth first, and appends methods and trace steps to one pair
of lists, so the result is built once.  The result always equals the congruence oracle,
which is also the fallback for components denser than bicyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .closed_forms import cycle_inertia, infinity_base_inertia, theta_base_inertia
from .core import Inertia
from .graph import ComponentClass, WeightedGraph, _component_class, _component_vertices
from .oracle import inertia_oracle
from .reduction import ReductionRule, ReductionStep, ReductionTrace
from .structure import BaseKind, _cut, _describe_at, _hanging_tree, _live, _peel

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


def solve(g: WeightedGraph) -> SolveResult:
    """Structural inertia of any graph; components are solved independently
    and summed.  Components denser than bicyclic fall back to the oracle.

    One leaves-first peel of the whole input gives every component's 2-core
    and matching, and the components themselves: only the cores are walked,
    and a scan in vertex order that stops once it has met every component
    orders them.  One loop pops the live vertices of a component off a
    stack and applies its rule.  Type I cuts the matched root that comes
    first in ``g``'s order, deletes the tree hanging off it and continues
    the same peel; the rest of a unicyclic component then peels away, and
    the pieces of a bicyclic one go back on the stack, each a tree or
    unicyclic, since a 2-core vertex meets each piece by at least one edge
    and a cycle-free piece by two.  Type II cuts out the whole core and
    evaluates it in closed form, its descriptor read on ``g``'s adjacency
    through the live degrees: deleting a mismatched root keeps its tree's
    matching number.  A unicyclic core that no vertex was peeled
    into is a bare cycle, and has no matched vertex either.  Trees,
    unicyclic and bicyclic components cost O(n + m) apart from sorting the
    removed vertex sets and the closed forms' rational arithmetic.
    """
    adj, vs = g._adj, g.vertices
    live, parent, tops, matched = _peel(g)
    methods: list[Method] = []
    steps: list[ReductionStep] = []

    def split(scan, core: list[int], skip: set[int], peeled: int) -> list[list[int]]:
        """The components of ``scan`` minus ``skip`` as their live vertices
        (none for a tree), ordered by their first vertex; the loop below
        solves them in this order, before anything it had still to solve.
        ``scan`` is whole components of ``g`` in ``g``'s order (None: the
        component of ``skip``), ``core`` their live vertices, and the rest
        of them peeled, their trees ending at ``tops[peeled:]``.  A tree
        ends its peel at a vertex without a parent, any other component
        keeps a connected core, and every peeled vertex's parents lead to
        one of those.  Vertices are positions throughout."""
        ends = tops[peeled:]
        comps = _component_vertices(g, core, within=live) + [[] for _ in ends]
        if len(comps) < 2:
            return comps
        steps.append(ReductionStep(ReductionRule.COMPONENT_SPLIT))
        if scan is None:
            (whole,) = _component_vertices(g, [next(iter(skip))])
            scan = sorted(whole)
        comp_of = {v: i for i, c in enumerate(comps) for v in c}
        comp_of.update((v, i) for i, v in enumerate(ends, len(comps) - len(ends)))
        met: dict[int, None] = {}
        for v in scan:
            if v in skip:
                continue
            path = []
            while v not in comp_of:
                path.append(v)
                v = parent[v]
            for u in path:
                comp_of[u] = comp_of[v]
            met.setdefault(comp_of[v])
            if len(met) == len(comps):
                break
        return [comps[i] for i in met]

    # Peeling takes a vertex and an edge at a time from a component with a
    # cycle, so its core has the component's m - n.  The pieces of a split
    # are trees or unicyclic, so only a component of ``g`` itself is split
    # again, and one ``scan`` serves every split.
    stack = split(range(g.n), _live(live), set(), 0)
    scan = range(g.n) if len(stack) == 1 else None
    stack.reverse()
    closed = Inertia(0, 0, 0)
    while stack:
        core = stack.pop()
        if not core:
            methods.append(Method.FOREST)
            continue
        kind = _component_class(len(core), sum(map(live.__getitem__, core)) // 2)
        if kind is ComponentClass.UNSUPPORTED:
            methods.append(Method.ORACLE_FALLBACK)
            (comp,) = _component_vertices(g, core[:1])
            closed += inertia_oracle(g._induced_at(sorted(comp)))
            for v in comp:
                matched[v] = 0
            continue
        type_i, type_ii = _CYCLIC_METHODS[kind]
        roots = [v for v in core if matched[v]]
        if not roots:
            core.sort()
            d = _describe_at(g, core, live)
            base = _BASE_CLOSED_FORMS[d.kind](d)
            closed += base
            # A vertex peeled next to a live one has it as its parent.
            if kind is ComponentClass.UNICYCLIC and not any(
                parent[nb] == v for v in core for nb in adj[v]
            ):
                methods.append(Method.CYCLE_CLOSED_FORM)
            else:
                methods.append(type_ii)
                steps.append(
                    ReductionStep(
                        ReductionRule.TYPE_II_CUT,
                        removed=tuple([vs[v] for v in core]),
                        offset=base.pn,
                    )
                )
            continue
        root = min(roots)
        tree = _hanging_tree(adj, parent, root)
        q = sum(map(matched.__getitem__, tree)) // 2
        removed = tuple([vs[v] for v in sorted(tree)])
        methods.append(type_i)
        steps.append(ReductionStep(ReductionRule.TYPE_I_DECOMPOSE, removed=removed, offset=(q, q)))
        peeled = len(tops)
        _cut(adj, live, parent, tops, matched, root)
        if kind is ComponentClass.BICYCLIC:
            rest = [v for v in core if live[v] >= 0]
            stack += split(scan, rest, set(tree), peeled)[::-1]
    q = matched.count(1) // 2
    inertia = closed + Inertia(q, q, g.n - sum(closed.as_tuple()) - 2 * q)
    return SolveResult(inertia, tuple(methods), ReductionTrace(tuple(steps)))
