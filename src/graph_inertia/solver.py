"""Top-level structural inertia computation; ``solve`` is the one entry point.

Each connected component is dispatched on its class.  Forests are a matching
count.  A unicyclic or bicyclic component either has a core vertex whose
hanging tree matches it (type I: split that tree off and solve the rest) or
has none (type II: cut the whole core out and evaluate it in closed form).
One leaves-first peel of the whole input serves every component and every
rest: a type-I split deletes its root and continues the same peel, so no
subgraph is rebuilt or peeled again, and only a type-II core is built as a
graph.  Methods and trace steps go to one pair of lists, so the result is
built once.  The result always equals the congruence oracle, which is also
the fallback for components denser than bicyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .closed_forms import cycle_inertia, infinity_base_inertia, theta_base_inertia
from .core import Inertia
from .graph import ComponentClass, WeightedGraph, _component_class, _component_vertices
from .oracle import inertia_oracle
from .reduction import ReductionRule, ReductionStep, ReductionTrace
from .structure import BaseKind, _cut, _hanging_tree, _peel, describe_base

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
    orders them.  A type-I step deletes the tree it splits off and continues
    the same peel, so it costs that tree and what the peel then removes, and
    the rest of a bicyclic component is split the same way.  Trees,
    unicyclic and bicyclic components cost O(n + m) apart from sorting the
    removed vertex sets and the closed forms' rational arithmetic.
    """
    adj, index = g._adjacency(), g.vertex_index
    live, parent, matched = _peel(g)
    methods: list[Method] = []
    steps: list[ReductionStep] = []

    def split(order, core: list[str], skip: set[str], peeled: int) -> list[list[str]]:
        """The components of ``order`` minus ``skip`` as their live vertices
        (none for a tree), ordered by their first vertex.  ``order`` is whole
        components of ``g`` in ``g``'s order (None: the component of
        ``skip``), ``core`` their live vertices, and the rest of them peeled
        from peel position ``peeled`` on.  A tree ends its peel at a vertex
        without a parent, any other component keeps a connected core, and
        every peeled vertex's parents lead to one of those."""
        tops = [v for v, up in islice(parent.items(), peeled, None) if up is None]
        comps = _component_vertices(g, core, within=live) + [[] for _ in tops]
        if len(comps) < 2:
            return comps
        steps.append(ReductionStep(ReductionRule.COMPONENT_SPLIT))
        if order is None:
            (whole,) = _component_vertices(g, [next(iter(skip))])
            order = sorted(whole, key=index)
        comp_of = {v: i for i, c in enumerate(comps) for v in c}
        comp_of.update((v, i) for i, v in enumerate(tops, len(comps) - len(tops)))
        met: dict[int, None] = {}
        for v in order:
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

    def solve_split(cores: list[list[str]], order) -> tuple[Inertia, int]:
        """Append the methods and trace steps of the components with these
        cores, and return the inertia and vertex count of what the peel's
        matching does not count.  ``order`` is as for ``split``.  Peeling
        takes a vertex and an edge at a time from a component with a cycle,
        so its core has the component's m - n."""
        closed, size = Inertia(0, 0, 0), 0
        for core in cores:
            if not core:
                methods.append(Method.FOREST)
                continue
            kind = _component_class(len(core), sum(live[v] for v in core) // 2)
            if kind is ComponentClass.UNSUPPORTED:
                methods.append(Method.ORACLE_FALLBACK)
                (comp,) = _component_vertices(g, core[:1])
                part, k = inertia_oracle(g.induced(comp)), len(comp)
                matched.difference_update(comp)
            else:
                part, k = solve_cyclic(core, kind, order)
            closed, size = closed + part, size + k
        return closed, size

    def solve_cyclic(core: list[str], kind: ComponentClass, order) -> tuple[Inertia, int]:
        """``solve_split`` for one unicyclic or bicyclic component.

        Type I cuts the matched root that comes first in ``g``'s order and
        splits off its tree; the rest of a unicyclic component then peels
        away, and each piece of a bicyclic one is a tree or unicyclic, since
        a 2-core vertex meets each piece by at least one edge and a
        cycle-free piece by two.  Type II cuts out the whole core: deleting
        a mismatched root keeps its tree's matching number.  A unicyclic
        component whose core no vertex was peeled into is a bare cycle.
        """
        type_i, type_ii = _CYCLIC_METHODS[kind]
        if kind is ComponentClass.UNICYCLIC and not any(
            nb in parent for v in core for nb in adj[v]
        ):
            methods.append(Method.CYCLE_CLOSED_FORM)
            return cycle_inertia(describe_base(g.induced(core)).a), len(core)
        roots = [v for v in core if v in matched]
        if not roots:
            core_graph = g.induced(core)
            d = describe_base(core_graph)
            base = _BASE_CLOSED_FORMS[d.kind](d)
            methods.append(type_ii)
            steps.append(
                ReductionStep(ReductionRule.TYPE_II_CUT, removed=core_graph.vertices, offset=base.pn)
            )
            return base, len(core)
        root = min(roots, key=index)
        tree = _hanging_tree(adj, parent, root)
        q = sum(v in matched for v in tree) // 2
        removed = tuple(sorted(tree, key=index))
        methods.append(type_i)
        steps.append(ReductionStep(ReductionRule.TYPE_I_DECOMPOSE, removed=removed, offset=(q, q)))
        peeled = len(parent)
        _cut(adj, live, parent, matched, root)
        if kind is ComponentClass.UNICYCLIC:
            return Inertia(0, 0, 0), 0
        rest = [v for v in core if v in live]
        return solve_split(split(order, rest, set(tree), peeled), None)

    try:
        cores = split(g.vertices, list(live), set(), 0)
        closed, size = solve_split(cores, g.vertices if len(cores) == 1 else None)
    finally:
        # The two call each other through closure cells; emptying the cells
        # frees the peel's state when solve returns, not at the next gc pass.
        del solve_split, solve_cyclic
    q = len(matched) // 2
    inertia = closed + Inertia(q, q, g.n - size - 2 * q)
    return SolveResult(inertia, tuple(methods), ReductionTrace(tuple(steps)))
