"""Top-level structural inertia computation; ``solve`` is the one entry point.

Every connected component follows one rule, whatever its class.  Forests
are a matching count.  A core vertex whose hanging tree matches it is cut
off with that tree (type I), and the rest is solved; a core with no such
vertex is cut out whole (type II) and evaluated: a bare cycle, infinity or
theta in closed form, by one reader of its threads, and a denser core by
the oracle.  Both cuts are Schur complements of pendant 2x2 pivots, so they
hold on any graph and in any order.  One leaves-first peel of the whole
input serves every component and every rest: a cut deletes its root and
continues the same peel, which reports the roots it matches, and a type-II
core is read in place on the input's adjacency, so no subgraph is rebuilt
or peeled again and no component is split twice; the only graph built is
a dense bare core, for the oracle.  A bare base with nothing beside it is
walked once: the walk that reads its threads also shows it is one piece.
One loop over a stack of components applies these rules, depth first,
appends methods and trace steps to one pair of lists and adds up the
closed parts' (i+, i-) as ints, so the result is built once.  The result
always equals the congruence oracle on the whole input.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .closed_forms import _cycle_pn, _infinity_pn, _theta_pn
from .core import Inertia
from .graph import ComponentClass, WeightedGraph, _component_class, _component_vertices
from .oracle import inertia_oracle
from .reduction import ReductionRule, ReductionStep, ReductionTrace
from .structure import _cut, _hanging_tree, _live, _peel, _walk_threads

__all__ = ["Method", "SolveResult", "solve"]


class Method(Enum):
    FOREST = "Forest"
    CYCLE_CLOSED_FORM = "CycleClosedForm"
    UNICYCLIC_TYPE_I = "UnicyclicTypeI"
    UNICYCLIC_TYPE_II = "UnicyclicTypeII"
    BICYCLIC_TYPE_I = "BicyclicTypeI"
    BICYCLIC_TYPE_II = "BicyclicTypeII"
    ORACLE_FALLBACK = "OracleFallback"


class SolveResult(NamedTuple):
    """What ``solve`` returns, as the named tuple ``(inertia, methods, trace)``.

    ``inertia`` is the graph's ``Inertia``, ``methods`` the ``Method`` tag
    of each rule applied, in the order applied, and ``trace`` the
    ``ReductionTrace`` of the splits and cuts.  A result equals, and unpacks
    like, the plain tuple of its fields.
    """

    inertia: Inertia
    methods: tuple[Method, ...]
    trace: ReductionTrace


# (type I, type II) method tags of each cyclic component class.  A denser
# component has no type-I tag, so its cuts show only as trace steps, and its
# bare core, which the oracle evaluates, is tagged as the fallback.
_CYCLIC_METHODS = {
    ComponentClass.UNICYCLIC: (Method.UNICYCLIC_TYPE_I, Method.UNICYCLIC_TYPE_II),
    ComponentClass.BICYCLIC: (Method.BICYCLIC_TYPE_I, Method.BICYCLIC_TYPE_II),
    ComponentClass.UNSUPPORTED: (None, Method.ORACLE_FALLBACK),
}


def _core_threads(g: WeightedGraph, live, core: list[int]) -> tuple[list[tuple], int]:
    """The threads of the live subgraph on the ascending positions
    ``core``, walked from its hubs in ascending order, or from its first
    vertex when it has none, and the number of vertices they cover: the
    hubs and the threads' inner vertices.  On a bare cycle, infinity or
    theta base that number is ``len(core)``."""
    hubs = [v for v in core if live[v] > 2] or core[:1]
    threads = _walk_threads(g, live, hubs)
    return threads, len(hubs) + sum([len(inner) for _, _, inner, _ in threads])


def _bare_base_pn(threads: list[tuple]) -> tuple[int, int]:
    """(i+, i-) of a bare cycle, infinity or theta base from its threads
    as ``_core_threads`` walks them.  ``_walk_threads`` walks every edge of
    the first hub before any other hub, so a theta's three links, an
    infinity's first loop ``a`` and its link ``c`` all start at that hub;
    the closed forms order the paths themselves."""
    loops = [ws for start, end, _, ws in threads if start == end]
    links = [ws for start, end, _, ws in threads if start != end]
    if len(loops) == 1:
        return _cycle_pn(loops[0])
    if not loops:
        return _theta_pn(*links)
    (c,) = links or [[]]  # no link at a shared hub
    return _infinity_pn(*loops, c)


def solve(g: WeightedGraph) -> SolveResult:
    """Structural inertia of any graph; components are solved independently
    and summed.

    One leaves-first peel of the whole input gives every component's 2-core
    and matching, and the components themselves: only the cores are walked,
    and a scan in vertex order that stops once it has met every component
    orders them.  When no tree is left beside the cores, no live vertex is
    matched and the live graph has at most one edge more than vertices, the
    walk of the threads from the hubs (or from the first live vertex) is
    made first; if it covers every live vertex, the input is one bare cycle,
    infinity or theta base, and that walk is the only one.  Otherwise the
    cores are split as above, and each bare piece is walked when it comes
    up.  The class and the matched vertices of the live graph are read once,
    and serve its one piece.  One loop pops the live vertices of a component
    off a stack and applies its rule.  Type I cuts matched roots, each with
    the tree hanging off it, and continues the same peel: a unicyclic or
    bicyclic component cuts the one that comes first in ``g``'s order, a
    denser one every matched live root in that order and then every live
    root those cuts match, which the continued peel reports and cannot
    unmatch.  The rest of a unicyclic component then peels away; any other
    splits once, and its pieces go back on the stack.  Those of a bicyclic
    one are trees or unicyclic, since a 2-core vertex meets each piece by at
    least one edge and a cycle-free piece by two; those of a denser one hold
    no matched live vertex.  Type II cuts out the whole core, its live
    vertices, and evaluates it.  Every bare cycle, infinity or theta base is
    read in walk order by one reader, on ``g``'s adjacency through the live
    degrees; its paths' weights go to the unchecked core of its closed form,
    since ``g`` has checked them.  A cycle's length mod 4, and whether its
    alternating product is 1, read the same from any start in either
    direction.  An infinity or theta base's inertia depends only on its
    shape and its paths' alternating products, so any reading of its threads
    from their hubs serves, and no canonical descriptor is built.  A denser
    core goes to the oracle, alone.  Deleting a mismatched root keeps its
    tree's matching number.  A unicyclic core that no vertex was peeled into
    is a bare cycle, and has no matched vertex either.  The cost is O(n + m)
    apart from sorting the removed vertex sets, the closed forms' rational
    arithmetic and the oracle on bare cores denser than bicyclic.
    """
    adj, vs = g._adj, g.vertices
    live, parent, tops, matched = _peel(g)
    methods: list[Method] = []
    steps: list[ReductionStep] = []

    def split(scan, core: list[int], peeled: int) -> list[list[int]]:
        """The pieces left of ``g`` or of one of its components, each as
        its live vertices (none for a tree), ordered by their first vertex;
        the loop below solves them in this order, before anything it had
        still to solve.  ``core`` is the pieces' live vertices and the rest
        of them is peeled, their trees ending at ``tops[peeled:]``;
        ``scan`` holds them in ``g``'s order (None: scan their component of
        ``g``).  Each peeled vertex's parents lead to a vertex without a
        parent: a live vertex, a top or a cut root, whose tree is in no
        piece.  Vertices are positions throughout."""
        ends = tops[peeled:]
        comps = _component_vertices(g, core, within=live) + [[] for _ in ends]
        if len(comps) < 2:
            # At most one piece, whose live vertices are ``core`` itself:
            # kept in the caller's order, ascending on the first split, so
            # the sort before a type-II cut meets a single run.
            return [core] if comps else comps
        steps.append(ReductionStep(ReductionRule.COMPONENT_SPLIT))
        if scan is None:
            (whole,) = _component_vertices(g, (core or ends)[:1])
            scan = sorted(whole)
        comp_of: dict[int, int | None] = {v: i for i, c in enumerate(comps) for v in c}
        comp_of.update((v, i) for i, v in enumerate(ends, len(comps) - len(ends)))
        met: dict[int, None] = {}
        for v in scan:
            path = []
            while v not in comp_of and parent[v] >= 0:
                path.append(v)
                v = parent[v]
            i = comp_of.get(v)
            for u in path:
                comp_of[u] = i
            if i is not None:
                met.setdefault(i)
                if len(met) == len(comps):
                    break
        return [comps[i] for i in met]

    # Peeling takes a vertex and an edge at a time from a component with a
    # cycle, so its core has the component's m - n.  The live graph has
    # minimum degree 2, so when it has at most one edge more than vertices,
    # every piece of it is a cycle but at most one, which holds every hub,
    # and a walk from the hubs, or from the first vertex when there are
    # none, covers every live vertex iff there is one piece.
    whole = _live(live)
    kind = _component_class(len(whole), sum(map(live.__getitem__, whole)) // 2)
    roots = [v for v in whole if matched[v]]
    threads = None
    if whole and not (tops or roots) and kind is not ComponentClass.UNSUPPORTED:
        threads, covered = _core_threads(g, live, whole)
        if covered < len(whole):
            threads = None
    # ``range(g.n)`` serves the split of a connected ``g``; otherwise a split
    # scans its component.
    stack = [whole] if threads else split(range(g.n), whole, 0)
    scan = range(g.n) if len(stack) == 1 else None
    stack.reverse()
    pos = neg = 0
    while stack:
        core = stack.pop()
        if not core:
            methods.append(Method.FOREST)
            continue
        if core is not whole:
            # ``kind``, ``roots`` and ``threads`` above hold for ``whole``
            # alone, which a split returns as itself when it is one piece.
            kind = _component_class(len(core), sum(map(live.__getitem__, core)) // 2)
            roots = sorted([v for v in core if matched[v]])
            threads = None
        type_i, type_ii = _CYCLIC_METHODS[kind]
        if not roots:
            core.sort()
            if kind is ComponentClass.UNSUPPORTED:
                pn = inertia_oracle(g._induced_at(core)).pn
            else:
                pn = _bare_base_pn(threads or _core_threads(g, live, core)[0])
            pos += pn[0]
            neg += pn[1]
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
                        offset=pn,
                    )
                )
            continue
        # A denser component cuts every matched live root, then every root
        # those cuts match, so that its pieces hold no matched live vertex
        # and it splits once.
        if type_i is not None:
            methods.append(type_i)
            del roots[1:]
        peeled = len(tops)
        for root in roots:
            if live[root] < 0:
                continue
            tree = _hanging_tree(adj, parent, root)
            q = sum(map(matched.__getitem__, tree)) // 2
            removed = tuple([vs[v] for v in sorted(tree)])
            steps.append(
                ReductionStep(ReductionRule.TYPE_I_DECOMPOSE, removed=removed, offset=(q, q))
            )
            found = _cut(adj, live, parent, tops, matched, root)
            if type_i is None:
                roots += found
        if kind is not ComponentClass.UNICYCLIC:
            rest = [v for v in core if live[v] >= 0]
            stack += split(scan, rest, peeled)[::-1]
    q = matched.count(1) // 2
    inertia = Inertia(pos + q, neg + q, g.n - pos - neg - 2 * q)
    return SolveResult(inertia, tuple(methods), ReductionTrace(tuple(steps)))
