"""Inertia-preserving-with-offset graph rewrites, with full traces.

Two local rewrites drive everything: deleting a pendant vertex together with
its neighbor costs exactly (1, 1) on the (positive, negative) pair, and
contracting a five-edge run whose four interior vertices have degree 2 into a
single edge of weight ``w1*w3*w5/(w2*w4)`` costs exactly (2, 2).  That weight
is ``alternating_product(ws)``, the product every closed-form fold takes.
``reduce_to_core`` applies both on vertex positions; ``tests/reference.py``
keeps each as a single-step rewrite of a graph.
"""

from __future__ import annotations

import heapq
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .closed_forms import alternating_product
from .graph import WeightedGraph, _subgraph

__all__ = [
    "ReductionRule",
    "ReductionStep",
    "ReductionTrace",
    "reduce_to_core",
]


class ReductionRule(Enum):
    PENDANT_PAIR = "PendantPair"
    PATH_CONTRACT = "PathContract"
    COMPONENT_SPLIT = "ComponentSplit"
    TYPE_I_DECOMPOSE = "TypeIDecompose"
    TYPE_II_CUT = "TypeIICut"


class ReductionStep(NamedTuple):
    """One rewrite, as the named tuple ``(rule, removed, added, offset)``.

    ``rule`` is the ``ReductionRule`` applied, ``removed`` the vertex ids it
    deleted, ``added`` its new ``(u, v, weight)`` edges and ``offset`` the
    ``(pos, neg)`` pair it adds to the inertia.  For PathContract steps
    ``removed`` lists the four interior vertices in path order starting next
    to ``added[0][0]``.  A step equals, and unpacks like, the plain tuple of
    its fields.
    """

    rule: ReductionRule
    removed: tuple[str, ...] = ()
    added: tuple[tuple[str, str, Fraction], ...] = ()
    offset: tuple[int, int] = (0, 0)

    def serialize(self) -> str:
        removed = ",".join(self.removed)
        added = ",".join(f"({u},{v},{w})" for u, v, w in self.added)
        return (
            f"{self.rule.value} removed=[{removed}] added=[{added}] "
            f"offset=(+{self.offset[0]},+{self.offset[1]})"
        )


class ReductionTrace(NamedTuple):
    steps: tuple[ReductionStep, ...] = ()

    @property
    def offset(self) -> tuple[int, int]:
        pos = neg = 0
        for s in self.steps:
            p, q = s.offset
            pos += p
            neg += q
        return (pos, neg)

    def serialize(self) -> str:
        return "\n".join(s.serialize() for s in self.steps)


def _run_from(adj: list[dict[int, int] | None], x1: int) -> list[int] | None:
    """The first contractible run x0..x5 through degree-2 ``x1``, trying its
    neighbours as x0 in neighbour order, or None; vertices are positions."""
    for x0 in adj[x1]:
        run = [x0, x1]
        prev, cur = x0, x1
        for _ in range(4):
            nbrs = adj[cur]
            if len(nbrs) != 2:
                break
            a, b = nbrs
            prev, cur = cur, b if a == prev else a
            run.append(cur)
        else:
            if len(set(run)) == 6 and run[5] not in adj[x0]:
                return run
    return None


def reduce_to_core(g: WeightedGraph) -> tuple[WeightedGraph, ReductionTrace]:
    """Apply pendant-pair deletion, then path contraction, to a fixed point.

    Each step rewrites the first candidate in stored vertex order: the first
    pendant vertex while there is one, else the first degree-2 vertex x1 with
    a contractible run, taking its neighbours as x0 in neighbour order.  The
    fixed point plus the accumulated (pos, neg) offset determines the input's
    inertia: i0 never changes.

    One pass over a mutable copy of the adjacency does this in
    O((n + m) log n).  Deleting a neighbour keeps the order of the others and
    a contraction's edge is inserted last, so every neighbour order, and so
    every choice, is the one the graph after each single-step rewrite in
    ``tests/reference.py`` would give.
    """
    vs = g.vertices
    # A copy of the adjacency by vertex position; None marks a deleted vertex.
    adj: list[dict[int, int] | None] = [nbrs.copy() for nbrs in g._adj]
    # Copies of the edge columns; a weight of None marks a deleted edge.
    us, vs_ = list(g._u), list(g._v)
    ws: list[Fraction | None] = list(g._w)
    steps: list[ReductionStep] = []
    heappop, heappush = heapq.heappop, heapq.heappush
    pendant_pair = ReductionRule.PENDANT_PAIR

    # Degrees only fall while pendant pairs go, so a vertex reaches degree 1
    # at most once and a stale heap entry never becomes valid again.  The
    # heap holds vertex positions, so it pops in stored vertex order.
    pendants = [v for v, nbrs in enumerate(adj) if len(nbrs) == 1]
    while pendants:
        v = heappop(pendants)
        nbrs = adj[v]
        if nbrs is None or len(nbrs) != 1:
            continue
        adj[v] = None
        ((u, pos),) = nbrs.items()
        ws[pos] = None
        u_nbrs = adj[u]
        adj[u] = None
        del u_nbrs[v]
        for nb, pos in u_nbrs.items():
            nbrs = adj[nb]
            del nbrs[u]
            ws[pos] = None
            if len(nbrs) == 1:
                heappush(pendants, nb)
        steps.append(ReductionStep(pendant_pair, (vs[v], vs[u]), (), (1, 1)))

    # Contractions take x1 in one sweep of the stored order.  A contraction
    # keeps every surviving degree (x0 trades x1 for x5, x5 trades x4 for
    # x0), so no pendant appears after the first one, and the degree-2
    # vertices keep forming the same maximal chains between the same end
    # vertices, or the same hub-free cycles.  Whether a vertex has a run
    # depends on its chain or cycle alone.  On a hub-free cycle every vertex
    # has one iff the cycle has at least 7 vertices.  On a chain with m
    # interior vertices, a vertex with k interior vertices beyond it towards
    # one end has a run that way iff k >= 3 and the run is not refused; a
    # refusal needs m = 4 (coincident or adjacent ends) or m = 5 (coincident
    # ends).  A contraction removes four vertices of one cycle, or four
    # consecutive interior vertices of one chain: that lowers m by 4, lowers
    # or keeps every survivor's k, and can only make the ends adjacent.  So a
    # vertex without a run never gains one, and a vertex the sweep has passed
    # needs no second look: the sweep finds the same first run as a scan from
    # the first vertex after every step.
    for x1, nbrs in enumerate(adj):
        if nbrs is None or len(nbrs) != 2:
            continue
        run = _run_from(adj, x1)
        if run is None:
            continue
        run_ws = []
        for a, b in zip(run, run[1:]):
            pos = adj[a][b]
            run_ws.append(ws[pos])
            ws[pos] = None
        x0, x5 = run[0], run[5]
        del adj[x0][run[1]], adj[x5][run[4]]
        for x in run[1:5]:
            adj[x] = None
        w = alternating_product(run_ws)
        adj[x0][x5] = adj[x5][x0] = len(ws)
        us.append(x0)
        vs_.append(x5)
        ws.append(w)
        added = (vs[x0], vs[x5], w)
        removed = tuple([vs[x] for x in run[1:5]])
        steps.append(ReductionStep(ReductionRule.PATH_CONTRACT, removed, (added,), (2, 2)))

    # A surviving edge joins surviving vertices.
    reduced = _subgraph(
        vs,
        us,
        vs_,
        ws,
        [i for i, nbrs in enumerate(adj) if nbrs is not None],
        [pos for pos, w in enumerate(ws) if w is not None],
    )
    return reduced, ReductionTrace(tuple(steps))
