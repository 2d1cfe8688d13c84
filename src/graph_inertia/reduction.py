"""Inertia-preserving-with-offset graph rewrites, with full traces.

Two local rewrites drive everything: deleting a pendant vertex together with
its neighbor costs exactly (1, 1) on the (positive, negative) pair, and
contracting a five-edge run whose four interior vertices have degree 2 into a
single edge of weight ``w1*w3*w5/(w2*w4)`` costs exactly (2, 2).  That weight
is the closed forms' own one-run fold, ``fold_path_weights(ws, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .closed_forms import fold_path_weights
from .core import GraphError
from .graph import WeightedGraph

__all__ = [
    "ReductionRule",
    "ReductionStep",
    "ReductionTrace",
    "delete_pendant_pair",
    "contract_degree2_path",
    "reduce_to_core",
]


class ReductionRule(Enum):
    PENDANT_PAIR = "PendantPair"
    PATH_CONTRACT = "PathContract"
    COMPONENT_SPLIT = "ComponentSplit"
    TYPE_I_DECOMPOSE = "TypeIDecompose"
    TYPE_II_CUT = "TypeIICut"


@dataclass(frozen=True)
class ReductionStep:
    """One rewrite: removed vertices, added edges, and its (pos, neg) offset.

    For PathContract steps ``removed`` lists the four interior vertices in
    path order starting next to ``added[0][0]``.
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


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...] = ()

    @property
    def offset(self) -> tuple[int, int]:
        pos = sum(s.offset[0] for s in self.steps)
        neg = sum(s.offset[1] for s in self.steps)
        return (pos, neg)

    def serialize(self) -> str:
        return "\n".join(s.serialize() for s in self.steps)


def delete_pendant_pair(g: WeightedGraph, v: str) -> tuple[WeightedGraph, ReductionStep]:
    """Remove a pendant vertex and its unique neighbor; offset (1, 1)."""
    if g.degree(v) != 1:
        raise GraphError(f"vertex {v!r} is not pendant (degree {g.degree(v)})")
    u = g.neighbors(v)[0][0]
    step = ReductionStep(ReductionRule.PENDANT_PAIR, removed=(v, u), offset=(1, 1))
    return g.without((v, u)), step


def contract_degree2_path(
    g: WeightedGraph, path: Sequence[str]
) -> tuple[WeightedGraph, ReductionStep]:
    """Replace a five-edge path whose interior vertices have degree 2 by one
    edge of weight ``w1*w3*w5/(w2*w4)``; offset (2, 2).

    ``path`` lists the six vertices in order, endpoints first and last.  The
    rewrite is refused when it would leave a non-simple graph (a loop when the
    endpoints coincide, or a parallel edge when they are already adjacent).
    """
    path = tuple(path)
    if len(path) != 6:
        raise GraphError("contraction path must list six vertices")
    if path[0] == path[5] and len(set(path)) == 5:
        raise GraphError("contraction refused: endpoints coincide, the new edge would be a loop")
    if len(set(path)) != 6:
        raise GraphError("contraction path revisits a vertex")
    ws = [g.weight(path[i], path[i + 1]) for i in range(5)]
    for x in path[1:5]:
        if g.degree(x) != 2:
            raise GraphError(f"interior vertex {x!r} has degree {g.degree(x)}, expected 2")
    if g.has_edge(path[0], path[5]):
        raise GraphError("contraction refused: the new edge would parallel an existing one")
    added = ((path[0], path[5], fold_path_weights(ws, 1)[0]),)
    rest = g.without(path[1:5])
    step = ReductionStep(ReductionRule.PATH_CONTRACT, removed=path[1:5], added=added, offset=(2, 2))
    return WeightedGraph._trusted(rest.vertices, rest.edges + added), step


def _find_contractible_run(g: WeightedGraph) -> tuple[str, ...] | None:
    for x1 in g.vertices:
        if g.degree(x1) != 2:
            continue
        for x0, _ in g.neighbors(x1):
            chain = [x0, x1]
            good = True
            for _ in range(4):
                prev, cur = chain[-2], chain[-1]
                if g.degree(cur) != 2:
                    good = False
                    break
                nxt = next(x for x, _ in g.neighbors(cur) if x != prev)
                chain.append(nxt)
            if not good or len(set(chain)) != 6:
                continue
            if g.has_edge(chain[0], chain[5]):
                continue
            return tuple(chain)
    return None


def reduce_to_core(g: WeightedGraph) -> tuple[WeightedGraph, ReductionTrace]:
    """Apply pendant-pair deletion, then path contraction, to a fixed point.

    Pendant pairs are exhausted first; vertices are scanned in stored order,
    so traces are deterministic.  The fixed point plus the accumulated
    (pos, neg) offset determines the input's inertia: i0 never changes.
    """
    steps: list[ReductionStep] = []
    cur = g
    while True:
        pendant = next((v for v in cur.vertices if cur.degree(v) == 1), None)
        if pendant is not None:
            cur, step = delete_pendant_pair(cur, pendant)
            steps.append(step)
            continue
        run = _find_contractible_run(cur)
        if run is None:
            break
        cur, step = contract_degree2_path(cur, run)
        steps.append(step)
    return cur, ReductionTrace(tuple(steps))
