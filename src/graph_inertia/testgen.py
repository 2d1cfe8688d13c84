"""Deterministic generators for weighted trees, forests, unicyclic and
bicyclic graphs, plus weight samplers that can force each degenerate
equality branch of the closed forms exactly."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .closed_forms import (
    INFINITY_TABLE,
    _check_cycle,
    _check_infinity,
    _check_theta,
    alternating_product,
    infinity_condition,
)
from .core import GraphError
from .graph import WeightedGraph

__all__ = [
    "GenSpec",
    "generate",
    "random_weight",
    "build_cycle",
    "build_infinity",
    "build_theta",
    "infinity_branches",
    "theta_branches",
    "sample_infinity_weights",
    "sample_theta_weights",
    "sample_cycle_weights",
]


# Every value random_weight draws, by numerator and then denominator, and
# the unit weight: each is made once and shared by every draw of it.
_RANDOM_WEIGHTS = tuple(tuple(Fraction(p, q) for q in range(1, 11)) for p in range(1, 21))
_ONE = Fraction(1)


def random_weight(rng: random.Random) -> Fraction:
    """Small random positive rational p/q, p in 1..20 drawn before q in
    1..10; keeps exact arithmetic fast while making accidental product
    equalities unlikely.  Each of the 200 values is one shared ``Fraction``,
    so a generated graph's random weights are at most 200 objects.
    ``randrange(20)`` makes the same ``_randbelow(20)`` draw as
    ``randint(1, 20) - 1`` without its extra call, so both give one stream."""
    return _RANDOM_WEIGHTS[rng.randrange(20)][rng.randrange(10)]


def _weights(rng: random.Random, count: int, unit: bool = False) -> tuple[Fraction, ...]:
    if unit:
        return (_ONE,) * count
    return tuple(random_weight(rng) for _ in range(count))


# ---------------------------------------------------------------------------
# explicit builders


def _links(chains):
    """The edges that walk each ``(vertex sequence, weights)`` chain in turn,
    one weight per step, as ``(u, v, weight)``; a cycle's sequence ends
    where it starts."""
    return ((vs[i], vs[i + 1], w) for vs, ws in chains for i, w in enumerate(ws))


def _fractions(ws: Sequence[Fraction]) -> list[Fraction]:
    """Checked weights as the graph keeps them: each int becomes a ``Fraction``."""
    return [w if type(w) is Fraction else Fraction(w) for w in ws]


def _chains(vertices, *chains) -> WeightedGraph:
    """The graph on ``vertices`` whose edges are ``_links(chains)``, built
    unchecked: a builder calls it once its shape and weight checks pass,
    and then its generated ids are distinct and valid and its shape repeats
    no edge.  Both edge columns share one int object per vertex position."""
    at = dict(zip(vertices, range(len(vertices))))
    links = list(_links(chains))
    return WeightedGraph._trusted(
        tuple(vertices),
        [at[u] for u, _, _ in links],
        [at[v] for _, v, _ in links],
        _fractions([w for _, _, w in links]),
    )


def build_cycle(weights: Sequence[Fraction]) -> WeightedGraph:
    """The cycle v0, v1, ... whose i-th edge, from ``v{i}`` to the next
    vertex, has weight ``weights[i]``; ``relabel`` gives other ids."""
    _check_cycle(weights)
    names = tuple(f"v{i}" for i in range(len(weights)))
    at = list(range(len(names)))
    return WeightedGraph._trusted(names, at, at[1:] + at[:1], _fractions(weights))


def build_infinity(
    p: int,
    l: int,
    q: int,
    a: Sequence[Fraction],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> WeightedGraph:
    """Two cycles of lengths p and q joined by a path with ``l - 1`` edges.

    ``a``/``b`` walk each cycle starting at its junction; ``c`` walks the
    connecting path from the p-side junction.  ``l == 1`` shares one vertex.
    """
    _check_infinity(p, l, q, a, b, c)
    us = [f"u{i}" for i in range(p)]
    vs = [f"v{i}" for i in range(q)]
    if l == 1:
        vs[0] = us[0]
    ws = [us[0]] + [f"w{i}" for i in range(1, l - 1)] + [vs[0]]
    vertices = us + ws[1:-1] + (vs if l > 1 else vs[1:])
    return _chains(vertices, ((*us, us[0]), a), ((*vs, vs[0]), b), (ws, c))


def build_theta(
    p: int,
    l: int,
    q: int,
    a: Sequence[Fraction],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> WeightedGraph:
    """Two hubs joined by three internally disjoint paths with p-1, l-1 and
    q-1 edges; at most one path may be a single edge."""
    _check_theta(p, l, q, a, b, c)
    inners = [[f"{label}{i}" for i in range(1, size - 1)] for label, size in zip("abc", (p, l, q))]
    chains = [(["u", *inner, "v"], ws) for inner, ws in zip(inners, (a, b, c))]
    return _chains(["u", "v", *inners[0], *inners[1], *inners[2]], *chains)


# ---------------------------------------------------------------------------
# branch-forcing weight samplers

_INFINITY_CONDITIONED = frozenset(
    shape for shape, row in INFINITY_TABLE.items() if row.condition_text is not None
)

# A forced weight is the weight that balances a condition, times the
# branch's scale: 1 makes the two sides equal, 2 or 1/2 pulls them apart.
_SCALE = {
    "eq": Fraction(1),
    "ceq": Fraction(1),
    "neq": Fraction(2),
    "cneq": Fraction(2),
    "gt": Fraction(2),
    "lt": Fraction(1, 2),
}


def infinity_branches(p: int, l: int, q: int) -> tuple[str, ...]:
    """Forcible weight-condition branches of an infinity representative."""
    if (p, l, q) in _INFINITY_CONDITIONED:
        return ("gt", "eq", "lt")
    if 4 in (p, q):
        return ("eq", "neq")
    return ()


def theta_branches(p: int, l: int, q: int) -> tuple[str, ...]:
    """Forcible weight-condition branches of a (sorted) theta representative."""
    sizes = tuple(sorted((p, l, q)))
    if sizes == (3, 3, 3):
        return ("eq:ceq", "eq:cneq", "neq")
    if sizes[:2] == (3, 3):
        return ("eq", "neq")
    if sizes == (2, 4, 4):
        return ("ceq", "cneq")
    if sizes == (5, 5, 5):
        return ("eq:ceq", "eq:cneq", "neq")
    if sizes[1:] == (5, 5):
        return ("eq", "neq")
    if sizes == (2, 4, 6):
        return ("ceq", "cneq")
    if sizes in ((2, 3, 4), (2, 4, 5)):
        return ("gt", "eq", "lt")
    return ()


def sample_infinity_weights(p, l, q, rng, branch=None, unit=False):
    """Weight sequences for an infinity shape; ``branch`` forces a condition.

    For conditioned table rows the branch is "gt"/"eq"/"lt"; for shapes with a
    4-cycle, "eq" forces each 4-cycle's alternating products equal and "neq"
    keeps them apart.
    """
    a = list(_weights(rng, p, unit))
    b = list(_weights(rng, q, unit))
    c = list(_weights(rng, l - 1, unit))
    if branch is None:
        return tuple(a), tuple(b), tuple(c)
    if (p, l, q) in _INFINITY_CONDITIONED:
        # The condition is linear in a1, so solve for it at a1 = 1.
        probe = infinity_condition(p, l, q, [Fraction(1)] + a[1:], b, c)
        a[0] = probe.rhs / probe.lhs * _SCALE[branch]
        return tuple(a), tuple(b), tuple(c)
    if 4 in (p, q):
        for ws in (a, b):
            if len(ws) == 4:
                ws[0] = alternating_product(ws[1:]) * _SCALE[branch]
        return tuple(a), tuple(b), tuple(c)
    raise GraphError(f"infinity({p},{l},{q}) has no weight-condition branches")


def sample_cycle_weights(n, rng, branch=None, unit=False):
    """Cycle weights; branch "eq" forces equal alternating products (n % 4 == 0)."""
    ws = list(_weights(rng, n, unit))
    if branch is None:
        return tuple(ws)
    if n % 4 != 0:
        raise GraphError("only cycles of length divisible by 4 have a weight condition")
    # alternating_product(ws) is ws[0] / alternating_product(ws[1:]).
    ws[0] = alternating_product(ws[1:]) * _SCALE[branch]
    return tuple(ws)


def sample_theta_weights(p, l, q, rng, branch=None, unit=False):
    """Weight sequences (sorted-slot order) for a theta shape.

    Branch ids follow ``theta_branches``: "eq"/"neq" act on the main product
    condition of the twin-path case; "ceq"/"cneq" act on the alternating
    condition of the 4-cycle that the case reduces to; "gt"/"eq"/"lt" order
    the two products of the small explicit cases.  Each condition is the
    balance of an even cycle, so the forced weight is the alternating
    product of the rest of that cycle, read from the next weight on.
    """
    p, l, q = sorted((p, l, q))
    a = list(_weights(rng, p - 1, unit))
    b = list(_weights(rng, l - 1, unit))
    c = list(_weights(rng, q - 1, unit))
    if branch is None:
        return tuple(a), tuple(b), tuple(c)
    main, _, sub = branch.partition(":")
    if (p, l) == (3, 3) or (l, q) in ((3, 3), (5, 5)):
        # Twin paths F, S with equal alternating products: the cycle
        # (*F, *reversed(S)) is balanced.
        first, second = (a, b) if (p, l) == (3, 3) else (b, c)
        first[0] = alternating_product((*first[1:], *reversed(second))) * _SCALE[main]
        if sub and p == q == 3:
            # Reduced 4-cycle (A0, A1, C1, C0).
            c[0] = alternating_product((a[0], a[1], c[1])) * _SCALE[sub]
        elif sub and p == q == 5:
            # Reduced 8-cycle (B0..B3, A3..A0).
            a[1] = alternating_product((a[0], *b, a[3], a[2])) * _SCALE[sub]
    elif (p, l, q) == (2, 4, 4):
        # Reduced 4-cycle (B0, B1, B2', A0), B2' folding in the twin path.
        folded = b[2] + alternating_product((b[1], b[0], c[0], c[1], c[2]))
        a[0] = alternating_product((b[0], b[1], folded)) * _SCALE[main]
    elif (p, l, q) == (2, 4, 6):
        # The direct edge absorbs the folded 6-path: reduced 4-cycle
        # (A0', B2, B1, B0).
        b[2] = alternating_product((b[1], b[0], a[0] + alternating_product(c))) * _SCALE[main]
    elif (p, l, q) in ((2, 3, 4), (2, 4, 5)):
        # The direct edge A0 and the 3-edge path F form a 4-cycle.
        a[0] = alternating_product(b if l == 4 else c) * _SCALE[main]
    else:
        raise GraphError(f"theta{(p, l, q)} has no branch {branch!r}")
    return tuple(a), tuple(b), tuple(c)


# ---------------------------------------------------------------------------
# random graph generation


class GenSpec(NamedTuple):
    """Deterministic generation request; ``seed`` fully determines the output.

    ``regime`` is "random", "unit", or "force"; a force regime picks a
    degenerate weight-condition branch to satisfy exactly.
    """

    target: str
    n: int
    seed: int
    regime: str = "random"


def _attach(rng, g: WeightedGraph, names, unit) -> WeightedGraph:
    """Attach each of ``names`` in turn to a uniformly chosen earlier vertex
    of ``g`` or of ``names`` by an edge of random weight, or of weight 1 when
    ``unit``.  The names are new and the weights positive, so the graph is
    built unchecked.  Each vertex position is one int object, which both
    edge columns share, ``g``'s edges included."""
    vertices = (*g.vertices, *names)
    at = list(range(len(vertices)))
    us = [at[i] for i in g._u]
    vs = [at[j] for j in g._v]
    ws = list(g._w)
    for k in itertools.islice(at, g.n, None):
        us.append(at[rng.randrange(k)])
        vs.append(k)
        ws.append(_ONE if unit else random_weight(rng))
    return WeightedGraph._trusted(vertices, us, vs, ws)


_REGIMES = ("random", "unit", "force")

_SAMPLERS = {
    build_infinity: (infinity_branches, sample_infinity_weights),
    build_theta: (theta_branches, sample_theta_weights),
}


def generate(spec: GenSpec) -> WeightedGraph:
    """Generate a graph of the requested class; a pure function of ``spec``.

    The graph is built unchecked from its columns, so it builds no id index
    or neighbour maps until it is read; its weights share the objects
    ``random_weight`` returns, or one ``Fraction(1)`` in the unit regime,
    and its edge columns share one int object per vertex position."""
    if spec.regime not in _REGIMES:
        raise GraphError(f"unknown generation regime {spec.regime!r}")
    rng = random.Random(spec.seed)
    unit = spec.regime == "unit"
    force = spec.regime == "force"
    n = spec.n

    if spec.target in ("tree", "forest"):
        if n < 1:
            raise GraphError(f"a {spec.target} needs at least one vertex")
        tree = _attach(rng, WeightedGraph(["0"]), map(str, range(1, n)), unit)
        if spec.target == "tree":
            return tree
        kept = [pos for pos in range(tree.m) if rng.random() >= 0.25]
        us, vs, ws = tree._u, tree._v, tree._w
        return WeightedGraph._trusted(
            tree.vertices, [us[e] for e in kept], [vs[e] for e in kept], [ws[e] for e in kept]
        )

    if spec.target == "unicyclic":
        if n < 3:
            raise GraphError("a unicyclic graph needs at least 3 vertices")
        lengths = range(4, n + 1, 4) if force else ()
        cycle_len = rng.choice(lengths) if lengths else rng.randint(3, n)
        branch = "eq" if force and cycle_len % 4 == 0 else None
        ws = sample_cycle_weights(cycle_len, rng, branch=branch, unit=unit)
        base = build_cycle(ws)
    elif spec.target == "bicyclic":
        if n < 4:
            raise GraphError("a bicyclic graph needs at least 4 vertices")
        # Draw shapes until one fits; theta(2,3,3) fits every n >= 4.
        build, (p, l, q) = build_theta, (2, 3, 3)
        for _ in range(200):
            if rng.random() < 0.5:
                p0, q0, l0 = rng.randint(3, 6), rng.randint(3, 6), rng.randint(1, 5)
                if p0 + q0 + l0 - 2 <= n:
                    build, (p, l, q) = build_infinity, (min(p0, q0), l0, max(p0, q0))
                    break
            else:
                sizes = sorted(rng.randint(2, 6) for _ in range(3))
                if sizes.count(2) <= 1 and sum(sizes) - 4 <= n:
                    build, (p, l, q) = build_theta, sizes
                    break
        branches_of, sample = _SAMPLERS[build]
        branches = branches_of(p, l, q) if force else ()
        branch = rng.choice(branches) if branches else None
        base = build(p, l, q, *sample(p, l, q, rng, branch=branch, unit=unit))
    else:
        raise GraphError(f"unknown generation target {spec.target!r}")
    # The hung vertices are t0, t1, ...; no base graph uses those names.
    return _attach(rng, base, [f"t{i}" for i in range(n - base.n)], unit)
