"""Closed-form inertia of forests, cycles, and the small double-cycle bases.

Large cycle parameters reduce modulo 4: contracting a run of five edges whose
four interior vertices have degree 2 into one edge of weight
``w1*w3*w5/(w2*w4)`` costs exactly (2, 2) on the (positive, negative) pair, so
every base folds onto a bounded representative whose value is a table lookup
or a short case split.  That weight, the weight of several folds in a row and
the balance test of a cycle of length divisible by 4 are all one
``alternating_product``, which the rewrite engine and the generator's
branch-forcing samplers use too.  Every fold is ``fold_path_weights``.
Each public closed form checks its shape and weights, then runs one private
unchecked core (``_cycle_pn``, ``_infinity_pn``, ``_theta_pn``, ...) that
returns the (i+, i-) pair.  The ``_pn`` cores take the paths' weights alone
and read the shape off their lengths; ``solve`` calls them on the weights of
a graph, which its constructor or parser has already checked.  Every
branch here is cross-checked against the congruence oracle by the test
suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import GraphError, Inertia, echo
from .graph import WeightedGraph
from .structure import BaseDescriptor, BaseKind, max_matching_forest

__all__ = [
    "CaseCondition",
    "InfinityRow",
    "INFINITY_TABLE",
    "alternating_product",
    "forest_inertia",
    "cycle_inertia",
    "infinity_condition",
    "infinity_inertia",
    "infinity_base_inertia",
    "theta_inertia",
    "theta_base_inertia",
    "fold_path_weights",
    "reduce_infinity_shape",
    "reduce_theta_shape",
]


class CaseCondition(NamedTuple):
    """A decided weight condition: two positive products and their order."""

    lhs: Fraction
    rhs: Fraction

    @property
    def relation(self) -> str:
        if self.lhs > self.rhs:
            return "gt"
        if self.lhs == self.rhs:
            return "eq"
        return "lt"


def alternating_product(ws: Sequence[Fraction]) -> Fraction:
    """Product of the even-position weights over the odd-position ones.

    On five weights it is the contracted edge weight ``w1*w3*w5/(w2*w4)``; a
    cycle of length divisible by 4 has a zero eigenvalue iff it equals 1.
    """
    # Numerators and denominators multiply as ints, crossed over on the odd
    # positions, with one gcd at the end instead of one per weight.
    num = den = 1
    for i, w in enumerate(ws):
        if i % 2:
            num *= w.denominator
            den *= w.numerator
        else:
            num *= w.numerator
            den *= w.denominator
    return Fraction(num, den)


def forest_inertia(g: WeightedGraph) -> Inertia:
    """(q, q, n - 2q) for acyclic graphs, q the matching number; weights never matter.

    ``max_matching_forest`` rejects cyclic input with a ``GraphError``.
    """
    q = max_matching_forest(g)
    return Inertia(q, q, g.n - 2 * q)


def _check_weights(*seqs: Sequence[Fraction]) -> None:
    """Refuse any weight that is not an ``int`` (``bool`` excluded) or a
    ``Fraction`` above zero, as a graph's weights are.  One pass, converting
    nothing: a ``Fraction`` keeps its sign in its numerator, and an ``int``
    is its own numerator."""
    for ws in seqs:
        for w in ws:
            # The exact type first: ``Fraction``'s metaclass is ``ABCMeta``,
            # which makes ``isinstance`` against it several times slower.
            exact = type(w) is Fraction or (
                isinstance(w, (int, Fraction)) and not isinstance(w, bool)
            )
            if not exact or w.numerator <= 0:
                raise GraphError(f"weight {echo(w)} must be an int or a Fraction above zero")


def _check_cycle(weights: Sequence[Fraction]) -> None:
    if len(weights) < 3:
        raise GraphError("a cycle needs at least 3 edges")
    _check_weights(weights)


def cycle_inertia(weights: Sequence[Fraction]) -> Inertia:
    """Inertia of a weighted cycle from its length and, when the length is
    divisible by 4, the comparison of its two alternating edge-weight products."""
    _check_cycle(weights)
    return _inertia(len(weights), _cycle_pn(weights))


def _inertia(n: int, pn: tuple[int, int]) -> Inertia:
    """The inertia of n vertices with the (i+, i-) pair ``pn``; the rest are
    zeros."""
    pos, neg = pn
    return Inertia(pos, neg, n - pos - neg)


def _plus(k: int, pn: tuple[int, int]) -> tuple[int, int]:
    """``pn`` with ``k`` added to both counts: every rule that takes a part
    off the graph adds the same k to i+ and to i-."""
    return (k + pn[0], k + pn[1])


def _path_pn(m: int) -> tuple[int, int]:
    # a path on m vertices has matching number floor(m/2)
    return (m // 2, m // 2)


def _cycle_pn(ws: Sequence[Fraction]) -> tuple[int, int]:
    """``cycle_inertia(ws).pn``, unchecked."""
    n = len(ws)
    r = n % 4
    if r == 0:
        if alternating_product(ws) == 1:
            return (n // 2 - 1, n // 2 - 1)
        return (n // 2, n // 2)
    if r == 1:
        return ((n + 1) // 2, (n - 1) // 2)
    if r == 2:
        return (n // 2, n // 2)
    return ((n - 1) // 2, (n + 1) // 2)


def _tadpole_pn(cycle_ws: Sequence[Fraction], t: int) -> tuple[int, int]:
    """Cycle with a pendant path of ``t`` edges at one vertex.

    An odd tail matches the junction into its own path, splitting off the
    cycle-minus-junction path; an even tail leaves the cycle intact.
    """
    if t % 2 == 1:
        return _plus((t + 1) // 2, _path_pn(len(cycle_ws) - 1))
    return _plus(t // 2, _cycle_pn(cycle_ws))


# ---------------------------------------------------------------------------
# five-edge run contraction (weight folding for the mod-4 reductions)


def fold_path_weights(ws: Sequence[Fraction], times: int) -> tuple[Fraction, ...]:
    """Contract ``times`` five-edge runs of an internally degree-2 path.

    The runs are contracted in one pass: folding w1..w5 into
    w1*w3*w5/(w2*w4) and then the next four edges into it leaves the
    alternating product of the first 4*times + 1 weights followed by the
    untouched tail.
    """
    if times <= 0:
        return tuple(ws)
    head = 4 * times + 1
    if len(ws) < head:
        raise GraphError("path too short to contract")
    return (alternating_product(ws[:head]), *ws[head:])


# ---------------------------------------------------------------------------
# infinity bases


class InfinityRow(NamedTuple):
    """One representative row of the infinity case table."""

    shape: tuple[int, int, int]
    outcomes: tuple[tuple[str, tuple[int, int]], ...]
    condition_text: str | None = None

    def outcome(self, key: str) -> tuple[int, int]:
        return dict(self.outcomes)[key]


INFINITY_TABLE: dict[tuple[int, int, int], InfinityRow] = {
    row.shape: row
    for row in (
        InfinityRow((3, 1, 3), (("any", (2, 3)),)),
        InfinityRow(
            (3, 2, 3),
            (("gt", (2, 4)), ("eq", (2, 3)), ("lt", (3, 3))),
            "4*a1*b1*a3*b3/(a2*b2) - c1^2",
        ),
        InfinityRow((3, 3, 3), (("any", (3, 4)),)),
        InfinityRow(
            (3, 4, 3),
            (("gt", (3, 5)), ("eq", (3, 4)), ("lt", (4, 4))),
            "4*a1*b1*a3*b3/(a2*b2)*c2^2 - c1^2*c3^2",
        ),
        InfinityRow((3, 5, 3), (("any", (4, 5)),)),
        InfinityRow(
            (3, 1, 5),
            (("gt", (3, 4)), ("eq", (3, 3)), ("lt", (4, 3))),
            "a1*a3/a2 - b1*b3*b5/(b2*b4)",
        ),
        InfinityRow((3, 2, 5), (("any", (4, 4)),)),
        InfinityRow(
            (3, 3, 5),
            (("gt", (4, 5)), ("eq", (4, 4)), ("lt", (5, 4))),
            "a1*a3/a2*c2^2 - b1*b3*b5/(b2*b4)*c1^2",
        ),
        InfinityRow((3, 4, 5), (("any", (5, 5)),)),
        InfinityRow(
            (3, 5, 5),
            (("gt", (5, 6)), ("eq", (5, 5)), ("lt", (6, 5))),
            "a1*a3/a2*c2^2*c4^2 - b1*b3*b5/(b2*b4)*c1^2*c3^2",
        ),
        InfinityRow((5, 1, 5), (("any", (5, 4)),)),
        InfinityRow(
            (5, 2, 5),
            (("gt", (6, 4)), ("eq", (5, 4)), ("lt", (5, 5))),
            "4*a1*b1*a3*b3*a5*b5/(a2*b2*a4*b4) - c1^2",
        ),
        InfinityRow((5, 3, 5), (("any", (6, 5)),)),
        InfinityRow(
            (5, 4, 5),
            (("gt", (7, 5)), ("eq", (6, 5)), ("lt", (6, 6))),
            "4*a1*b1*a3*b3*a5*b5/(a2*b2*a4*b4)*c2^2 - c1^2*c3^2",
        ),
        InfinityRow((5, 5, 5), (("any", (7, 6)),)),
    )
}


def infinity_condition(
    p: int, l: int, q: int, a: Sequence[Fraction], b: Sequence[Fraction], c: Sequence[Fraction]
) -> CaseCondition | None:
    """Decided weight condition of a conditioned table row, else None.

    The p-side product pairs with the even-numbered connector weights squared
    and the q-side with the odd-numbered ones (orientation: c1 sits at the
    p-junction); rows with p == q carry a factor 4 on the left.  The shape
    and weights are checked as ``infinity_inertia`` checks them.
    """
    _check_infinity(p, l, q, a, b, c)
    return _infinity_condition(p, l, q, a, b, c)


def _infinity_condition(p, l, q, a, b, c) -> CaseCondition | None:
    """``infinity_condition``, unchecked."""
    row = INFINITY_TABLE.get((p, l, q))
    if row is None or row.condition_text is None:
        return None
    lhs = alternating_product(a)
    rhs = alternating_product(b)
    if p == q:
        lhs = 4 * lhs * rhs
        rhs = Fraction(1)
    for i, w in enumerate(c):
        if i % 2 == 1:
            lhs *= w * w
        else:
            rhs *= w * w
    return CaseCondition(lhs, rhs)


def _check_shape(name: str, p, l, q) -> None:
    """Refuse shape parameters that are not ``int``s; a ``bool`` is not one."""
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (p, l, q)):
        raise GraphError(
            f"{name}({echo(p)},{echo(l)},{echo(q)}) is not a valid shape: sizes must be ints"
        )


def _check_infinity(p, l, q, a, b, c) -> None:
    _check_shape("infinity", p, l, q)
    if p < 3 or q < 3 or l < 1:
        raise GraphError(f"infinity({p},{l},{q}) is not a valid shape")
    if (len(a), len(b), len(c)) != (p, q, l - 1):
        raise GraphError("weight sequence lengths must be (p, q, l-1)")
    _check_weights(a, b, c)


def reduce_infinity_shape(p, l, q, a, b, c):
    """Fold an infinity shape onto its representative (p, q in [3,6], l in [1,5]).

    Returns ``((p0, l0, q0, a0, b0, c0), folds)``; the inertia offset is
    ``(2 * folds, 2 * folds)``.  A connector length l == 1 (shared junction)
    never folds; l > 1 keeps at least a direct junction-junction edge.
    """
    _check_infinity(p, l, q, a, b, c)
    return _reduce_infinity_shape(p, l, q, a, b, c)


def _reduce_infinity_shape(p, l, q, a, b, c):
    """``reduce_infinity_shape``, unchecked."""
    p0 = 3 + (p - 3) % 4
    q0 = 3 + (q - 3) % 4
    l0 = 1 if l == 1 else 2 + (l - 2) % 4
    k = (p - p0) // 4
    s = (q - q0) // 4
    t = (l - l0) // 4
    return (
        (p0, l0, q0, fold_path_weights(a, k), fold_path_weights(b, s), fold_path_weights(c, t)),
        k + s + t,
    )


def _infinity_rep_pn(p, l, q, a, b, c):
    # Read a 6-cycle, else a lone 4-cycle, as b; otherwise p <= q, as the
    # table is keyed.
    if (p in (4, 6), p) > (q in (4, 6), q):
        p, q, a, b = q, p, b, a
        c = tuple(reversed(c))
    if q == 4 and alternating_product(b) == 1:
        return _plus(1, _tadpole_pn(a, l - 1))
    if q in (4, 6):
        # A 6-cycle, or an unbalanced 4-cycle, detaches with its junction at
        # offset (q/2, q/2), leaving the other cycle minus the shared junction
        # (a path) or with the rest of the connector hanging off it.
        return _plus(q // 2, _path_pn(p - 1) if l == 1 else _tadpole_pn(a, l - 2))
    row = INFINITY_TABLE[(p, l, q)]
    cond = _infinity_condition(p, l, q, a, b, c)
    return row.outcome("any" if cond is None else cond.relation)


def infinity_inertia(p, l, q, a, b, c) -> Inertia:
    """Closed-form inertia of a bare infinity base on p + q + l - 2 vertices."""
    _check_infinity(p, l, q, a, b, c)
    return _inertia(p + q + l - 2, _infinity_pn(a, b, c))


def _infinity_pn(a, b, c) -> tuple[int, int]:
    """``infinity_inertia``'s (i+, i-), unchecked, with p, q and l - 1 the
    lengths of ``a``, ``b`` and ``c``: ``a`` and ``b`` may be read either
    way, and ``p > q`` is allowed, as long as ``c`` runs from ``a``."""
    rep, folds = _reduce_infinity_shape(len(a), len(c) + 1, len(b), a, b, c)
    return _plus(2 * folds, _infinity_rep_pn(*rep))  # each fold adds (2, 2)


def infinity_base_inertia(d: BaseDescriptor) -> Inertia:
    if d.kind is not BaseKind.INFINITY:
        raise GraphError(f"descriptor is {d.kind.value}, not infinity")
    return infinity_inertia(d.p, d.l, d.q, d.a, d.b, d.c)


# ---------------------------------------------------------------------------
# theta bases


def _check_theta(p, l, q, a, b, c) -> None:
    _check_shape("theta", p, l, q)
    if min(p, l, q) < 2 or (p, l, q).count(2) > 1:
        raise GraphError(f"theta({p},{l},{q}) is not a valid shape")
    if (len(a), len(b), len(c)) != (p - 1, l - 1, q - 1):
        raise GraphError("weight sequence lengths must be (p-1, l-1, q-1)")
    _check_weights(a, b, c)


def reduce_theta_shape(p, l, q, a, b, c):
    """Fold a theta shape onto its representative (slots in [2,5], or 6 when a
    second slot would otherwise hit 2 and break simplicity).

    Slots are returned sorted; the inertia offset is ``(2*folds, 2*folds)``.
    """
    _check_theta(p, l, q, a, b, c)
    return _reduce_theta_shape(p, l, q, a, b, c)


def _reduce_theta_shape(p, l, q, a, b, c):
    """``reduce_theta_shape``, unchecked."""
    slots = sorted([(p, tuple(a)), (l, tuple(b)), (q, tuple(c))])
    out: list[tuple[int, tuple[Fraction, ...]]] = []
    folds = 0
    for size, seq in slots:
        target = 2 + (size - 2) % 4
        if target == 2 and size != 2 and any(s == 2 for s, _ in out):
            target = 6
        k = (size - target) // 4
        out.append((target, fold_path_weights(seq, k)))
        folds += k
    out.sort()
    return out, folds


def _theta_rep_pn(slots):
    (p, a), (l, b), (q, c) = slots
    sizes = (p, l, q)
    if p == 2 and q == 6:
        # The five-edge path folds onto the parallel direct hub edge by
        # weight addition, leaving a cycle through the remaining path.
        folded = a[0] + alternating_product(c)
        return _plus(2, _cycle_pn((folded, *reversed(b))))
    twins = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if sizes[i] == sizes[j]]
    if twins:
        # Any pair of twin paths A, B gives the inertia; with three twins, a
        # pair whose alternating products agree is taken if there is one.
        # Twin 3-edge paths fold into one edge of a cycle through A and the
        # third path C.  Other twins leave that cycle, (k, k) up, when their
        # products agree, and a path, (2, 2) up, when they do not.
        ap = [alternating_product(ws) for _, ws in slots]
        i, j = next((t for t in twins if ap[t[0]] == ap[t[1]]), twins[0])
        A, B, (ts, C) = slots[i][1], slots[j][1], slots[3 - i - j]
        size = sizes[i]
        if size == 4:
            folded = A[2] + alternating_product((A[1], A[0], B[0], B[1], B[2]))
            return _plus(1, _cycle_pn((A[0], A[1], folded, *reversed(C))))
        if ap[i] == ap[j]:
            return _plus((size - 3) // 2, _cycle_pn((*A, *reversed(C))))
        return _plus(2, _path_pn(ts + 2 * size - 8))
    if sizes == (2, 3, 4):
        cond = CaseCondition(a[0], alternating_product(c))
        return {"gt": (2, 3), "eq": (2, 2), "lt": (3, 2)}[cond.relation]
    if sizes == (2, 4, 5):
        cond = CaseCondition(a[0], alternating_product(b))
        # Strict branches verified against the oracle (the printed case table
        # transposes them): a bigger direct-edge product pushes positive here.
        return {"gt": (4, 3), "eq": (3, 3), "lt": (3, 4)}[cond.relation]
    if sizes == (2, 3, 5):
        return (3, 3)
    return (4, 4)  # (3, 4, 5), the last shape a fold can leave


def theta_inertia(p, l, q, a, b, c) -> Inertia:
    """Closed-form inertia of a bare theta base on p + l + q - 4 vertices."""
    _check_theta(p, l, q, a, b, c)
    return _inertia(p + l + q - 4, _theta_pn(a, b, c))


def _theta_pn(a, b, c) -> tuple[int, int]:
    """``theta_inertia``'s (i+, i-), unchecked, with p, l and q one more
    than the paths' lengths: the paths run from one hub, in any order."""
    slots, folds = _reduce_theta_shape(len(a) + 1, len(b) + 1, len(c) + 1, a, b, c)
    return _plus(2 * folds, _theta_rep_pn(slots))


def theta_base_inertia(d: BaseDescriptor) -> Inertia:
    if d.kind is not BaseKind.THETA:
        raise GraphError(f"descriptor is {d.kind.value}, not theta")
    return theta_inertia(d.p, d.l, d.q, d.a, d.b, d.c)
