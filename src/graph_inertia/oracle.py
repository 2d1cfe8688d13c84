"""Ground-truth inertia of any weighted graph by sparse congruence elimination.

The adjacency matrix is eliminated by symmetric block pivoting, as in
Bunch & Kaufman, "Some stable methods for calculating inertia and solving
symmetric linear systems" (Math. Comp. 31, 1977): a nonzero diagonal entry
is a 1x1 pivot, and a zero one is paired with a neighbour into the 2x2 pivot
``[[0, b], [b, c]]``, whose determinant ``-b**2`` is negative, so it holds
one positive and one negative eigenvalue.  The Schur complement of a pivot
is congruent to what is left of the matrix, so by Sylvester's law of inertia
the pivot signs add up to the inertia whatever the pivot order.

Two phases.  The first is the degree-1 phase of Karp & Sipser, "Maximum
matchings in sparse random graphs" (FOCS 1981): it takes each leaf with its
neighbour and each isolated vertex until every vertex left has at least two
neighbours left.  Every diagonal entry starts at zero and these pivots
create none, so a leaf with its neighbour is the paper's pendant-pair rule,
the 2x2 pivot whose Schur update is zero, and an isolated vertex is a zero
1x1 block: both are exact, and the phase needs no arithmetic.  It runs on
vertex positions, with neighbour lists it builds from the edge columns.

The second phase eliminates the vertices left on a dict-of-dicts copy of
their weighted adjacency, keyed by vertex id and built from the columns for
them alone, and always takes a live vertex of least degree, which keeps
fill-in bounded on graphs of small treewidth (Fürer, Hoppen & Trevisan,
ICALP 2020); trees, unicyclic and bicyclic graphs cost about linear time.
A zero-diagonal leaf that its pivots leave behind is unlinked with no
arithmetic too.  Moving a vertex between degree buckets allocates nothing
once its bucket exists.  All arithmetic is exact, on reduced
``(numerator, denominator)`` pairs of ints with a positive denominator:
each update is normalised by one ``math.gcd``, and no ``Fraction`` is
built, whose pure-Python operators would cost most of the elimination's
time.  ``tests/reference.py::eliminate_by_fractions`` is the same
elimination on ``Fraction`` entries, and the dense ECMO routine
``matrix.congruent_diagonalize`` stays as the reference the tests compare
against.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from math import gcd

from .core import Inertia
from .graph import WeightedGraph

__all__ = ["inertia_oracle"]


def inertia_oracle(g: WeightedGraph) -> Inertia:
    """Exact inertia of the weighted adjacency matrix, for any graph class.

    The leaf phase counts (1, 1) for each leaf it takes with its neighbour
    and a zero for each isolated vertex, and stops when every vertex left
    has at least two neighbours left; the least-degree elimination takes
    the rest.  Both phases build what they walk from the edge columns, so
    the oracle reads neither the adjacency ``solve`` walks nor ``edges``,
    builds neither, and stays independent of them.  A graph with no vertex
    of degree 1 or 0 goes whole to the elimination and builds no neighbour
    lists.
    """
    us, vs_ = g._u, g._v
    live = [0] * len(g.vertices)
    for i in us:
        live[i] += 1
    for j in vs_:
        live[j] += 1
    if min(live, default=2) > 1:
        return _eliminate(g)
    nbrs: list[list[int]] = [[] for _ in live]
    for i, j in zip(us, vs_):
        nbrs[i].append(j)
        nbrs[j].append(i)
    stack = [v for v, d in enumerate(live) if d <= 1]
    pairs = zeros = 0
    pop, push = stack.pop, stack.append
    # A vertex is pushed once, when its live degree first reaches 1 or
    # less; taken with a leaf, or taken itself, it is marked -1.
    while stack:
        v = pop()
        d = live[v]
        if d < 0:
            continue
        live[v] = -1
        if d == 0:
            zeros += 1
            continue
        for u in nbrs[v]:
            if live[u] >= 0:
                break
        live[u] = -1
        pairs += 1
        for x in nbrs[u]:
            d = live[x]
            if d > 0:
                live[x] = d - 1
                if d == 2:
                    push(x)
    taken = Inertia(pairs, pairs, zeros)
    return taken if 2 * pairs + zeros == len(live) else taken + _eliminate(g, live)


def _eliminate(g: WeightedGraph, live: list[int] | None = None) -> Inertia:
    """Inertia of the subgraph of ``g`` on the positions whose ``live``
    entry is not negative (all of ``g`` when ``live`` is None), by
    least-degree block elimination.  One pass over the edge columns fills
    the rows of those positions; any other position, one the leaf phase
    took, has a ``None`` row, and an edge at it is skipped.

    Pivots are live vertices of least current degree from a bucket queue;
    ties go to bucket-insertion order, which starts as vertex order, so the
    elimination is deterministic.  Every matrix entry is a reduced
    ``(numerator, denominator)`` pair of ints with a positive denominator,
    taken from the weights' own numerators and denominators; each update
    is normalised by one ``math.gcd``, and the zero and sign tests read the
    numerator.  So the arithmetic is exact and builds no ``Fraction``.
    """
    # Rows are reached by vertex position, as the edge columns give them: an
    # edge reads its two ids off ``vs`` and looks up no row by id.
    vs = g.vertices
    rows = [{} for _ in vs] if live is None else [{} if d >= 0 else None for d in live]
    for i, j, w in zip(g._u, g._v, g._w):
        ri, rj = rows[i], rows[j]
        if ri is not None and rj is not None:
            ri[vs[j]] = rj[vs[i]] = (w.numerator, w.denominator)
    adj = {v: row for v, row in zip(vs, rows) if row is not None}
    diag: dict[str, tuple[int, int]] = {}  # the nonzero diagonal entries
    degree = dict(zip(adj, map(len, adj.values())))
    # OrderedDict pops its oldest key in O(1); a plain dict would rescan the
    # slots of every key already popped.  A degree's bucket is made the first
    # time a vertex moves into it.
    buckets: defaultdict[int, OrderedDict[str, None]] = defaultdict(OrderedDict)
    for v, d in degree.items():
        buckets[d][v] = None
    pos = neg = zero = low = 0
    while adj:
        while not buckets.get(low):
            low += 1
        v = buckets[low].popitem(last=False)[0]
        row = _detach(adj, v)
        d = diag.pop(v, None)
        if d is not None:
            # 1x1 pivot: subtract row row^T / d as p s^T + s p^T, for
            # s = row / (2 d).
            dn, dd = d
            if dn > 0:
                pos += 1
            else:
                neg += 1
            touched = row
            _subtract_rank2(adj, diag, row, _scaled(row, dd, 2 * dn))
        elif not row:
            zero += 1
            continue
        else:
            # 2x2 pivot on (v, u), inverse [[-c/b^2, 1/b], [1/b, 0]]: with
            # p = column v and q = column u, subtract p s^T + s p^T for
            # s = q/b - c p/(2 b^2).
            u = min(row, key=lambda x: len(adj[x]))
            del buckets[degree[u]][u]
            bn, bd = row.pop(u)
            rowu = _detach(adj, u)
            c = diag.pop(u, None)
            pos += 1
            neg += 1
            if row:
                touched = {**row, **rowu}
                s = _scaled(rowu, bd, bn)
                if c is not None:
                    # Subtract c p / (2 b^2); an entry that cancels leaves
                    # s, as a zero entry would subtract nothing.
                    for y, (tn, td) in _scaled(row, c[0] * bd * bd, 2 * c[1] * bn * bn).items():
                        old = s.get(y)
                        if old is None:
                            s[y] = (-tn, td)
                            continue
                        n = old[0] * td - tn * old[1]
                        if n:
                            m = old[1] * td
                            k = gcd(n, m)
                            s[y] = (n // k, m // k)
                        else:
                            del s[y]
                _subtract_rank2(adj, diag, row, s)
            else:
                # Pendant pivot: p = 0, so the update is zero and u's
                # diagonal, which only ever multiplies p, goes unused.
                touched = rowu
        for x in touched:
            new = len(adj[x])
            if new != degree[x]:
                del buckets[degree[x]][x]
                buckets[new][x] = None
                degree[x] = new
                if new < low:
                    low = new
    return Inertia(pos, neg, zero)


def _scaled(row: dict[str, tuple[int, int]], fn: int, fd: int) -> dict[str, tuple[int, int]]:
    """``row`` times ``fn / fd``, for nonzero ints of either sign, as
    reduced pairs with a positive denominator in ``row``'s order."""
    if fd < 0:
        fn, fd = -fn, -fd
    out = {}
    for y, (wn, wd) in row.items():
        n, m = wn * fn, wd * fd
        k = gcd(n, m)
        out[y] = (n // k, m // k)
    return out


def _detach(adj: dict[str, dict[str, tuple[int, int]]], v: str) -> dict[str, tuple[int, int]]:
    """Remove ``v`` from the live matrix and return its off-diagonal row."""
    row = adj.pop(v)
    for x in row:
        del adj[x][v]
    return row


def _subtract_rank2(
    adj: dict[str, dict[str, tuple[int, int]]],
    diag: dict[str, tuple[int, int]],
    p: dict[str, tuple[int, int]],
    s: dict[str, tuple[int, int]],
) -> None:
    """Subtract ``p s^T + s p^T`` from the live symmetric matrix, dropping
    every entry that cancels to exactly zero so degrees stay exact.  No
    entry of ``p`` or ``s`` is zero, so neither is any product."""
    for x, (pn, pd) in p.items():
        rowx = adj[x]
        for y, (sn, sd) in s.items():
            tn, td = pn * sn, pd * sd
            if x == y:
                tn *= 2
                old = diag.get(x)
            else:
                old = rowx.get(y)
            if old is None:
                k = gcd(tn, td)
                new = (-tn // k, td // k)
            else:
                n = old[0] * td - tn * old[1]
                if not n:
                    if x == y:
                        del diag[x]
                    else:
                        del rowx[y], adj[y][x]
                    continue
                m = old[1] * td
                k = gcd(n, m)
                new = (n // k, m // k)
            if x == y:
                diag[x] = new
            else:
                rowx[y] = adj[y][x] = new
