"""One leaf peel for forest matching, matched-root tests and the 2-core,
which a cut at a core vertex continues instead of peeling again; one walk
down from a core vertex for its hanging tree; one thread walk over a core,
which ``solve`` reads in place on the peeled graph and ``describe_base``
turns into a canonical descriptor."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple

from .core import GraphError
from .graph import WeightedGraph, _component_vertices

__all__ = [
    "BaseKind",
    "BaseDescriptor",
    "HangingTree",
    "max_matching_forest",
    "two_core",
    "describe_base",
    "hanging_trees",
]


def _peel(g: WeightedGraph) -> tuple[list[int], list[int], list[int], bytearray]:
    """Peel vertices of degree <= 1, leaves first, until none is left,
    matching greedily on the way (Jacobs and Trevisan's leaves-first walk).
    One O(n + m) pass over vertex positions.

    Returns, by position, each vertex's live degree (-1 once it is peeled
    or cut) and each peeled vertex's parent (its last live neighbour, or
    -1); the peeled vertices left without a parent, in peel order; and
    matched flags: a peeled vertex is matched to its parent when both are
    still free.  Matching a leaf to its neighbour is the pendant-pair rule,
    so the matching is maximum on every tree that peels away.  Every tree
    hanging off a live vertex is matched bottom-up, which leaves its root
    unmatched iff some maximum matching of the tree misses the root, i.e.
    iff the root is mismatched.  The live vertices are the 2-core.
    """
    adj = g._adj
    live = list(map(len, adj))
    parent = [-1] * len(adj)
    tops: list[int] = []
    matched = bytearray(len(adj))
    _continue_peel(adj, live, parent, tops, matched, [v for v, d in enumerate(live) if d <= 1])
    return live, parent, tops, matched


def _continue_peel(adj, live, parent, tops, matched, stack: list[int]) -> list[int]:
    """Run the peel of ``_peel`` from the vertices on ``stack``, updating its
    four results in place; return the vertices it matched to a vertex
    peeled into them, in order.  A live neighbour of a vertex being peeled
    still counts that vertex, so its live degree is above zero."""
    found: list[int] = []
    pop, push, top, report = stack.pop, stack.append, tops.append, found.append
    while stack:
        v = pop()
        live[v] = -1
        for nb in adj[v]:
            d = live[nb]
            if d > 0:
                live[nb] = d - 1
                if d == 2:
                    push(nb)
                if not (matched[v] or matched[nb]):
                    matched[v] = matched[nb] = 1
                    report(nb)
                parent[v] = nb
                break
        else:
            top(v)
    return found


def _cut(adj, live, parent, tops, matched, root: int) -> list[int]:
    """Delete the live vertex ``root`` with the tree hanging off it, which no
    later walk enters, continue the peel on what is left, and return the
    live vertices it newly matched, in order.  Whether a root is matched
    does not depend on the peel order, and a matched root stays matched
    whatever is later peeled into it, so this finds what a fresh peel
    without the tree would, and every parent stays valid.  The root is not
    peeled, so it keeps no parent and is not a top."""
    live[root] = -1
    stack = []
    for nb in adj[root]:
        d = live[nb]
        if d > 0:
            live[nb] = d - 1
            if d == 2:
                stack.append(nb)
    found = _continue_peel(adj, live, parent, tops, matched, stack)
    return [v for v in found if live[v] >= 0]


def _hanging_tree(adj, parent, root: int) -> list[int]:
    """The positions of the tree hanging off the live vertex ``root``, root
    first, walked down through the neighbours peeled into each vertex.  The
    cost is the tree's total degree."""
    tree = [root]
    for v in tree:
        tree.extend(nb for nb in adj[v] if parent[nb] == v)
    return tree


def _live(live: list[int]) -> list[int]:
    """The positions still live after a peel, in vertex order."""
    return [v for v, d in enumerate(live) if d >= 0]


def max_matching_forest(g: WeightedGraph) -> int:
    """Matching number of an acyclic graph by leaves-first greedy matching,
    which is optimal on forests and runs in linear time.

    Cyclic input is rejected.
    """
    live, _, _, matched = _peel(g)
    if _live(live):
        raise GraphError("input contains a cycle; matching requires a forest")
    return matched.count(1) // 2


def two_core(g: WeightedGraph) -> WeightedGraph:
    """Maximal subgraph of minimum degree 2, found by peeling low-degree vertices.

    For a connected unicyclic graph this is its unique cycle; for a connected
    bicyclic graph it is the embedded double-cycle base.  Forests peel away
    completely, which is an error.
    """
    core = _live(_peel(g)[0])
    if not core:
        raise GraphError("graph is a forest; its 2-core is empty")
    return g._induced_at(core)


class BaseKind(Enum):
    CYCLE = "cycle"
    INFINITY = "infinity"
    THETA = "theta"


class BaseDescriptor(NamedTuple):
    """Canonical description of a cycle, a double-cycle (infinity) base, or a
    theta base, with weight sequences read in a fixed orientation.

    CYCLE: ``p`` is the length; edge i joins ``a_vertices[i]`` to
    ``a_vertices[(i+1) % p]`` with weight ``a[i]``; ``l = q = 0``.

    INFINITY: two cycles of lengths ``p <= q`` joined by a path with ``l - 1``
    edges (``l == 1`` means they share one vertex).  ``a_vertices`` walks the
    p-cycle starting at its junction, ``b_vertices`` the q-cycle likewise,
    and ``c_vertices`` lists the path's interior vertices from the p-side;
    ``c[i]`` are the path's edge weights from the p-junction onward.

    THETA: two hub vertices joined by three internally disjoint paths with
    ``p - 1 <= l - 1 <= q - 1`` edges.  Each of ``a_vertices``/``b_vertices``/
    ``c_vertices`` runs hub-to-hub (both hubs included), and ``a``/``b``/``c``
    are the corresponding edge weights.
    """

    kind: BaseKind
    p: int
    l: int
    q: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    a_vertices: tuple[str, ...]
    b_vertices: tuple[str, ...]
    c_vertices: tuple[str, ...]

    def __str__(self) -> str:
        if self.kind is BaseKind.CYCLE:
            return f"cycle({self.p})"
        return f"{self.kind.value}({self.p},{self.l},{self.q})"


class HangingTree(NamedTuple):
    """Maximal tree of a unicyclic/bicyclic graph hanging off one core vertex."""

    root: str
    tree: WeightedGraph
    matched_at_root: bool


def _walk_threads(g: WeightedGraph, live, hubs) -> list[tuple]:
    """The maximal chains of degree-2 vertices between the positions
    ``hubs`` of ``g``'s subgraph on the positions whose ``live`` entry is
    not negative, each as ``(start, end, inner vertices, edge weights)``
    with vertex positions, walked from the first hub in ``hubs`` order and
    then in neighbour order.  Only a chain's last edge can be met again
    from a hub, so it alone is marked, by edge position.  The cost is the
    total degree in ``g`` of the vertices walked."""
    adj, ws = g._adj, g._w
    used: set[int] = set()
    threads = []
    for h in hubs:
        for nb, i in adj[h].items():
            if i in used or live[nb] < 0:
                continue
            inner: list[int] = []
            weights = [ws[i]]
            prev, cur = h, nb
            while cur not in hubs:
                inner.append(cur)
                # cur has two live neighbours: go on to the one it was not entered from.
                for nxt, i in adj[cur].items():
                    if nxt != prev and live[nxt] >= 0:
                        break
                prev, cur = cur, nxt
                weights.append(ws[i])
            used.add(i)
            threads.append((h, cur, inner, weights))
    return threads


def _least_rotation(ws: list) -> tuple[int, int]:
    """Start of a lexicographically least rotation of ``ws``, and the least
    d > 0 such that rotating ``ws`` by d leaves it unchanged, in O(p).

    Two candidate starts i and j are compared; when their readings first
    differ k places on, the start with the larger reading and the k starts
    after it cannot be least, so it jumps k + 1 places.  Only starts with a
    strictly larger reading are skipped, so if i and j come to read the same
    all the way round, no start between them ties and ``|i - j|`` is the
    period; otherwise the least rotation is unique and the period is p.
    """
    p = len(ws)
    i, j, k = 0, 1, 0
    while i < p and j < p and k < p:
        x, y = ws[(i + k) % p], ws[(j + k) % p]
        if x == y:
            k += 1
            continue
        if x > y:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j), (abs(i - j) if k == p else p)


# Orders reduced (numerator, denominator) pairs by value.  Denominators are
# positive, so x0/y0 < x1/y1 iff x0*y1 < x1*y0: two products per comparison,
# where a Fraction key normalises a new Fraction per pair, and a key on a
# common denominator multiplies each numerator by a number that grows with
# the count of distinct denominators.
_BY_VALUE = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])


def _least_cycle_reading(order: list[str], forward: tuple) -> tuple[tuple, tuple[str, ...]]:
    """The least ``(weights, vertices)`` reading of a cycle over every start
    and both directions, in O(p) after ranking the distinct weights.

    ``order`` walks the cycle and ``forward[i]`` weighs the edge from
    ``order[i]`` on.  Readings compare by their weight sequences, then by
    their vertex sequences.  Each weight is replaced by its rank among the
    distinct weights, which keeps the order, so the scans compare ints.  Two
    readings of one cycle with distinct starts differ at their first vertex,
    and two with the same start differ at their second, so those two
    vertices settle every weight tie.
    """
    p = len(order)
    # (numerator, denominator) pairs hash in C, Fractions do not.
    ratios = [w.as_integer_ratio() for w in forward]
    rank = {r: i for i, r in enumerate(sorted(set(ratios), key=_BY_VALUE))}
    ranks = [rank[r] for r in ratios]
    # Walking back from order[0], edge j is forward edge p - 1 - j.
    directions = (
        (order, forward, ranks),
        ([order[0]] + order[:0:-1], forward[::-1], ranks[::-1]),
    )
    starts = []
    for seq, ws, rs in directions:
        k, d = _least_rotation(rs)
        # Every start k + j*d reads the same least weight sequence.
        starts.append((rs[k:] + rs[:k], seq, ws, range(k % d, p, d)))
    least = min(start[0] for start in starts)
    seq, ws, s = min(
        ((seq, ws, s) for reading, seq, ws, tied in starts if reading == least for s in tied),
        key=lambda c: (c[0][c[2]], c[0][(c[2] + 1) % p]),
    )
    return ws[s:] + ws[:s], tuple(seq[s:] + seq[:s])


def describe_base(core: WeightedGraph) -> BaseDescriptor:
    """Canonical descriptor of a 2-core (a cycle or a double-cycle base).

    Ambiguities (which cycle is first, walk directions, hub order) are
    settled by picking the lexicographically smallest realization, so equal
    cores always yield identical descriptors.
    """
    # A disconnected core is reported as such even when it breaks another
    # rule too.
    if len(_component_vertices(core)) != 1:
        raise GraphError("core must be connected and non-empty")
    degrees = list(map(len, core._adj))
    if min(degrees) < 2:
        raise GraphError("core has a vertex of degree < 2; not a 2-core")
    if core.m - core.n not in (0, 1):
        raise GraphError("core matches neither a cycle nor a double-cycle base")
    vs = core.vertices
    hubs = [v for v, d in enumerate(degrees) if d > 2]
    if not hubs:
        # All degrees are exactly 2: one loop from the first vertex.
        ((h, _, inner, ws),) = _walk_threads(core, degrees, [0])
        ws, ids = _least_cycle_reading([vs[h], *map(vs.__getitem__, inner)], tuple(ws))
        return BaseDescriptor(BaseKind.CYCLE, core.n, 0, 0, ws, (), (), ids, (), ())

    # The degrees add up to 2n + 2 and none is below 2, so there is one hub
    # of degree 4 or two of degree 3: two loops and at most one link
    # between them, or three links.  Candidates compare by vertex ids.
    threads = [
        (vs[h], vs[e], tuple(map(vs.__getitem__, inner)), tuple(ws))
        for h, e, inner, ws in _walk_threads(core, degrees, hubs)
    ]
    loops = [t for t in threads if t[0] == t[1]]
    links = [t for t in threads if t[0] != t[1]]
    candidates = []
    if loops:
        kind = BaseKind.INFINITY
        # Each loop takes the lesser of its two readings from its hub on its
        # own: the loops are independent in the candidate order.
        readings = [
            (h, *min((ws, (h, *inner)), (ws[::-1], (h, *inner[::-1]))))
            for h, _, inner, ws in loops
        ]
        start, _, inner, ws = links[0] if links else (None, None, (), ())
        for (u, a_ws, a_vs), (_, b_ws, b_vs) in (readings, readings[::-1]):
            if len(a_ws) <= len(b_ws):
                c_ws, c_vs = (ws, inner) if start == u else (ws[::-1], inner[::-1])
                p, l, q = len(a_ws), len(ws) + 1, len(b_ws)
                candidates.append((p, l, q, a_ws, b_ws, c_ws, a_vs, b_vs, c_vs))
    else:
        kind = BaseKind.THETA
        # Every link is walked from the first hub to the second.
        u, v = links[0][:2]
        for u, v in ((u, v), (v, u)):
            (p, a_ws, a_vs), (l, b_ws, b_vs), (q, c_ws, c_vs) = sorted(
                (len(ws) + 1, ws, (u, *inner, v))
                if s == u
                else (len(ws) + 1, ws[::-1], (u, *inner[::-1], v))
                for s, _, inner, ws in links
            )
            candidates.append((p, l, q, a_ws, b_ws, c_ws, a_vs, b_vs, c_vs))
    return BaseDescriptor(kind, *min(candidates))


def hanging_trees(g: WeightedGraph, core: WeightedGraph) -> list[HangingTree]:
    """One hanging tree per core vertex; trees partition the non-core vertices.

    ``core`` must be exactly ``two_core(g)``.  Core vertices with nothing
    attached yield single-vertex trees, which are mismatched by convention.
    The one leaf peel that finds the core also finds the matched roots in
    O(n + m); walking each tree down from its root and building its graph
    adds O(k log k) for a tree of k vertices.
    """
    live, parent, _, matched = _peel(g)
    rest = _live(live)
    if not rest:
        raise GraphError("graph is a forest; its 2-core is empty")
    index = g._index
    roots = [index[v] for v in core.vertices if v in index]
    if len(roots) != core.n or sorted(roots) != rest:
        raise GraphError("core is not the 2-core of the graph")
    adj = g._adj
    return [
        HangingTree(v, g._induced_at(sorted(_hanging_tree(adj, parent, r))), bool(matched[r]))
        for v, r in zip(core.vertices, roots)
    ]
