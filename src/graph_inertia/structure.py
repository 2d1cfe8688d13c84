"""One leaf peel for forest matching, matched-root tests, the 2-core and its
hanging trees; canonical descriptors of the core."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import GraphError
from .graph import WeightedGraph, _component_vertices

__all__ = [
    "BaseKind",
    "BaseDescriptor",
    "HangingTree",
    "max_matching_forest",
    "is_mismatched",
    "two_core",
    "describe_base",
    "hanging_trees",
]


def _peel(
    g: WeightedGraph, keep=()
) -> tuple[dict[str, int], dict[str, str | None], set[str]]:
    """Peel vertices of degree <= 1 that are not in ``keep``, leaves first,
    until none is left, matching greedily on the way (Jacobs and Trevisan's
    leaves-first walk).  One O(n + m) pass.

    Returns the live vertices with their live degrees, the parent of each
    peeled vertex in peel order (its last live neighbour, or None), and the
    matched vertices: a peeled vertex is matched to its parent when both are
    still free.  Matching a leaf to its neighbour is the pendant-pair rule,
    so the matching is maximum on every tree that peels away.  Every tree
    hanging off a live vertex is matched bottom-up, which leaves its root
    unmatched iff some maximum matching of the tree misses the root, i.e. iff
    the root is mismatched.  With nothing kept, the live vertices are the
    2-core.
    """
    adj = g._adjacency()
    live = {v: len(adj[v]) for v in g.vertices}
    stack = [v for v, d in live.items() if d <= 1 and v not in keep]
    parent: dict[str, str | None] = {}
    matched: set[str] = set()
    while stack:
        v = stack.pop()
        del live[v]
        up = None
        for nb in adj[v]:
            if nb in live:
                up = nb
                d = live[nb] - 1
                live[nb] = d
                if d == 1 and nb not in keep:
                    stack.append(nb)
                if v not in matched and nb not in matched:
                    matched.add(v)
                    matched.add(nb)
                break
        parent[v] = up
    return live, parent, matched


def _tree_vertices(live, parent) -> dict[str, list[str]]:
    """The vertices of the tree hanging off each live vertex, root first.

    Peeled vertices whose parents lead to no live vertex (the trees of a
    forest component) belong to no tree.
    """
    root = {v: v for v in live}
    trees = {v: [v] for v in live}
    for v in reversed(parent):  # a parent is peeled after its children
        r = root.get(parent[v])
        if r is not None:
            root[v] = r
            trees[r].append(v)
    return trees


def max_matching_forest(g: WeightedGraph) -> int:
    """Matching number of an acyclic graph by leaves-first greedy matching,
    which is optimal on forests and runs in linear time.

    Cyclic input is rejected.
    """
    live, _, matched = _peel(g)
    if live:
        raise GraphError("input contains a cycle; matching requires a forest")
    return len(matched) // 2


def is_mismatched(t: WeightedGraph, v: str) -> bool:
    """True iff deleting v does not decrease the matching number of the tree,
    i.e. iff peeling the tree towards v leaves v unmatched.

    A single-vertex tree counts as mismatched.
    """
    if t.m != t.n - 1 or len(_component_vertices(t)) != 1:
        raise GraphError("is_mismatched requires a tree")
    if not t.has_vertex(v):
        raise GraphError(f"vertex {v!r} not in tree")
    return v not in _peel(t, (v,))[2]


def two_core(g: WeightedGraph) -> WeightedGraph:
    """Maximal subgraph of minimum degree 2, found by peeling low-degree vertices.

    For a connected unicyclic graph this is its unique cycle; for a connected
    bicyclic graph it is the embedded double-cycle base.  Forests peel away
    completely, which is an error.
    """
    live = _peel(g)[0]
    if not live:
        raise GraphError("graph is a forest; its 2-core is empty")
    return g.induced(live)


class BaseKind(Enum):
    CYCLE = "cycle"
    INFINITY = "infinity"
    THETA = "theta"


@dataclass(frozen=True)
class BaseDescriptor:
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


@dataclass(frozen=True)
class HangingTree:
    """Maximal tree of a unicyclic/bicyclic graph hanging off one core vertex."""

    root: str
    tree: WeightedGraph
    matched_at_root: bool


@dataclass(frozen=True)
class _Thread:
    """Maximal chain of degree-2 vertices between two branch vertices."""

    start: str
    end: str
    inner: tuple[str, ...]
    weights: tuple[Fraction, ...]


def _walk_threads(core: WeightedGraph, hubs: set[str]) -> list[_Thread]:
    used: set[frozenset] = set()
    threads = []
    for h in core.vertices:
        if h not in hubs:
            continue
        for nb, w in core.neighbors(h):
            key = frozenset((h, nb))
            if key in used:
                continue
            used.add(key)
            inner: list[str] = []
            weights = [w]
            prev, cur = h, nb
            while cur not in hubs:
                inner.append(cur)
                nxt, wn = next((x, wx) for x, wx in core.neighbors(cur) if x != prev)
                weights.append(wn)
                used.add(frozenset((cur, nxt)))
                prev, cur = cur, nxt
            threads.append(_Thread(h, cur, tuple(inner), tuple(weights)))
    return threads


def _least_rotation(ws: list) -> int:
    """Start of a lexicographically least rotation of ``ws``, in O(p).

    Two candidate starts i and j are compared; when their readings first
    differ k places on, the start with the larger reading and the k starts
    after it cannot be least, so it jumps k + 1 places.
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
    return min(i, j)


def _rotation_period(ws: list) -> int:
    """Least d > 0 such that rotating ``ws`` by d leaves it unchanged, in O(p)
    (the shortest period from the prefix function, if it divides p)."""
    p = len(ws)
    border = [0] * p
    k = 0
    for i in range(1, p):
        while k and ws[i] != ws[k]:
            k = border[k - 1]
        if ws[i] == ws[k]:
            k += 1
        border[i] = k
    d = p - border[-1]
    return d if p % d == 0 else p


def _least_cycle_reading(order: list[str], weight_of) -> tuple[tuple, tuple[str, ...]]:
    """The least ``(weights, vertices)`` reading of a cycle over every start
    and both directions, in O(p) with one weight lookup per edge.

    ``order`` walks the cycle; readings compare by their weight sequences,
    then by their vertex sequences.  Two readings of one cycle with distinct
    starts differ at their first vertex, and two with the same start differ
    at their second, so those two vertices settle every weight tie.
    """
    p = len(order)
    forward = [weight_of(order[i], order[(i + 1) % p]) for i in range(p)]
    # Walking back from order[0], edge j is forward edge p - 1 - j.
    directions = ((order, forward), ([order[0]] + order[:0:-1], forward[::-1]))
    starts = []
    for seq, ws in directions:
        k, d = _least_rotation(ws), _rotation_period(ws)
        # Every start k + j*d reads the same least weight sequence.
        starts.append((tuple(ws[k:] + ws[:k]), seq, range(k % d, p, d)))
    least = min(reading for reading, _, _ in starts)
    seq, s = min(
        ((seq, s) for reading, seq, tied in starts if reading == least for s in tied),
        key=lambda c: (c[0][c[1]], c[0][(c[1] + 1) % p]),
    )
    return least, tuple(seq[s:] + seq[:s])


def _loop_orientations(t: _Thread):
    yield (t.start, *t.inner), t.weights
    yield (t.start, *reversed(t.inner)), tuple(reversed(t.weights))


def describe_base(core: WeightedGraph) -> BaseDescriptor:
    """Canonical descriptor of a 2-core (a cycle or a double-cycle base).

    Ambiguities (which cycle is first, walk directions, hub order) are
    settled by picking the lexicographically smallest realization, so equal
    cores always yield identical descriptors.
    """
    if core.n == 0 or len(_component_vertices(core)) != 1:
        raise GraphError("core must be connected and non-empty")
    if any(core.degree(v) < 2 for v in core.vertices):
        raise GraphError("core has a vertex of degree < 2; not a 2-core")

    if core.m == core.n:
        # All degrees are exactly 2: a single cycle.
        adj = core._adjacency()
        order = [core.vertices[0]]
        prev: str | None = None
        while len(order) < core.n:
            cur = order[-1]
            nxt = next(x for x in adj[cur] if x != prev)
            order.append(nxt)
            prev = cur
        ws, vs = _least_cycle_reading(order, core.weight)
        return BaseDescriptor(BaseKind.CYCLE, core.n, 0, 0, ws, (), (), vs, (), ())

    if core.m != core.n + 1:
        raise GraphError("core matches neither a cycle nor a double-cycle base")

    hubs = [v for v in core.vertices if core.degree(v) >= 3]
    degs = sorted(core.degree(h) for h in hubs)
    if degs not in ([4], [3, 3]):
        raise GraphError("core matches neither an infinity base nor a theta base")
    threads = _walk_threads(core, set(hubs))
    loops = [t for t in threads if t.start == t.end]
    links = [t for t in threads if t.start != t.end]

    candidates: list[tuple] = []
    if len(loops) == 2 and len(links) <= 1:
        link = links[0] if links else None
        l = 1 if link is None else len(link.weights) + 1
        for first, second in ((loops[0], loops[1]), (loops[1], loops[0])):
            p, q = len(first.weights), len(second.weights)
            if p > q:
                continue
            if link is None:
                c_ws: tuple = ()
                c_vs: tuple = ()
            elif link.start == first.start:
                c_ws, c_vs = link.weights, link.inner
            else:
                c_ws, c_vs = tuple(reversed(link.weights)), tuple(reversed(link.inner))
            for a_vs, a_ws in _loop_orientations(first):
                for b_vs, b_ws in _loop_orientations(second):
                    candidates.append((p, l, q, a_ws, b_ws, c_ws, a_vs, b_vs, c_vs))
        kind = BaseKind.INFINITY
    elif len(loops) == 0 and len(links) == 3:
        h1, h2 = hubs
        for u, v in ((h1, h2), (h2, h1)):
            oriented = []
            for t in links:
                if t.start == u:
                    vs = (u, *t.inner, v)
                    ws = t.weights
                else:
                    vs = (u, *reversed(t.inner), v)
                    ws = tuple(reversed(t.weights))
                oriented.append((len(ws) + 1, ws, vs))
            oriented.sort()
            (p, a_ws, a_vs), (l, b_ws, b_vs), (q, c_ws, c_vs) = oriented
            candidates.append((p, l, q, a_ws, b_ws, c_ws, a_vs, b_vs, c_vs))
        kind = BaseKind.THETA
    else:
        raise GraphError("core matches neither an infinity base nor a theta base")

    p, l, q, a_ws, b_ws, c_ws, a_vs, b_vs, c_vs = min(candidates)
    if kind is BaseKind.THETA and sum(1 for s in (p, l, q) if s == 2) > 1:
        raise GraphError("theta base with two length-1 paths is not a simple graph")
    return BaseDescriptor(kind, p, l, q, a_ws, b_ws, c_ws, a_vs, b_vs, c_vs)


def hanging_trees(g: WeightedGraph, core: WeightedGraph) -> list[HangingTree]:
    """One hanging tree per core vertex; trees partition the non-core vertices.

    ``core`` must be exactly ``two_core(g)``.  Core vertices with nothing
    attached yield single-vertex trees, which are mismatched by convention.
    The one leaf peel that finds the core also finds the trees and their
    matched roots in O(n + m); building each tree's graph adds O(k log k)
    for a tree of k vertices.
    """
    live, parent, matched = _peel(g)
    if not live:
        raise GraphError("graph is a forest; its 2-core is empty")
    if live.keys() != set(core.vertices):
        raise GraphError("core is not the 2-core of the graph")
    trees = _tree_vertices(live, parent)
    return [HangingTree(v, g.induced(trees[v]), v in matched) for v in core.vertices]
