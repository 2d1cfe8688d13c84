"""Independent test-side oracles, kept deliberately separate from the package:
the line-by-line edge-list parser, the json parser that ends in the
validating constructor, subset-search and leaf-deletion matching,
the matched-root test by its definition, characteristic-polynomial sign
counting, the plain definitions of induced subgraphs and least cycle
readings, the Fraction-by-Fraction alternating product, the rescanning
rewrite engine with its two single-step rewrites (``delete_pendant_pair``
and ``contract_degree2_path``), the ``reduce --output json`` payload and
the least-degree elimination on ``Fraction`` entries, which the package's
faster versions must reproduce; ``build_from_descriptor``, which rebuilds
the graph a base descriptor came from; ``rescaled`` and ``relabelled``,
graphs congruent to their argument, whose inertia every solver must keep;
``subdivided``, whose inertia is its argument's plus (2, 2, 0); and the three
elementary congruence operations, whose invariance the tests check the
diagonalization against."""

from __future__ import annotations

import json
from collections import OrderedDict, defaultdict
from fractions import Fraction
from typing import Sequence

from graph_inertia import oracle
from graph_inertia.closed_forms import alternating_product
from graph_inertia.core import GraphError, Inertia, ParseError, echo, parse_rational
from graph_inertia.graph import WeightedGraph, connected_components
from graph_inertia.matrix import SymRationalMatrix
from graph_inertia.reduction import ReductionRule, ReductionStep, ReductionTrace
from graph_inertia.structure import BaseDescriptor, BaseKind, max_matching_forest
from graph_inertia.testgen import _links


def parse_edgelist_by_line(text: str) -> WeightedGraph:
    """``parse_graph(text)`` for edge-list text, one stripped line at a time:
    the same checks in the same order, with the same messages and line
    numbers."""
    adj: dict[str, dict[str, int]] = {}
    edges = []
    weights: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            for tok in line[len("vertices:"):].split():
                adj.setdefault(tok, {})
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected '<u> <v> <weight>', got {echo(line)}", lineno)
        u, v, wtext = parts
        w = weights.get(wtext)
        if w is None:
            try:
                w = parse_rational(wtext)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if w <= 0:
                raise ParseError(f"non-positive weight {w}", lineno)
            weights[wtext] = w
        if u == v:
            raise ParseError(f"self-loop at vertex {echo(u)}", lineno)
        u_adj = adj.setdefault(u, {})
        if v in u_adj:
            raise ParseError(f"duplicate edge {echo(u)}-{echo(v)}", lineno)
        u_adj[v] = adj.setdefault(v, {})[u] = len(edges)
        edges.append((u, v, w))
    return WeightedGraph(tuple(adj), edges)



def parse_json_by_constructor(text: str) -> WeightedGraph:
    """``parse_graph(text, "json")`` by the json checks followed by the whole
    validating constructor: the same checks in the same order, with the
    same messages."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid json: {exc.msg}", exc.lineno) from None
    except ValueError as exc:
        raise ParseError(f"invalid json: {exc}") from None
    except RecursionError:
        raise ParseError("invalid json: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level json value must be an object")
    vertices = obj.get("vertices", [])
    raw_edges = obj.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError('"vertices" must be a list of strings')
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list')
    seen: dict[str, None] = {}
    for v in vertices:
        seen.setdefault(v)
    edges = []
    for item in raw_edges:
        if not (isinstance(item, list) and len(item) == 3):
            raise ParseError(f"each edge must be [u, v, weight], got {echo(item)}")
        u, v, wraw = item
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ParseError(f"edge endpoints must be strings: {echo(item)}")
        if isinstance(wraw, str):
            try:
                w = parse_rational(wraw)
            except ValueError as exc:
                raise ParseError(f"bad weight {echo(wraw)}: {exc}") from None
        elif isinstance(wraw, int) and not isinstance(wraw, bool):
            w = Fraction(wraw)
        else:
            raise ParseError(f"bad weight {echo(wraw)}: must be an integer or a rational string")
        seen.setdefault(u)
        seen.setdefault(v)
        edges.append((u, v, w))
    try:
        return WeightedGraph(tuple(seen), edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def serialize_json_by_dumps(g: WeightedGraph) -> str:
    """``serialize_graph(g, "json")`` as ``json.dumps`` writes it, from a
    list per edge: the writer's text before it wrote the layout directly."""
    obj = {"vertices": list(g.vertices), "edges": [[u, v, str(w)] for u, v, w in g.edges]}
    return json.dumps(obj, indent=2) + "\n"


def brute_force_matching(g: WeightedGraph) -> int:
    """Maximum matching by exhaustive search over edge subsets (small graphs)."""
    edges = list(g.edges)
    best = 0

    def rec(i: int, used: frozenset, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if i == len(edges) or count + (len(edges) - i) <= best:
            return
        rec(i + 1, used, count)
        u, v, _ = edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, count + 1)

    rec(0, frozenset(), 0)
    return best


def leaf_deletion_matching(g: WeightedGraph) -> int:
    """Matching number of a forest by repeatedly matching a leaf with its
    unique neighbour and deleting both."""
    degree = {v: g.degree(v) for v in g.vertices}
    adj = {v: {nb for nb, _ in g.neighbors(v)} for v in g.vertices}
    alive = set(g.vertices)
    leaves = [v for v in g.vertices if degree[v] == 1]
    matched = 0
    while leaves:
        v = leaves.pop()
        if v not in alive or degree[v] != 1:
            continue
        (u,) = (x for x in adj[v] if x in alive)
        matched += 1
        alive.discard(v)
        alive.discard(u)
        for nb in adj[u]:
            if nb in alive:
                degree[nb] -= 1
                if degree[nb] == 1:
                    leaves.append(nb)
    assert all(degree[v] == 0 for v in alive), "input has a cycle"
    return matched


def is_mismatched(t: WeightedGraph, v: str) -> bool:
    """True iff deleting v does not decrease the matching number of the tree.

    A single-vertex tree counts as mismatched.
    """
    if t.m != t.n - 1 or len(connected_components(t)) != 1:
        raise GraphError("is_mismatched requires a tree")
    if not t.has_vertex(v):
        raise GraphError(f"vertex {v!r} not in tree")
    return max_matching_forest(t.without((v,))) == max_matching_forest(t)


def induced_by_filter(g: WeightedGraph, keep) -> WeightedGraph:
    """Induced subgraph by filtering every vertex and edge, then validating."""
    keepset = set(keep)
    vertices = tuple(v for v in g.vertices if v in keepset)
    edges = tuple(e for e in g.edges if e[0] in keepset and e[1] in keepset)
    return WeightedGraph(vertices, edges)


def least_cycle_reading(order: list, weight_of) -> tuple:
    """Least (weights, vertices) over all 2p rotations and reflections of the
    cycle walked by ``order``."""
    n = len(order)
    out = []
    for direction in (order, [order[0]] + order[:0:-1]):
        for shift in range(n):
            rotated = direction[shift:] + direction[:shift]
            ws = tuple(weight_of(rotated[i], rotated[(i + 1) % n]) for i in range(n))
            out.append((ws, tuple(rotated)))
    return min(out)


def build_from_descriptor(d: BaseDescriptor) -> WeightedGraph:
    """Reassemble the graph a descriptor came from, on its own vertex ids.
    The descriptor is the caller's, so its graph is built with every check."""
    av, bv, cv = d.a_vertices, d.b_vertices, d.c_vertices
    if d.kind is BaseKind.CYCLE:
        return WeightedGraph(av, _links([((*av, av[0]), d.a)]))
    if d.kind is BaseKind.INFINITY:
        cycles = ((*av, av[0]), d.a), ((*bv, bv[0]), d.b)
        path = (av[0], *cv, bv[0]), d.c
        return WeightedGraph(dict.fromkeys(av + cv + bv), _links([*cycles, path]))
    return WeightedGraph(dict.fromkeys(av + bv + cv), _links([(av, d.a), (bv, d.b), (cv, d.c)]))


def rescaled(g: WeightedGraph, rng) -> WeightedGraph:
    """``g`` with each weight w(u, v) times d_u * d_v, for a random positive
    ``Fraction`` d per vertex.  Its matrix is D A D, congruent to A, so by
    Sylvester's law of inertia it keeps ``g``'s inertia."""
    d = {v: Fraction(rng.randint(1, 12), rng.randint(1, 12)) for v in g.vertices}
    return WeightedGraph(g.vertices, [(u, v, w * d[u] * d[v]) for u, v, w in g.edges])


def relabelled(g: WeightedGraph, rng) -> WeightedGraph:
    """``g`` on new vertex ids, its vertices and edges in a random order.
    Its matrix is P A P^T for a permutation matrix P, so it keeps ``g``'s
    inertia."""
    names = dict(zip(g.vertices, rng.sample([f"r{k}" for k in range(g.n)], g.n)))
    edges = rng.sample(g.edges, g.m)
    return WeightedGraph(
        rng.sample(list(names.values()), g.n), [(names[u], names[v], w) for u, v, w in edges]
    )


def subdivided(g: WeightedGraph, rng) -> WeightedGraph:
    """``g`` with one random edge u-v of weight w replaced by a five-edge
    path u-s1-s2-s3-s4-v through four new vertices, with random weights
    w1..w5 where w1*w3*w5/(w2*w4) = w.  Contracting that path gives ``g``
    back with an inertia offset of (2, 2, 0), so the inertia gains exactly
    that."""
    edges = list(g.edges)
    e = rng.randrange(g.m)
    u, v, w = edges[e]
    tag = 0
    while any(g.has_vertex(f"s{tag}.{k}") for k in range(1, 5)):
        tag += 1
    path = [u, *(f"s{tag}.{k}" for k in range(1, 5)), v]
    ws = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(4)]
    ws.append(w * ws[1] * ws[3] / (ws[0] * ws[2]))
    edges[e : e + 1] = [(path[k], path[k + 1], ws[k]) for k in range(5)]
    return WeightedGraph((*g.vertices, *path[1:5]), edges)


def alternating_product_by_fractions(ws) -> Fraction:
    """Product of the even-position weights over the odd-position ones, one
    ``Fraction`` product at a time."""
    num = Fraction(1)
    den = Fraction(1)
    for i, w in enumerate(ws):
        if i % 2 == 0:
            num *= w
        else:
            den *= w
    return num / den


def _check_index(m: SymRationalMatrix, i: int) -> None:
    if not 0 <= i < m.order:
        raise GraphError(f"index {i} out of range for order {m.order}")


def ecmo_swap(m: SymRationalMatrix, i: int, j: int) -> SymRationalMatrix:
    """Swap rows i, j and columns i, j; the result is congruent to ``m``."""
    _check_index(m, i)
    _check_index(m, j)
    if i == j:
        raise GraphError("swap requires two distinct indices")
    rows = [list(r) for r in m.rows]
    rows[i], rows[j] = rows[j], rows[i]
    for row in rows:
        row[i], row[j] = row[j], row[i]
    return SymRationalMatrix(tuple(tuple(r) for r in rows))


def ecmo_scale(m: SymRationalMatrix, i: int, k: Fraction) -> SymRationalMatrix:
    """Scale row i and column i by a nonzero k; entry (i, i) picks up k**2."""
    _check_index(m, i)
    k = Fraction(k)
    if k == 0:
        raise GraphError("scale factor must be nonzero")
    rows = [list(r) for r in m.rows]
    rows[i] = [k * x for x in rows[i]]
    for row in rows:
        row[i] *= k
    return SymRationalMatrix(tuple(tuple(r) for r in rows))


def ecmo_add(m: SymRationalMatrix, src: int, dst: int, k: Fraction) -> SymRationalMatrix:
    """Add k times row/column ``src`` onto row/column ``dst``."""
    _check_index(m, src)
    _check_index(m, dst)
    if src == dst:
        raise GraphError("add requires distinct source and destination rows")
    k = Fraction(k)
    if k == 0:
        raise GraphError("add multiplier must be nonzero")
    rows = [list(r) for r in m.rows]
    n = len(rows)
    for c in range(n):
        rows[dst][c] += k * rows[src][c]
    for r in range(n):
        rows[r][dst] += k * rows[r][src]
    return SymRationalMatrix(tuple(tuple(r) for r in rows))


def char_poly(m: SymRationalMatrix) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(tI - M) via Faddeev-LeVerrier."""
    n = m.order
    a = [list(row) for row in m.rows]

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    coeffs = [Fraction(1)]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = matmul(a, mk)
    return coeffs


def inertia_by_sign_counting(m: SymRationalMatrix) -> Inertia:
    """Inertia from Descartes' rule on the exact characteristic polynomial.

    Symmetric matrices have all-real spectra, so the count of sign changes is
    exact, not just an upper bound.
    """
    coeffs = char_poly(m)
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def sign_changes(cs):
        signs = [1 if c > 0 else -1 for c in cs if c != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    pos = sign_changes(coeffs)
    negated = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
    neg = sign_changes(negated)
    return Inertia(pos, neg, zero)


def delete_pendant_pair(g: WeightedGraph, v: str) -> tuple[WeightedGraph, ReductionStep]:
    """Remove a pendant vertex and its unique neighbor; offset (1, 1)."""
    if g.degree(v) != 1:
        raise GraphError(f"vertex {echo(v)} is not pendant (degree {g.degree(v)})")
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
    for x in path:
        if not isinstance(x, str):
            raise GraphError(f"unknown vertex {echo(x)}")
    if path[0] == path[5] and len(set(path)) == 5:
        raise GraphError("contraction refused: endpoints coincide, the new edge would be a loop")
    if len(set(path)) != 6:
        raise GraphError("contraction path revisits a vertex")
    ws = [g.weight(path[i], path[i + 1]) for i in range(5)]
    for x in path[1:5]:
        if g.degree(x) != 2:
            raise GraphError(f"interior vertex {echo(x)} has degree {g.degree(x)}, expected 2")
    if g.has_edge(path[0], path[5]):
        raise GraphError("contraction refused: the new edge would parallel an existing one")
    w = alternating_product(ws)
    added = ((path[0], path[5], w),)
    rest = g.without(path[1:5])
    step = ReductionStep(ReductionRule.PATH_CONTRACT, removed=path[1:5], added=added, offset=(2, 2))
    index = rest._index
    return WeightedGraph._trusted(
        rest.vertices, rest._u + [index[path[0]]], rest._v + [index[path[5]]], rest._w + [w]
    ), step


def find_contractible_run(g: WeightedGraph) -> tuple[str, ...] | None:
    """The first five-edge run x0..x5 with degree-2 interior, distinct
    vertices and x0, x5 not adjacent: x1 in vertex order, then x0 in x1's
    neighbour order."""
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


def reduce_by_rescan(g: WeightedGraph) -> tuple[WeightedGraph, ReductionTrace]:
    """``reduce_to_core`` by definition: after every single-step rewrite,
    scan again from the first vertex for a pendant vertex, then for a run."""
    steps = []
    cur = g
    while True:
        pendant = next((v for v in cur.vertices if cur.degree(v) == 1), None)
        if pendant is not None:
            cur, step = delete_pendant_pair(cur, pendant)
            steps.append(step)
            continue
        run = find_contractible_run(cur)
        if run is None:
            break
        cur, step = contract_degree2_path(cur, run)
        steps.append(step)
    return cur, ReductionTrace(tuple(steps))


def reduce_payload(reduced: WeightedGraph, trace: ReductionTrace) -> dict:
    """What ``reduce --output json`` reports, as the object whose
    ``json.dumps(..., indent=2)`` it prints."""
    return {
        "steps": [
            {
                "rule": s.rule.value,
                "removed": list(s.removed),
                "added": [[u, v, str(w)] for u, v, w in s.added],
                "offset": list(s.offset),
            }
            for s in trace.steps
        ],
        "offset": list(trace.offset),
        "result": {
            "vertices": list(reduced.vertices),
            "edges": [[u, v, str(w)] for u, v, w in reduced.edges],
        },
    }


def eliminate_by_fractions(g: WeightedGraph, live: list[int] | None = None) -> Inertia:
    """``oracle._eliminate(g, live)`` with every matrix entry a ``Fraction``:
    the same pivots, taken through the same ``oracle._detach`` calls.

    Inertia of the subgraph of ``g`` on the positions whose ``live``
    entry is not negative (all of ``g`` when ``live`` is None), by
    least-degree block elimination.

    Pivots are live vertices of least current degree from a bucket queue;
    ties go to bucket-insertion order, which starts as vertex order, so the
    elimination is deterministic.
    """
    # Rows are reached by vertex position, as the edge columns give them: an
    # edge reads its two ids off ``vs`` and looks up no row by id.
    vs = g.vertices
    rows: list[dict[str, Fraction]] = [{} for _ in vs]
    edges = zip(g._u, g._v, g._w)
    if live is not None:
        edges = [(i, j, w) for i, j, w in edges if live[i] >= 0 and live[j] >= 0]
    for i, j, w in edges:
        rows[i][vs[j]] = w
        rows[j][vs[i]] = w
    if live is None:
        adj = dict(zip(vs, rows))
    else:
        adj = {vs[x]: rows[x] for x, d in enumerate(live) if d >= 0}
    diag: dict[str, Fraction] = {}  # the nonzero diagonal entries
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
        row = oracle._detach(adj, v)
        d = diag.pop(v, 0)
        if d:
            # 1x1 pivot: subtract row row^T / d as p s^T + s p^T.
            if d > 0:
                pos += 1
            else:
                neg += 1
            touched = row
            if row:
                _subtract_rank2(adj, diag, row, {y: w / (2 * d) for y, w in row.items()})
        elif not row:
            zero += 1
            continue
        else:
            # 2x2 pivot on (v, u), inverse [[-c/b^2, 1/b], [1/b, 0]]: with
            # p = column v and q = column u, subtract p s^T + s p^T for
            # s = q/b - c p/(2 b^2).
            u = min(row, key=lambda x: len(adj[x]))
            del buckets[degree[u]][u]
            b = row.pop(u)
            rowu = oracle._detach(adj, u)
            c = diag.pop(u, 0)
            pos += 1
            neg += 1
            if row:
                touched = {**row, **rowu}
                s = {y: w / b for y, w in rowu.items()}
                if c:
                    k = c / (2 * b * b)
                    for y, w in row.items():
                        s[y] = s.get(y, 0) - k * w
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


def _subtract_rank2(
    adj: dict[str, dict[str, Fraction]],
    diag: dict[str, Fraction],
    p: dict[str, Fraction],
    s: dict[str, Fraction],
) -> None:
    """Subtract ``p s^T + s p^T`` from the live symmetric matrix, dropping
    every entry that cancels to exactly zero so degrees stay exact."""
    for x, px in p.items():
        for y, sy in s.items():
            t = px * sy
            if not t:
                continue
            if x == y:
                new = diag.get(x, 0) - 2 * t
                if new:
                    diag[x] = new
                else:
                    diag.pop(x, None)
                continue
            new = adj[x].get(y, 0) - t
            if new:
                adj[x][y] = adj[y][x] = new
            else:
                del adj[x][y], adj[y][x]
