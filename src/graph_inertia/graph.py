"""Weighted-graph model, parsing/serialization, and topological classification."""

from __future__ import annotations

import itertools
import json
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import GraphError, ParseError, echo, parse_rational
from .matrix import SymRationalMatrix

__all__ = [
    "WeightedGraph",
    "GraphClass",
    "ComponentClass",
    "Classification",
    "parse_graph",
    "serialize_graph",
    "adjacency_matrix",
    "classify",
    "connected_components",
]

Edge = tuple[str, str, Fraction]


def _ids(ids: Iterable[str]) -> Iterable[str]:
    """``ids``, refused when it is a single string: a string iterates over
    its characters, which are not the vertex ids it names."""
    if isinstance(ids, str):
        raise GraphError(f"vertex ids must be a collection of ids, not the string {echo(ids)}")
    return ids


def _check_id(v) -> None:
    """Refuse ``v`` unless it is a non-empty string without whitespace."""
    if not isinstance(v, str) or not v or any(ch.isspace() for ch in v):
        raise GraphError(f"vertex id must be a non-empty string without whitespace: {echo(v)}")


def _exact_weight(u, v, w) -> Fraction:
    """The weight ``w`` of edge u-v as the grammar takes it: a ``Fraction``,
    an ``int`` (not a ``bool``) or a rational string.  Floats are inexact and
    are refused with everything else."""
    if isinstance(w, Fraction):
        return w
    if isinstance(w, int) and not isinstance(w, bool):
        return Fraction(w)
    if isinstance(w, str):
        try:
            return parse_rational(w)
        except ValueError as exc:
            raise GraphError(f"edge {echo(u)}-{echo(v)}: {exc}") from None
    raise GraphError(
        f"edge {echo(u)}-{echo(v)} has weight {echo(w)}: "
        "must be a Fraction, an int or a rational string"
    )


class WeightedGraph:
    """Simple undirected graph with exact, strictly positive rational weights.

    Vertices keep the order in which they were supplied (parsers use
    first-appearance order); that order fixes adjacency-matrix rows, so
    equal inputs always produce identical matrices.  Instances are
    immutable and safe to share between threads.

    Inside, a vertex is its position in that order and an edge its position
    in edge order.  A graph keeps its ids, and its edges as three columns
    indexed by edge position: ``_u[e]`` and ``_v[e]`` are the positions of
    edge e's endpoints, in the orientation it was given, and ``_w[e]`` is
    its ``Fraction`` weight.  So the graph keeps no tuple per edge: the
    weights are the only per-edge objects the cyclic collector tracks, and
    ``edges`` is built from the columns on each read.

    Two structures are derived from the columns, each built on its first
    read and then kept: ``_index`` maps an id to its position, and
    ``_adj[i]`` maps the position of each neighbour of vertex i to the
    position of their edge, in edge order, which is the order ``neighbors``
    reports.  A graph that is only written out, compared or read edge by
    edge never builds them; the constructor keeps both, which its checks
    build, and the edge-list parser its adjacency.  Two threads may both
    build one on a first read; each builds an equal structure that is never
    mutated, and either may be kept, so sharing stays safe.  The package
    reads these parts directly and must not mutate them.
    """

    __slots__ = ("_vertices", "_u", "_v", "_w", "_index_or_none", "_adj_or_none")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple] = ()) -> None:
        vs = tuple(_ids(vertices))
        index: dict[str, int] = {}
        for v in vs:
            _check_id(v)
            if v in index:
                raise GraphError(f"duplicate vertex id {echo(v)}")
            index[v] = len(index)
        adj: list[dict[int, int]] = [{} for _ in vs]
        us: list[int] = []
        vs_: list[int] = []
        ws: list[Fraction] = []
        for item in edges:
            if not (isinstance(item, (tuple, list)) and len(item) == 3):
                raise GraphError(f"each edge must be (u, v, weight), got {echo(item)}")
            u, v, w = item
            w = _exact_weight(u, v, w)
            if u == v:
                raise GraphError(f"self-loop at vertex {echo(u)}")
            i = index.get(u) if isinstance(u, str) else None
            if i is None:
                raise GraphError(f"edge endpoint {echo(u)} is not a declared vertex")
            j = index.get(v) if isinstance(v, str) else None
            if j is None:
                raise GraphError(f"edge endpoint {echo(v)} is not a declared vertex")
            if w <= 0:
                raise GraphError(f"edge {echo(u)}-{echo(v)} has non-positive weight {w}")
            if j in adj[i]:
                raise GraphError(f"duplicate edge {echo(u)}-{echo(v)}")
            adj[i][j] = adj[j][i] = len(ws)
            us.append(i)
            vs_.append(j)
            ws.append(w)
        self._vertices = vs
        self._u, self._v, self._w = us, vs_, ws
        self._index_or_none, self._adj_or_none = index, adj

    @classmethod
    def _trusted(
        cls,
        vertices: tuple[str, ...],
        u: list[int],
        v: list[int],
        w: list[Fraction],
        adj: list[dict[int, int]] | None = None,
    ) -> "WeightedGraph":
        """Build from parts already known to be valid, without re-validating.

        ``u``, ``v`` and ``w`` are the edge columns the class docstring
        describes.  The parts must pass every check the constructor makes:
        distinct, non-empty vertex ids without whitespace, and distinct
        non-loop edges with ``Fraction`` weights above zero between
        positions of ``vertices``.  The columns of a validated graph's edges
        between kept vertices, renumbered, qualify; so do the generator's
        graphs, whose ids it names itself and whose weights it checks, and
        the edge-list parser's output, which makes those checks itself to
        report them with line numbers.  That parser builds ``adj`` for its
        duplicate check and hands it over; it must be what the first read
        would build.  The id index, and the adjacency of every other graph
        built here, are built on their first read.  Nothing is copied.
        """
        g = cls.__new__(cls)
        g._vertices = vertices
        g._u, g._v, g._w = u, v, w
        g._index_or_none, g._adj_or_none = None, adj
        return g

    @property
    def _index(self) -> dict[str, int]:
        """Id -> position, built on the first read."""
        index = self._index_or_none
        if index is None:
            vs = self._vertices
            index = self._index_or_none = dict(zip(vs, range(len(vs))))
        return index

    @property
    def _adj(self) -> list[dict[int, int]]:
        """Position -> {neighbour position: edge position}, in edge order,
        built on the first read."""
        adj = self._adj_or_none
        if adj is None:
            adj = [{} for _ in self._vertices]
            for pos, i, j in zip(range(len(self._w)), self._u, self._v):
                adj[i][j] = adj[j][i] = pos
            self._adj_or_none = adj
        return adj

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``(u, v, weight)`` in edge order, each in the
        orientation it was given; built from the columns on each read, in
        O(m)."""
        return tuple(self._edge_rows())

    def _edge_rows(self) -> Iterator[Edge]:
        """The rows of ``edges``, made one at a time for a single pass."""
        vs = self._vertices
        return ((vs[i], vs[j], w) for i, j, w in zip(self._u, self._v, self._w))

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._w)

    def has_vertex(self, v: str) -> bool:
        return isinstance(v, str) and v in self._index

    def vertex_index(self, v: str) -> int:
        try:
            return self._index[v]
        except (KeyError, TypeError):
            raise GraphError(f"unknown vertex {echo(v)}") from None

    def degree(self, v: str) -> int:
        return len(self._adj[self.vertex_index(v)])

    def neighbors(self, v: str) -> tuple[tuple[str, Fraction], ...]:
        """Neighbors of v with weights, in edge-insertion order."""
        vs, ws = self._vertices, self._w
        return tuple([(vs[j], ws[pos]) for j, pos in self._adj[self.vertex_index(v)].items()])

    def has_edge(self, u: str, v: str) -> bool:
        if not (isinstance(u, str) and isinstance(v, str)):
            return False
        i, j = self._index.get(u), self._index.get(v)
        return i is not None and j in self._adj[i]

    def weight(self, u: str, v: str) -> Fraction:
        if not self.has_edge(u, v):
            raise GraphError(f"no edge {echo(u)}-{echo(v)}")
        return self._w[self._adj[self._index[u]][self._index[v]]]

    def induced(self, keep: Iterable[str]) -> "WeightedGraph":
        """Induced weighted subgraph on ``keep``.

        Vertex order, edge order and each vertex's neighbor order are those of
        this graph, restricted to ``keep``.  The cost is O(d + k log k) for k
        kept vertices of total degree d, whatever the size of this graph.
        Keeping every vertex returns ``self``; graphs are immutable, so the
        two are interchangeable.
        """
        keep = tuple(_ids(keep))
        index = self._index
        kept = {index.get(v, -1) if isinstance(v, str) else -1 for v in keep}
        if -1 in kept:
            # Unknown string ids sorted, then any other ids as given.
            unknown = sorted({v for v in keep if isinstance(v, str) and v not in index})
            unknown += [v for v in keep if not isinstance(v, str)]
            raise GraphError(f"unknown vertices {echo(unknown)}")
        return self._induced_at(sorted(kept))

    def _induced_at(self, kept: list[int]) -> "WeightedGraph":
        """``induced`` on the vertices at the ascending positions ``kept``."""
        if len(kept) == len(self._vertices):
            return self
        adj = self._adj
        inside = set(kept)
        positions = sorted({pos for i in kept for j, pos in adj[i].items() if j in inside})
        return _subgraph(self._vertices, self._u, self._v, self._w, kept, positions)

    def without(self, drop: Iterable[str]) -> "WeightedGraph":
        """Induced subgraph on the vertices not in ``drop``, in O(n + m).

        Ids in ``drop`` that are not vertices are ignored.
        """
        index = self._index
        gone = {index[v] for v in _ids(drop) if isinstance(v, str) and v in index}
        if not gone:
            return self
        vs, us, vs_ = self._vertices, self._u, self._v
        return _subgraph(
            vs,
            us,
            vs_,
            self._w,
            [i for i in range(len(vs)) if i not in gone],
            [pos for pos, i, j in zip(range(len(us)), us, vs_) if i not in gone and j not in gone],
        )

    def union(self, other: "WeightedGraph") -> "WeightedGraph":
        """Disjoint union; vertex sets must not overlap."""
        overlap = set(self._vertices) & set(other._vertices)
        if overlap:
            raise GraphError(f"union of non-disjoint graphs (shared: {echo(sorted(overlap))})")
        # Two valid graphs on disjoint vertex sets make a valid one.
        n = len(self._vertices)
        return WeightedGraph._trusted(
            self._vertices + other._vertices,
            self._u + [i + n for i in other._u],
            self._v + [j + n for j in other._v],
            self._w + other._w,
        )

    def relabel(self, fn: Callable[[str], str]) -> "WeightedGraph":
        names = tuple(fn(v) for v in self._vertices)
        return WeightedGraph(
            names, ((names[i], names[j], w) for i, j, w in zip(self._u, self._v, self._w))
        )

    def _edge_keys(self) -> frozenset:
        us, vs_ = self._u, self._v
        return frozenset(zip(map(min, us, vs_), map(max, us, vs_), self._w))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edge_keys() == other._edge_keys()

    def __hash__(self) -> int:
        return hash((self._vertices, self._edge_keys()))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


def _subgraph(vertices, us, vs_, ws, kept: list[int], positions: list[int]) -> WeightedGraph:
    """The graph on ``vertices`` at the ascending positions ``kept`` and the
    edges of the columns ``us``, ``vs_``, ``ws`` at the ascending positions
    ``positions``, which must be valid edges between kept vertices; their
    endpoints are renumbered to positions in ``kept``."""
    new = dict(zip(kept, range(len(kept))))
    return WeightedGraph._trusted(
        tuple([vertices[i] for i in kept]),
        [new[us[pos]] for pos in positions],
        [new[vs_[pos]] for pos in positions],
        [ws[pos] for pos in positions],
    )


def _parse_edgelist(text: str) -> WeightedGraph:
    """The graph of an edge list, built as the graph keeps it: position ->
    {neighbour position: edge position}, and the edge columns, to which each
    edge line appends its endpoints' positions and its weight.  So a parse
    makes no object per edge but the weights, and a weight text met again
    reuses its first ``Fraction``.  The id -> position map that numbers the
    vertices is dropped; the graph builds it again on its first read.

    One loop reads the lines, and each line is split once.  A plain edge
    line, whose first id and weight text were met on earlier lines, costs
    two id lookups, one weight lookup, one test for a self-loop or a
    duplicate, and the stores.  Every other line takes the one branch that
    the first id's failed lookup opens: a blank line, a header, a line of
    the wrong token count (its first id is taken as ``None``, never an id),
    a new first id or a new weight text.  That branch tests the line as the
    grammar orders its checks.  No line counter runs: a message's line
    number is the edges stored plus the blank and header lines read, plus
    one.

    An id may begin with the header mark ``vertices:`` when it came as a
    second id or a header token.  A later line whose first token is that id
    is a header, and the first id's lookup would take it for an edge.  Such
    a text holds the mark at least twice, so in a text that holds it more
    than once the lookup that opens the branch never finds an id, and every
    line is tested for the mark first.
    """
    index: dict[str, int] = {}
    adj: list[dict[int, int]] = []
    new_vertex = adj.append
    us: list[int] = []
    vs_: list[int] = []
    ws: list[Fraction] = []
    add_u, add_v, add_w = us.append, vs_.append, ws.append
    # Each distinct weight text is parsed and checked once, at its first line.
    weights: dict[str, Fraction] = {}
    vertex_at, weight_of = index.get, weights.get
    # The first id's lookup; it finds none when the mark comes twice.
    first_at = vertex_at if text.count("vertices:") < 2 else {}.get
    skipped = 0  # blank and header lines read
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    for line in lines:
        parts = line.split()
        try:
            u, v, wtext = parts
        except ValueError:
            u = None
        i = first_at(u)
        if i is None or (w := weight_of(wtext)) is None:
            if not parts:
                skipped += 1
                continue
            if parts[0].startswith("vertices:"):
                parts[0] = parts[0][len("vertices:"):]
                for tok in parts:
                    if tok and tok not in index:
                        index[tok] = len(adj)
                        new_vertex({})
                skipped += 1
                continue
            lineno = len(ws) + skipped + 1
            if len(parts) != 3:
                raise ParseError(f"expected '<u> <v> <weight>', got {echo(line.strip())}", lineno)
            w = weight_of(wtext)
            if w is None:
                try:
                    w = parse_rational(wtext)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
                if w.numerator <= 0:
                    raise ParseError(f"non-positive weight {w}", lineno)
                weights[wtext] = w
            if u == v:
                raise ParseError(f"self-loop at vertex {echo(u)}", lineno)
            i = vertex_at(u)
            if i is None:
                i = index[u] = len(adj)
                new_vertex({})
        j = vertex_at(v)
        if j is None:
            j = index[v] = len(adj)
            new_vertex({})
        elif j in adj[i] or i == j:
            raise ParseError(
                f"self-loop at vertex {echo(u)}" if i == j else f"duplicate edge {echo(u)}-{echo(v)}",
                len(ws) + skipped + 1,
            )
        adj[i][j] = adj[j][i] = len(ws)
        add_u(i)
        add_v(j)
        add_w(w)
    return WeightedGraph._trusted(tuple(index), us, vs_, ws, adj)


def _parse_json(text: str) -> WeightedGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid json: {exc.msg}", exc.lineno) from None
    except ValueError as exc:  # an integer literal past the int digit limit
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
    seen: dict[str, None] = dict.fromkeys(vertices)
    edges: list[Edge] = []
    # Each distinct weight literal is parsed once, at its first edge; the
    # constructor checks each edge's weight.  A string and an int are never
    # equal keys, and json.loads makes no subclass of either.
    weights: dict[str | int, Fraction] = {}
    for item in raw_edges:
        if not (isinstance(item, list) and len(item) == 3):
            raise ParseError(f"each edge must be [u, v, weight], got {echo(item)}")
        u, v, wraw = item
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ParseError(f"edge endpoints must be strings: {echo(item)}")
        # Only exact weights: a rational string or a JSON integer.  Floats
        # (inexact, or inf past 1e308) and booleans are rejected before the
        # lookup, since 1.0 and True are equal keys to 1.
        kind = type(wraw)
        if kind is not str and kind is not int:
            raise ParseError(f"bad weight {echo(wraw)}: must be an integer or a rational string")
        w = weights.get(wraw)
        if w is None:
            if kind is str:
                try:
                    w = parse_rational(wraw)
                except ValueError as exc:
                    raise ParseError(f"bad weight {echo(wraw)}: {exc}") from None
            else:
                w = Fraction(wraw)
            weights[wraw] = w
        seen.setdefault(u)
        seen.setdefault(v)
        edges.append((u, v, w))
    try:
        return WeightedGraph(seen, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def _check_format(fmt: str) -> None:
    if fmt not in ("edgelist", "json"):
        raise GraphError(f"unknown graph format {echo(fmt)}")


def parse_graph(text: str | bytes, fmt: str = "edgelist") -> WeightedGraph:
    """Parse a graph from edge-list or json text; weights are exact rationals.

    Bytes are decoded as UTF-8, and one leading byte-order mark is dropped;
    bytes that are not UTF-8 are a parse error.
    """
    _check_format(fmt)
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
        text = text.removeprefix("\ufeff")
    if fmt == "edgelist":
        return _parse_edgelist(text)
    return _parse_json(text)


def serialize_graph(g: WeightedGraph, fmt: str = "edgelist") -> str:
    """Serialize so that ``parse_graph(serialize_graph(g), fmt) == g``.

    An edge list cannot hold a vertex id that contains the comment mark
    ``#`` or starts with ``vertices:``, the header mark; such a graph raises
    ``GraphError`` there and can be written as json.

    The text is the join of ``_serialized_lines(g, fmt)``, whose lines
    ``gen`` writes to its stream a batch at a time instead, so there the
    whole text never exists at once.
    """
    return "".join(_serialized_lines(g, fmt))


# The string escape json.dumps uses by default (ensure_ascii).
_q = json.encoder.encode_basestring_ascii


def _json_array(items: list[str], pad: str) -> str:
    """JSON texts ``items`` as a list laid out like ``json.dumps(..., indent=2)``;
    ``pad`` is a newline and the indent of the closing bracket."""
    if not items:
        return "[]"
    sep = pad + "  "
    return "[" + sep + ("," + sep).join(items) + pad + "]"


def _edges_json(edges, pad: str) -> str:
    return _json_array([_json_array([_q(u), _q(v), _q(str(w))], pad + "  ") for u, v, w in edges], pad)


def _serialized_lines(g: WeightedGraph, fmt: str = "edgelist") -> Iterator[str]:
    """The text of ``serialize_graph(g, fmt)`` as an iterator of pieces: an
    edge list line by line, each line with its newline, and json as one
    piece, laid out as ``json.dumps(..., indent=2)`` would without its
    pure-Python encoder.  The format and the ids are checked here, before
    the iterator exists, so a refused graph has no first piece to write."""
    _check_format(fmt)
    if fmt == "json":
        vertices = _json_array([_q(v) for v in g.vertices], "\n  ")
        edges = _edges_json(g._edge_rows(), "\n  ")
        return iter((f'{{\n  "vertices": {vertices},\n  "edges": {edges}\n}}\n',))
    for v in g.vertices:
        if "#" in v or v.startswith("vertices:"):
            raise GraphError(f"vertex id {echo(v)} cannot be written as an edge list")
    # The header pins the full vertex order, not just isolated vertices.
    header = ["vertices: " + " ".join(g.vertices) + "\n"] if g.n else []
    return itertools.chain(header, (f"{u} {v} {w}\n" for u, v, w in g._edge_rows()))


def adjacency_matrix(g: WeightedGraph) -> SymRationalMatrix:
    """Weighted adjacency matrix; row i corresponds to ``g.vertices[i]``."""
    n, ws = g.n, g._w
    rows = [[Fraction(0)] * n for _ in range(n)]
    for row, nbrs in zip(rows, g._adj):
        for j, pos in nbrs.items():
            row[j] = ws[pos]
    return SymRationalMatrix(tuple(tuple(r) for r in rows))


class GraphClass(Enum):
    EMPTY_EDGE_SET_FOREST = "empty-edge-set-forest"
    TREE = "tree"
    FOREST = "forest"
    UNICYCLIC = "unicyclic"
    BICYCLIC = "bicyclic"
    UNICYCLIC_FOREST_MIX = "unicyclic-forest-mix"
    BICYCLIC_MIX = "bicyclic-mix"
    UNSUPPORTED = "unsupported"


class ComponentClass(Enum):
    TREE = "tree"
    UNICYCLIC = "unicyclic"
    BICYCLIC = "bicyclic"
    UNSUPPORTED = "unsupported"


class Classification(NamedTuple):
    overall: GraphClass
    components: tuple[ComponentClass, ...]


def _component_vertices(g: WeightedGraph, starts=None, within=None) -> list[list[int]]:
    """Vertex positions of the components of ``g``, or of its subgraph on
    the positions whose ``within`` entry is not negative (the peel's live
    degrees), that hold a position of ``starts`` (default: every vertex, in
    ``g``'s order), in the order their first such vertex comes, each walked
    breadth-first from it.  One pass over the components' vertices and
    edges, building no graph."""
    adj = g._adj
    seen: set[int] = set()
    out = []
    for start in range(len(adj)) if starts is None else starts:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for x in comp:  # comp grows while it is scanned: breadth-first order
            for nb in adj[x]:
                if nb not in seen and (within is None or within[nb] >= 0):
                    seen.add(nb)
                    comp.append(nb)
        out.append(comp)
    return out


def connected_components(g: WeightedGraph) -> list[WeightedGraph]:
    """Components as induced subgraphs, ordered by first vertex appearance.

    A connected graph is its own single component.
    """
    return [g._induced_at(sorted(c)) for c in _component_vertices(g)]


def _component_class(n: int, m: int) -> ComponentClass:
    """Class of a connected component with n vertices and m edges."""
    excess = m - n
    if excess == -1:
        return ComponentClass.TREE
    if excess == 0:
        return ComponentClass.UNICYCLIC
    if excess == 1:
        return ComponentClass.BICYCLIC
    return ComponentClass.UNSUPPORTED


def classify(g: WeightedGraph) -> Classification:
    """Per-component class by edge/vertex count, joined into a whole-graph class."""
    adj = g._adj
    kinds = tuple(
        _component_class(len(c), sum(len(adj[v]) for v in c) // 2) for c in _component_vertices(g)
    )
    if any(k is ComponentClass.UNSUPPORTED for k in kinds):
        overall = GraphClass.UNSUPPORTED
    elif g.m == 0:
        overall = GraphClass.EMPTY_EDGE_SET_FOREST
    elif all(k is ComponentClass.TREE for k in kinds):
        overall = GraphClass.TREE if len(kinds) == 1 else GraphClass.FOREST
    elif any(k is ComponentClass.BICYCLIC for k in kinds):
        overall = GraphClass.BICYCLIC if len(kinds) == 1 else GraphClass.BICYCLIC_MIX
    else:
        overall = GraphClass.UNICYCLIC if len(kinds) == 1 else GraphClass.UNICYCLIC_FOREST_MIX
    return Classification(overall, kinds)
