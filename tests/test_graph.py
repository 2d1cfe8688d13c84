import copy
import gc
import json
import pickle
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_inertia import (
    GraphError,
    ParseError,
    WeightedGraph,
    adjacency_matrix,
    classify,
    inertia_oracle,
    parse_graph,
    reduce_to_core,
    serialize_graph,
    solve,
    two_core,
)
from graph_inertia.core import parse_rational
from graph_inertia.graph import GraphClass, connected_components
from graph_inertia.testgen import GenSpec, build_cycle, build_infinity, build_theta, generate

from reference import (
    contract_degree2_path,
    delete_pendant_pair,
    induced_by_filter,
    parse_edgelist_by_line,
    parse_json_by_constructor,
    serialize_json_by_dumps,
)


def test_parse_single_edge():
    g = parse_graph("1 2 3/2")
    assert g.vertices == ("1", "2")
    assert g.edges == (("1", "2", Fraction(3, 2)),)


def test_parse_triangle():
    g = parse_graph("1 2 1\n2 3 1\n3 1 1")
    assert g.n == 3 and g.m == 3
    assert g.weight("3", "1") == 1


def test_parse_rejects_zero_weight():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("1 2 0")


def test_parse_rejects_negative_weight():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("1 2 1\n2 3 -1/4")


def test_parse_rejects_self_loop_and_duplicate():
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph("1 1 2")
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_graph("1 2 1\n2 1 3")


def test_parse_rejects_float_weight():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("1 2 0.5")


def test_parse_rejects_non_ascii_digits():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("1 2 \u0663")
    with pytest.raises(ParseError, match="not an integer or integer ratio"):
        parse_graph(json.dumps({"edges": [["1", "2", "\u0663"]]}), "json")


@pytest.mark.parametrize(
    "text, accepted",
    [
        pytest.param("+3", True, id="plus-sign"),
        pytest.param("-0", True, id="minus-zero"),
        pytest.param("007/3", True, id="leading-zeros"),
        pytest.param("-4/8", True, id="unreduced"),
        pytest.param("1" * 999 + "3/7", True, id="1000-digit-numerator"),
        pytest.param("1/0", False, id="zero-denominator"),
        pytest.param("1/01", False, id="padded-denominator"),
        pytest.param("1.5", False, id="decimal"),
        pytest.param("", False, id="empty"),
        pytest.param("1/-2", False, id="negative-denominator"),
        pytest.param("+", False, id="sign-only"),
        pytest.param("\u0663", False, id="arabic-indic-digit"),
        pytest.param("\uff11\uff12", False, id="fullwidth-digits"),
        pytest.param("3/1\u0663", False, id="arabic-indic-denominator-tail"),
    ],
)
def test_parse_rational_grammar(text, accepted):
    if accepted:
        assert parse_rational(text) == Fraction(text)
    else:
        with pytest.raises(ValueError, match="^not an integer or integer ratio: "):
            parse_rational(text)


def test_parse_comments_blanks_and_header():
    text = "# a comment\nvertices: a b lonely\n\na b 2 # trailing\n"
    g = parse_graph(text)
    assert g.vertices == ("a", "b", "lonely")
    assert g.degree("lonely") == 0


def test_parse_error_has_line_number():
    with pytest.raises(ParseError) as err:
        parse_graph("1 2 1\nbroken line here extra")
    assert err.value.line == 2


def test_constructor_invariants():
    with pytest.raises(GraphError):
        WeightedGraph(["a"], [("a", "b", 1)])
    with pytest.raises(GraphError):
        WeightedGraph(["a", "a"], [])
    with pytest.raises(GraphError):
        WeightedGraph(["a", "b"], [("a", "b", 0)])
    with pytest.raises(GraphError, match="self-loop at vertex 'a'"):
        WeightedGraph(["a"], [("a", "a", 1)])
    with pytest.raises(GraphError, match="edge endpoint 'b' is not a declared vertex"):
        WeightedGraph(["a"], [("b", "a", 1)])
    assert WeightedGraph(["a", "b"], [["a", "b", "3/2"]]).edges == (("a", "b", Fraction(3, 2)),)


@pytest.mark.parametrize("v", ["", "a b", "a\tb", 7, None], ids=repr)
def test_constructor_refuses_bad_vertex_ids(v):
    with pytest.raises(
        GraphError, match=r"^vertex id must be a non-empty string without whitespace: "
    ) as err:
        WeightedGraph(["a", v], [])
    assert str(err.value).endswith(repr(v))


def test_constructor_takes_only_the_grammars_weights():
    accepted = {Fraction(3, 4): Fraction(3, 4), 2: Fraction(2), "3/4": Fraction(3, 4), "-0/5": None}
    for w, want in accepted.items():
        if want is None:
            with pytest.raises(GraphError, match="non-positive weight 0"):
                WeightedGraph(["a", "b"], [("a", "b", w)])
            continue
        ((_, _, got),) = WeightedGraph(["a", "b"], [("a", "b", w)]).edges
        assert type(got) is Fraction and got == want
    for w in (0.1, 2.0, float("inf"), True, None, b"1", [1]):
        with pytest.raises(GraphError, match="must be a Fraction, an int or a rational string"):
            WeightedGraph(["a", "b"], [("a", "b", w)])
    for w in ("1e-3", "0.5", "1/0", ""):
        with pytest.raises(GraphError, match="not an integer or integer ratio"):
            WeightedGraph(["a", "b"], [("a", "b", w)])


@pytest.mark.parametrize("item", ["ab1", ("a", "b"), ("a", "b", "1", "x"), None], ids=repr)
def test_constructor_refuses_an_edge_that_is_not_a_triple(item):
    with pytest.raises(GraphError) as err:
        WeightedGraph(["a", "b"], [item])
    assert str(err.value) == f"each edge must be (u, v, weight), got {item!r}"


@pytest.mark.parametrize("edge", [(["a"], "b", 1), ("a", {}, 1), (1, "b", 1)], ids=repr)
def test_constructor_refuses_an_endpoint_that_is_not_an_id(edge):
    bad = next(x for x in edge[:2] if not isinstance(x, str))
    with pytest.raises(GraphError) as err:
        WeightedGraph(["a", "b"], [edge])
    assert str(err.value) == f"edge endpoint {bad!r} is not a declared vertex"


def test_without_ignores_items_that_are_not_ids():
    g = WeightedGraph(["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    assert g.without([["a"], {}, 1]) is g
    assert g.without([["a"], "c"]).vertices == ("a", "b")


def test_parse_reports_a_bad_weight_at_its_own_line_after_many_good_ones():
    good = [f"v{i} v{i + 1} {('3/4', '2', '5/3')[i % 3]}" for i in range(300)]
    for bad, message in (("3/0", "not an integer or integer ratio"), ("-3/4", "non-positive weight")):
        with pytest.raises(ParseError, match=message) as err:
            parse_graph("\n".join([*good, f"x y {bad}", *good]))
        assert err.value.line == 301


def test_parse_gives_equal_weights_for_a_repeated_text():
    g = parse_graph("a b 2/4\nb c 2/4\nc d 1/2\nd e 2/4")
    assert [w for _, _, w in g.edges] == [Fraction(1, 2)] * 4
    assert all(type(w) is Fraction for _, _, w in g.edges)


def test_json_parse_shares_one_weight_per_literal():
    # Equal literals share one Fraction; the int 2 and the strings "2" and
    # "4/2" are equal weights but distinct literals.
    text = json.dumps({"edges": [
        ["a", "b", "1/2"], ["b", "c", 2], ["c", "d", "1/2"], ["d", "e", "2"], ["e", "f", 2], ["f", "g", "4/2"],
    ]})
    g = parse_graph(text, "json")
    w = g._w
    assert [str(x) for x in w] == ["1/2", "2", "1/2", "2", "2", "2"]
    assert w[0] is w[2] and w[1] is w[4]
    assert len({id(x) for x in w}) == 4
    assert all(type(x) is Fraction for x in w)


def test_parse_rejects_a_non_positive_weight_on_first_sight():
    for text, line in (("a b 0\nb c 0", 1), ("a b 1\nb c -1\nc d -1", 2), ("a b 1\nb c 0/7", 2)):
        for _ in range(2):  # nothing is remembered between calls
            with pytest.raises(ParseError, match="non-positive weight") as err:
                parse_graph(text)
            assert err.value.line == line


def test_lookups_refuse_what_the_graph_lacks():
    g = parse_graph("a b 1\nb c 2")
    with pytest.raises(GraphError, match="unknown vertex 'z'"):
        g.vertex_index("z")
    with pytest.raises(GraphError, match="no edge 'a'-'c'"):
        g.weight("a", "c")
    with pytest.raises(GraphError, match=r"union of non-disjoint graphs \(shared: \['b'\]\)"):
        g.union(parse_graph("b d 1"))


def test_lookups_refuse_ids_that_are_not_vertices():
    # Ids are strings, so any other id, hashable or not, is an unknown
    # vertex; the messages for string ids are unchanged.
    g = parse_graph("a b 1\nb c 2\nc d 1\nd e 1\ne f 1")
    calls = [
        (r"unknown vertices \['z', 1\]", lambda: g.induced(["z", 1, "a"])),
        (r"unknown vertices \['y', 'z', \['a'\]\]", lambda: g.induced([["a"], "z", "y"])),
        (r"unknown vertices \['y', 'z'\]", lambda: g.induced(["z", "a", "y", "z"])),
        (r"unknown vertex \['a'\]", lambda: g.vertex_index(["a"])),
        (r"unknown vertex \['a'\]", lambda: g.degree(["a"])),
        (r"unknown vertex \['a'\]", lambda: g.neighbors(["a"])),
        (r"unknown vertex \{\}", lambda: g.neighbors({})),
        (r"no edge \['a'\]-'b'", lambda: g.weight(["a"], "b")),
        (r"no edge 'a'-\['b'\]", lambda: g.weight("a", ["b"])),
        (r"unknown vertex \['a'\]", lambda: delete_pendant_pair(g, ["a"])),
        (r"unknown vertex 'z'", lambda: delete_pendant_pair(g, "z")),
        (
            r"unknown vertex \['c'\]",
            lambda: contract_degree2_path(g, ["a", "b", ["c"], "d", "e", "f"]),
        ),
        (r"unknown vertex 3", lambda: contract_degree2_path(g, ["a", "b", 3, "d", "e", "f"])),
        (r"no edge 'b'-'z'", lambda: contract_degree2_path(g, ["a", "b", "z", "d", "e", "f"])),
    ]
    for message, call in calls:
        with pytest.raises(GraphError, match=f"^{message}$"):
            call()
    for v in (["a"], {}, 1, None, "z"):
        assert not g.has_vertex(v)
        assert not g.has_edge(v, "b") and not g.has_edge("a", v)
    assert g.has_vertex("a") and g.has_edge("a", "b")


def test_lookup_messages_stay_short_for_a_huge_id():
    # Messages echo ids cut to 40 characters, as the parsers do.
    g = parse_graph("a b 1\nb c 2")
    huge = "z" * 100_000
    calls = [
        ("unknown vertex 'zzz", lambda: g.vertex_index(huge)),
        ("unknown vertex 'zzz", lambda: g.degree(huge)),
        ("unknown vertex 'zzz", lambda: g.neighbors(huge)),
        ("no edge 'zzz", lambda: g.weight(huge, "a")),
        ("no edge 'a'-'zzz", lambda: g.weight("a", huge)),
        (r"unknown vertices \['zzz", lambda: g.induced(["a", huge])),
    ]
    big = WeightedGraph([huge, "a"], [(huge, "a", 1)])
    calls.append((r"union of non-disjoint graphs \(shared: \['a', 'zzz", lambda: big.union(big)))
    for start, call in calls:
        with pytest.raises(GraphError, match=f"^{start}") as err:
            call()
        assert " characters)" in str(err.value)
        assert len(str(err.value)) < 120


def test_equal_graphs_hash_equal_and_differ_from_other_types():
    g = parse_graph("a b 1\nb c 2")
    flipped = WeightedGraph(["a", "b", "c"], [("c", "b", 2), ("b", "a", 1)])
    assert g == flipped and hash(g) == hash(flipped)
    assert len({g, flipped, parse_graph("a b 1\nb c 3")}) == 2
    assert g.__eq__("a b 1") is NotImplemented
    assert g != "a b 1"


def test_adjacency_matrix_single_edge():
    g = parse_graph("u v 7/3")
    m = adjacency_matrix(g)
    assert m.rows == ((0, Fraction(7, 3)), (Fraction(7, 3), 0))


def test_adjacency_matrix_path3():
    g = parse_graph("1 2 2\n2 3 1/3")
    m = adjacency_matrix(g)
    assert m.rows == (
        (0, 2, 0),
        (2, 0, Fraction(1, 3)),
        (0, Fraction(1, 3), 0),
    )


def test_adjacency_matrix_triangle_symmetric_zero_diagonal():
    g = parse_graph("1 2 1\n2 3 2\n3 1 3")
    m = adjacency_matrix(g)
    assert all(m.rows[i][i] == 0 for i in range(3))
    assert all(m.rows[i][j] == m.rows[j][i] for i in range(3) for j in range(3))


@pytest.mark.parametrize("fmt", ["edgelist", "json"])
@pytest.mark.parametrize("seed", range(8))
def test_roundtrip_random_graphs(fmt, seed):
    g = generate(GenSpec("bicyclic" if seed % 2 else "tree", 8 + seed, seed))
    assert parse_graph(serialize_graph(g, fmt), fmt) == g


@pytest.mark.parametrize("cls", ["tree", "forest", "unicyclic", "bicyclic"])
@pytest.mark.parametrize("regime", ["random", "unit", "force"])
def test_edgelist_parse_builds_what_the_constructor_builds(cls, regime):
    # The edge-list parser skips the constructor's checks, making them itself.
    for seed in range(4):
        g = generate(GenSpec(cls, 6 + 9 * seed, seed, regime=regime))
        back = parse_graph(serialize_graph(g))
        built = WeightedGraph(g.vertices, g.edges)
        assert back.vertices == built.vertices
        assert back.edges == built.edges
        assert all(back.neighbors(v) == built.neighbors(v) for v in built.vertices)


def test_roundtrip_preserves_isolated_and_order():
    g = WeightedGraph(["z", "a", "m"], [("m", "a", Fraction(1, 2))])
    for fmt in ("edgelist", "json"):
        back = parse_graph(serialize_graph(g, fmt), fmt)
        assert back.vertices == ("z", "a", "m")
        assert back == g


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50), st.integers(1, 50))
def test_roundtrip_preserves_reduced_rationals(a, b, c, d):
    g = WeightedGraph(["x", "y", "z"], [("x", "y", Fraction(a, b)), ("y", "z", Fraction(c, d))])
    back = parse_graph(serialize_graph(g))
    assert back.weight("x", "y") == Fraction(a, b)
    assert back.weight("y", "z") == Fraction(c, d)


def test_parse_bytes_as_utf8():
    assert parse_graph("é ü 1".encode()) == parse_graph("é ü 1")
    assert parse_graph(b'{"edges": [["a", "b", 2]]}', "json") == parse_graph("a b 2")
    with pytest.raises(ParseError, match="invalid UTF-8 at byte 4"):
        parse_graph(b"1 2 \xff")


@pytest.mark.parametrize(
    "text, fmt",
    [("1 2 1\n2 3 1\n3 1 1\n", "edgelist"), ('{"edges": [["1", "2", 1], ["2", "3", 1], ["3", "1", 1]]}', "json")],
)
def test_parse_drops_one_byte_order_mark_from_bytes(text, fmt):
    # A BOM would otherwise join the first vertex id, or stop the json decoder.
    plain = parse_graph(text, fmt)
    assert parse_graph(b"\xef\xbb\xbf" + text.encode(), fmt) == plain
    assert plain.vertices == ("1", "2", "3")


def test_byte_order_mark_rule_keeps_offsets_lines_and_str_input():
    # Only one mark goes, and only from bytes: a str keeps it in the first id.
    assert parse_graph(b"\xef\xbb\xbf" * 2 + b"1 2 1").vertices == ("\ufeff1", "2")
    assert parse_graph("\ufeff1 2 1").vertices == ("\ufeff1", "2")
    with pytest.raises(ParseError, match="invalid UTF-8 at byte 7"):
        parse_graph(b"\xef\xbb\xbf1 2 \xff")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph(b"\xef\xbb\xbf1 2 1\n2 3 0\n")


def test_unknown_format_names_itself():
    g = parse_graph("a b 1")
    for call in (lambda: parse_graph("a b 1", "xml"), lambda: serialize_graph(g, "xml")):
        with pytest.raises(ValueError, match="unknown graph format 'xml'") as exc:
            call()
        # A caller's mistake, not bad input: GraphError, not ParseError.
        assert type(exc.value) is GraphError


@pytest.mark.parametrize("v", ["a#b", "#", "vertices:x", "vertices:"])
def test_edgelist_refuses_ids_it_cannot_write(v):
    g = WeightedGraph([v, "b"], [(v, "b", 1)])
    with pytest.raises(GraphError, match="cannot be written as an edge list"):
        serialize_graph(g)
    assert parse_graph(serialize_graph(g, "json"), "json") == g


@pytest.mark.parametrize("cls", ["tree", "forest", "unicyclic", "bicyclic"])
def test_json_writer_prints_what_json_dumps_would_for_ids_that_need_escapes(cls):
    # A quote, a backslash, non-ASCII inside and past the BMP, and control
    # characters (none of them whitespace, which an id may not hold).
    marks = ['"', "\\", "é", "\U0001d11e", "\x01", "\x7f", "/"]
    graphs = [WeightedGraph([]), WeightedGraph(['"a', "b\\", "\x00"])]
    for seed in range(3):
        g = generate(GenSpec(cls, 12 + 5 * seed, seed))
        names = {v: marks[k % len(marks)] + v for k, v in enumerate(g.vertices)}
        graphs.append(g.relabel(names.__getitem__))
        # Two isolated vertices after the graph's own.
        graphs.append(graphs[-1].union(WeightedGraph(["\u00ff\x1b", '\\"'])))
    for g in graphs:
        text = serialize_graph(g, "json")
        assert text == serialize_json_by_dumps(g)
        back = parse_graph(text, "json")
        assert back == g and back.vertices == g.vertices


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_JSON_ATOMS = st.sampled_from(["a", "b", "c", "", "a b", "1", "2/3", "0", "-1"]) | _JSON_VALUES
_JSON_GRAPHS = st.fixed_dictionaries(
    {
        "vertices": st.lists(_JSON_ATOMS, max_size=4),
        "edges": st.lists(st.lists(_JSON_ATOMS, min_size=2, max_size=4), max_size=5),
    }
)


def _parses_or_raises_parse_error(data, fmt):
    try:
        assert isinstance(parse_graph(data, fmt), WeightedGraph)
    except ParseError:
        pass


@given(st.text() | st.binary(), st.sampled_from(["edgelist", "json"]))
def test_parse_graph_on_any_text_or_bytes(data, fmt):
    _parses_or_raises_parse_error(data, fmt)


@given(_JSON_VALUES | _JSON_GRAPHS)
def test_parse_graph_on_any_json_value(obj):
    _parses_or_raises_parse_error(json.dumps(obj), "json")


# Faults of every kind, several to a document, so which one is reported first
# is tested too.
_JSON_FAULTY_IDS = st.sampled_from(["a", "b", "c", "", "a b", "x\ty"])
_JSON_FAULTY_EDGES = st.tuples(
    _JSON_FAULTY_IDS, _JSON_FAULTY_IDS, st.sampled_from(["1", "2/3", 4, "0", -1, "1.5", 1.5, True])
).map(list)
_JSON_FAULTY_GRAPHS = st.fixed_dictionaries(
    {
        "vertices": st.lists(_JSON_FAULTY_IDS, max_size=4),
        "edges": st.lists(_JSON_FAULTY_EDGES | st.lists(_JSON_ATOMS, min_size=2, max_size=4), max_size=6),
    }
)


@given(_JSON_GRAPHS | _JSON_FAULTY_GRAPHS)
@example({"vertices": ["a b"], "edges": [["c", "c", "1"]]})
@example({"edges": [["a", "a", "1"], ["b"]]})
@example({"edges": [["a", "b", "0"], ["c", "c", "1"], ["", "d", "1"]]})
@example({"edges": [["a", "b", "1"], ["b", "a", "2"], ["c", "c", "1"]]})
# 1.0 and True are equal dict keys to an int 1 seen before, but not weights.
@example({"edges": [["a", "b", 1], ["b", "c", True]]})
@example({"edges": [["a", "b", 1], ["b", "c", 1.0]]})
def test_json_parse_matches_the_constructor_route(obj):
    text = json.dumps(obj)
    try:
        want = parse_json_by_constructor(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_graph(text, "json")
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    got = parse_graph(text, "json")
    assert _public_view(got) == _public_view(want)


# Few ids and weight texts, so repeats, self-loops and duplicate edges are common.
_IDS = st.sampled_from(["a", "b", "c", "d", "é", "x1"])
_WEIGHT_TEXTS = st.sampled_from(["1", "2", "1/2", "2/4", "07", "-0/5", "0", "-1", "1.5", "3/0", "w"])
_SPACES = st.sampled_from([" ", "  ", "\t", "\x1f", "\u3000"])
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\x1e", "\x85", "\u2028", "\u2029", "\x0b"])


@st.composite
def _edgelist_lines(draw):
    kind = draw(st.sampled_from(["edge", "edge", "edge", "header", "blank", "tokens"]))
    sep = draw(_SPACES)
    if kind == "edge":
        tokens = [draw(_IDS), draw(_IDS), draw(_WEIGHT_TEXTS)]
    elif kind == "header":
        ids = draw(st.lists(_IDS, max_size=4))
        # "vertices:a" glues the first id to the mark; "vertices: a b" has
        # three tokens, like an edge.
        tokens = ["vertices:" + ids[0], *ids[1:]] if ids and draw(st.booleans()) else ["vertices:", *ids]
    elif kind == "blank":
        tokens = []
    else:
        tokens = draw(st.lists(_IDS | _WEIGHT_TEXTS | st.just("vertices:"), max_size=5))
    line = draw(st.sampled_from(["", " ", "\t "])) + sep.join(tokens) + draw(st.sampled_from(["", " ", "\t"]))
    if draw(st.integers(0, 4)) == 0:
        cut = draw(st.integers(0, len(line)))
        line = line[:cut] + "#" + line[cut:]
    return line


@st.composite
def _edgelist_texts(draw):
    lines = draw(st.lists(_edgelist_lines(), max_size=12))
    if draw(st.booleans()):
        # A long run of good lines first, so an error comes late.
        k = draw(st.integers(1, 200))
        run = [f"p{i} p{i + 1} {('3/4', '2', '5/3')[i % 3]}" for i in range(k)]
        if draw(st.booleans()):
            # Header first, as generated text has it: the run's ids shuffled,
            # one of them twice, sometimes glued to the mark.
            ids = list(draw(st.permutations([f"p{i}" for i in range(k + 1)])))
            ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))
            run.insert(0, "vertices:" + draw(st.sampled_from(["", " "])) + " ".join(ids))
        lines = run + lines
    breaks = draw(st.lists(_BREAKS, min_size=len(lines), max_size=len(lines)))
    return "".join(line + br for line, br in zip(lines, breaks))


@given(_edgelist_texts())
@settings(max_examples=400, deadline=None)
# A first token that is a known id beginning with the header mark still
# makes its line a header.
@example("a vertices:x 1\nvertices:x b 1\n")
@example("a vertices: 1\nvertices: b c\n")
@example("a vertices: 1\nvertices: b 1\n")
def test_parse_graph_matches_the_line_by_line_parser(text):
    try:
        want = parse_edgelist_by_line(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    got = parse_graph(text)
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert [got.neighbors(v) for v in got.vertices] == [want.neighbors(v) for v in want.vertices]


def test_classify_examples():
    p5 = parse_graph("1 2 1\n2 3 1\n3 4 1\n4 5 1")
    assert classify(p5).overall is GraphClass.TREE

    c4_pendant = parse_graph("1 2 1\n2 3 1\n3 4 1\n4 1 1\n1 5 1")
    assert classify(c4_pendant).overall is GraphClass.UNICYCLIC

    theta = build_theta(2, 3, 3, [Fraction(1)], [Fraction(1)] * 2, [Fraction(1)] * 2)
    assert classify(theta).overall is GraphClass.BICYCLIC


def test_classify_mixes_and_unsupported():
    tree = generate(GenSpec("tree", 4, 1))
    cyc = build_cycle([Fraction(1)] * 3).relabel(lambda v: "c" + v)
    assert classify(tree.union(cyc)).overall is GraphClass.UNICYCLIC_FOREST_MIX

    iso = WeightedGraph(["p", "q"], [])
    assert classify(iso).overall is GraphClass.EMPTY_EDGE_SET_FOREST
    assert classify(WeightedGraph([], [])).overall is GraphClass.EMPTY_EDGE_SET_FOREST

    k4 = WeightedGraph(
        ["1", "2", "3", "4"],
        [("1", "2", 1), ("1", "3", 1), ("1", "4", 1), ("2", "3", 1), ("2", "4", 1), ("3", "4", 1)],
    )
    assert classify(k4).overall is GraphClass.UNSUPPORTED
    assert classify(k4.union(tree.relabel(lambda v: "t" + v))).overall is GraphClass.UNSUPPORTED


def test_connected_components():
    p2 = parse_graph("a b 1")
    k1 = WeightedGraph(["solo"], [])
    g = p2.union(k1)
    comps = connected_components(g)
    assert [c.n for c in comps] == [2, 1]

    connected = generate(GenSpec("unicyclic", 7, 3))
    assert connected_components(connected) == [connected]

    tri = build_cycle([Fraction(1)] * 3)
    three = tri.union(tri.relabel(lambda v: "x" + v)).union(tri.relabel(lambda v: "y" + v))
    comps = connected_components(three)
    assert len(comps) == 3
    assert all(c.m == 3 for c in comps)


@st.composite
def graphs_with_nested_keeps(draw):
    """A graph with shuffled vertex and edge order, a kept vertex set and a
    subset of it."""
    names = draw(st.permutations([f"v{i}" for i in range(draw(st.integers(0, 12)))]))
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        w = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
        edges.append((v, u, w) if draw(st.booleans()) else (u, v, w))
    keep = draw(st.sets(st.sampled_from(names))) if names else set()
    inner = draw(st.sets(st.sampled_from(sorted(keep)))) if keep else set()
    return WeightedGraph(names, edges), keep, inner


def _assert_same_graph(got: WeightedGraph, want: WeightedGraph) -> None:
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    for v in want.vertices:
        assert got.neighbors(v) == want.neighbors(v)
        assert got.vertex_index(v) == want.vertex_index(v)
    assert got == want


@given(graphs_with_nested_keeps())
def test_induced_and_without_match_the_filter_definition(case):
    g, keep, inner = case
    sub = g.induced(keep)
    _assert_same_graph(sub, induced_by_filter(g, keep))
    _assert_same_graph(sub.induced(inner), induced_by_filter(g, inner))
    _assert_same_graph(g.without(keep), induced_by_filter(g, set(g.vertices) - keep))
    _assert_same_graph(sub.without(inner), induced_by_filter(g, keep - inner))


def _built_every_way(vertices, edges) -> list[WeightedGraph]:
    """The graph on ``vertices`` and ``edges`` (``Fraction`` weights) from
    each builder: the validating constructor, the trusted builder, and the
    edge-list and json parsers."""
    text = "".join([f"vertices: {' '.join(vertices)}\n"] + [f"{u} {v} {w}\n" for u, v, w in edges])
    doc = json.dumps({"vertices": list(vertices), "edges": [[u, v, str(w)] for u, v, w in edges]})
    return [
        WeightedGraph(vertices, edges),
        WeightedGraph._trusted(
            tuple(vertices),
            [vertices.index(u) for u, _, _ in edges],
            [vertices.index(v) for _, v, _ in edges],
            [w for _, _, w in edges],
        ),
        parse_graph(text),
        parse_graph(doc, "json"),
    ]


def _public_view(g: WeightedGraph) -> tuple:
    vs = g.vertices
    return (
        vs,
        g.edges,
        [g.neighbors(v) for v in vs],
        [g.degree(v) for v in vs],
        [g.vertex_index(v) for v in vs],
        [[g.has_edge(u, v) for v in vs] for u in vs],
        {(u, v): g.weight(u, v) for u in vs for v in vs if g.has_edge(u, v)},
    )


def _view_by_definition(vertices, edges) -> tuple:
    """``_public_view`` read straight off the vertex and edge lists."""
    nbrs: dict = {v: [] for v in vertices}
    weight = {}
    for u, v, w in edges:
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
        weight[u, v] = weight[v, u] = w
    return (
        tuple(vertices),
        tuple(edges),
        [tuple(nbrs[v]) for v in vertices],
        [len(nbrs[v]) for v in vertices],
        list(range(len(vertices))),
        [[(u, v) in weight for v in vertices] for u in vertices],
        {(u, v): weight[u, v] for u in vertices for v in vertices if (u, v) in weight},
    )


def _assert_builders_agree(vertices, edges, keeps) -> None:
    want = _view_by_definition(vertices, edges)
    for g in _built_every_way(vertices, edges):
        assert _public_view(g) == want
        for keep in keeps:
            _assert_same_graph(g.induced(keep), induced_by_filter(g, keep))
            _assert_same_graph(g.without(keep), induced_by_filter(g, set(vertices) - set(keep)))


@pytest.mark.parametrize("cls", ["tree", "forest", "unicyclic", "bicyclic"])
@pytest.mark.parametrize("regime", ["random", "unit", "force"])
def test_every_builder_gives_the_same_public_view(cls, regime):
    rng = random.Random(f"{cls}-{regime}")
    for seed, n in enumerate((5, 17, 40)):
        g = generate(GenSpec(cls, n, seed, regime=regime))
        keeps = [rng.sample(g.vertices, rng.randint(0, n)) for _ in range(3)]
        _assert_builders_agree(g.vertices, g.edges, keeps)


@given(graphs_with_nested_keeps())
def test_every_builder_gives_the_same_public_view_on_any_edge_list(case):
    g, keep, inner = case
    _assert_builders_agree(g.vertices, g.edges, [keep, inner])


def test_induced_and_without_refuse_a_bare_string():
    # A string would be read as its characters: "ab" as the ids a and b.
    g = WeightedGraph(["a", "b", "ab"], [("a", "b", 1), ("b", "ab", 2)])
    for call in (g.induced, g.without):
        with pytest.raises(GraphError, match="not the string 'ab'"):
            call("ab")
    assert g.without(["ab"]).vertices == ("a", "b")
    assert g.induced(("ab",)).vertices == ("ab",)
    with pytest.raises(GraphError, match="not the string 'ab'"):
        WeightedGraph("ab", [("a", "b", 1)])


def test_a_parse_leaves_no_tracked_object_per_edge():
    # The edges are columns of ints and of weights shared per weight text,
    # and each adjacency dict holds only ints, so the collector has a
    # bounded number of new objects to trace however long the list is.
    rng = random.Random(7)
    weights = ("1", "2", "3/2", "5/7")
    text = "".join(f"{rng.randrange(i)} {i} {rng.choice(weights)}\n" for i in range(1, 10001))
    gc.collect()
    before = len(gc.get_objects())
    g = parse_graph(text)
    grown = len(gc.get_objects()) - before
    assert g.m == 10000
    assert grown < 1000, grown


def test_edges_is_built_from_the_columns_on_each_read():
    g = parse_graph("b a 2\nc b 1/3\na c 5")
    assert g.edges == (("b", "a", 2), ("c", "b", Fraction(1, 3)), ("a", "c", 5))
    assert g.edges is not g.edges and g.edges == g.edges
    assert not hasattr(g, "_edges")


def test_induced_on_every_vertex_is_the_graph_itself():
    g = generate(GenSpec("bicyclic", 12, 4))
    assert g.induced(reversed(g.vertices)) is g
    assert g.without(["not-a-vertex"]) is g
    with pytest.raises(GraphError, match="unknown vertices"):
        g.induced(["not-a-vertex"])


def _built_maps(g: WeightedGraph) -> tuple:
    """What the graph's two derived slots hold, as items in order; None for
    a slot not yet built."""
    index, adj = g._index_or_none, g._adj_or_none
    return (
        None if index is None else list(index.items()),
        None if adj is None else [list(nbrs.items()) for nbrs in adj],
    )


def _constructor_maps(g: WeightedGraph) -> tuple:
    """``_built_maps`` of the same graph from the validating constructor."""
    return _built_maps(WeightedGraph(g.vertices, g.edges))


def _bare_graphs() -> dict:
    """A graph from each builder that leaves the derived maps unbuilt."""
    g = generate(GenSpec("bicyclic", 40, 11))
    other = WeightedGraph(["x", "y"], [("x", "y", 2)])
    return {
        "generate": generate(GenSpec("bicyclic", 40, 11)),
        "without": g.without(g.vertices[:3]),
        "induced": g.induced(g.vertices[5:]),
        "union": generate(GenSpec("unicyclic", 12, 2)).union(other),
        "two_core": two_core(g),
        "reduce_to_core": reduce_to_core(g)[0],
        "contract_degree2_path": contract_degree2_path(
            build_cycle([1, 2, 3, 4, 5, 6, 7]), ["v0", "v1", "v2", "v3", "v4", "v5"]
        )[0],
        "forest": generate(GenSpec("forest", 40, 3)),
        "build_cycle": build_cycle([1, 2, 3, 4, 5, 6, 7]),
        "build_infinity": build_infinity(3, 2, 4, [1] * 3, [2] * 4, [Fraction(1, 3)]),
        "build_theta": build_theta(2, 3, 5, [1], [2] * 2, [3] * 4),
    }


@pytest.mark.parametrize("builder", sorted(_bare_graphs()))
@pytest.mark.parametrize("read", ["neighbors", "has_vertex", "solve", "inertia_oracle"])
def test_derived_maps_are_built_on_first_read(builder, read):
    g = _bare_graphs()[builder]
    assert _built_maps(g) == (None, None)
    v = g.vertices[-1]
    if read == "neighbors":
        assert g.neighbors(v) == WeightedGraph(g.vertices, g.edges).neighbors(v)
    elif read == "has_vertex":
        assert g.has_vertex(v) and not g.has_vertex("not-a-vertex")
    elif read == "solve":
        assert solve(g) == solve(WeightedGraph(g.vertices, g.edges))
    else:
        assert inertia_oracle(g) == inertia_oracle(WeightedGraph(g.vertices, g.edges))
    index, adj = _built_maps(g)
    want_index, want_adj = _constructor_maps(g)
    # Each read builds only what it reads, and builds it as the
    # constructor does, in the same order; the oracle builds its own rows
    # from the edge columns and neither map.
    assert index == (None if read in ("solve", "inertia_oracle") else want_index)
    assert adj == (None if read in ("has_vertex", "inertia_oracle") else want_adj)


def test_the_edge_list_parser_hands_over_only_its_adjacency():
    g = generate(GenSpec("unicyclic", 30, 5))
    want_index, want_adj = _constructor_maps(g)
    parsed = parse_graph(serialize_graph(g))
    assert _built_maps(parsed) == (None, want_adj)
    adj = parsed._adj_or_none
    # A solve reads the adjacency the parse built and never the id index.
    solve(parsed)
    assert parsed._adj_or_none is adj and parsed._index_or_none is None
    # The json parser goes through the constructor, which keeps both maps.
    for built in (parse_graph(serialize_graph(g, "json"), "json"), WeightedGraph(g.vertices, g.edges)):
        index, adj = built._index_or_none, built._adj_or_none
        assert _built_maps(built) == (want_index, want_adj)
        solve(built)
        assert built._index_or_none is index and built._adj_or_none is adj


def test_a_generated_graph_and_its_text_hold_no_neighbour_maps():
    # The columns and the text hold about 2.1 MiB; with the id index and
    # the neighbour maps built as well, the same graph holds 5.1 MiB.
    tracemalloc.start()
    try:
        g = generate(GenSpec("unicyclic", 10**4, 1))
        text = serialize_graph(g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == g.m + 1
    assert held < 3.5 * 2**20, held / 2**20


@pytest.mark.parametrize("built", [False, True])
def test_graphs_survive_pickle_and_copy(built):
    g = generate(GenSpec("bicyclic", 30, 9))
    if built:
        g.neighbors(g.vertices[0])
    want = _built_maps(g)
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g)):
        assert twin == g and hash(twin) == hash(g)
        assert _built_maps(twin) == want
        assert [twin.neighbors(v) for v in twin.vertices] == [g.neighbors(v) for v in g.vertices]


def test_threads_share_a_graph_whose_maps_are_unbuilt():
    spec = GenSpec("bicyclic", 2000, 3)
    alone = generate(spec)
    want = (solve(alone), [alone.neighbors(v) for v in alone.vertices])
    # Each round gives the threads one fresh graph, whose slots are empty.
    graphs = [generate(spec) for _ in range(10)]
    assert all(_built_maps(g) == (None, None) for g in graphs)
    start = threading.Barrier(8, timeout=60)
    got = [[] for _ in range(8)]

    def run(k):
        try:
            for g in graphs:
                start.wait()
                # Half the threads read the neighbour maps through solve
                # first, half the id index through neighbors first.
                if k % 2:
                    result = solve(g)
                    nbrs = [g.neighbors(v) for v in g.vertices]
                else:
                    nbrs = [g.neighbors(v) for v in g.vertices]
                    result = solve(g)
                got[k].append((result, nbrs))
        except BaseException:
            start.abort()  # the other threads stop at the next round
            raise

    threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(8)]
    # A switch every 0.1 ms falls inside a 2000-vertex build, so the other
    # threads read a slot while one of them is filling it.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want] * len(graphs)] * 8
