import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_inertia import (
    GraphError,
    WeightedGraph,
    describe_base,
    hanging_trees,
    max_matching_forest,
    parse_graph,
    structure,
    two_core,
)
from graph_inertia.testgen import (
    GenSpec,
    build_cycle,
    build_infinity,
    build_theta,
    generate,
    random_weight,
    sample_infinity_weights,
    sample_theta_weights,
)

from graph_inertia.graph import connected_components
from graph_inertia.structure import BaseKind, _hanging_tree, _peel

from reference import (
    brute_force_matching,
    build_from_descriptor,
    is_mismatched,
    leaf_deletion_matching,
    least_cycle_reading,
)


def path(n: int) -> WeightedGraph:
    return parse_graph("\n".join(f"{i} {i+1} 1" for i in range(1, n)) if n > 1 else "vertices: 1")


def test_matching_small_examples():
    assert max_matching_forest(path(4)) == 2
    star = parse_graph("c 1 1\nc 2 1\nc 3 1")
    assert max_matching_forest(star) == 1
    assert max_matching_forest(WeightedGraph([], [])) == 0


def test_matching_rejects_cycles():
    with pytest.raises(GraphError, match="cycle"):
        max_matching_forest(build_cycle([Fraction(1)] * 4))


@pytest.mark.parametrize("seed", range(30))
def test_matching_agrees_with_brute_force(seed):
    g = generate(GenSpec("forest", 4 + seed % 9, seed))
    assert max_matching_forest(g) == brute_force_matching(g)


@pytest.mark.parametrize("seed", range(10))
def test_matching_agrees_with_leaf_deletion_on_large_forests(seed):
    g = generate(GenSpec("forest", 50 + 40 * seed, seed))
    assert max_matching_forest(g) == leaf_deletion_matching(g)


def test_is_mismatched_examples():
    p3 = path(3)
    assert is_mismatched(p3, "1") is True  # leaf: q stays 1
    assert is_mismatched(p3, "2") is False  # center is quasi-pendant, matched
    k1 = WeightedGraph(["x"], [])
    assert is_mismatched(k1, "x") is True  # single vertex counts as mismatched


def test_is_mismatched_errors():
    with pytest.raises(GraphError):
        is_mismatched(path(3), "9")
    with pytest.raises(GraphError):
        is_mismatched(build_cycle([Fraction(1)] * 3), "v0")


# Seeds 0-24 give trees of 3 to 12 vertices; the larger seeds give trees of
# 50 to 200 vertices, so the walk is checked well past hand-checkable sizes.
_DROP_TREES = {seed: 3 + seed % 10 for seed in range(25)} | {1000 + n: n for n in (50, 120, 200)}


@pytest.mark.parametrize("seed", list(_DROP_TREES))
def test_matching_number_drop_is_zero_or_one(seed):
    t = generate(GenSpec("tree", _DROP_TREES[seed], seed))
    q = max_matching_forest(t)
    # is_mismatched and max_matching_forest share one walk, so both are also
    # held to the independent leaf-deletion matching.
    assert leaf_deletion_matching(t) == q
    for v in t.vertices:
        drop = q - max_matching_forest(t.without([v]))
        assert drop in (0, 1)
        assert is_mismatched(t, v) == (drop == 0)
        assert is_mismatched(t, v) == (leaf_deletion_matching(t.without([v])) == q)


@pytest.mark.parametrize("seed", range(25))
def test_quasi_pendant_vertices_are_matched(seed):
    t = generate(GenSpec("tree", 3 + seed % 10, seed + 100))
    for v in t.vertices:
        if any(t.degree(nb) == 1 for nb, _ in t.neighbors(v)):
            assert not is_mismatched(t, v)


@pytest.mark.parametrize("seed", range(25))
def test_mismatched_vertex_neighbors_matched_in_their_components(seed):
    t = generate(GenSpec("tree", 4 + seed % 9, seed + 200))
    for v in t.vertices:
        if not is_mismatched(t, v):
            continue
        rest = t.without([v])
        for u, _ in t.neighbors(v):
            comp = next(c for c in connected_components(rest) if c.has_vertex(u))
            assert not is_mismatched(comp, u)


def test_two_core_examples():
    c4 = build_cycle([Fraction(1)] * 4)
    with_pendant = WeightedGraph(
        tuple(c4.vertices) + ("p",), tuple(c4.edges) + (("v0", "p", Fraction(2)),)
    )
    assert two_core(with_pendant) == c4

    a, b, c = sample_infinity_weights(3, 2, 3, random.Random(1))
    inf = build_infinity(3, 2, 3, a, b, c)
    hairy = WeightedGraph(
        tuple(inf.vertices) + ("x", "y"),
        tuple(inf.edges) + (("u1", "x", Fraction(1)), ("x", "y", Fraction(3))),
    )
    assert two_core(hairy) == inf

    theta = build_theta(2, 3, 3, *sample_theta_weights(2, 3, 3, random.Random(2)))
    assert two_core(theta) == theta


def test_two_core_rejects_forests():
    with pytest.raises(GraphError, match="forest"):
        two_core(path(5))


def test_describe_base_cycle():
    d = describe_base(build_cycle([random_weight(random.Random(9)) for _ in range(6)]))
    assert d.kind is BaseKind.CYCLE
    assert d.p == 6
    assert len(d.a) == 6 and len(d.a_vertices) == 6


def _cycle_weights(rng: random.Random, p: int, pattern: str) -> list[Fraction]:
    if pattern == "random":
        return [random_weight(rng) for _ in range(p)]
    if pattern == "two-values":
        return [Fraction(rng.choice((1, 2))) for _ in range(p)]
    if pattern == "all-equal":
        return [Fraction(3)] * p
    period = rng.choice([d for d in range(1, p + 1) if p % d == 0])
    return [random_weight(rng) for _ in range(period)] * (p // period)


@pytest.mark.parametrize("pattern", ["random", "two-values", "all-equal", "periodic"])
@pytest.mark.parametrize("seed", range(15))
def test_cycle_descriptor_is_the_least_reading(pattern, seed):
    rng = random.Random(seed)
    p = 3 + seed * 57 // 14  # 3 .. 60
    ws = _cycle_weights(rng, p, pattern)
    # Shuffled names and vertex order, so vertex ties are not settled by luck.
    names = rng.sample([f"x{i}" for i in range(100)], p)
    order = rng.sample(names, p)
    g = WeightedGraph(order, [(names[i], names[(i + 1) % p], ws[i]) for i in range(p)])
    walk = [g.vertices[0]]
    while len(walk) < p:
        walk.append(next(v for v, _ in g.neighbors(walk[-1]) if v not in walk[-2:]))
    d = describe_base(g)
    assert (d.a, d.a_vertices) == least_cycle_reading(walk, g.weight)


@pytest.mark.parametrize("pattern", ["unit", "period-2"])
def test_long_cycle_descriptor_is_written_out(pattern):
    # Unit weights: every reading ties, so the least vertex "v0" and its
    # lesser neighbour "v1" fix the walk.  Weights 2, 1, 2, 1, ...: a least
    # reading starts on a 1, which from "v0" means walking backwards.
    p = 100000
    ws = [Fraction(1)] * p if pattern == "unit" else [Fraction(2 - i % 2) for i in range(p)]
    names = [f"v{i}" for i in range(p)]
    d = describe_base(build_cycle(ws))
    if pattern == "unit":
        assert (d.a, d.a_vertices) == (tuple(ws), tuple(names))
    else:
        assert (d.a, d.a_vertices) == (tuple(ws[::-1]), ("v0", *names[:0:-1]))
    assert (d.kind, d.p) == (BaseKind.CYCLE, p)


def test_many_distinct_weights_are_ranked_in_time():
    # 10^5 distinct denominators.  Ranking by cross-products took 1.1 s, by
    # a Fraction per weight 2.3 s and by a common-denominator key 12.7 s.
    p = 100_000
    ws = [Fraction(1, k + 2) for k in range(p)]
    g = build_cycle(ws)
    start = time.perf_counter()
    d = describe_base(g)
    elapsed = time.perf_counter() - start
    # The least weight, 1/(p + 1), is on the edge v(p-1)-v0, and from v0 the
    # weights grow walking backwards.
    assert (d.a, d.a_vertices) == (tuple(ws[::-1]), ("v0", *g.vertices[:0:-1]))
    assert elapsed < 4.0, f"describe_base took {elapsed:.2f}s"


_HUGE = st.integers(1, 10**80)


@given(st.lists(st.builds(Fraction, _HUGE, _HUGE), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_weight_ranks_follow_the_fractions(ws):
    # Each weight also gets a neighbour that differs only past the 80th digit.
    ws += [w + Fraction(1, w.denominator * 10**80 + 1) for w in ws]
    pairs = list({w.as_integer_ratio() for w in ws})
    assert sorted(pairs, key=structure._BY_VALUE) == sorted(pairs, key=lambda r: Fraction(*r))


def test_describe_base_two_triangles_sharing_a_vertex():
    # infinity(3,1,3): one degree-4 junction
    g = parse_graph("j a 1\na b 2\nb j 3\nj c 4\nc d 5\nd j 6")
    d = describe_base(g)
    assert d.kind is BaseKind.INFINITY
    assert (d.p, d.l, d.q) == (3, 1, 3)
    assert d.a_vertices[0] == d.b_vertices[0] == "j"


def test_describe_base_theta_by_path_lengths():
    # paths with 1, 2 and 4 edges between two hubs -> theta(2,3,5)
    g = parse_graph("u v 1\nu x 1\nx v 1\nu y1 1\ny1 y2 1\ny2 y3 1\ny3 v 1")
    d = describe_base(g)
    assert d.kind is BaseKind.THETA
    assert (d.p, d.l, d.q) == (2, 3, 5)


def test_describe_base_rejects_junk():
    with pytest.raises(GraphError, match="not a 2-core"):
        describe_base(path(4))
    k4 = WeightedGraph(
        ["1", "2", "3", "4"],
        [("1", "2", 1), ("1", "3", 1), ("1", "4", 1), ("2", "3", 1), ("2", "4", 1), ("3", "4", 1)],
    )
    with pytest.raises(GraphError, match="neither a cycle nor a double-cycle base"):
        describe_base(k4)
    triangle = build_cycle([Fraction(1)] * 3)
    # Disconnected cores that break no other rule, and ones that also break
    # the degree or edge-count rule, all get the connectivity message.
    rng = random.Random(6)
    theta = build_theta(2, 3, 3, *sample_theta_weights(2, 3, 3, rng))
    infinity = build_infinity(3, 1, 4, *sample_infinity_weights(3, 1, 4, rng))

    def beside(g, h):
        return g.union(h.relabel(lambda v: "w" + v))

    cores = [
        WeightedGraph([], []),
        beside(triangle, triangle),
        beside(theta, triangle),
        beside(infinity, build_cycle([Fraction(2)] * 4)),
        beside(triangle, path(3)),
        beside(theta, theta),
    ]
    for core in cores:
        with pytest.raises(GraphError, match="core must be connected and non-empty"):
            describe_base(core)


def test_describe_base_is_canonical_under_relabeling():
    rng = random.Random(4)
    a, b, c = sample_infinity_weights(3, 3, 5, rng)
    g = build_infinity(3, 3, 5, a, b, c)
    shuffled = g.relabel(lambda v: "z" + v)
    d1, d2 = describe_base(g), describe_base(shuffled)
    assert (d1.p, d1.l, d1.q, d1.a, d1.b, d1.c) == (d2.p, d2.l, d2.q, d2.a, d2.b, d2.c)


@pytest.mark.parametrize("seed", range(20))
def test_descriptor_reassembly_matches_core(seed):
    for cls in ("unicyclic", "bicyclic"):
        core = two_core(generate(GenSpec(cls, 6 + seed % 8, seed)))
        rebuilt = build_from_descriptor(describe_base(core))
        assert set(rebuilt.vertices) == set(core.vertices)
        assert {frozenset((u, v)): w for u, v, w in rebuilt.edges} == {
            frozenset((u, v)): w for u, v, w in core.edges
        }


def test_hanging_trees_bare_cycle_all_mismatched():
    c5 = build_cycle([Fraction(1)] * 5)
    trees = hanging_trees(c5, c5)
    assert len(trees) == 5
    assert all(t.tree.n == 1 and not t.matched_at_root for t in trees)


def test_hanging_trees_pendant_makes_root_matched():
    tri = build_cycle([Fraction(1), Fraction(2), Fraction(3)])
    g = WeightedGraph(tuple(tri.vertices) + ("u",), tuple(tri.edges) + (("v0", "u", Fraction(1)),))
    trees = {t.root: t for t in hanging_trees(g, two_core(g))}
    assert trees["v0"].tree.n == 2
    assert trees["v0"].matched_at_root
    assert not trees["v1"].matched_at_root


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("cls", ["unicyclic", "bicyclic"])
def test_hanging_trees_partition_and_reconstruct(cls, seed):
    g = generate(GenSpec(cls, 7 + seed % 8, seed))
    core = two_core(g)
    trees = hanging_trees(g, core)
    assert [t.root for t in trees] == list(core.vertices)
    non_core = [v for t in trees for v in t.tree.vertices if v != t.root]
    assert sorted(non_core) == sorted(set(g.vertices) - set(core.vertices))
    # core edges plus all tree edges reconstruct the graph exactly
    edges = {frozenset((u, v)): w for u, v, w in core.edges}
    for t in trees:
        for u, v, w in t.tree.edges:
            edges[frozenset((u, v))] = w
    assert edges == {frozenset((u, v)): w for u, v, w in g.edges}


@pytest.mark.parametrize("regime", ["random", "force"])
@pytest.mark.parametrize("n", [8, 50, 150, 400])
@pytest.mark.parametrize("cls", ["unicyclic", "bicyclic"])
def test_hanging_forest_walk_matches_the_definitions(cls, n, regime):
    for seed in range(3):
        g = generate(GenSpec(cls, n, seed, regime=regime))
        core = two_core(g)
        live, parent, _, matched = _peel(g)
        # The peel runs on vertex positions; read its results back as ids.
        vs = g.vertices
        walked = {
            vs[r]: [vs[v] for v in _hanging_tree(g._adj, parent, r)]
            for r, d in enumerate(live)
            if d >= 0
        }
        is_matched = {v: bool(flag) for v, flag in zip(vs, matched)}
        trees = hanging_trees(g, core)
        assert list(walked) == [t.root for t in trees] == list(core.vertices)
        total = 0
        for t in trees:
            vertices = walked[t.root]
            assert vertices[0] == t.root
            assert sorted(vertices) == sorted(t.tree.vertices)
            q = leaf_deletion_matching(t.tree)
            assert sum(is_matched[v] for v in vertices) == 2 * q
            assert q == max_matching_forest(t.tree)
            total += q
            by_definition = leaf_deletion_matching(t.tree.without([t.root])) == q
            assert is_matched[t.root] == t.matched_at_root == (not by_definition)
            assert by_definition == is_mismatched(t.tree, t.root)
        # Every matched pair lies inside one tree, so the peel's matching is
        # the forest outside the core's matching number.
        assert sum(is_matched.values()) == 2 * total


def _forest(vertices, edges):
    """The unit forest on the one-letter ids of ``vertices`` and of each edge."""
    return WeightedGraph(tuple(vertices), [(u, v, Fraction(1)) for u, v in edges])


_EDGE_CASE_FORESTS = {
    "k2": _forest("ab", ["ab"]),
    "isolated": _forest("abc", []),
    "k2-twice-and-isolated": _forest("abcdef", ["ab", "dc"]),
    "star": _forest("abcdex", ["xa", "xb", "xc", "xd", "xe"]),
    "star-centre-last": _forest("abcx", ["ax", "bx", "cx"]),
    "stars-and-paths": _forest(
        "abcdefghijklm",
        ["ab", "ac", "ad", "ef", "gh", "hi", "ij", "jk", "lm"],
    ),
    "k2s-only": _forest("abcdefgh", ["ab", "cd", "ef", "gh"]),
}


@pytest.mark.parametrize("name", list(_EDGE_CASE_FORESTS))
def test_matching_on_forest_edge_cases(name):
    g = _EDGE_CASE_FORESTS[name]
    assert max_matching_forest(g) == brute_force_matching(g)
    for comp in connected_components(g):
        q = brute_force_matching(comp)
        for v in comp.vertices:
            dropped = brute_force_matching(comp.without([v]))
            assert is_mismatched(comp, v) == (dropped == q)


def test_hanging_trees_leave_out_tree_components():
    # A triangle with a pendant path and a pendant vertex, beside a path, a
    # K2 and an isolated vertex: the peel roots none of the last three.
    g = parse_graph(
        "vertices: x v0 v1 v2 a b c y z k1 k2 w\n"
        "v0 v1 1\nv1 v2 2\nv2 v0 3\nv0 a 1\na b 2\nv1 c 5\nx y 1\ny z 2\nk1 k2 3\n"
    )
    core = two_core(g)
    assert core.vertices == ("v0", "v1", "v2")
    got = [
        (t.root, t.tree.vertices, t.tree.edges, t.matched_at_root)
        for t in hanging_trees(g, core)
    ]
    assert got == [
        ("v0", ("v0", "a", "b"), (("v0", "a", Fraction(1)), ("a", "b", Fraction(2))), False),
        ("v1", ("v1", "c"), (("v1", "c", Fraction(5)),), True),
        ("v2", ("v2",), (), False),
    ]


def test_hanging_trees_requires_real_core(seed=0):
    g = generate(GenSpec("unicyclic", 8, seed))
    with pytest.raises(GraphError):
        hanging_trees(g, build_cycle([Fraction(1)] * 3).relabel(lambda v: "q" + v))
    with pytest.raises(GraphError, match="graph is a forest; its 2-core is empty"):
        hanging_trees(path(4), WeightedGraph([], []))


def _shuffled(g: WeightedGraph, rng: random.Random) -> WeightedGraph:
    """``g`` on fresh vertex names, with vertex order, edge order and edge
    orientation shuffled, so every tie-break of a descriptor is exercised."""
    name = dict(zip(g.vertices, (f"s{i}" for i in rng.sample(range(1000), g.n))))
    edges = [
        (name[u], name[v], w) if rng.random() < 0.5 else (name[v], name[u], w)
        for u, v, w in g.edges
    ]
    rng.shuffle(edges)
    return WeightedGraph(rng.sample(list(name.values()), g.n), edges)


def _pin_weights(rng: random.Random, count: int, pattern: str) -> list[Fraction]:
    if pattern == "unit":
        return [Fraction(1)] * count
    if pattern == "two-values":
        return [Fraction(rng.choice((1, 2))) for _ in range(count)]
    return [random_weight(rng) for _ in range(count)]


def _pinned_cores():
    for cls in ("unicyclic", "bicyclic"):
        for regime in ("random", "unit", "force"):
            for n in (6, 11, 24, 80):
                for seed in range(10):
                    yield two_core(generate(GenSpec(cls, n, seed, regime=regime)))
    rng = random.Random(7)
    for pattern in ("random", "unit", "two-values"):
        for p in range(3, 31):
            yield _shuffled(build_cycle(_pin_weights(rng, p, pattern)), rng)
        for p in range(3, 9):
            for q in range(3, 9):
                for l in range(1, 6):
                    ws = [_pin_weights(rng, k, pattern) for k in (p, q, l - 1)]
                    yield _shuffled(build_infinity(p, l, q, *ws), rng)
        for p in range(2, 9):
            for l in range(p, 9):
                for q in range(l, 9):
                    if (p, l) != (2, 2):
                        ws = [_pin_weights(rng, k - 1, pattern) for k in (p, l, q)]
                        yield _shuffled(build_theta(p, l, q, *ws), rng)


# SHA-256 of the descriptors of every core above, one repr per core.
DESCRIPTORS_SHA256 = "ebcc0a73c6d0d9df1869fbe007ad9549562678520c7ab38fb7696e439714d1af"


def test_descriptors_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for core in _pinned_cores():
        digest.update(repr(describe_base(core)).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (1095, DESCRIPTORS_SHA256)
