import random
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from graph_inertia import (
    GraphError,
    Inertia,
    WeightedGraph,
    inertia_oracle,
    max_matching_forest,
    parse_graph,
    reduce_to_core,
    solve,
)
from graph_inertia.reduction import ReductionRule
from graph_inertia.testgen import (
    GenSpec,
    build_cycle,
    build_infinity,
    build_theta,
    generate,
    sample_cycle_weights,
    sample_infinity_weights,
    sample_theta_weights,
)

from reference import contract_degree2_path, delete_pendant_pair, reduce_by_rescan
from test_acceptance import _long_type_ii_bases


def test_pendant_pair_on_p2():
    g = parse_graph("a b 5")
    g2, step = delete_pendant_pair(g, "a")
    assert g2.n == 0
    assert step.offset == (1, 1)
    assert step.removed == ("a", "b")
    # hence In(P2) = (1, 1, 0)
    assert inertia_oracle(g) == Inertia(1, 1, 0)


def test_pendant_pair_on_p4_endpoint():
    g = parse_graph("1 2 1\n2 3 2\n3 4 3")
    g2, _ = delete_pendant_pair(g, "1")
    assert g2.vertices == ("3", "4")
    assert inertia_oracle(g) == Inertia(2, 2, 0)


def test_pendant_pair_on_star_leaf():
    g = parse_graph("c 1 1\nc 2 1\nc 3 1")
    g2, step = delete_pendant_pair(g, "1")
    assert g2.m == 0 and g2.n == 2
    assert inertia_oracle(g) == Inertia(1, 1, 2)


def test_pendant_pair_rejects_non_pendant():
    g = parse_graph("1 2 1\n2 3 2")
    with pytest.raises(GraphError, match="not pendant"):
        delete_pendant_pair(g, "2")


def test_rewrite_messages_stay_short_for_a_huge_id():
    # A 10^5-character id is echoed cut to 40 characters.
    huge = "z" * 100_000
    g = parse_graph(f"a {huge} 1\n{huge} c 1\nc d 1\nd e 1\ne f 1\n{huge} x 1")
    with pytest.raises(GraphError, match=r"^vertex 'z{39}\.\.\. \(100002 characters\) is not pendant"):
        delete_pendant_pair(g, huge)
    with pytest.raises(GraphError, match=r"^interior vertex 'z{39}\.\.\. \(100002 characters\) has degree 3"):
        contract_degree2_path(g, ["a", huge, "c", "d", "e", "f"])


def test_contract_weight_formula():
    g = parse_graph("a b 1\nb c 2\nc d 3\nd e 4\ne f 5")
    g2, step = contract_degree2_path(g, ("a", "b", "c", "d", "e", "f"))
    assert step.added == (("a", "f", Fraction(15, 8)),)
    assert step.offset == (2, 2)
    assert g2.weight("a", "f") == Fraction(15, 8)
    assert step.removed == ("b", "c", "d", "e")


def test_contract_unit_weights():
    g = parse_graph("a b 1\nb c 1\nc d 1\nd e 1\ne f 1")
    g2, _ = contract_degree2_path(g, ("a", "b", "c", "d", "e", "f"))
    assert g2.weight("a", "f") == 1


def test_contract_c8_to_c4():
    c8 = build_cycle([Fraction(1)] * 8)
    path = tuple(f"v{i}" for i in range(6))
    g2, step = contract_degree2_path(c8, path)
    assert g2.n == 4 and g2.m == 4
    assert inertia_oracle(c8) == Inertia(3, 3, 2)
    assert inertia_oracle(g2) + Inertia(2, 2, 0) == inertia_oracle(c8)


def _contract_by_filtering(g, path):
    """The contraction as a filter of ``g`` plus the new edge, through the
    validating constructor."""
    ws = [g.weight(path[i], path[i + 1]) for i in range(5)]
    w = ws[0] * ws[2] * ws[4] / (ws[1] * ws[3])
    interior = set(path[1:5])
    vertices = tuple(v for v in g.vertices if v not in interior)
    edges = tuple(e for e in g.edges if e[0] not in interior and e[1] not in interior)
    return WeightedGraph(vertices, edges + ((path[0], path[5], w),))


@pytest.mark.parametrize("shape", ["long-cycle", "infinity", "theta"])
def test_contraction_builds_what_the_constructor_builds(shape):
    # The next run found, and so the reduce trace, depends on the neighbour
    # order of the contracted graph, not only on its edge set.
    rng = random.Random(29)
    g = {
        "long-cycle": build_cycle(sample_cycle_weights(44, rng, branch="eq")),
        "infinity": build_infinity(13, 10, 11, *sample_infinity_weights(13, 10, 11, rng)),
        "theta": build_theta(9, 10, 14, *sample_theta_weights(9, 10, 14, rng)),
    }[shape]
    _, trace = reduce_to_core(g)
    assert len(trace.steps) >= 5
    for step in trace.steps:
        assert step.rule is ReductionRule.PATH_CONTRACT
        ((u, v, _),) = step.added
        path = (u, *step.removed, v)
        got, _ = contract_degree2_path(g, path)
        want = _contract_by_filtering(g, path)
        assert got.vertices == want.vertices
        assert got.edges == want.edges
        for x in want.vertices:
            assert got.neighbors(x) == want.neighbors(x)
        g = got


def test_contract_refusals():
    c5 = build_cycle([Fraction(1)] * 5)
    with pytest.raises(GraphError, match="loop"):
        contract_degree2_path(c5, ("v0", "v1", "v2", "v3", "v4", "v0"))
    c6 = build_cycle([Fraction(1)] * 6)
    with pytest.raises(GraphError, match="parallel"):
        contract_degree2_path(c6, ("v0", "v1", "v2", "v3", "v4", "v5"))
    with pytest.raises(GraphError, match="contraction path must list six vertices"):
        contract_degree2_path(c6, ("v0", "v1", "v2", "v3", "v4"))
    branched = parse_graph("a b 1\nb c 1\nc d 1\nd e 1\ne f 1\nc x 1")
    with pytest.raises(GraphError, match="degree"):
        contract_degree2_path(branched, ("a", "b", "c", "d", "e", "f"))


def test_reduce_pm_tree_to_empty():
    # perfect-matching tree: a path on 6 vertices
    g = parse_graph("1 2 1\n2 3 2\n3 4 3\n4 5 4\n5 6 5")
    reduced, trace = reduce_to_core(g)
    assert reduced.n == 0
    assert trace.offset == (3, 3)


def test_reduce_tree_offset_is_matching_number():
    for seed in range(20):
        t = generate(GenSpec("tree", 3 + seed % 10, seed))
        q = max_matching_forest(t)
        reduced, trace = reduce_to_core(t)
        assert trace.offset == (q, q)
        assert reduced.m == 0
        assert reduced.n == t.n - 2 * q


def test_reduce_c12_to_c4():
    c12 = build_cycle([Fraction(1)] * 12)
    reduced, trace = reduce_to_core(c12)
    assert reduced.n == 4 and reduced.m == 4
    assert trace.offset == (4, 4)
    assert inertia_oracle(c12) == inertia_oracle(reduced) + Inertia(4, 4, 0)


def test_reduce_theta333_is_fixpoint():
    g = build_theta(3, 3, 3, [1, 2], [3, 4], [5, 6])
    reduced, trace = reduce_to_core(g)
    assert trace.steps == ()
    assert reduced == g


def test_reduce_is_deterministic():
    g = generate(GenSpec("bicyclic", 14, 23))
    r1, t1 = reduce_to_core(g)
    r2, t2 = reduce_to_core(g)
    assert r1 == r2 and t1 == t2


def _replay_and_check(g):
    """Re-apply each traced step, checking the oracle offset and the weight rule."""
    reduced, trace = reduce_to_core(g)
    cur = g
    for step in trace.steps:
        before = inertia_oracle(cur)
        if step.rule is ReductionRule.PENDANT_PAIR:
            v, u = step.removed
            assert cur.degree(v) == 1
            cur, _ = delete_pendant_pair(cur, v)
        else:
            (x0, x5, w), = step.added
            path = (x0, *step.removed, x5)
            ws = [cur.weight(path[i], path[i + 1]) for i in range(5)]
            assert w == ws[0] * ws[2] * ws[4] / (ws[1] * ws[3])
            cur, _ = contract_degree2_path(cur, path)
        after = inertia_oracle(cur)
        assert (before.pos - after.pos, before.neg - after.neg) == step.offset
    assert cur == reduced
    return trace


@pytest.mark.parametrize("seed", range(20))
def test_reduce_steps_match_oracle(seed):
    rng = random.Random(seed)
    cls = rng.choice(["tree", "unicyclic", "bicyclic"])
    g = generate(GenSpec(cls, rng.randint(6, 13), seed))
    _replay_and_check(g)


def _graph_state(g):
    """What a call could change in place: the vertices, the edges, the
    adjacency list with each position's neighbour dict in its order, and
    the vertex -> position map."""
    return (
        g.vertices,
        g.edges,
        [list(nbrs.items()) for nbrs in g._adj],
        list(g._index.items()),
    )


@pytest.mark.parametrize("family", ["tree", "forest", "unicyclic", "bicyclic", "long bases"])
def test_calls_leave_their_input_untouched(family):
    # reduce_to_core copies the graph's adjacency list, and solve walks
    # that same list: graphs are immutable and shared, so no call may write
    # to it or to the vertex -> position map.
    if family == "long bases":
        graphs = list(_long_type_ii_bases(random.Random(1009)).values())
    else:
        graphs = [
            generate(GenSpec(family, n, 7 * n + i, regime=regime))
            for i, regime in enumerate(("random", "unit", "force"))
            for n in (11, 80, 300)
        ]
    for g in graphs:
        before = _graph_state(g)
        for call in (reduce_to_core, solve, inertia_oracle):
            call(g)
            assert _graph_state(g) == before, call.__name__


def test_reduce_strictly_shrinks():
    g = generate(GenSpec("bicyclic", 16, 99))
    reduced, trace = reduce_to_core(g)
    n = g.n
    for step in trace.steps:
        assert len(step.removed) in (2, 4)
        n -= len(step.removed)
    assert n == reduced.n >= 0


def test_trace_serialization_format():
    g = parse_graph("a b 1\nb c 2")
    _, trace = reduce_to_core(g)
    line = trace.serialize().splitlines()[0]
    assert line.startswith("PendantPair removed=[")
    assert "offset=(+1,+1)" in line
    g2 = parse_graph("a b 1\nb c 2\nc d 3\nd e 4\ne f 5\nf g 6\ng a 7")  # C7
    _, trace2 = reduce_to_core(g2)
    assert "PathContract" in trace2.serialize()
    assert "added=[(" in trace2.serialize()


def _assert_same_as_rescan(g):
    """``reduce_to_core`` against the rescanning reference: the same trace,
    result vertices, edges and neighbour order.  Returns the trace."""
    reduced, trace = reduce_to_core(g)
    want, want_trace = reduce_by_rescan(g)
    assert trace.serialize() == want_trace.serialize()
    assert reduced.vertices == want.vertices
    assert reduced.edges == want.edges
    for v in want.vertices:
        assert reduced.neighbors(v) == want.neighbors(v)
    # The engine sweeps x1 once in stored order, so the rescan's runs must
    # start at ever later vertices.
    contractions = [s for s in trace.steps if s.rule is ReductionRule.PATH_CONTRACT]
    starts = [g.vertex_index(s.removed[0]) for s in contractions]
    assert starts == sorted(starts)
    return trace


@pytest.mark.parametrize("n", [6, 11, 24, 80, 300])
@pytest.mark.parametrize("regime", ["random", "unit", "force"])
@pytest.mark.parametrize("cls", ["tree", "forest", "unicyclic", "bicyclic"])
def test_reduce_matches_rescan_on_generated_graphs(cls, regime, n):
    for seed in range(2):
        _assert_same_as_rescan(generate(GenSpec(cls, n, 7 * n + seed, regime=regime)))


@pytest.mark.parametrize("name", ["long-cycle", "infinity", "theta"])
def test_reduce_matches_rescan_on_long_bases(name):
    trace = _assert_same_as_rescan(_long_type_ii_bases(random.Random(1009))[name])
    assert any(s.rule is ReductionRule.PATH_CONTRACT for s in trace.steps)


@st.composite
def subdivided_multigraphs(draw):
    """1-5 hubs joined by chains of 1-14 edges, loops and parallel chains
    included, as a simple graph with shuffled vertex and edge order and
    weights from two values."""
    hubs = draw(st.integers(1, 5))
    chains = draw(
        st.lists(
            st.tuples(st.integers(0, hubs - 1), st.integers(0, hubs - 1), st.integers(1, 14)),
            min_size=1,
            max_size=8,
        )
    )
    low, high = draw(st.sampled_from([(1, 2), (Fraction(1, 2), 3)]))
    vertices = [f"h{i}" for i in range(hubs)]
    edges = []
    direct = set()
    for a, b, length in chains:
        if a == b and length < 3:
            continue  # a loop or a parallel edge
        if length == 1:
            if frozenset((a, b)) in direct:
                continue
            direct.add(frozenset((a, b)))
        inner = [f"c{len(vertices) + i}" for i in range(length - 1)]
        vertices += inner
        path = [f"h{a}", *inner, f"h{b}"]
        for u, v in zip(path, path[1:]):
            if draw(st.booleans()):
                u, v = v, u
            edges.append((u, v, draw(st.sampled_from((low, high)))))
    return WeightedGraph(draw(st.permutations(vertices)), draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None)
@given(subdivided_multigraphs())
def test_reduce_matches_rescan_on_subdivided_multigraphs(g):
    _assert_same_as_rescan(g)


def _refusals(g, added):
    """How ``contract_degree2_path`` refuses the five-edge walks of ``g``
    that start at a degree-2 vertex and keep to degree-2 interiors: "loop",
    "parallel", and "parallel to an added edge" when the ends are joined by
    an edge in ``added``."""
    out = set()
    for x1 in g.vertices:
        if g.degree(x1) != 2:
            continue
        for x0, _ in g.neighbors(x1):
            walk = [x0, x1]
            while len(walk) < 6 and g.degree(walk[-1]) == 2:
                walk.append(next(x for x, _ in g.neighbors(walk[-1]) if x != walk[-2]))
            if len(walk) < 6:
                continue
            try:
                contract_degree2_path(g, walk)
            except GraphError as exc:
                if "loop" in str(exc):
                    out.add("loop")
                elif "parallel" in str(exc):
                    out.add("parallel")
                    if frozenset((walk[0], walk[5])) in added:
                        out.add("parallel to an added edge")
    return out


@pytest.mark.parametrize("event", ["loop", "parallel", "parallel to an added edge"])
def test_subdivided_multigraphs_reach_every_refusal(event):
    # At the fixed point every remaining walk was tried and refused.
    def reaches(g):
        reduced, trace = reduce_to_core(g)
        added = {frozenset(s.added[0][:2]) for s in trace.steps if s.added}
        return event in _refusals(reduced, added)

    find(
        subdivided_multigraphs(),
        reaches,
        settings=settings(
            max_examples=2000, database=None, derandomize=True, phases=[Phase.generate]
        ),
    )
