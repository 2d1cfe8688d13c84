import functools
import gc
import hashlib
import itertools
import random
import time
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_inertia import (
    GraphError,
    Inertia,
    WeightedGraph,
    forest_inertia,
    inertia_oracle,
    parse_graph,
    solve,
    solver,
    structure,
    two_core,
)
from graph_inertia import closed_forms
from graph_inertia.closed_forms import (
    cycle_inertia,
    infinity_inertia,
    reduce_infinity_shape,
    reduce_theta_shape,
    theta_inertia,
)
from graph_inertia.reduction import ReductionRule, ReductionStep, reduce_to_core
from graph_inertia.solver import Method
from graph_inertia.testgen import (
    GenSpec,
    build_cycle,
    build_infinity,
    build_theta,
    generate,
    infinity_branches,
    random_weight,
    sample_cycle_weights,
    sample_infinity_weights,
    sample_theta_weights,
    theta_branches,
)

from reference import is_mismatched, relabelled, rescaled, subdivided
from test_acceptance import _hang_two_vertex_paths, _long_type_ii_bases
from test_cli import _pinned_inputs
from test_structure import DESCRIPTORS_SHA256, _pinned_cores


def test_solve_empty_graph():
    assert solve(WeightedGraph([], [])).inertia == Inertia(0, 0, 0)


def test_solve_union_example():
    p3 = parse_graph("1 2 1\n2 3 1")
    c3 = build_cycle([Fraction(1)] * 3).relabel(lambda v: "c" + v)
    res = solve(p3.union(c3))
    assert res.inertia == Inertia(2, 3, 1)
    assert set(res.methods) == {Method.FOREST, Method.CYCLE_CLOSED_FORM}


def test_solve_vertex_count_identity():
    for seed in range(10):
        g = generate(GenSpec("bicyclic", 10, seed))
        i = solve(g).inertia
        assert i.pos + i.neg + i.zero == g.n


def test_unicyclic_bare_cycle_type():
    rng = random.Random(0)
    c5 = build_cycle([random_weight(rng) for _ in range(5)])
    res = solve(c5)
    assert res.inertia == Inertia(3, 2, 0)
    assert res.methods == (Method.CYCLE_CLOSED_FORM,)


def _bicyclic_cut_to_bare_cycle() -> WeightedGraph:
    """Triangles a-b-c and d-e-f joined by the edge c-d, with a pendant at
    c.  c is the one matched root; cutting it leaves the path a-b, which
    peels away, and the triangle d-e-f, which nothing was peeled into."""
    return WeightedGraph(
        ["a", "b", "c", "d", "e", "f", "leaf"],
        [
            ("a", "b", Fraction(2)),
            ("b", "c", Fraction(3)),
            ("c", "a", Fraction(1, 2)),
            ("c", "d", Fraction(5)),
            ("d", "e", Fraction(7)),
            ("e", "f", Fraction(2, 3)),
            ("f", "d", Fraction(4)),
            ("c", "leaf", Fraction(3, 5)),
        ],
    )


def test_solve_reads_a_cycle_in_walk_order(monkeypatch):
    # A cycle's inertia reads the same from any start in either direction,
    # so solve takes its weights in walk order; only describe_base reads
    # the least rotation.
    rng = random.Random(28)
    cases = {
        "bare-cycle": build_cycle(sample_cycle_weights(12, rng, branch="eq")),
        "long-cycle": _hang_two_vertex_paths(build_cycle(sample_cycle_weights(40, rng)), rng),
        "cut-to-bare-cycle": _bicyclic_cut_to_bare_cycle(),
    }
    expected = {name: solve(g) for name, g in cases.items()}

    def refuse(*args):
        raise AssertionError("solve read a cycle's least rotation")

    # Every descriptor build looks BaseDescriptor up in structure's own
    # globals, so refusing it there also catches a solver that imports
    # describe_base under its own name.
    for name in ("_least_cycle_reading", "_least_rotation", "BaseDescriptor"):
        monkeypatch.setattr(structure, name, refuse)
    for name, g in cases.items():
        res = solve(g)
        assert res == expected[name] and res.inertia == inertia_oracle(g), name
    assert expected["bare-cycle"].methods == (Method.CYCLE_CLOSED_FORM,)
    assert expected["bare-cycle"].inertia == Inertia(5, 5, 2)
    assert expected["long-cycle"].methods == (Method.UNICYCLIC_TYPE_II,)
    assert expected["cut-to-bare-cycle"].methods == (
        Method.BICYCLIC_TYPE_I,
        Method.FOREST,
        Method.CYCLE_CLOSED_FORM,
    )
    with pytest.raises(AssertionError, match="least rotation"):
        structure.describe_base(two_core(cases["long-cycle"]))
    monkeypatch.undo()
    # describe_base still reads the least rotation over both directions.
    ws = [Fraction(k) for k in (3, 1, 2, 1, 2, 5)]
    readings = [tuple(ws[k:] + ws[:k]) for k in range(6)]
    readings += [r[::-1] for r in readings]
    for k in range(6):
        assert structure.describe_base(build_cycle(ws[k:] + ws[:k])).a == min(readings)
    _check_pinned_descriptors()


def _check_pinned_descriptors() -> None:
    digest = hashlib.sha256()
    count = 0
    for core in _pinned_cores():
        digest.update(repr(structure.describe_base(core)).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (1095, DESCRIPTORS_SHA256)


def _shuffled(g: WeightedGraph, rng: random.Random) -> WeightedGraph:
    """``g`` with its vertices in a random order, so the walk starts at
    either hub and meets the loops in either order."""
    return WeightedGraph(rng.sample(g.vertices, g.n), g.edges)


def _double_cycle_walk_cases() -> dict[str, WeightedGraph]:
    rng = random.Random(29)
    cases = {}
    infinities = [(3, 1, 3), (3, 2, 4), (4, 3, 5), (6, 1, 3), (5, 4, 3), (9, 6, 7), (4, 2, 4)]
    thetas = [(2, 3, 4), (3, 4, 5), (4, 4, 4), (2, 3, 5), (6, 7, 9)]
    for shape in infinities:
        g = build_infinity(*shape, *sample_infinity_weights(*shape, rng))
        cases[f"infinity{shape}"] = g
        cases[f"infinity{shape} shuffled"] = _shuffled(g, rng)
    for shape in thetas:
        g = build_theta(*shape, *sample_theta_weights(*shape, rng))
        cases[f"theta{shape}"] = g
        cases[f"theta{shape} shuffled"] = _shuffled(g, rng)
    # Conditions that read the link's direction, at equality.
    for shape in [(3, 3, 5), (3, 5, 5), (3, 2, 3)]:
        g = build_infinity(*shape, *sample_infinity_weights(*shape, rng, branch="eq"))
        cases[f"infinity{shape} eq"] = g
        cases[f"infinity{shape} eq shuffled"] = _shuffled(g, rng)
    # Twin paths with equal products, and the (2, ., 6) weight addition.
    for shape, branch in [
        ((3, 3, 5), "eq"), ((3, 3, 7), "eq"), ((3, 3, 3), "eq:ceq"), ((5, 5, 5), "eq:ceq"),
        ((5, 5, 5), "eq:cneq"), ((2, 4, 6), "ceq"), ((2, 4, 6), "cneq"),
    ]:
        ws = sample_theta_weights(*shape, rng, branch=branch)
        cases[f"theta{shape} {branch}"] = _shuffled(build_theta(*shape, *ws), rng)
    for name, g in _long_type_ii_bases(rng).items():
        cases[f"long {name}"] = g
    # Hanging trees: cut out whole, or cut at a matched root first.
    base = build_theta(4, 5, 7, *sample_theta_weights(4, 5, 7, rng))
    cases["theta with hanging paths"] = _hang_two_vertex_paths(base, rng)
    for seed in range(6):
        cases[f"bicyclic {seed}"] = generate(GenSpec("bicyclic", 30, 2900 + seed))
    return cases


def test_solve_reads_a_double_cycle_base_in_walk_order(monkeypatch):
    # An infinity or theta base's inertia depends only on its shape and its
    # paths' alternating products, so solve reads its threads in walk order
    # and calls the closed forms' unchecked cores: it builds no canonical
    # descriptor and does not check again the weights the graph checked.
    cases = _double_cycle_walk_cases()
    expected = {name: solve(g) for name, g in cases.items()}

    def refuse(*args):
        raise AssertionError("solve read a canonical descriptor or checked weights")

    monkeypatch.setattr(structure, "describe_base", refuse)
    monkeypatch.setattr(structure, "BaseDescriptor", refuse)
    monkeypatch.setattr(closed_forms, "_check_weights", refuse)
    for name, g in cases.items():
        res = solve(g)
        assert res == expected[name] and res.inertia == inertia_oracle(g), name
    for name in cases:
        if name.startswith(("infinity", "theta(")):
            assert expected[name].methods == (Method.BICYCLIC_TYPE_II,), name
    assert expected["long theta"].methods == (Method.BICYCLIC_TYPE_II,)
    assert Method.BICYCLIC_TYPE_I in {m for r in expected.values() for m in r.methods}
    with pytest.raises(AssertionError, match="canonical descriptor"):
        structure.describe_base(two_core(cases["theta(2, 3, 4)"]))
    with pytest.raises(AssertionError, match="checked weights"):
        theta_inertia(2, 3, 4, [1], [1, 2], [1, 2, 3])
    monkeypatch.undo()
    _check_pinned_descriptors()


def test_walk_starts_every_thread_at_the_first_hub_it_ends_at():
    # _bare_base_pn reads an infinity's link as walked, from the first
    # loop's hub, and a theta's three links as walked: the walk takes every
    # edge of the first hub before any other hub, whatever the vertex and
    # edge order.
    rng = random.Random(31)
    sizes = range(3, 8)
    for p, l, q in itertools.product(sizes, range(2, 7), sizes):
        g = build_infinity(p, l, q, [1] * p, [1] * q, [1] * (l - 1))
        g = WeightedGraph(rng.sample(g.vertices, g.n), rng.sample(g.edges, g.m))
        live = list(map(len, g._adj))
        hubs = [v for v, d in enumerate(live) if d > 2]
        threads = structure._walk_threads(g, live, hubs)
        loops = [t for t in threads if t[0] == t[1]]
        (link,) = [t for t in threads if t[0] != t[1]]
        assert link[0] == loops[0][0] == hubs[0], (p, l, q)
    for shape in itertools.combinations_with_replacement(range(2, 7), 3):
        if shape.count(2) > 1:
            continue
        g = build_theta(*shape, *([1] * (k - 1) for k in shape))
        g = WeightedGraph(rng.sample(g.vertices, g.n), rng.sample(g.edges, g.m))
        live = list(map(len, g._adj))
        hubs = [v for v, d in enumerate(live) if d > 2]
        assert [t[0] for t in structure._walk_threads(g, live, hubs)] == [hubs[0]] * 3, shape
    # The public closed forms still refuse what a graph would.
    for call in [
        lambda: cycle_inertia([1, 0, 1]),
        lambda: infinity_inertia(3, 1, 3, [1, 2, -1], [1, 1, 1], []),
        lambda: theta_inertia(2, 3, 4, [1], [1, Fraction(-1, 2)], [1, 2, 3]),
        lambda: reduce_infinity_shape(3, 2, 3, [1, 1, 1], [1, 1, 1], [1.5]),
        lambda: reduce_theta_shape(2, 3, 6, [1], [1, True], [1] * 5),
    ]:
        with pytest.raises(GraphError, match="above zero"):
            call()


def _rescale_cases() -> dict[str, WeightedGraph]:
    """Generated unicyclic and bicyclic graphs in every regime, and every
    bare infinity with p, q in 3-7 and l in 2-6 and every bare theta with
    paths of 1-6 edges, in each forced branch, in shuffled vertex order."""
    rng = random.Random(32)
    cases = {}
    for cls, regime in itertools.product(("unicyclic", "bicyclic"), ("random", "unit", "force")):
        for seed in range(3200, 3212):
            n = rng.randint(4, 60)
            cases[f"{cls} {regime} n={n} seed {seed}"] = generate(GenSpec(cls, n, seed, regime))
    sizes = range(3, 8)
    for shape in itertools.product(sizes, range(2, 7), sizes):
        for branch in infinity_branches(*shape) or (None,):
            g = build_infinity(*shape, *sample_infinity_weights(*shape, rng, branch=branch))
            cases[f"infinity{shape} {branch}"] = _shuffled(g, rng)
    for shape in itertools.combinations_with_replacement(range(2, 8), 3):
        if shape.count(2) > 1:
            continue
        for branch in theta_branches(*shape) or (None,):
            g = build_theta(*shape, *sample_theta_weights(*shape, rng, branch=branch))
            cases[f"theta{shape} {branch}"] = _shuffled(g, rng)
    return cases


def test_solve_keeps_its_result_under_congruent_rescaling():
    # D A D is congruent to A for a positive diagonal D, so multiplying each
    # weight w(u, v) by d_u * d_v keeps the inertia.  Every closed-form
    # condition must read the same on the rescaled weights, whichever
    # branch the weights force and whichever way the walk reads the paths.
    rng = random.Random(33)
    for name, g in _rescale_cases().items():
        expected = solve(g)
        assert expected.inertia == inertia_oracle(g), name
        for _ in range(4):
            h = rescaled(g, rng)
            assert solve(h) == expected and inertia_oracle(h) == expected.inertia, name


def test_solve_keeps_its_result_under_rescaling_at_scale():
    # Too large for the oracle in tier-1: solve checks itself.
    g = generate(GenSpec("bicyclic", 10**5, 34, "force"))
    assert solve(rescaled(g, random.Random(34))) == solve(g)


def test_solve_keeps_its_inertia_under_relabelling_and_gains_a_fold_under_subdivision():
    # Renaming and reordering the vertices permutes the matrix, which keeps
    # the inertia.  A five-edge path whose alternating product is the edge
    # weight contracts back to the edge with offset (2, 2, 0); when the edge
    # lies on a cycle, the subdivided base takes one fold more.
    rng = random.Random(35)
    for name, g in _rescale_cases().items():
        expected = inertia_oracle(g)
        h = relabelled(g, rng)
        assert solve(h).inertia == expected == inertia_oracle(h), name
        s = subdivided(g, rng)
        assert solve(s).inertia == expected + Inertia(2, 2, 0) == inertia_oracle(s), name


def test_relabelling_and_subdivision_at_scale():
    # Too large for the oracle in tier-1: the two relations check solve.  A
    # generated graph's random edge is almost surely off its 2-core, so a
    # bare infinity base is checked too: there the new path lands on a
    # loop or the link and takes one fold more.
    rng = random.Random(36)
    shape = (33335, 33336, 33337)
    bare = build_infinity(*shape, *sample_infinity_weights(*shape, rng))
    for g in (generate(GenSpec("bicyclic", 10**5, 34, "force")), bare):
        expected = solve(g).inertia
        assert solve(relabelled(g, rng)).inertia == expected
        assert solve(subdivided(g, rng)).inertia == expected + Inertia(2, 2, 0)


def test_unicyclic_type_i_example():
    # triangle with one pendant: matched root splits into two 2-vertex paths
    g = parse_graph("1 2 2\n2 3 1/2\n3 1 5\n1 4 3")
    res = solve(g)
    assert res.inertia == Inertia(2, 2, 0)
    assert res.methods == (Method.UNICYCLIC_TYPE_I,)
    assert res.inertia == inertia_oracle(g)


def test_unicyclic_type_ii_example():
    # C4 with a 2-path hung off one vertex: every hanging tree root mismatched
    g = parse_graph("1 2 1\n2 3 1\n3 4 1\n4 1 1\n1 5 1\n5 6 1\n6 7 1")
    # hanging tree at 1 is a path with root at its end and even edge count
    res = solve(g)
    assert res.methods[0] in (Method.UNICYCLIC_TYPE_I, Method.UNICYCLIC_TYPE_II)
    assert res.inertia == inertia_oracle(g)


def test_bicyclic_bare_infinity():
    rng = random.Random(1)
    a, b, c = sample_infinity_weights(3, 1, 3, rng)
    res = solve(build_infinity(3, 1, 3, a, b, c))
    assert res.inertia == Inertia(2, 3, 0)
    assert res.methods == (Method.BICYCLIC_TYPE_II,)


def test_bicyclic_pendant_at_hub_goes_type_i():
    rng = random.Random(2)
    a, b, c = sample_theta_weights(2, 3, 5, rng)
    base = build_theta(2, 3, 5, a, b, c)
    g = WeightedGraph(tuple(base.vertices) + ("x",), tuple(base.edges) + (("u", "x", Fraction(2)),))
    res = solve(g)
    assert res.methods[0] is Method.BICYCLIC_TYPE_I
    assert res.inertia == inertia_oracle(g)
    # the split part is the 2-vertex tree at the hub
    assert res.inertia == Inertia(1, 1, 0) + solve(g.without(["u", "x"])).inertia


def test_bicyclic_type_i_rest_appends_in_order():
    # The pendant on connector vertex w1 is a matched hanging tree; splitting
    # it off leaves two triangles, whose ComponentSplit and closed forms
    # follow the type-I step.
    rng = random.Random(3)
    a, b, c = sample_infinity_weights(3, 3, 3, rng)
    base = build_infinity(3, 3, 3, a, b, c)
    g = WeightedGraph(tuple(base.vertices) + ("x",), tuple(base.edges) + (("w1", "x", Fraction(2)),))
    res = solve(g)
    assert res.methods == (Method.BICYCLIC_TYPE_I, Method.CYCLE_CLOSED_FORM, Method.CYCLE_CLOSED_FORM)
    steps = res.trace.steps
    assert [s.rule for s in steps] == [ReductionRule.TYPE_I_DECOMPOSE, ReductionRule.COMPONENT_SPLIT]
    assert steps[0].removed == ("w1", "x")
    assert res.inertia == inertia_oracle(g) == Inertia(3, 5, 0)


@pytest.mark.parametrize("seed", range(40))
def test_master_equivalence_sampled(seed):
    rng = random.Random(seed)
    cls = rng.choice(["tree", "forest", "unicyclic", "bicyclic"])
    lo = {"tree": 1, "forest": 1, "unicyclic": 3, "bicyclic": 5}[cls]
    regime = rng.choice(["random", "unit"] + (["force"] if cls in ("unicyclic", "bicyclic") else []))
    g = generate(GenSpec(cls, rng.randint(lo, 14), seed, regime=regime))
    assert solve(g).inertia == inertia_oracle(g)


def test_type_i_choice_invariance():
    # several matched roots: result must not depend on which one is split off
    rng = random.Random(9)
    for seed in range(15):
        g = generate(GenSpec("unicyclic", 12, seed))
        from graph_inertia import hanging_trees, two_core

        core = two_core(g)
        trees = [t for t in hanging_trees(g, core) if t.matched_at_root]
        if len(trees) < 2:
            continue
        expected = solve(g).inertia
        for t in trees:
            part = forest_inertia(t.tree) + forest_inertia(g.without(t.tree.vertices))
            assert part == expected


def test_solve_unsupported_uses_oracle_fallback():
    k4 = WeightedGraph(
        ["1", "2", "3", "4"],
        [("1", "2", 1), ("1", "3", 1), ("1", "4", 1), ("2", "3", 1), ("2", "4", 1), ("3", "4", 1)],
    )
    res = solve(k4)
    assert res.methods == (Method.ORACLE_FALLBACK,)
    assert res.inertia == inertia_oracle(k4)


def _complete(ids, weight=1):
    return WeightedGraph(ids, [(u, v, weight) for u, v in itertools.combinations(ids, 2)])


def test_dense_component_cuts_a_matched_root():
    # The leaf matches k1, which is cut with it; the triangle left is a
    # bare cycle.
    k4 = _complete(["k1", "k2", "k3", "k4"])
    g = WeightedGraph(k4.vertices + ("leaf",), k4.edges + (("k1", "leaf", 3),))
    res = solve(g)
    assert res.methods == (Method.CYCLE_CLOSED_FORM,)
    assert res.trace.steps == (
        ReductionStep(ReductionRule.TYPE_I_DECOMPOSE, removed=("k1", "leaf"), offset=(1, 1)),
    )
    assert res.inertia == inertia_oracle(g)


def test_dense_core_alone_goes_to_the_oracle():
    # A hanging two-vertex path leaves k1 mismatched: the bare K4 is cut out.
    k4 = _complete(["k1", "k2", "k3", "k4"])
    g = WeightedGraph(k4.vertices + ("x", "y"), k4.edges + (("k1", "x", 2), ("x", "y", 5)))
    res = solve(g)
    assert res.methods == (Method.ORACLE_FALLBACK,)
    cut = ReductionStep(ReductionRule.TYPE_II_CUT, removed=k4.vertices, offset=inertia_oracle(k4).pn)
    assert res.trace.steps == (cut,)
    assert res.inertia == inertia_oracle(g) == inertia_oracle(k4) + Inertia(1, 1, 0)


def test_dense_component_cuts_its_roots_before_it_splits(monkeypatch):
    # A 200-cycle whose vertex i is also joined to vertex i + 7, every
    # vertex with a leaf: every core vertex is a matched root.  All are cut (those the cuts do
    # not peel first) before one split of what is left, so the components
    # are walked twice, not once per cut.
    rng = random.Random(7)
    n = 200
    core = [(f"c{i}", f"c{(i + d) % n}", random_weight(rng)) for i in range(n) for d in (1, 7)]
    leaves = [(f"c{i}", f"l{i}", random_weight(rng)) for i in range(n)]
    g = WeightedGraph([f"{c}{i}" for c in "cl" for i in range(n)], core + leaves)
    walks = []
    real_walk = solver._component_vertices

    def counting_walk(*args, **kwargs):
        walks.append(args)
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(solver, "_component_vertices", counting_walk)
    res = solve(g)
    assert len(walks) == 2
    assert res.inertia == inertia_oracle(g)
    assert Method.ORACLE_FALLBACK not in res.methods
    cuts = [s for s in res.trace.steps if s.rule is ReductionRule.TYPE_I_DECOMPOSE]
    assert len(cuts) > n // 2


def _hub_chain(levels: int) -> WeightedGraph:
    """A chain of ``levels`` hubs, each with two K4 blocks joined to it by
    one edge each; hub i + 1 hangs off hub i by two two-edge paths, and hub
    0 has a leaf.  Only hub 0 is matched at first, and each cut peels the
    two paths into the next hub, which matches it."""
    rng = random.Random(22)
    vertices, edges = ["leaf"], [("h0", "leaf", random_weight(rng))]
    for i in range(levels):
        hub = f"h{i}"
        vertices.append(hub)
        for b in "ab":
            k4 = _complete([f"{hub}{b}{j}" for j in range(4)], random_weight(rng))
            vertices += k4.vertices
            edges += [*k4.edges, (hub, k4.vertices[0], random_weight(rng))]
        if i + 1 < levels:
            for u in (f"{hub}u", f"{hub}w"):
                vertices.append(u)
                edges += [(hub, u, random_weight(rng)), (u, f"h{i + 1}", random_weight(rng))]
    return WeightedGraph(vertices, edges)


def test_dense_component_splits_once_however_deeply_its_roots_nest():
    # All 1000 hubs are cut in one batch and the component splits once,
    # into the 2000 K4s.
    levels = 1000
    g = _hub_chain(levels)
    assert g.n == 10999
    start = time.perf_counter()
    res = solve(g)
    elapsed = time.perf_counter() - start
    assert res.inertia == inertia_oracle(g)
    rules = [s.rule for s in res.trace.steps]
    assert rules.count(ReductionRule.TYPE_I_DECOMPOSE) == levels
    assert rules.count(ReductionRule.COMPONENT_SPLIT) == 1
    assert elapsed < 1.0, f"solve took {elapsed:.2f}s"


def _dense_component(rng, tag):
    """A connected graph on 4-9 vertices with cyclomatic number 3-8 (a
    random spanning tree plus random edges), with up to 25 vertices hung
    off it at random, in shuffled vertex order."""
    k = rng.randint(4, 9)
    m = k - 1 + rng.randint(3, min(8, (k - 1) * (k - 2) // 2))
    ids = [f"{tag}{i}" for i in range(k)]
    pairs = {(rng.randrange(i), i) for i in range(1, k)}
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.sample(range(k), 2))))
    edges = [(ids[u], ids[v], random_weight(rng)) for u, v in sorted(pairs)]
    for j in range(rng.randint(0, 25)):
        edges.append((rng.choice(ids), f"{tag}h{j}", random_weight(rng)))
        ids.append(f"{tag}h{j}")
    rng.shuffle(ids)
    return WeightedGraph(ids, edges)


def _bare_block(rng, kind):
    """A graph with no hanging tree and the method ``solve`` gives it."""
    if kind == "path":
        ids = [f"p{i}" for i in range(rng.randint(2, 5))]
        edges = [(u, v, random_weight(rng)) for u, v in zip(ids, ids[1:])]
        return WeightedGraph(ids, edges), Method.FOREST
    if kind == "cycle":
        return build_cycle(sample_cycle_weights(rng.randint(3, 8), rng)), Method.CYCLE_CLOSED_FORM
    if kind == "bicyclic":
        p, l, q = rng.randint(3, 5), rng.randint(1, 4), rng.randint(3, 5)
        weights = sample_infinity_weights(p, l, q, rng)
        return build_infinity(p, l, q, *weights), Method.BICYCLIC_TYPE_II
    k = _complete([f"k{i}" for i in range(rng.randint(4, 5))], random_weight(rng))
    return k, Method.ORACLE_FALLBACK


def _blocks_around(rng, hub, tag):
    """2-4 bare blocks, the first of them cyclic, each joined to ``hub`` by
    two edges, so that with the hub they are denser than bicyclic: their
    vertices, their edges and, per block, its vertices and the method
    ``solve`` gives it."""
    kinds = [rng.choice(["cycle", "bicyclic", "dense"])]
    kinds += [rng.choice(["path", "cycle", "bicyclic", "dense"]) for _ in range(rng.randint(1, 3))]
    vertices, edges, blocks = [], [], []
    for i, kind in enumerate(kinds):
        block, method = _bare_block(rng, kind)
        if kind == "path":
            # Joined at both ends, so that none of it hangs.
            ends = (block.vertices[0], block.vertices[-1])
        else:
            ends = rng.sample(block.vertices, 2)
        block = block.relabel(lambda v, i=i: f"{tag}{i}.{v}")
        vertices += block.vertices
        edges += block.edges
        edges += [(hub, f"{tag}{i}.{v}", random_weight(rng)) for v in ends]
        blocks.append((block.vertices, method))
    return vertices, edges, blocks


def _hub_over_blocks(rng, nested):
    """A hub with a pendant leaf, its one matched root, amid bare blocks:
    cutting it leaves the blocks as pieces.  When ``nested``, one more piece
    is a second hub amid blocks of its own, joined to the first by two
    two-edge paths: the first cut peels both paths into the second hub,
    which matches it, so it is cut in the same batch.  Returns the
    graph and its pieces, each as its vertices and either its method or
    its own pieces."""
    vertices, edges, pieces = _blocks_around(rng, "hub", "b")
    vertices += ["hub", "leaf"]
    edges.append(("hub", "leaf", random_weight(rng)))
    if nested:
        inner, inner_edges, inner_pieces = _blocks_around(rng, "s.hub", "s.b")
        inner += ["s.hub", "s.u1", "s.u2"]
        for u in ("s.u1", "s.u2"):
            inner_edges += [("hub", u, random_weight(rng)), (u, "s.hub", random_weight(rng))]
        vertices += inner
        edges += inner_edges
        pieces.append((inner, inner_pieces))
    rng.shuffle(vertices)
    return WeightedGraph(vertices, edges), pieces


@settings(max_examples=150, deadline=None)
@hypothesis.seed(21)
@given(st.integers(0, 2**32 - 1))
def test_solve_equals_the_oracle_on_dense_components(seed):
    # Dense components with hanging forests, unioned with a tree,
    # unicyclic or bicyclic component, in one shuffled vertex order.
    rng = random.Random(seed)
    parts = [_dense_component(rng, f"d{i}.") for i in range(rng.randint(1, 3))]
    cls = rng.choice(["tree", "unicyclic", "bicyclic"])
    part = generate(GenSpec(cls, rng.randint(5, 12), rng.randrange(10**6)))
    parts.append(part.relabel("g".__add__))
    g = functools.reduce(WeightedGraph.union, parts)
    vertices = list(g.vertices)
    rng.shuffle(vertices)
    g = WeightedGraph(vertices, g.edges)
    assert solve(g).inertia == inertia_oracle(g)
    # A dense component cuts its one matched root, then the nested hub that
    # cut matches, and splits once: its pieces are every bare block, nested
    # ones included, solved in the order of their first vertices.
    nested = rng.random() < 0.5
    g, pieces = _hub_over_blocks(rng, nested)
    assert g.m - g.n >= 2
    res = solve(g)
    assert res.inertia == inertia_oracle(g)
    first = {v: i for i, v in enumerate(g.vertices)}

    def blocks(pieces):
        for vertices, tag in pieces:
            yield from blocks(tag) if isinstance(tag, list) else [(vertices, tag)]

    flat = sorted(blocks(pieces), key=lambda block: min(map(first.__getitem__, block[0])))
    assert res.methods == tuple(tag for _, tag in flat)
    cuts = [("hub", "leaf")] + [("s.hub", "s.u1", "s.u2")] * nested
    split = ReductionStep(ReductionRule.COMPONENT_SPLIT)
    opening = [
        ReductionStep(
            ReductionRule.TYPE_I_DECOMPOSE,
            removed=tuple(sorted(cut, key=first.__getitem__)),
            offset=(1, 1),
        )
        for cut in cuts
    ]
    assert res.trace.steps[: len(cuts) + 1] == (*opening, split)
    assert res.trace.steps.count(split) == 1


def _generated_components(seed):
    """2-4 generated components with disjoint ids, K4 among them when
    ``seed`` is divisible by 5."""
    rng = random.Random(seed)
    parts = []
    for i in range(rng.randint(2, 4)):
        if i == 1 and seed % 5 == 0:
            part = parse_graph("1 2 1\n1 3 2\n1 4 3\n2 3 1/2\n2 4 5\n3 4 1")
        else:
            cls = rng.choice(["tree", "unicyclic", "bicyclic"])
            regime = rng.choice(["random", "unit", "force"])
            part = generate(GenSpec(cls, rng.randint(4, 16), rng.randrange(10**6), regime=regime))
        parts.append(part.relabel(lambda v, i=i: f"c{i}.{v}"))
    return parts


@pytest.mark.parametrize("seed", range(60))
def test_solve_on_disjoint_unions(seed):
    parts = _generated_components(seed)
    g = functools.reduce(WeightedGraph.union, parts)
    res = solve(g)
    assert res.inertia == inertia_oracle(g)
    # One split step, then each component's methods and steps in order.
    alone = [solve(part) for part in parts]
    assert res.methods == tuple(m for r in alone for m in r.methods)
    split = ReductionStep(ReductionRule.COMPONENT_SPLIT)
    assert res.trace.steps == (split, *(s for r in alone for s in r.trace.steps))
    # With the components' ids interleaved, a split inside one component
    # scans that component alone, and the components still come in the
    # order of their first vertices.
    vertices = list(g.vertices)
    random.Random(seed).shuffle(vertices)
    g = WeightedGraph(vertices, g.edges)
    first = {v: i for i, v in enumerate(vertices)}
    parts.sort(key=lambda part: min(map(first.__getitem__, part.vertices)))
    alone = [solve(g.induced(part.vertices)) for part in parts]
    res = solve(g)
    assert res.methods == tuple(m for r in alone for m in r.methods)
    assert res.trace.steps == (split, *(s for r in alone for s in r.trace.steps))


def test_solve_peels_once(monkeypatch):
    # A bicyclic type-I graph whose rest splits into a tree and a unicyclic
    # graph, one whose rest stays whole, and a union.
    cases = [generate(GenSpec("bicyclic", 14, 3)), generate(GenSpec("bicyclic", 14, 2))]
    cases.append(functools.reduce(WeightedGraph.union, _generated_components(10)))
    expected = [solve(g) for g in cases]
    assert [m.value for m in expected[0].methods] == ["BicyclicTypeI", "Forest", "UnicyclicTypeI"]
    assert [m.value for m in expected[1].methods] == ["BicyclicTypeI", "UnicyclicTypeI"]
    peels = []

    def counting_peel(g):
        peels.append(g.n)
        return real_peel(g)

    real_peel = structure._peel
    monkeypatch.setattr(structure, "_peel", counting_peel)
    monkeypatch.setattr(solver, "_peel", counting_peel)
    for g, want in zip(cases, expected):
        peels.clear()
        assert solve(g) == want
        assert peels == [g.n]


def test_solve_builds_no_graph_but_for_the_oracle(monkeypatch):
    # Type-II cores, bare or read after a continued peel, are read in place:
    # only a bare core denser than bicyclic is built, for the oracle, and
    # never the forest hanging off it.
    rng = random.Random(20)
    shapes = {"infinity": (9, 6, 11), "theta": (7, 8, 10)}
    weights = {
        "infinity": sample_infinity_weights(*shapes["infinity"], rng),
        "theta": sample_theta_weights(*shapes["theta"], rng),
    }
    assert reduce_infinity_shape(*shapes["infinity"], *weights["infinity"])[1] > 0
    assert reduce_theta_shape(*shapes["theta"], *weights["theta"])[1] > 0
    cases = {
        "long-cycle": _hang_two_vertex_paths(build_cycle(sample_cycle_weights(40, rng)), rng),
        "infinity": _hang_two_vertex_paths(
            build_infinity(*shapes["infinity"], *weights["infinity"]), rng
        ),
        "theta": _hang_two_vertex_paths(build_theta(*shapes["theta"], *weights["theta"]), rng),
        "type-i-then-ii": _bicyclic_cut_to_unicyclic_type_ii(),
    }
    cases["with-fallback"] = cases["theta"].union(_complete(["k1", "k2", "k3", "k4"]))
    # K5 with 200 two-edge paths hung off it: every root is mismatched, so
    # the core is cut out bare.
    k5 = _complete([f"k{i}" for i in range(5)], Fraction(3, 2))
    paths = [(f"k{i % 5}", f"x{i}", random_weight(rng)) for i in range(200)]
    paths += [(f"x{i}", f"y{i}", random_weight(rng)) for i in range(200)]
    hung = [f"{c}{i}" for i in range(200) for c in "xy"]
    cases["dense-forest"] = WeightedGraph(hung + list(k5.vertices), paths + list(k5.edges))
    expected = {name: (solve(g), inertia_oracle(g)) for name, g in cases.items()}
    built = []
    real_init, real_trusted = WeightedGraph.__init__, WeightedGraph._trusted

    def counting_init(self, vertices, *args, **kwargs):
        built.append("__init__")
        real_init(self, vertices, *args, **kwargs)

    def counting_trusted(cls, vertices, *args, **kwargs):
        built.append(("_trusted", len(vertices)))
        return real_trusted(vertices, *args, **kwargs)

    monkeypatch.setattr(WeightedGraph, "__init__", counting_init)
    monkeypatch.setattr(WeightedGraph, "_trusted", classmethod(counting_trusted))
    for name, g in cases.items():
        built.clear()
        res = solve(g)
        want, oracle = expected[name]
        assert res == want and res.inertia == oracle, name
        if name == "with-fallback":
            assert res.methods == (Method.BICYCLIC_TYPE_II, Method.ORACLE_FALLBACK)
            assert built == [("_trusted", 4)]
        elif name == "dense-forest":
            assert res.methods == (Method.ORACLE_FALLBACK,)
            assert built == [("_trusted", 5)]
        else:
            assert Method.ORACLE_FALLBACK not in res.methods, name
            assert built == [], name


def test_solve_the_oracle_and_the_rewrites_never_read_edges(monkeypatch):
    # ``edges`` builds a tuple per edge on every read; the package reads the
    # edge columns instead.
    rng = random.Random(24)
    graphs = [_hub_chain(100), *_long_type_ii_bases(rng).values()]
    graphs += [
        generate(GenSpec(cls, n, seed, regime=regime))
        for cls in ("tree", "forest", "unicyclic", "bicyclic")
        for regime in ("random", "unit", "force")
        for seed, n in enumerate((7, 60, 400))
    ]
    reads = []
    real = WeightedGraph.edges.fget
    monkeypatch.setattr(WeightedGraph, "edges", property(lambda g: reads.append(g.n) or real(g)))
    for g in graphs:
        assert solve(g).inertia == inertia_oracle(g)
        reduce_to_core(g)
    assert reads == []


def _bicyclic_cut_to_unicyclic_type_ii() -> WeightedGraph:
    """A 4-cycle h-x-y-z and a triangle h-u-w sharing h, with a pendant at x.
    x is the one matched root; cutting it leaves the triangle with the path
    z-y hanging off h, mismatched at h, and h keeps live degree 2 of its 4.
    The triangle comes first, so its walk passes through h."""
    return WeightedGraph(
        ["u", "w", "h", "x", "y", "z", "leaf"],
        [
            ("h", "x", Fraction(2)),
            ("x", "y", Fraction(3)),
            ("y", "z", Fraction(1, 2)),
            ("z", "h", Fraction(5)),
            ("h", "u", Fraction(7)),
            ("u", "w", Fraction(2, 3)),
            ("w", "h", Fraction(4)),
            ("x", "leaf", Fraction(3, 5)),
        ],
    )


def test_type_i_cut_can_leave_a_type_ii_piece():
    g = _bicyclic_cut_to_unicyclic_type_ii()
    res = solve(g)
    assert res.methods == (Method.BICYCLIC_TYPE_I, Method.UNICYCLIC_TYPE_II)
    cut, cored = res.trace.steps
    assert cut.rule is ReductionRule.TYPE_I_DECOMPOSE and cut.removed == ("x", "leaf")
    assert cored.rule is ReductionRule.TYPE_II_CUT
    assert cored.removed == two_core(g.without(cut.removed)).vertices == ("u", "w", "h")
    assert res.inertia == inertia_oracle(g)


def test_solve_leaves_no_reference_cycle():
    # With the collector off, anything solve leaves for it to free would show
    # up in the next collect: the peel's state must go when solve returns.
    k4 = WeightedGraph(
        ["1", "2", "3", "4"],
        [("1", "2", 1), ("1", "3", 1), ("1", "4", 1), ("2", "3", 1), ("2", "4", 1), ("3", "4", 1)],
    )
    cases = {
        (Method.FOREST,): generate(GenSpec("tree", 20, 1)),
        (Method.UNICYCLIC_TYPE_I,): parse_graph("1 2 2\n2 3 1/2\n3 1 5\n1 4 3"),
        (Method.UNICYCLIC_TYPE_II,): parse_graph("1 2 1\n2 3 1\n3 4 1\n4 1 1\n1 5 1\n5 6 1"),
        (Method.BICYCLIC_TYPE_II,): _hang_two_vertex_paths(
            build_theta(2, 3, 5, *sample_theta_weights(2, 3, 5, random.Random(5))),
            random.Random(5),
        ),
        (Method.BICYCLIC_TYPE_I, Method.FOREST, Method.UNICYCLIC_TYPE_I): generate(
            GenSpec("bicyclic", 14, 3)
        ),
        (Method.CYCLE_CLOSED_FORM,): build_cycle([Fraction(1), Fraction(2), Fraction(3)]),
        (Method.FOREST, Method.CYCLE_CLOSED_FORM): parse_graph("1 2 1\n2 3 1").union(
            build_cycle([Fraction(1)] * 3).relabel(lambda v: "c" + v)
        ),
        (Method.ORACLE_FALLBACK,): k4,
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for methods, g in cases.items():
            assert solve(g).methods == methods
            assert gc.collect() == 0, methods
    finally:
        if enabled:
            gc.enable()


def _bare_base_shapes():
    """Every infinity and theta shape up to one fold past the largest shape
    that ``reduce_infinity_shape``/``reduce_theta_shape`` leave unfolded
    (infinity p, q = 6 and l = 5; theta slot 6).  A larger shape folds onto
    the same representative as the shape here whose sizes agree with it
    mod 4, so the sweep reaches every representative."""
    for p, q in itertools.product(range(3, 11), repeat=2):
        for l in range(1, 10):
            yield "infinity", (p, l, q)
    for sizes in itertools.combinations_with_replacement(range(2, 11), 3):
        if sizes.count(2) <= 1:
            yield "theta", sizes


def test_type_ii_bases_never_need_the_oracle():
    """A bare base has no hanging tree, so ``solve`` cuts it out whole; every
    shape must have a closed form, with no oracle fallback."""
    rng = random.Random(77)
    for kind, (p, l, q) in _bare_base_shapes():
        if kind == "infinity":
            a, b, c = sample_infinity_weights(p, l, q, rng)
            (p0, l0, q0, *_), _ = reduce_infinity_shape(p, l, q, a, b, c)
            assert max(p0, q0) <= 6 and l0 <= 5
            g = build_infinity(p, l, q, a, b, c)
        else:
            a, b, c = sample_theta_weights(p, l, q, rng)
            slots, _ = reduce_theta_shape(p, l, q, a, b, c)
            assert max(size for size, _ in slots) <= 6
            g = build_theta(p, l, q, a, b, c)
        res = solve(g)
        assert res.methods == (Method.BICYCLIC_TYPE_II,), (kind, p, l, q)
        assert res.inertia == inertia_oracle(g), (kind, p, l, q)


def test_solve_trace_offsets_account_for_everything():
    g = generate(GenSpec("bicyclic", 13, 31))
    res = solve(g)
    # every trace step's offset is part of the final (pos, neg)
    off = res.trace.offset
    assert off[0] <= res.inertia.pos and off[1] <= res.inertia.neg


# ---------------------------------------------------------------- joining


def _join(t, u, rest, k, rng):
    targets = rng.sample(list(rest.vertices), k)
    edges = list(t.edges) + list(rest.edges) + [(u, x, random_weight(rng)) for x in targets]
    return WeightedGraph(tuple(t.vertices) + tuple(rest.vertices), edges)


def test_joining_decompose_examples():
    rng = random.Random(4)
    p2 = parse_graph("u w 3")
    c3 = build_cycle([Fraction(1), Fraction(2), Fraction(3)]).relabel(lambda v: "r" + v)
    assert not is_mismatched(p2, "u")
    joined = _join(p2, "u", c3, 1, rng)
    assert inertia_oracle(joined) == forest_inertia(p2) + inertia_oracle(c3)

    assert is_mismatched(WeightedGraph(["u"], []), "u")


@pytest.mark.parametrize("seed", range(30))
def test_joining_identities_against_oracle(seed):
    # Joined at a matched u: tree + rest.  At a mismatched u:
    # tree + (rest plus u with its joining edges).
    rng = random.Random(seed)
    t = generate(GenSpec("tree", rng.randint(1, 8), seed)).relabel(lambda v: "T" + v)
    rest = generate(
        GenSpec(rng.choice(["tree", "unicyclic", "bicyclic"]), rng.randint(5, 8), seed + 77)
    ).relabel(lambda v: "R" + v)
    u = rng.choice(list(t.vertices))
    k = rng.randint(1, rest.n)
    joined = _join(t, u, rest, k, rng)
    whole = inertia_oracle(joined)
    if is_mismatched(t, u):
        part = inertia_oracle(joined.induced(tuple(rest.vertices) + (u,)))
    else:
        part = inertia_oracle(rest)
    tree = forest_inertia(t)
    assert whole.pn == (tree.pos + part.pos, tree.neg + part.neg)


# SHA-256 of ``_solve_transcript()``.  Traces are otherwise checked only by
# their offsets, so this pin is what holds the type-I choice and the removed
# vertex sets of every pinned input fixed.
SOLVE_TRANSCRIPT_SHA256 = "52655714266964bfc03343bd3dc013898f240c0f65e8f5348969daa715543ac3"


def _solve_transcript():
    """Methods, serialized trace and inertia of ``solve`` on every pinned CLI
    input that parses, in order."""
    parts = []
    for text in _pinned_inputs():
        try:
            g = parse_graph(text)
        except GraphError:
            continue
        r = solve(g)
        methods = ",".join(m.value for m in r.methods)
        parts.append(f"{methods}\n{r.trace.serialize()}\n{r.inertia.as_tuple()}\x00")
    return "".join(parts).encode("utf-8")


def test_solve_traces_are_pinned():
    assert hashlib.sha256(_solve_transcript()).hexdigest() == SOLVE_TRANSCRIPT_SHA256
