import functools
import gc
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

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
from graph_inertia.closed_forms import reduce_infinity_shape, reduce_theta_shape
from graph_inertia.reduction import ReductionRule, ReductionStep
from graph_inertia.solver import Method
from graph_inertia.testgen import (
    GenSpec,
    build_cycle,
    build_infinity,
    build_theta,
    generate,
    random_weight,
    sample_cycle_weights,
    sample_infinity_weights,
    sample_theta_weights,
)

from reference import is_mismatched
from test_acceptance import _hang_two_vertex_paths
from test_cli import _pinned_inputs


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
    # only a component denser than bicyclic is built, for the oracle.
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
    k4 = WeightedGraph(
        ["k1", "k2", "k3", "k4"],
        [(u, v, 1) for u, v in itertools.combinations(["k1", "k2", "k3", "k4"], 2)],
    )
    cases["with-fallback"] = cases["theta"].union(k4)
    expected = {name: (solve(g), inertia_oracle(g)) for name, g in cases.items()}
    built = []
    real_init, real_trusted = WeightedGraph.__init__, WeightedGraph._trusted

    def counting_init(self, *args, **kwargs):
        built.append("__init__")
        real_init(self, *args, **kwargs)

    def counting_trusted(cls, *args, **kwargs):
        built.append("_trusted")
        return real_trusted(*args, **kwargs)

    monkeypatch.setattr(WeightedGraph, "__init__", counting_init)
    monkeypatch.setattr(WeightedGraph, "_trusted", classmethod(counting_trusted))
    for name, g in cases.items():
        built.clear()
        res = solve(g)
        want, oracle = expected[name]
        assert res == want and res.inertia == oracle, name
        if name == "with-fallback":
            assert res.methods == (Method.BICYCLIC_TYPE_II, Method.ORACLE_FALLBACK)
            assert built == ["_trusted"]
        else:
            assert Method.ORACLE_FALLBACK not in res.methods, name
            assert built == [], name


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
