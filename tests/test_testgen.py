import hashlib
import random
import re
from fractions import Fraction

import pytest

from graph_inertia import GraphError, WeightedGraph, classify, inertia_oracle, solve
from graph_inertia.closed_forms import infinity_condition
from graph_inertia.graph import GraphClass, serialize_graph
from graph_inertia.structure import BaseKind, describe_base, two_core
from graph_inertia.testgen import (
    _REGIMES,
    GenSpec,
    build_cycle,
    build_infinity,
    build_theta,
    generate,
    infinity_branches,
    sample_cycle_weights,
    sample_infinity_weights,
    sample_theta_weights,
    theta_branches,
)

from reference import build_from_descriptor


def test_generate_is_deterministic():
    spec = GenSpec("bicyclic", 12, 424242, regime="force")
    assert generate(spec) == generate(spec)
    assert generate(spec) != generate(GenSpec("bicyclic", 12, 424243, regime="force"))


def test_generate_trivial_shapes():
    k1 = generate(GenSpec("tree", 1, 0))
    assert k1.n == 1 and k1.m == 0
    c3 = generate(GenSpec("unicyclic", 3, 5))
    assert c3.n == 3 and c3.m == 3


@pytest.mark.parametrize("cls,overall,lo", [
    ("tree", GraphClass.TREE, 2),
    ("unicyclic", GraphClass.UNICYCLIC, 3),
    ("bicyclic", GraphClass.BICYCLIC, 6),
])
@pytest.mark.parametrize("seed", range(12))
def test_generate_hits_requested_class_and_size(cls, overall, lo, seed):
    n = lo + seed
    g = generate(GenSpec(cls, n, seed))
    assert g.n == n
    assert classify(g).overall is overall


@pytest.mark.parametrize("seed", range(8))
def test_generate_forest(seed):
    g = generate(GenSpec("forest", 9, seed))
    assert g.n == 9
    assert classify(g).overall in (GraphClass.TREE, GraphClass.FOREST, GraphClass.EMPTY_EDGE_SET_FOREST)


def test_generate_unit_regime():
    g = generate(GenSpec("bicyclic", 9, 3, regime="unit"))
    assert all(w == 1 for _, _, w in g.edges)


@pytest.mark.parametrize("n,seed", [(4, 7), (5, 17575), (5, 17631), (5, 18854)])
@pytest.mark.parametrize("regime", ["random", "force"])
def test_bicyclic_falls_back_to_the_smallest_theta(n, seed, regime):
    # 200 draws find no base that fits here; theta(2,3,3) always does.
    g = generate(GenSpec("bicyclic", n, seed, regime=regime))
    assert g.n == n
    d = describe_base(two_core(g))
    assert (d.kind, d.p, d.l, d.q) == (BaseKind.THETA, 2, 3, 3)
    assert inertia_oracle(g) == solve(g).inertia


def test_generate_infeasible_spec():
    with pytest.raises(GraphError):
        generate(GenSpec("unicyclic", 2, 0))
    with pytest.raises(GraphError):
        generate(GenSpec("bicyclic", 3, 0))
    with pytest.raises(GraphError):
        generate(GenSpec("hypercube", 8, 0))
    for target in ("tree", "forest"):
        with pytest.raises(GraphError, match=f"a {target} needs at least one vertex"):
            generate(GenSpec(target, 0, 0))


def test_generate_refuses_an_unknown_regime():
    for target in ("tree", "forest", "unicyclic", "bicyclic"):
        with pytest.raises(GraphError, match="unknown generation regime 'bogus'"):
            generate(GenSpec(target, 6, 0, regime="bogus"))


@pytest.mark.parametrize("target", ["tree", "forest", "unicyclic", "bicyclic"])
def test_generated_graphs_pass_the_constructors_checks(target):
    # generate builds its graphs unchecked; the constructor rebuilds each the same.
    for regime in ("random", "unit", "force"):
        for seed in range(5):
            g = generate(GenSpec(target, 5 + 7 * seed, seed, regime=regime))
            built = WeightedGraph(g.vertices, g.edges)
            assert built == g and built.edges == g.edges
            assert all(built.neighbors(v) == g.neighbors(v) for v in g.vertices)


def test_samplers_refuse_a_branch_the_shape_lacks():
    rng = random.Random(0)
    with pytest.raises(GraphError, match=re.escape("infinity(3,1,3) has no weight-condition branches")):
        sample_infinity_weights(3, 1, 3, rng, branch="eq")
    with pytest.raises(GraphError, match=re.escape("theta(2, 3, 5) has no branch 'eq'")):
        sample_theta_weights(2, 3, 5, rng, branch="eq")


def test_cycle_weight_forcing():
    rng = random.Random(1)
    ws = sample_cycle_weights(8, rng, branch="eq")
    odd = even = Fraction(1)
    for i, w in enumerate(ws):
        if i % 2 == 0:
            odd *= w
        else:
            even *= w
    assert odd == even
    ws = sample_cycle_weights(8, rng, branch="neq")
    assert ws[0::2] != ws[1::2]
    with pytest.raises(GraphError):
        sample_cycle_weights(7, rng, branch="eq")


@pytest.mark.parametrize("shape", [(3, 2, 3), (3, 4, 3), (3, 1, 5), (3, 3, 5), (3, 5, 5), (5, 2, 5), (5, 4, 5)])
@pytest.mark.parametrize("branch", ["gt", "eq", "lt"])
def test_infinity_forcing_hits_requested_relation(shape, branch):
    p, l, q = shape
    rng = random.Random(p * l * q)
    for _ in range(5):
        a, b, c = sample_infinity_weights(p, l, q, rng, branch=branch)
        assert infinity_condition(p, l, q, a, b, c).relation == branch
        assert all(w > 0 for w in a + b + c)


def test_theta_forcing_produces_positive_weights():
    rng = random.Random(77)
    for shape in [(2, 3, 3), (3, 3, 3), (2, 4, 4), (4, 4, 5), (5, 5, 5), (2, 4, 6), (2, 3, 4), (2, 4, 5)]:
        for branch in theta_branches(*shape) or (None,):
            a, b, c = sample_theta_weights(*shape, rng, branch=branch)
            assert all(w > 0 for w in a + b + c)
            build_theta(*shape, a, b, c)  # shape-valid


def test_branch_catalogs():
    assert infinity_branches(3, 2, 3) == ("gt", "eq", "lt")
    assert infinity_branches(3, 3, 3) == ()
    assert infinity_branches(4, 2, 5) == ("eq", "neq")
    assert theta_branches(3, 3, 4) == ("eq", "neq")
    assert theta_branches(2, 3, 5) == ()
    assert theta_branches(3, 4, 5) == ()


def test_forced_bicyclic_generation_covers_branches():
    # over a seed range, forced bicyclic generation hits many distinct branches
    seen = set()
    for seed in range(60):
        g = generate(GenSpec("bicyclic", 10, seed, regime="force"))
        assert classify(g).overall is GraphClass.BICYCLIC
        seen.add(g.edges[:2])
    assert len(seen) > 30


# SHA-256 of every sampler output below, with the generator's next draw, so
# the weights and the draws the samplers consume are both pinned.
SAMPLERS_SHA256 = "e1108e9c4ded83c5e17acbd9730a7e0eb20a3aa187422251260cd673ff563498"


def test_samplers_are_pinned():
    digest = hashlib.sha256()
    count = 0
    shapes = [
        (sample_theta_weights, theta_branches, (p, l, q))
        for p in range(2, 11)
        for l in range(p, 11)
        for q in range(l, 11)
        if (p, l) != (2, 2)
    ] + [
        (sample_infinity_weights, infinity_branches, (p, l, q))
        for p in range(3, 11)
        for q in range(3, 11)
        for l in range(1, 11)
    ]
    for sample, branches, shape in shapes:
        for branch in (None, *branches(*shape)):
            for seed in range(3):
                for unit in (False, True):
                    rng = random.Random(seed)
                    out = sample(*shape, rng, branch=branch, unit=unit)
                    digest.update(repr((out, rng.random())).encode() + b"\n")
                    count += 1
    assert (count, digest.hexdigest()) == (6918, SAMPLERS_SHA256)


def _built_bases():
    rng = random.Random(8)
    for p in range(3, 31):
        yield build_cycle(sample_cycle_weights(p, rng))
    for p in range(3, 9):
        for q in range(3, 9):
            for l in range(1, 7):
                yield build_infinity(p, l, q, *sample_infinity_weights(p, l, q, rng))
    for p in range(2, 9):
        for l in range(p, 9):
            for q in range(l, 9):
                if (p, l) != (2, 2):
                    yield build_theta(p, l, q, *sample_theta_weights(p, l, q, rng))


# SHA-256 of the edge list of every base above and of its reassembly from
# its descriptor, so vertex order, edge order and orientation are pinned.
BUILDERS_SHA256 = "500e2149425b41021a4db900df52267202e0783c6449e8c10aa539f4b44eb165"


def test_builders_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for g in _built_bases():
        for h in (g, build_from_descriptor(describe_base(g))):
            digest.update(serialize_graph(h).encode() + b"\x00")
            count += 1
    assert (count, digest.hexdigest()) == (642, BUILDERS_SHA256)


def test_built_bases_pass_the_constructors_checks():
    # The builders build their graphs unchecked; the constructor rebuilds
    # each the same, with every int weight a Fraction.
    for g in _built_bases():
        built = WeightedGraph(g.vertices, g.edges)
        assert built == g and built.edges == g.edges
        assert all(built.neighbors(v) == g.neighbors(v) for v in g.vertices)
        assert all(type(w) is Fraction for w in g._w)
    g = build_cycle([1, 2, Fraction(3, 2)])
    assert g.edges == (("v0", "v1", 1), ("v1", "v2", 2), ("v2", "v0", Fraction(3, 2)))
    assert all(type(w) is Fraction for w in g._w)


def _generated_graphs():
    for target in ("tree", "forest", "unicyclic", "bicyclic"):
        for regime in ("random", "unit", "force"):
            for n in (4, 9, 40, 250):
                for seed in range(4):
                    yield generate(GenSpec(target, n, seed, regime=regime))


# SHA-256 of every graph above as an edge list and as json, taken when each
# weight was a Fraction of its own, so sharing them changed no byte.
GENERATED_SHA256 = "1aec11e56f27bb8887baf89b4793ca5d57629a79d7f5a35f0a12795d83451968"


def test_generated_graphs_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for g in _generated_graphs():
        for fmt in ("edgelist", "json"):
            digest.update(serialize_graph(g, fmt).encode() + b"\x00")
            count += 1
    assert (count, digest.hexdigest()) == (384, GENERATED_SHA256)


@pytest.mark.parametrize("target", ["tree", "forest", "unicyclic", "bicyclic"])
def test_generated_graphs_share_weights_and_positions(target):
    for n, seed in ((40, 0), (3000, 1)):
        graphs = {regime: generate(GenSpec(target, n, seed, regime=regime)) for regime in _REGIMES}
        # random_weight's 200 values, or the one unit weight.
        assert len({id(w) for w in graphs["random"]._w}) <= 200
        assert len({id(w) for w in graphs["unit"]._w}) == 1
        for g in graphs.values():
            assert g.m
            # One int object per vertex position, shared by both columns.
            assert len({id(i) for i in g._u + g._v}) <= g.n
