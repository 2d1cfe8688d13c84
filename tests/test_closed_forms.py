import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_inertia import (
    GraphError,
    Inertia,
    cycle_inertia,
    describe_base,
    forest_inertia,
    infinity_inertia,
    inertia_oracle,
    theta_inertia,
    two_core,
)
from graph_inertia import closed_forms
from graph_inertia.closed_forms import (
    INFINITY_TABLE,
    CaseCondition,
    alternating_product,
    fold_path_weights,
    infinity_base_inertia,
    infinity_condition,
    reduce_infinity_shape,
    reduce_theta_shape,
    theta_base_inertia,
)
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

from reference import alternating_product_by_fractions


def test_forest_inertia_examples():
    p5 = generate(GenSpec("tree", 1, 0))  # K1
    assert forest_inertia(p5) == Inertia(0, 0, 1)
    from graph_inertia import parse_graph

    path5 = parse_graph("1 2 9\n2 3 1/2\n3 4 7\n4 5 1/3")
    assert forest_inertia(path5) == Inertia(2, 2, 1)
    isolated = parse_graph("vertices: a b c d")
    assert forest_inertia(isolated) == Inertia(0, 0, 4)


def test_forest_inertia_rejects_cycles():
    with pytest.raises(GraphError):
        forest_inertia(build_cycle([Fraction(1)] * 3))


@pytest.mark.parametrize("seed", range(15))
def test_forest_inertia_matches_oracle(seed):
    g = generate(GenSpec("forest", 5 + seed % 11, seed))
    assert forest_inertia(g) == inertia_oracle(g)


def test_cycle_inertia_examples():
    assert cycle_inertia([Fraction(1)] * 4) == Inertia(1, 1, 2)
    assert cycle_inertia([Fraction(2), 1, 1, 1]) == Inertia(2, 2, 0)
    rng = random.Random(1)
    assert cycle_inertia(sample_cycle_weights(6, rng)) == Inertia(3, 3, 0)
    assert cycle_inertia(sample_cycle_weights(7, rng)) == Inertia(3, 4, 0)
    assert cycle_inertia(sample_cycle_weights(3, rng)) == Inertia(1, 2, 0)
    assert cycle_inertia(sample_cycle_weights(5, rng)) == Inertia(3, 2, 0)


def test_cycle_inertia_errors():
    with pytest.raises(GraphError):
        cycle_inertia([Fraction(1)] * 2)


@pytest.mark.parametrize("n", range(3, 17))
def test_cycle_inertia_matches_oracle(n):
    rng = random.Random(n)
    for trial in range(6):
        branch = "eq" if n % 4 == 0 and trial % 2 == 0 else None
        ws = sample_cycle_weights(n, rng, branch=branch)
        assert cycle_inertia(ws) == inertia_oracle(build_cycle(ws))


@pytest.mark.parametrize("n", [5, 6, 7, 9, 10, 11])
def test_cycle_inertia_weight_invariant_off_residue_zero(n):
    rng = random.Random(n * 7)
    results = {cycle_inertia(sample_cycle_weights(n, rng)) for _ in range(10)}
    assert len(results) == 1


# ---------------------------------------------------------------- infinity


def test_table_fixed_rows():
    rng = random.Random(0)
    a, b, c = sample_infinity_weights(3, 1, 3, rng)
    assert infinity_inertia(3, 1, 3, a, b, c).pn == (2, 3)
    a, b, c = sample_infinity_weights(5, 1, 5, rng)
    assert infinity_inertia(5, 1, 5, a, b, c).pn == (5, 4)
    a, b, c = sample_infinity_weights(5, 5, 5, rng)
    assert infinity_inertia(5, 5, 5, a, b, c).pn == (7, 6)
    a, b, c = sample_infinity_weights(3, 2, 3, rng, branch="eq")
    assert infinity_inertia(3, 2, 3, a, b, c).pn == (2, 3)


def test_every_table_row_and_branch_vs_oracle():
    rng = random.Random(42)
    for (p, l, q), row in INFINITY_TABLE.items():
        for key, expected in row.outcomes:
            branch = None if key == "any" else key
            for _ in range(4):
                a, b, c = sample_infinity_weights(p, l, q, rng, branch=branch)
                cond = infinity_condition(p, l, q, a, b, c)
                if branch is not None:
                    assert cond.relation == branch
                closed = infinity_inertia(p, l, q, a, b, c)
                got = inertia_oracle(build_infinity(p, l, q, a, b, c))
                assert closed == got
                assert closed.pn == expected


@pytest.mark.parametrize("p,q", [(3, 4), (3, 6), (4, 4), (4, 5), (4, 6), (5, 6), (6, 6)])
@pytest.mark.parametrize("l", range(1, 6))
def test_infinity_joined_cycle_cases_vs_oracle(p, q, l):
    rng = random.Random(p * 100 + q * 10 + l)
    branches = list(infinity_branches(p, l, q)) or [None]
    for branch in branches:
        for _ in range(4):
            a, b, c = sample_infinity_weights(p, l, q, rng, branch=branch)
            assert infinity_inertia(p, l, q, a, b, c) == inertia_oracle(
                build_infinity(p, l, q, a, b, c)
            )


def test_infinity_mod4_example():
    # one extra 4-block on the first cycle adds exactly (2, 2)
    unit = [Fraction(1)]
    a, b, c = unit * 7, unit * 3, []
    assert infinity_inertia(7, 1, 3, a, b, c) == Inertia(4, 5, 0)


@pytest.mark.parametrize("seed", range(30))
def test_infinity_mod4_general(seed):
    rng = random.Random(seed)
    p0, q0 = rng.choice([(3, 3), (3, 5), (5, 5), (3, 4), (4, 6), (5, 6)])
    l0 = rng.randint(1, 5)
    k, s = rng.randint(0, 2), rng.randint(0, 2)
    t = rng.randint(0, 2) if l0 > 1 else 0
    p, q, l = p0 + 4 * k, q0 + 4 * s, l0 + 4 * t
    a, b, c = sample_infinity_weights(p, l, q, rng)
    big = inertia_oracle(build_infinity(p, l, q, a, b, c))
    (rp, rl, rq, ra, rb, rc), folds = reduce_infinity_shape(p, l, q, a, b, c)
    assert (rp, rl, rq) == (p0, l0, q0)
    assert folds == k + s + t
    small = inertia_oracle(build_infinity(rp, rl, rq, ra, rb, rc))
    assert big.pn == (small.pos + 2 * folds, small.neg + 2 * folds)
    assert infinity_inertia(p, l, q, a, b, c) == big


def test_infinity_base_inertia_via_descriptor():
    rng = random.Random(7)
    a, b, c = sample_infinity_weights(3, 3, 5, rng, branch="lt")
    g = build_infinity(3, 3, 5, a, b, c)
    d = describe_base(two_core(g))
    assert infinity_base_inertia(d) == inertia_oracle(g)


def test_infinity_validation():
    with pytest.raises(GraphError):
        infinity_inertia(2, 1, 3, [1, 1], [1, 1, 1], [])
    with pytest.raises(GraphError):
        infinity_inertia(3, 2, 3, [1, 1, 1], [1, 1, 1], [])
    cycle = describe_base(build_cycle([Fraction(1)] * 5))
    with pytest.raises(GraphError, match="descriptor is cycle, not infinity"):
        infinity_base_inertia(cycle)


# ---------------------------------------------------------------- theta


def _theta_rep_shapes():
    shapes = set()
    for sizes in itertools.product(range(2, 7), repeat=3):
        s = tuple(sorted(sizes))
        if s.count(2) > 1:
            continue
        if 6 in s and not (s[0] == 2 and s[2] == 6):
            continue
        shapes.add(s)
    return sorted(shapes)


@pytest.mark.parametrize("shape", _theta_rep_shapes())
def test_theta_representatives_vs_oracle(shape):
    p, l, q = shape
    rng = random.Random(sum(shape) * 31)
    branches = list(theta_branches(p, l, q)) or [None]
    for branch in branches:
        for _ in range(5):
            a, b, c = sample_theta_weights(p, l, q, rng, branch=branch)
            assert theta_inertia(p, l, q, a, b, c) == inertia_oracle(
                build_theta(p, l, q, a, b, c)
            )


def test_theta_fixed_cases():
    rng = random.Random(5)
    a, b, c = sample_theta_weights(2, 3, 5, rng)
    assert theta_inertia(2, 3, 5, a, b, c).pn == (3, 3)
    a, b, c = sample_theta_weights(3, 4, 5, rng)
    assert theta_inertia(3, 4, 5, a, b, c).pn == (4, 4)
    # direct-edge product dominating pushes negative here
    a, b, c = sample_theta_weights(2, 3, 4, rng, branch="gt")
    assert theta_inertia(2, 3, 4, a, b, c).pn == (2, 3)
    # the twin-3 equal branch turns theta(3,3,4) into a 5-cycle
    a, b, c = sample_theta_weights(3, 3, 4, rng, branch="eq")
    assert theta_inertia(3, 3, 4, a, b, c).pn == (3, 2)
    # theta(4,4,3) with unit weights: folded 5-cycle, one level up
    unit = [Fraction(1)] * 3
    assert theta_inertia(3, 4, 4, [Fraction(1)] * 2, unit, unit).pn == (4, 3)


def test_theta_2_4_5_strict_branches_follow_oracle():
    # the strict branches of this case run opposite to its q=3 sibling
    rng = random.Random(11)
    for branch, expected in (("gt", (4, 3)), ("eq", (3, 3)), ("lt", (3, 4))):
        a, b, c = sample_theta_weights(2, 4, 5, rng, branch=branch)
        got = theta_inertia(2, 4, 5, a, b, c)
        assert got.pn == expected
        assert got == inertia_oracle(build_theta(2, 4, 5, a, b, c))


@pytest.mark.parametrize("seed", range(30))
def test_theta_mod4_general(seed):
    rng = random.Random(seed + 500)
    while True:
        base = sorted(rng.randint(2, 5) for _ in range(3))
        if base.count(2) <= 1:
            break
    ks = [rng.randint(0, 2) for _ in range(3)]
    sizes = sorted(base[i] + 4 * ks[i] for i in range(3))
    p, l, q = sizes
    a, b, c = sample_theta_weights(p, l, q, rng)
    big = inertia_oracle(build_theta(p, l, q, a, b, c))
    slots, folds = reduce_theta_shape(p, l, q, a, b, c)
    assert folds == sum(ks)
    rebuilt = build_theta(
        slots[0][0], slots[1][0], slots[2][0], slots[0][1], slots[1][1], slots[2][1]
    )
    small = inertia_oracle(rebuilt)
    assert big.pn == (small.pos + 2 * folds, small.neg + 2 * folds)
    assert theta_inertia(p, l, q, a, b, c) == big


def test_theta_blocked_two_goes_to_six():
    # both long slots are ~2 mod 4; only one may land on 2
    rng = random.Random(3)
    a, b, c = sample_theta_weights(3, 6, 6, rng)
    slots, folds = reduce_theta_shape(3, 6, 6, a, b, c)
    assert [s for s, _ in slots] == [2, 3, 6]
    assert folds == 1
    assert theta_inertia(3, 6, 6, a, b, c) == inertia_oracle(build_theta(3, 6, 6, a, b, c))


def test_theta_base_inertia_via_descriptor():
    rng = random.Random(13)
    a, b, c = sample_theta_weights(3, 3, 5, rng, branch="eq")
    g = build_theta(3, 3, 5, a, b, c)
    d = describe_base(two_core(g))
    assert theta_base_inertia(d) == inertia_oracle(g)


def test_theta_validation():
    with pytest.raises(GraphError):
        theta_inertia(2, 2, 3, [1], [1], [1, 1])
    with pytest.raises(GraphError):
        theta_inertia(3, 3, 3, [1], [1, 1], [1, 1])
    infinity = describe_base(build_infinity(3, 1, 3, *[[Fraction(1)] * 3] * 2, ()))
    with pytest.raises(GraphError, match="descriptor is infinity, not theta"):
        theta_base_inertia(infinity)


# ---------------------------------------------------------------- folding helpers


def test_fold_helpers():
    ws = [Fraction(x) for x in (1, 2, 3, 4, 5, 6, 7, 8)]
    folded = fold_path_weights(ws, 1)
    assert folded[0] == Fraction(15, 8)
    assert folded[1:] == (6, 7, 8)
    assert fold_path_weights([Fraction(1)] * 5, 1) == (Fraction(1),)
    with pytest.raises(GraphError, match="path too short to contract"):
        fold_path_weights([Fraction(1)] * 8, 2)


@given(st.lists(st.fractions(min_value=Fraction(1, 10**6), max_value=10**6), max_size=40))
def test_alternating_product_equals_the_fraction_by_fraction_product(ws):
    assert alternating_product(ws) == alternating_product_by_fractions(ws)


@pytest.mark.parametrize("ws, expected", [
    ((), Fraction(1)),
    ((Fraction(3, 7),), Fraction(3, 7)),
    ((Fraction(4),), Fraction(4)),
    ((Fraction(2, 3), Fraction(4, 9)), Fraction(3, 2)),
])
def test_alternating_product_on_short_sequences(ws, expected):
    assert alternating_product(ws) == alternating_product_by_fractions(ws) == expected
    assert type(alternating_product(ws)) is Fraction


def test_folds_check_their_shape():
    ones = [Fraction(1)] * 8
    # Eight a-weights for a 7-cycle once folded into a "(3,1,3)" with four.
    with pytest.raises(GraphError, match=re.escape("weight sequence lengths must be (p, q, l-1)")):
        reduce_infinity_shape(7, 1, 3, ones, ones[:3], ())
    # Two single-edge paths are parallel edges.
    with pytest.raises(GraphError, match=re.escape("theta(2,2,3) is not a valid shape")):
        reduce_theta_shape(2, 2, 3, ones[:1], ones[:1], ones[:2])


@pytest.mark.parametrize("call", [
    # A zero weight: the weighted path left has (1, 1, 1), not (1, 2, 0).
    pytest.param(lambda: cycle_inertia([Fraction(0), 1, 1]), id="cycle-zero"),
    # A negative weight: the matrix has (2, 1, 0), not (1, 2, 0).
    pytest.param(lambda: cycle_inertia([Fraction(-1), 1, 1]), id="cycle-negative"),
    # Floats have no numerator to fold.
    pytest.param(lambda: cycle_inertia([0.5, 2.0, 1.0, 1.0]), id="cycle-float"),
    pytest.param(lambda: cycle_inertia([True, 1, 1]), id="cycle-bool"),
    pytest.param(lambda: infinity_inertia(3, 2, 3, [1, 2, 3], [1, 2, 3], [1.5]), id="inf-float"),
    pytest.param(lambda: infinity_inertia(3, 1, 3, [1, 2, 3], [1, 0, 3], []), id="inf-zero"),
    pytest.param(lambda: theta_inertia(2, 3, 4, [1], [1, "2"], [1, 2, 3]), id="theta-str"),
    pytest.param(lambda: theta_inertia(2, 3, 4, [1], [1, 2], [1, 2, -3]), id="theta-negative"),
])
def test_closed_forms_refuse_inexact_or_non_positive_weights(call):
    with pytest.raises(GraphError, match="must be an int or a Fraction above zero"):
        call()


_ONES = (Fraction(1),) * 3


@pytest.mark.parametrize("c, match", [
    # Row (3,2,3) needs c1.
    pytest.param((), re.escape("weight sequence lengths must be (p, q, l-1)"), id="missing-c"),
    pytest.param((1, 1), re.escape("weight sequence lengths must be (p, q, l-1)"), id="extra-c"),
    pytest.param((Fraction(-1),), "must be an int or a Fraction above zero", id="negative-c"),
    pytest.param((0.5,), "must be an int or a Fraction above zero", id="float-c"),
])
def test_infinity_condition_checks_its_shape_and_weights(c, match):
    with pytest.raises(GraphError, match=match):
        infinity_condition(3, 2, 3, _ONES, _ONES, c)


def test_infinity_condition_still_decides_valid_rows():
    assert infinity_condition(3, 2, 3, _ONES, _ONES, (Fraction(2),)) == CaseCondition(4, 4)
    assert infinity_condition(3, 1, 3, _ONES, _ONES, ()) is None


@pytest.mark.parametrize("call, shape", [
    pytest.param(lambda: theta_inertia(2.0, 3, 3, _ONES[:1], _ONES[1:], _ONES[1:]), "theta(2.0,3,3)"),
    pytest.param(lambda: theta_inertia(2, True, 3, _ONES[:1], (), _ONES[:2]), "theta(2,True,3)"),
    pytest.param(lambda: infinity_inertia(3, 2.0, 3, _ONES, _ONES, _ONES[:1]), "infinity(3,2.0,3)"),
    pytest.param(lambda: reduce_infinity_shape(3, True, 3, _ONES, _ONES, ()), "infinity(3,True,3)"),
    pytest.param(
        lambda: infinity_condition(Fraction(3), 2, 3, _ONES, _ONES, _ONES[:1]),
        "infinity(Fraction(3, 1),2,3)",
    ),
], ids=["theta-float", "theta-bool", "inf-float", "inf-bool", "condition-fraction"])
def test_closed_forms_refuse_non_int_shapes(call, shape):
    message = f"{shape} is not a valid shape: sizes must be ints"
    with pytest.raises(GraphError, match=re.escape(message)):
        call()


def test_closed_forms_take_ints_and_fractions():
    assert cycle_inertia([1, Fraction(2), 3]) == Inertia(1, 2, 0)
    assert infinity_inertia(3, 1, 3, [1, 2, 3], [1, Fraction(1, 2), 3], []) == Inertia(2, 3, 0)


def _taken_branch(monkeypatch, p, l, q, a, b, c):
    """The branch ``theta_inertia`` takes, in ``theta_branches`` terms: the
    relation of an explicit case, "neq" for the path of unequal twins, and
    for a cycle "ceq"/"cneq" when its length is divisible by 4, else "eq"."""
    seen = []
    cycle_pn, path_pn = closed_forms._cycle_pn, closed_forms._path_pn

    def recorded(lhs, rhs):
        cond = CaseCondition(lhs, rhs)
        seen.append(cond.relation)
        return cond

    def cycle(ws):
        if len(ws) % 4:
            seen.append("eq")
        else:
            seen.append("ceq" if alternating_product(ws) == 1 else "cneq")
        return cycle_pn(ws)

    def path(m):
        seen.append("neq")
        return path_pn(m)

    with monkeypatch.context() as m:
        m.setattr(closed_forms, "CaseCondition", recorded)
        m.setattr(closed_forms, "_cycle_pn", cycle)
        m.setattr(closed_forms, "_path_pn", path)
        theta_inertia(p, l, q, a, b, c)
    (taken,) = seen
    return taken


@pytest.mark.parametrize(
    "shape", [s for s in _theta_rep_shapes() if theta_branches(*s)], ids=lambda s: f"theta{s}"
)
def test_forced_theta_equalities_reach_their_branch(monkeypatch, shape):
    # Branch ids that force an equality: the twin products ("eq", "eq:..."),
    # the reduced cycle ("ceq") or the explicit condition ("eq").
    forced = [b for b in theta_branches(*shape) if {"eq", "ceq"} & set(b.split(":"))]
    rng = random.Random(1)
    for branch in forced:
        for _ in range(300):
            a, b, c = sample_theta_weights(*shape, rng, branch=branch)
            assert _taken_branch(monkeypatch, *shape, a, b, c) == branch.split(":")[-1]


# ---------------------------------------------------------------------------
# the unchecked cores that solve reads bare bases with


def _unfolded(ws, folds, rng):
    """``ws`` with ``4 * folds`` random weights put back after its first,
    which is rescaled so that ``fold_path_weights(_, folds)`` gives ``ws``
    again: a forced branch of the representative stays forced."""
    if not folds:
        return tuple(ws)
    extra = [random_weight(rng) for _ in range(4 * folds)]
    return (ws[0] / alternating_product((1, *extra)), *extra, *ws[1:])


@st.composite
def _forced_paths(draw, shape, branches, sample):
    """Weights of the representative ``shape`` in a drawn branch, each path
    but an empty link unfolded by a drawn number of folds, up to 12 edges."""
    branch = draw(st.sampled_from(branches(*shape) or (None,)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    paths = sample(*shape, rng, branch=branch)
    folds = [draw(st.integers(0, (12 - len(ws)) // 4 if ws else 0)) for ws in paths]
    return [_unfolded(ws, k, rng) for ws, k in zip(paths, folds)]


@st.composite
def _forced_cycles(draw):
    n = draw(st.integers(3, 12))
    branch = draw(st.sampled_from(("eq", None) if n % 4 == 0 else (None,)))
    return list(sample_cycle_weights(n, random.Random(draw(st.integers(0, 2**32 - 1))), branch))


@pytest.mark.parametrize("shape", _theta_rep_shapes(), ids=lambda s: f"theta{s}")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_theta_core_reads_its_paths_in_any_order_from_either_hub(shape, data):
    paths = data.draw(_forced_paths(shape, theta_branches, sample_theta_weights))
    a, b, c = paths
    expected = inertia_oracle(build_theta(len(a) + 1, len(b) + 1, len(c) + 1, a, b, c)).pn
    for reading in itertools.permutations(paths):
        assert closed_forms._theta_pn(*reading) == expected, reading
    assert closed_forms._theta_pn(a[::-1], b[::-1], c[::-1]) == expected


# Every infinity representative with p <= q; a reading below swaps the loops.
_INFINITY_REPS = [
    (p, l, q)
    for p, q in itertools.combinations_with_replacement(range(3, 7), 2)
    for l in range(1, 6)
]


@pytest.mark.parametrize("shape", _INFINITY_REPS, ids=lambda s: f"infinity{s}")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_infinity_core_reads_its_loops_either_way_and_in_either_order(shape, data):
    a, b, c = data.draw(_forced_paths(shape, infinity_branches, sample_infinity_weights))
    expected = inertia_oracle(build_infinity(len(a), len(c) + 1, len(b), a, b, c)).pn
    # The link runs from the first loop's junction, so swapping the loops
    # reverses it.
    for reading in [(a, b, c), (b, a, c[::-1]), (a[::-1], b, c), (a, b[::-1], c)]:
        assert closed_forms._infinity_pn(*reading) == expected, reading


@given(_forced_cycles())
def test_cycle_core_reads_its_weights_from_any_start_either_way(ws):
    expected = inertia_oracle(build_cycle(ws)).pn
    for k in range(len(ws)):
        rotated = ws[k:] + ws[:k]
        assert closed_forms._cycle_pn(rotated) == closed_forms._cycle_pn(rotated[::-1]) == expected
