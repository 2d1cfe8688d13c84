import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_inertia import (
    GraphError,
    Inertia,
    WeightedGraph,
    adjacency_matrix,
    congruent_diagonalize,
    inertia_oracle,
)
from graph_inertia import oracle
from graph_inertia.graph import connected_components
from graph_inertia.matrix import SymRationalMatrix
from graph_inertia.testgen import (
    GenSpec,
    build_cycle,
    build_infinity,
    build_theta,
    generate,
    random_weight,
)

from reference import (
    ecmo_add,
    ecmo_scale,
    ecmo_swap,
    eliminate_by_fractions,
    inertia_by_sign_counting,
)
from test_acceptance import _criterion_10_graphs

rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)


@st.composite
def sym_matrices(draw, max_order=6):
    n = draw(st.integers(1, max_order))
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = draw(rationals)
    return SymRationalMatrix.from_rows(entries)


def diag(*values) -> SymRationalMatrix:
    n = len(values)
    return SymRationalMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def test_swap_diagonal():
    assert ecmo_swap(diag(1, -1), 0, 1) == diag(-1, 1)


def test_swap_is_involution():
    m = SymRationalMatrix.from_rows([[1, 2, 0], [2, 0, 3], [0, 3, 5]])
    assert ecmo_swap(ecmo_swap(m, 0, 2), 0, 2) == m


def test_swap_symmetric_offdiagonal_fixed_point():
    m = SymRationalMatrix.from_rows([[0, 7], [7, 0]])
    assert ecmo_swap(m, 0, 1) == m


def test_matrix_must_be_square_and_symmetric():
    with pytest.raises(GraphError, match="matrix is not square"):
        SymRationalMatrix.from_rows([[1, 2]])
    with pytest.raises(GraphError, match=r"matrix is not symmetric at \(1,0\)"):
        SymRationalMatrix.from_rows([[0, 1], [2, 0]])


def test_swap_index_errors():
    with pytest.raises(GraphError):
        ecmo_swap(diag(1, 2), 0, 5)
    with pytest.raises(GraphError):
        ecmo_swap(diag(1, 2), 1, 1)


def test_scale():
    assert ecmo_scale(diag(Fraction(4)), 0, Fraction(1, 2)) == diag(Fraction(1))
    m = SymRationalMatrix.from_rows([[0, 3], [3, 0]])
    assert ecmo_scale(m, 0, 1) == m
    assert ecmo_scale(m, 0, 2) == SymRationalMatrix.from_rows([[0, 6], [6, 0]])
    with pytest.raises(GraphError):
        ecmo_scale(m, 0, 0)


def test_add():
    ones = SymRationalMatrix.from_rows([[1, 1], [1, 1]])
    assert ecmo_add(ones, 0, 1, -1) == diag(1, 0)
    offdiag = SymRationalMatrix.from_rows([[0, 5], [5, 0]])
    assert ecmo_add(offdiag, 0, 1, 1) == SymRationalMatrix.from_rows([[0, 5], [5, 10]])
    with pytest.raises(GraphError):
        ecmo_add(ones, 1, 1, 1)


@given(sym_matrices(4), st.integers(0, 3), st.integers(0, 3), rationals.filter(lambda x: x != 0))
def test_add_then_inverse_restores(m, src, dst, k):
    if src == dst or src >= m.order or dst >= m.order:
        return
    assert ecmo_add(ecmo_add(m, src, dst, k), src, dst, -k) == m


def test_diagonalize_two_cycle_matrix():
    m = SymRationalMatrix.from_rows([[0, Fraction(7, 2)], [Fraction(7, 2), 0]])
    assert congruent_diagonalize(m).inertia == Inertia(1, 1, 0)


def test_diagonalize_zero_matrix():
    m = SymRationalMatrix.from_rows([[0] * 3 for _ in range(3)])
    assert congruent_diagonalize(m).inertia == Inertia(0, 0, 3)


def test_diagonalize_triangle_and_square():
    c3 = adjacency_matrix(build_cycle([Fraction(1)] * 3))
    assert congruent_diagonalize(c3).inertia == Inertia(1, 2, 0)
    c4 = adjacency_matrix(build_cycle([Fraction(1)] * 4))
    assert congruent_diagonalize(c4).inertia == Inertia(1, 1, 2)


def test_diagonalize_trace_is_deterministic():
    m = adjacency_matrix(generate(GenSpec("bicyclic", 9, 17)))
    first = congruent_diagonalize(m)
    second = congruent_diagonalize(m)
    assert first.steps == second.steps
    assert first.diagonal == second.diagonal


def test_oracle_examples():
    assert inertia_oracle(WeightedGraph(["k"], [])) == Inertia(0, 0, 1)
    star = WeightedGraph(
        ["c", "1", "2", "3"],
        [("c", "1", Fraction(5, 3)), ("c", "2", 2), ("c", "3", Fraction(1, 7))],
    )
    assert inertia_oracle(star) == Inertia(1, 1, 2)
    c5 = build_cycle([random_weight(random.Random(3)) for _ in range(5)])
    assert inertia_oracle(c5) == Inertia(3, 2, 0)


@given(sym_matrices(6), st.data())
@settings(max_examples=120, deadline=None)
def test_single_ecmo_preserves_inertia(m, data):
    n = m.order
    before = congruent_diagonalize(m).inertia
    op = data.draw(st.sampled_from(["swap", "scale", "add"]))
    if op == "swap" and n >= 2:
        i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]))
        m2 = ecmo_swap(m, i, j)
    elif op == "scale":
        i = data.draw(st.integers(0, n - 1))
        k = data.draw(rationals.filter(lambda x: x != 0))
        m2 = ecmo_scale(m, i, k)
    elif op == "add" and n >= 2:
        i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]))
        k = data.draw(rationals.filter(lambda x: x != 0))
        m2 = ecmo_add(m, i, j, k)
    else:
        return
    assert congruent_diagonalize(m2).inertia == before


@given(sym_matrices(5))
@settings(max_examples=100, deadline=None)
def test_inertia_sums_to_order(m):
    res = congruent_diagonalize(m)
    assert res.inertia.pos + res.inertia.neg + res.inertia.zero == m.order


@given(sym_matrices(6))
@settings(max_examples=100, deadline=None)
def test_diagonalize_agrees_with_sign_counting(m):
    assert congruent_diagonalize(m).inertia == inertia_by_sign_counting(m)


@pytest.mark.parametrize("seed", range(25))
def test_disjoint_union_additivity(seed):
    rng = random.Random(seed)
    g1 = generate(GenSpec(rng.choice(["tree", "unicyclic", "bicyclic"]), rng.randint(5, 9), seed))
    g2 = generate(GenSpec(rng.choice(["tree", "unicyclic", "bicyclic"]), rng.randint(5, 9), seed + 1000))
    g2 = g2.relabel(lambda v: "b" + v)
    assert inertia_oracle(g1.union(g2)) == inertia_oracle(g1) + inertia_oracle(g2)


@pytest.mark.parametrize("seed", range(25))
def test_induced_subgraph_monotonicity(seed):
    rng = random.Random(seed)
    g = generate(GenSpec("bicyclic", rng.randint(6, 11), seed))
    keep = [v for v in g.vertices if rng.random() < 0.6]
    sub = g.induced(keep)
    whole, part = inertia_oracle(g), inertia_oracle(sub)
    assert part.pos <= whole.pos
    assert part.neg <= whole.neg


def test_component_additivity_via_components():
    g = generate(GenSpec("forest", 12, 8))
    total = sum((inertia_oracle(c) for c in connected_components(g)), Inertia(0, 0, 0))
    assert total == inertia_oracle(g)


def dense_inertia(g: WeightedGraph) -> Inertia:
    return congruent_diagonalize(adjacency_matrix(g)).inertia


@pytest.mark.parametrize("cls", ["tree", "forest", "unicyclic", "bicyclic"])
@pytest.mark.parametrize("regime", ["random", "unit", "force"])
def test_sparse_oracle_matches_dense_on_generated_graphs(cls, regime):
    lo = {"tree": 1, "forest": 1, "unicyclic": 3, "bicyclic": 5}[cls]
    for n in range(lo, 31):
        g = generate(GenSpec(cls, n, 700 + n, regime=regime))
        assert inertia_oracle(g) == dense_inertia(g), (cls, regime, n)


# SHA-256 of the vertices the oracle's elimination pivots on, in order, over
# the graphs of ``test_oracle_pivots_in_least_degree_order``: as the oracle
# runs it, after its leaf phase, and alone on each whole graph.
ORACLE_PIVOT_ORDER_SHA256 = "b07bb6959b750d6aea59c00aef2d1bc7709a4017e5b80a7aa990065446490d39"
WHOLE_GRAPH_PIVOT_ORDER_SHA256 = "ee95604ac41c79c5d69628195365b151c67e8d2901774579c6b5dc4e2d077ada"


def test_oracle_pivots_in_least_degree_order(monkeypatch):
    # The inertia does not depend on the pivot order, so only a pin notices
    # when stale degrees stop the elimination taking least-degree pivots,
    # which lets fill-in grow.  The leaf phase leaves most generated graphs
    # nothing to eliminate, so the elimination is also pinned on each whole
    # graph, where it takes mostly pendant 2x2 pivots; fill-in on complete
    # graphs makes 1x1 pivots with non-empty rows.
    graphs = {
        f"{cls} {regime} {seed}": generate(GenSpec(cls, 40, 900 + seed, regime=regime))
        for cls in ["tree", "forest", "unicyclic", "bicyclic"]
        for regime in ["random", "unit", "force"]
        for seed in range(3)
    }
    for n in range(5, 9):
        names = [f"k{i}" for i in range(n)]
        edges = [(x, y, 1 + i * j % 3) for i, x in enumerate(names) for j, y in enumerate(names) if i < j]
        graphs[f"K{n}"] = WeightedGraph(names, edges)
    for run, want in [
        (inertia_oracle, ORACLE_PIVOT_ORDER_SHA256),
        (oracle._eliminate, WHOLE_GRAPH_PIVOT_ORDER_SHA256),
    ]:
        detached = []
        for name, order in _detach_order(monkeypatch, graphs, run).items():
            detached += [f"# {name}", *order]
        digest = hashlib.sha256("\n".join(detached).encode()).hexdigest()
        assert digest == want
    _check_leaf_phase(monkeypatch, graphs)


def _detach_order(monkeypatch, graphs: dict, run=inertia_oracle) -> dict:
    """Name -> the vertices ``oracle._detach`` receives while ``run`` runs
    on that graph, in call order."""
    order = {}
    real_detach = oracle._detach

    def recording_detach(adj, v):
        order[name].append(v)
        return real_detach(adj, v)

    monkeypatch.setattr(oracle, "_detach", recording_detach)
    for name, g in graphs.items():
        order[name] = []
        run(g)
    monkeypatch.undo()
    return order


def _check_leaf_phase(monkeypatch, graphs: dict) -> None:
    """The leaf phase hands the elimination only vertices with at least two
    neighbours among themselves, the elimination pivots on each of them
    once, and the two phases together find what the elimination finds on
    the whole graph."""
    detached = _detach_order(monkeypatch, graphs)
    handed = []
    real_eliminate = oracle._eliminate

    def recording_eliminate(g, live=None):
        handed.append([v for i, v in enumerate(g.vertices) if live is None or live[i] >= 0])
        return real_eliminate(g, live)

    monkeypatch.setattr(oracle, "_eliminate", recording_eliminate)
    for name, g in graphs.items():
        handed.clear()
        assert inertia_oracle(g) == real_eliminate(g), name
        kept = handed.pop() if handed else []
        assert not handed, name
        core = g.induced(kept)
        assert all(len(core.neighbors(v)) >= 2 for v in kept), name
        assert sorted(detached[name]) == sorted(kept), name
    monkeypatch.undo()


def test_leaf_phase_matches_the_whole_graph_elimination_at_scale():
    # The leaf phase is exact on paper; until the oracle checks a
    # certificate of its own, this compares it with the elimination alone,
    # with no leaf phase, on criterion 10's graphs of about 3200 vertices.
    for name, g in _criterion_10_graphs().items():
        assert g.n >= 3190
        assert inertia_oracle(g) == oracle._eliminate(g), name


def _unit_base(build, p, l, q):
    sizes = (p, q, l - 1) if build is build_infinity else (p - 1, l - 1, q - 1)
    return build(p, l, q, *([Fraction(1)] * k for k in sizes))


def test_oracle_pairs_a_zero_pivot_with_a_least_degree_partner(monkeypatch):
    # On these graphs a 2x2 pivot's partner of least degree differs from its
    # first neighbour, and taking the first neighbour changes the order.
    graphs = {
        "theta(2,4,5)": _unit_base(build_theta, 2, 4, 5),
        "theta(4,4,4)": _unit_base(build_theta, 4, 4, 4),
        "infinity(3,1,3)": _unit_base(build_infinity, 3, 1, 3),
        "infinity(3,2,4)": _unit_base(build_infinity, 3, 2, 4),
        **{f"bicyclic {seed}": generate(GenSpec("bicyclic", 12, seed, regime="unit")) for seed in (3, 9, 10)},
    }
    # The leaf phase takes t1 and t0 off bicyclic 9; the other graphs have
    # no leaf.
    _check_leaf_phase(monkeypatch, graphs)
    assert _detach_order(monkeypatch, graphs) == {
        "theta(2,4,5)": "b1 b2 u c1 v c3 c2".split(),
        "theta(4,4,4)": "a1 a2 b1 b2 c1 u c2 v".split(),
        "infinity(3,1,3)": "u1 u2 v1 u0 v2".split(),
        "infinity(3,2,4)": "u1 u2 u0 v1 v0 v2 v3".split(),
        "bicyclic 3": "u1 u2 u3 u0 w1 w2 w3 v1 v0 v2 v3 v4".split(),
        "bicyclic 9": "u1 u2 u3 u4 u0 v1 v0 v2 v3 v4".split(),
        "bicyclic 10": "a1 a2 a3 v b1 b2 b3 c1 u c2 c3 c4".split(),
    }


@st.composite
def two_weight_graphs(draw, max_n=14):
    """Random graphs of any density whose weights take two values, so equal
    products, zero pivots and exact cancellations come up often."""
    n = draw(st.integers(0, max_n))
    tenths = draw(st.sampled_from([1, 3, 5, 8, 10]))  # edge density; 10 is complete
    weights = (Fraction(1), draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])))
    names = [f"g{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 9)) < tenths:
                edges.append((names[i], names[j], weights[draw(st.integers(0, 1))]))
    return WeightedGraph(names, edges)


@given(two_weight_graphs())
@settings(max_examples=300, deadline=None)
def test_sparse_oracle_matches_dense_on_random_graphs(g):
    assert inertia_oracle(g) == dense_inertia(g)


def test_sparse_oracle_matches_dense_on_fixed_families():
    cases = [WeightedGraph([], []), WeightedGraph(["a", "b", "c"], [])]
    for n in range(1, 9):
        names = [f"k{i}" for i in range(n)]
        cases.append(
            WeightedGraph(names, [(names[i], names[j], 1) for i in range(n) for j in range(i + 1, n)])
        )
    for m in range(1, 5):
        for n in range(1, 5):
            left = [f"l{i}" for i in range(m)]
            right = [f"r{j}" for j in range(n)]
            edges = [
                (x, y, Fraction(1 + i + j, 2)) for i, x in enumerate(left) for j, y in enumerate(right)
            ]
            cases.append(WeightedGraph(left + right, edges))
    # The elimination takes v6 as a zero-diagonal leaf after its partner v2
    # has a filled-in diagonal; stars and paths take only pendant pivots
    # whose partner's diagonal is zero.
    names = [f"v{i}" for i in range(8)]
    edges = [
        ("v0", "v1", 3), ("v0", "v3", 3), ("v0", "v5", 3), ("v1", "v2", 1), ("v1", "v4", 3),
        ("v2", "v4", 1), ("v2", "v6", 3), ("v3", "v7", 3), ("v5", "v6", 2),
    ]
    cases.append(WeightedGraph(names, edges))
    for k in range(1, 7):
        leaves = [f"l{i}" for i in range(k)]
        spokes = [("c", x, Fraction(i + 1, 2)) for i, x in enumerate(leaves)]
        cases.append(WeightedGraph(["c"] + leaves, spokes))
    for n in range(1, 10):
        names = [f"p{i}" for i in range(n)]
        cases.append(WeightedGraph(names, [(names[i], names[i + 1], i + 1) for i in range(n - 1)]))
    for g in cases:
        assert inertia_oracle(g) == dense_inertia(g), g
    assert inertia_oracle(cases[0]) == Inertia(0, 0, 0)
    assert inertia_oracle(cases[1]) == Inertia(0, 0, 3)


def test_oracle_pendant_pivot_leaves_a_filled_in_partner_diagonal_unused():
    # The leaf phase leaves this graph whole.  Fill-in gives v2 a nonzero
    # diagonal, then leaves v0 a zero-diagonal leaf on v2: the update of that
    # pendant pivot is zero, and v2's diagonal must go unused.
    names = [f"v{i}" for i in range(5)]
    edges = [
        ("v0", "v2", 3), ("v0", "v3", 3), ("v0", "v4", 3), ("v1", "v3", 3),
        ("v1", "v4", 3), ("v2", "v3", 1), ("v3", "v4", 1),
    ]
    g = WeightedGraph(names, edges)
    assert inertia_oracle(g) == dense_inertia(g)


@st.composite
def cyclic_graphs(draw, max_n=16, weights=None):
    """Connected graphs of cyclomatic number up to 8: a random spanning tree
    and up to 8 more edges, so sparse on many vertices and near complete on
    five or six.  Weights come from a few values, or a wide range."""
    n = draw(st.integers(2, max_n))
    if weights is None:
        weights = draw(
            st.sampled_from([(1,), (1, 2), (Fraction(1, 3), 1, 5), tuple(range(1, 30))])
        )
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    chords = [(i, j) for j in range(n) for i in range(j) if (i, j) not in pairs]
    if chords:
        pairs += draw(st.lists(st.sampled_from(chords), max_size=8, unique=True))
    names = [f"g{i}" for i in range(n)]
    return WeightedGraph(
        names, [(names[i], names[j], draw(st.sampled_from(weights))) for i, j in pairs]
    )


@st.composite
def gadget_graphs(draw, cancel: bool):
    """A cyclic graph with a 4-cycle v-x-y-u hung on some of its edges v-u
    of weight b.  Pivoting on x and y subtracts w(v-x) w(u-y) / w(x-y) from
    v-u: with ``cancel`` the x-y weight makes that exactly b, so the entry
    cancels to zero, and otherwise it exceeds b, so the entry turns
    negative."""
    g = draw(cyclic_graphs(max_n=10))
    edges = list(g.edges)
    vertices = list(g.vertices)
    for k, (v, u, b) in enumerate(edges[: draw(st.integers(1, len(edges)))]):
        p, q = draw(st.sampled_from([1, 2, Fraction(1, 2), 3])), draw(st.sampled_from([1, 3, 4]))
        ratio = 1 if cancel else draw(st.sampled_from([Fraction(3, 2), 2, 7]))
        x, y = f"x{k}", f"y{k}"
        vertices += (x, y)
        edges += [(v, x, p), (u, y, q), (x, y, Fraction(p * q) / (b * ratio))]
    return WeightedGraph(vertices, edges)


def _same_elimination_as_fractions(g: WeightedGraph) -> None:
    """``oracle._eliminate`` finds the reference's inertia through the same
    ``_detach`` calls, in the same order."""
    real_detach = oracle._detach
    runs = []
    for run in (oracle._eliminate, eliminate_by_fractions):
        order = []

        def recording_detach(adj, v, order=order):
            order.append(v)
            return real_detach(adj, v)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(oracle, "_detach", recording_detach)
            runs.append((run(g), order))
    assert runs[0] == runs[1]
    assert sorted(runs[0][1]) == sorted(g.vertices)


@given(cyclic_graphs())
@settings(max_examples=200, deadline=None)
def test_integer_elimination_matches_fractions(g):
    _same_elimination_as_fractions(g)


@given(gadget_graphs(cancel=True))
@settings(max_examples=100, deadline=None)
def test_integer_elimination_matches_fractions_when_fill_cancels(g):
    _same_elimination_as_fractions(g)


@given(gadget_graphs(cancel=False))
@settings(max_examples=100, deadline=None)
def test_integer_elimination_matches_fractions_when_fill_turns_negative(g):
    _same_elimination_as_fractions(g)


def test_integer_elimination_builds_no_fraction(monkeypatch):
    # Graphs and expected answers are built first: the elimination reads
    # each weight's numerator and denominator and never makes a Fraction.
    rng = random.Random(29)
    graphs = {
        f"{cls} {regime}": generate(GenSpec(cls, 40, 2900, regime=regime))
        for cls in ["unicyclic", "bicyclic"]
        for regime in ["random", "unit", "force"]
    }
    graphs["random 10^3-cycle"] = build_cycle([random_weight(rng) for _ in range(1000)])
    for n in range(5, 9):
        names = [f"k{i}" for i in range(n)]
        edges = [(x, y, random_weight(rng)) for i, x in enumerate(names) for y in names[i + 1:]]
        graphs[f"K{n}"] = WeightedGraph(names, edges)
    expected = {name: eliminate_by_fractions(g) for name, g in graphs.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("built a Fraction")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 on
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(refuse))
    with pytest.raises(AssertionError, match="built a Fraction"):
        eliminate_by_fractions(graphs["K5"])
    for name, g in graphs.items():
        assert oracle._eliminate(g) == inertia_oracle(g) == expected[name], name
    monkeypatch.undo()


def test_matrix_dump_format():
    m = SymRationalMatrix.from_rows([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert m.dump() == "0 1/2\n1/2 0"
