"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every comparison is exact
(integer/rational equality); each criterion also enforces its wall-clock
budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from graph_inertia import (
    Inertia,
    WeightedGraph,
    congruent_diagonalize,
    cycle_inertia,
    forest_inertia,
    inertia_oracle,
    parse_graph,
    reduce_to_core,
    serialize_graph,
    solve,
)
from graph_inertia.closed_forms import (
    INFINITY_TABLE,
    infinity_inertia,
    reduce_infinity_shape,
    reduce_theta_shape,
)
from graph_inertia.matrix import SymRationalMatrix
from graph_inertia.reduction import ReductionRule
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

from reference import (
    brute_force_matching,
    contract_degree2_path,
    delete_pendant_pair,
    ecmo_add,
    ecmo_scale,
    ecmo_swap,
    is_mismatched,
)


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    line = f"\ncriterion {num} ({name}): {{}} ({elapsed:.2f}s, budget {budget_s:.0f}s)"
    if elapsed >= budget_s:
        print(line.format("FAIL: over budget"))
        raise AssertionError(f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    print(line.format("PASS"))


def _random_graph(rng: random.Random, n: int) -> WeightedGraph:
    names = [f"g{i}" for i in range(n)]
    edges = [
        (names[i], names[j], random_weight(rng))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    return WeightedGraph(names, edges)


def test_criterion_1_table_reproduction():
    with criterion(1, "case-table reproduction", 5):
        rng = random.Random(1001)
        rows = branches = 0
        for (p, l, q), row in INFINITY_TABLE.items():
            rows += 1
            for key, expected in row.outcomes:
                branches += 1
                branch = None if key == "any" else key
                a, b, c = sample_infinity_weights(p, l, q, rng, branch=branch)
                closed = infinity_inertia(p, l, q, a, b, c)
                oracle = inertia_oracle(build_infinity(p, l, q, a, b, c))
                assert closed.pn == expected, f"closed form off at ({p},{l},{q}) {key}"
                assert oracle.pn == expected, f"oracle off at ({p},{l},{q}) {key}"
        assert rows == 15 and branches == 29
        # the anchor rows quoted in the acceptance criterion
        a, b, c = sample_infinity_weights(3, 1, 3, rng)
        assert infinity_inertia(3, 1, 3, a, b, c).pn == (2, 3)
        a, b, c = sample_infinity_weights(5, 5, 5, rng)
        assert infinity_inertia(5, 5, 5, a, b, c).pn == (7, 6)
        a, b, c = sample_infinity_weights(3, 2, 3, rng, branch="eq")
        assert infinity_inertia(3, 2, 3, a, b, c).pn == (2, 3)


def test_criterion_2_cycle_formulas():
    with criterion(2, "cycle formulas", 5):
        rng = random.Random(1002)
        for n in range(3, 25):
            samples = [sample_cycle_weights(n, rng) for _ in range(20)]
            if n % 4 == 0:
                samples += [sample_cycle_weights(n, rng, branch="eq") for _ in range(5)]
            for ws in samples:
                assert cycle_inertia(ws) == inertia_oracle(build_cycle(ws)), f"n={n}"


def test_criterion_3_forest_formula():
    with criterion(3, "forest formula", 30):
        rng = random.Random(1003)
        for i in range(500):
            n = 1 + rng.randrange(15)
            g = generate(GenSpec("forest", n, 3000 + i))
            got = forest_inertia(g)
            assert got == inertia_oracle(g)
            if n <= 12:
                q = brute_force_matching(g)
                assert got.pos == got.neg == q


def test_criterion_4_reduction_soundness():
    with criterion(4, "reduction soundness", 60):
        rng = random.Random(1004)
        for i in range(500):
            cls = ("tree", "unicyclic", "bicyclic")[i % 3]
            lo = {"tree": 2, "unicyclic": 3, "bicyclic": 5}[cls]
            g = generate(GenSpec(cls, rng.randint(lo, 14), 4000 + i))
            cur = g
            _, trace = reduce_to_core(g)
            for step in trace.steps:
                before = inertia_oracle(cur)
                if step.rule is ReductionRule.PENDANT_PAIR:
                    cur, _ = delete_pendant_pair(cur, step.removed[0])
                    assert step.offset == (1, 1)
                else:
                    (x0, x5, w), = step.added
                    path = (x0, *step.removed, x5)
                    ws = [cur.weight(path[k], path[k + 1]) for k in range(5)]
                    expected_w = ws[0] * ws[2] * ws[4] / (ws[1] * ws[3])
                    assert w == expected_w and w == Fraction(w)
                    cur, _ = contract_degree2_path(cur, path)
                    assert step.offset == (2, 2)
                after = inertia_oracle(cur)
                assert (before.pos - after.pos, before.neg - after.neg) == step.offset


def test_criterion_5_master_equivalence():
    with criterion(5, "master solver-oracle equivalence", 120):
        cases = (
            ("tree", 14, "random", "unit"),
            ("unicyclic", 14, "random", "force"),
            ("bicyclic", 16, "random", "force"),
        )
        rng = random.Random(1005)
        for cls, max_n, regime_a, regime_b in cases:
            lo = {"tree": 1, "unicyclic": 3, "bicyclic": 5}[cls]
            for i in range(500):
                n = rng.randint(lo, max_n)
                for regime in (regime_a, regime_b):
                    g = generate(GenSpec(cls, n, 5000 + i, regime=regime))
                    assert solve(g).inertia == inertia_oracle(g), f"{cls} seed={5000 + i} {regime}"


def test_criterion_6_join_identities():
    with criterion(6, "join additivity identities", 60):
        rng = random.Random(1006)

        def join_at(tree_or_cycle, u, rest, k):
            targets = rng.sample(list(rest.vertices), k)
            edges = (
                list(tree_or_cycle.edges)
                + list(rest.edges)
                + [(u, x, random_weight(rng)) for x in targets]
            )
            return WeightedGraph(tuple(tree_or_cycle.vertices) + tuple(rest.vertices), edges)

        matched_runs = mismatched_runs = 0
        while matched_runs < 200 or mismatched_runs < 200:
            t = generate(GenSpec("tree", rng.randint(1, 8), rng.randrange(10**9))).relabel(
                lambda v: "T" + v
            )
            rest = _random_graph(rng, rng.randint(1, 7))
            u = rng.choice(list(t.vertices))
            k = rng.randint(1, rest.n)
            joined = join_at(t, u, rest, k)
            whole = inertia_oracle(joined)
            q = forest_inertia(t)
            if not is_mismatched(t, u):
                if matched_runs >= 200:
                    continue
                matched_runs += 1
                part = inertia_oracle(rest)
            else:
                if mismatched_runs >= 200:
                    continue
                mismatched_runs += 1
                part = inertia_oracle(joined.induced(tuple(rest.vertices) + (u,)))
            assert whole.pn == (q.pos + part.pos, q.neg + part.neg)

        for i in range(200):
            rest = _random_graph(rng, rng.randint(1, 7))
            k = rng.randint(1, rest.n)
            ws = [random_weight(rng) for _ in range(4)]
            if i % 2 == 0:
                ws[0] = ws[1] * ws[3] / ws[2]
            c4 = build_cycle(ws).relabel(lambda v: "c" + v[1:])
            joined = join_at(c4, "c0", rest, k)
            whole = inertia_oracle(joined)
            if ws[0] * ws[2] == ws[1] * ws[3]:
                part = inertia_oracle(joined.induced(tuple(rest.vertices) + ("c0",)))
                assert whole.pn == (part.pos + 1, part.neg + 1)
            else:
                part = inertia_oracle(rest)
                assert whole.pn == (part.pos + 2, part.neg + 2)

        for _ in range(200):
            rest = _random_graph(rng, rng.randint(1, 7))
            k = rng.randint(1, rest.n)
            c6 = build_cycle([random_weight(rng) for _ in range(6)]).relabel(lambda v: "c" + v[1:])
            joined = join_at(c6, "c0", rest, k)
            part = inertia_oracle(rest)
            assert inertia_oracle(joined).pn == (part.pos + 3, part.neg + 3)


def test_criterion_7_mod4_offsets():
    with criterion(7, "mod-4 reduction offsets", 60):
        rng = random.Random(1007)
        for i in range(50):
            if i % 2 == 0:
                p0, q0 = rng.choice([(3, 3), (3, 5), (5, 5), (3, 4), (4, 6), (5, 6), (6, 6)])
                l0 = rng.randint(1, 5)
                k, s = rng.randint(0, 2), rng.randint(0, 2)
                t = rng.randint(0, 2) if l0 > 1 else 0
                if k + s + t == 0:
                    k = 1
                p, q, l = p0 + 4 * k, q0 + 4 * s, l0 + 4 * t
                a, b, c = sample_infinity_weights(p, l, q, rng)
                extended = inertia_oracle(build_infinity(p, l, q, a, b, c))
                (rp, rl, rq, ra, rb, rc), folds = reduce_infinity_shape(p, l, q, a, b, c)
                representative = inertia_oracle(build_infinity(rp, rl, rq, ra, rb, rc))
                assert folds == k + s + t
            else:
                while True:
                    base = sorted(rng.randint(2, 5) for _ in range(3))
                    if base.count(2) <= 1:
                        break
                ks = [rng.randint(0, 2) for _ in range(3)]
                if sum(ks) == 0:
                    ks[2] = 1
                p, l, q = sorted(base[j] + 4 * ks[j] for j in range(3))
                a, b, c = sample_theta_weights(p, l, q, rng)
                extended = inertia_oracle(build_theta(p, l, q, a, b, c))
                slots, folds = reduce_theta_shape(p, l, q, a, b, c)
                representative = inertia_oracle(
                    build_theta(
                        slots[0][0], slots[1][0], slots[2][0],
                        slots[0][1], slots[1][1], slots[2][1],
                    )
                )
                assert folds == sum(ks)
            off = 2 * folds
            assert extended.pn == (representative.pos + off, representative.neg + off)


def test_criterion_8_ecmo_invariance():
    with criterion(8, "congruence-operation invariance", 10):
        rng = random.Random(1008)
        for _ in range(200):
            n = rng.randint(1, 10)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.6:
                        rows[i][j] = rows[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            m = SymRationalMatrix.from_rows(rows)
            reference = congruent_diagonalize(m).inertia
            assert reference.pos + reference.neg + reference.zero == n
            for _ in range(5):
                op = rng.choice(["swap", "scale", "add"] if n > 1 else ["scale"])
                if op == "swap":
                    i, j = rng.sample(range(n), 2)
                    m = ecmo_swap(m, i, j)
                elif op == "scale":
                    k = Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 3))
                    m = ecmo_scale(m, rng.randrange(n), k)
                else:
                    i, j = rng.sample(range(n), 2)
                    k = Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 3))
                    m = ecmo_add(m, i, j, k)
                assert congruent_diagonalize(m).inertia == reference


def _hang_two_vertex_paths(base: WeightedGraph, rng: random.Random) -> WeightedGraph:
    """Hang a two-vertex path off every base vertex, so that no hanging tree
    is matched at its root and the whole base must be cut out and folded."""
    vertices = list(base.vertices)
    edges = list(base.edges)
    for v in base.vertices:
        vertices += (v + "x", v + "y")
        edges += [(v, v + "x", random_weight(rng)), (v + "x", v + "y", random_weight(rng))]
    rng.shuffle(vertices)
    return WeightedGraph(vertices, edges)


def _long_type_ii_bases(rng: random.Random) -> dict[str, WeightedGraph]:
    """A long cycle, infinity and theta base of about 1064 vertices, each
    vertex carrying a hanging two-vertex path: about 3200 vertices, type II."""
    return {
        "long-cycle": _hang_two_vertex_paths(
            build_cycle(sample_cycle_weights(1064, rng, branch="eq")), rng
        ),
        "infinity": _hang_two_vertex_paths(
            build_infinity(267, 443, 358, *sample_infinity_weights(267, 443, 358, rng)), rng
        ),
        "theta": _hang_two_vertex_paths(
            build_theta(267, 356, 447, *sample_theta_weights(267, 356, 447, rng)), rng
        ),
    }


def test_criterion_9_linear_scale():
    # solve is linear, so about 3200 vertices take well under a second each;
    # a quadratic pass over the 1064-cycle alone costs more than that.
    with criterion(9, "structural solve at n ~ 3200", 60):
        rng = random.Random(1009)
        cases = {
            "unicyclic": generate(GenSpec("unicyclic", 3200, 1009)),
            **_long_type_ii_bases(rng),
        }
        for name, g in cases.items():
            assert g.n >= 3190
            start = time.perf_counter()
            got = solve(g)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"{name}: solve took {elapsed:.2f}s"
            reduced, trace = reduce_to_core(g)
            rest = inertia_oracle(reduced)
            pos, neg = trace.offset
            assert got.inertia == Inertia(rest.pos + pos, rest.neg + neg, rest.zero), name


def _criterion_10_graphs() -> dict[str, WeightedGraph]:
    """Every class and regime at n = 3200, and the three long type-II bases."""
    cases = {
        f"{cls}-{regime}": generate(GenSpec(cls, 3200, 1010, regime=regime))
        for cls in ("tree", "unicyclic", "bicyclic")
        for regime in ("random", "unit", "force")
    }
    cases.update(_long_type_ii_bases(random.Random(1009)))
    return cases


def test_criterion_10_whole_graph_oracle_at_scale():
    # The sparse oracle eliminates these treewidth-2 graphs in near-linear
    # time; the dense routine would need hours for each one.
    with criterion(10, "whole-graph solver-oracle equivalence at n ~ 3200", 60):
        for name, g in _criterion_10_graphs().items():
            assert g.n >= 3190
            start = time.perf_counter()
            oracle = inertia_oracle(g)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"{name}: inertia_oracle took {elapsed:.2f}s"
            assert solve(g).inertia == oracle, name


def test_criterion_11_rewrite_engine_at_scale():
    # The rewrite engine is one pass over a mutable adjacency; a rescan after
    # every rewrite takes 1.8-2.6 s on each n ~ 3200 graph below.
    with criterion(11, "rewrite engine at n ~ 3200 and n = 10^5", 60):
        timed = dict(_long_type_ii_bases(random.Random(1009)))
        for cls in ("tree", "unicyclic", "bicyclic"):
            timed[cls] = generate(GenSpec(cls, 3200, 1011))
        large = {
            "unit-cycle-100000": build_cycle([Fraction(1)] * 100_000),
            "bicyclic-100000": generate(GenSpec("bicyclic", 100_000, 1011)),
        }
        for name, g in {**timed, **large}.items():
            start = time.perf_counter()
            reduced, trace = reduce_to_core(g)
            elapsed = time.perf_counter() - start
            if name in timed:
                assert g.n >= 3190
                assert elapsed < 0.25, f"{name}: reduce_to_core took {elapsed:.2f}s"
            rest = inertia_oracle(reduced)
            pos, neg = trace.offset
            assert inertia_oracle(g) == Inertia(rest.pos + pos, rest.neg + neg, rest.zero), name


def test_criterion_12_solve_at_scale():
    # solve peels the input once and continues that peel after each cut, so
    # n = 10^5 takes well under a second; peeling afresh after every cut
    # took 1.6-2.0 s on the bicyclic graph.  The oracle's leaf phase takes
    # most of each graph with no arithmetic, which keeps it well under a
    # second too.  The edge-list parser reads the random-regime graphs back
    # in 0.3-0.5 s.
    with criterion(12, "structural solve at n = 10^5", 60):
        for cls in ("tree", "unicyclic", "bicyclic"):
            for regime in ("random", "unit", "force"):
                name = f"{cls}-{regime}"
                g = generate(GenSpec(cls, 100_000, 1012, regime=regime))
                start = time.perf_counter()
                got = solve(g)
                elapsed = time.perf_counter() - start
                assert elapsed < 1.0, f"{name}: solve took {elapsed:.2f}s"
                start = time.perf_counter()
                oracle = inertia_oracle(g)
                elapsed = time.perf_counter() - start
                assert elapsed < 1.0, f"{name}: inertia_oracle took {elapsed:.2f}s"
                assert got.inertia == oracle, name
                if regime != "random":
                    continue
                text = serialize_graph(g)
                start = time.perf_counter()
                back = parse_graph(text)
                elapsed = time.perf_counter() - start
                assert elapsed < 1.0, f"{name}: parse_graph took {elapsed:.2f}s"
                assert back == g, name
                # The parser builds its own adjacency list; solve must read
                # it as it reads the generator's.
                assert solve(back).inertia == got.inertia, name
                # The json parser ends in the validating constructor.
                back = parse_graph(serialize_graph(g, "json"), "json")
                assert back.vertices == g.vertices and back.edges == g.edges, name
