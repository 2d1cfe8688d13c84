"""Benchmark inputs: a fixed pool per workload, sampled by the run's seed.

Every workload is a grid of strata (family x size).  Each stratum has a pool
of ``POOL`` instances whose expected answers are fixed data in
``expected.json``; a run takes ``pick`` instances of every stratum, chosen by
its seed.  Taking the same number from every stratum keeps the cost mix of a
run independent of the seed, so seeds change the graphs but not the shape
of the workload.

Two kinds of family exist:

* ``testgen`` families come straight from ``graph_inertia.testgen.generate``
  (class and regime given, instance number used as the generator seed);
* ``long-*`` families are built here: a long type-II base (a cycle whose
  length is a multiple of 4 with equal alternating weight products, or an
  infinity or theta base with long paths) where every core vertex carries a
  hanging two-vertex path, so no hanging tree is matched at its root and
  the solver must cut the whole core out and fold it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from graph_inertia.testgen import GenSpec, generate

POOL = 8

TESTGEN_FAMILIES = ("tree", "unicyclic", "bicyclic")
LONG_FAMILIES = ("long-cycle", "long-infinity", "long-theta")


@dataclass(frozen=True)
class WorkloadSpec:
    """``pick`` pool instances of every (family, size) stratum per run, and
    at least ``rounds`` rounds over them.  These counts kept every timing
    metric steady over ten seeds on the machine the bounds were set on."""

    families: tuple[str, ...]
    sizes: tuple[int, ...]
    pick: int
    rounds: int


# Size grids with an odd number of sizes put the median op inside one size
# group instead of on the boundary between two, which keeps the median steady.
WORKLOADS = {
    "solve-large": WorkloadSpec(TESTGEN_FAMILIES + LONG_FAMILIES, (200, 800, 3200), 2, 3),
    "verify-small": WorkloadSpec(
        (
            "tree",
            "tree-unit",
            "unicyclic",
            "unicyclic-unit",
            "unicyclic-force",
            "bicyclic",
            "bicyclic-unit",
            "bicyclic-force",
        ),
        (6, 12, 24, 36, 48),
        6,
        2,
    ),
    "reduce-cli": WorkloadSpec(TESTGEN_FAMILIES + LONG_FAMILIES, (100, 300, 800), 3, 3),
}


@dataclass(frozen=True)
class Input:
    """One benchmark input: its pool key, edge-list text and generated graph.

    ``graph`` is the ``WeightedGraph`` for testgen families and ``None`` for
    the long families, which exist only as text.
    """

    key: str
    family: str
    n: int
    text: str
    graph: object = None


def _weight(rng: random.Random) -> Fraction:
    # Same law as testgen.random_weight, kept here so that the long families,
    # whose answers are pinned in expected.json, do not change with testgen.
    return Fraction(rng.randint(1, 20), rng.randint(1, 10))


def edge_list_text(vertices, edges) -> str:
    """Edge-list text in the package's input format, vertex order pinned."""
    lines = ["vertices: " + " ".join(vertices)]
    lines += [f"{u} {v} {w}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


def _with_hanging_paths(core_vertices, core_edges, rng):
    """Hang a two-vertex path off every core vertex; shuffle vertex order."""
    vertices = list(core_vertices)
    edges = list(core_edges)
    for v in core_vertices:
        x, y = v + "x", v + "y"
        vertices += (x, y)
        edges += [(v, x, _weight(rng)), (x, y, _weight(rng))]
    rng.shuffle(vertices)
    return vertices, edges


def _path_edges(chain, rng):
    return [(chain[i], chain[i + 1], _weight(rng)) for i in range(len(chain) - 1)]


def long_cycle(core: int, rng: random.Random):
    """Cycle of length ``4 * (core // 4)`` whose two alternating weight
    products are equal: the odd positions carry a permutation of the even
    positions' weights, so the ``i0 = 2`` branch of the cycle formula runs."""
    length = 4 * (core // 4)
    even = [_weight(rng) for _ in range(length // 2)]
    odd = even[:]
    rng.shuffle(odd)
    names = [f"a{i}" for i in range(length)]
    edges = [
        (names[i], names[(i + 1) % length], (odd if i % 2 else even)[i // 2])
        for i in range(length)
    ]
    return _with_hanging_paths(names, edges, rng)


def long_infinity(core: int, rng: random.Random):
    """Two cycles (about core/4 and core/3 long) joined by a path, ``core``
    base vertices in all; residues mod 4 vary with the instance."""
    p = core // 4 + rng.randrange(4)
    q = core // 3 + rng.randrange(4)
    l = core + 2 - p - q
    a = [f"a{i}" for i in range(p)]
    b = [f"b{i}" for i in range(q)]
    c = [f"c{i}" for i in range(1, l - 1)]
    edges = _path_edges(a + a[:1], rng) + _path_edges(b + b[:1], rng)
    edges += _path_edges([a[0], *c, b[0]], rng)
    return _with_hanging_paths(a + c + b, edges, rng)


def long_theta(core: int, rng: random.Random):
    """Two hubs joined by three paths (about core/4, core/3 and the rest
    long), ``core`` base vertices in all."""
    p = core // 4 + rng.randrange(4)
    l = core // 3 + rng.randrange(4)
    q = core + 4 - p - l
    hubs = ["h0", "h1"]
    inner = {
        label: [f"{label}{i}" for i in range(1, size - 1)]
        for label, size in (("a", p), ("b", l), ("c", q))
    }
    edges = []
    for chain in inner.values():
        edges += _path_edges([hubs[0], *chain, hubs[1]], rng)
    return _with_hanging_paths(hubs + [v for chain in inner.values() for v in chain], edges, rng)


_LONG_SHAPES = {"long-cycle": long_cycle, "long-infinity": long_infinity, "long-theta": long_theta}


def build_input(workload: str, family: str, n: int, instance: int) -> Input:
    """The pool instance ``instance`` of stratum (family, n); deterministic."""
    key = f"{workload}/{family}/{n}/{instance}"
    if family in _LONG_SHAPES:
        # A hanging path per core vertex makes n three times the core size.
        rng = random.Random(f"{family}/{n}/{instance}")
        vertices, edges = _LONG_SHAPES[family](n // 3, rng)
        return Input(key, family, len(vertices), edge_list_text(vertices, edges))
    target, _, regime = family.partition("-")
    g = generate(GenSpec(target, n, instance, regime=regime or "random"))
    return Input(key, family, g.n, edge_list_text(g.vertices, g.edges), g)


def select(workload: str, seed: int) -> list[tuple[str, int, int]]:
    """(family, n, instance) for every input of a run: ``pick`` pool
    instances of every stratum, chosen by ``seed``."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [
        (family, n, instance)
        for family in spec.families
        for n in spec.sizes
        for instance in sorted(rng.sample(range(POOL), spec.pick))
    ]


def pool(workload: str) -> list[tuple[str, int, int]]:
    """Every (family, n, instance) that some seed can select."""
    spec = WORKLOADS[workload]
    return [(f, n, i) for f in spec.families for n in spec.sizes for i in range(POOL)]


def make_inputs(workload: str, seed: int) -> list[Input]:
    return [build_input(workload, *pick) for pick in select(workload, seed)]
