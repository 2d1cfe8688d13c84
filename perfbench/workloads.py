"""The three workloads: set-up, the timed op, its check, and a traced replay.

Each op calls the package only through public functions.  The untraced op is
exactly what a user would run; the traced op makes the same calls inside
spans and then replays the layers underneath them call by call, so per-layer
time can be attributed without touching the package.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time

from graph_inertia import cli
from graph_inertia.closed_forms import (
    cycle_inertia,
    forest_inertia,
    infinity_base_inertia,
    reduce_infinity_shape,
    reduce_theta_shape,
    theta_base_inertia,
)
from graph_inertia.core import Inertia
from graph_inertia.graph import (
    ComponentClass,
    adjacency_matrix,
    classify,
    connected_components,
    parse_graph,
)
from graph_inertia.matrix import congruent_diagonalize
from graph_inertia.oracle import inertia_oracle
from graph_inertia.reduction import reduce_to_core
from graph_inertia.solver import solve
from graph_inertia.structure import BaseKind, describe_base, hanging_trees, two_core

from . import inputs

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Stage spans of the structural replay, in the order ``solve`` runs them.
# ``solver.unattributed_ms`` is ``solver.solve`` minus these.
STAGES = (
    "graph.components",
    "structure.two_core",
    "structure.hanging_trees",
    "solver.pick_root",
    "closed_forms.forest",
    "structure.describe_base",
    "closed_forms.base",
)

TYPE_II = ("UnicyclicTypeII", "BicyclicTypeII")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Case:
    """An input with its fixed expected answer.

    ``expected`` is ``None`` when the input text no longer matches the pooled
    input the answer was confirmed on; every op on such a case fails.
    """

    inp: inputs.Input
    expected: dict | None
    path: str | None = None


@dataclass
class Tally:
    """Exact per-input counts read from one traced op."""

    n: int = 0
    methods: Counter = field(default_factory=Counter)
    core_vertices: int = 0
    folds: int = 0
    ecmo_steps: int = 0
    pendant_steps: int = 0
    contract_steps: int = 0
    remaining_n: int = 0
    output_bytes: int = 0


class Recorder:
    """In-memory spans: (op id, span id, parent span id, name, start, end).

    Spans of one op share the op id; the parent is the enclosing span.
    Start and end are process CPU time, like every time the harness takes.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [self.op, len(self.spans), self._open[-1] if self._open else None, name, process_time(), 0.0]
        self.spans.append(record)
        self._open.append(record[1])
        try:
            yield
        finally:
            record[5] = process_time()
            self._open.pop()

    def totals(self) -> Counter:
        """Seconds spent per span name."""
        out: Counter = Counter()
        for _, _, _, name, start, end in self.spans:
            out[name] += end - start
        return out


# ---------------------------------------------------------------------------
# set-up


def prepare(workload: str, seed: int, expected: dict, workdir: Path) -> list[Case]:
    """Generate the run's inputs from the seed and attach their answers.

    reduce-cli inputs are also written to files under ``workdir``, since the
    CLI reads its input from a file.
    """
    cases = []
    for i, inp in enumerate(inputs.make_inputs(workload, seed)):
        want = expected.get(inp.key)
        if want is not None and want["sha256"] != sha256(inp.text):
            want = None
        case = Case(inp, want)
        if workload == "reduce-cli":
            case.path = str(workdir / f"{i}.txt")
            with open(case.path, "w", encoding="utf-8") as fh:
                fh.write(inp.text)
        cases.append(case)
    return cases


def warm_up(workload: str, cases: list[Case]) -> None:
    """Run the op once on the smallest input of every family."""
    smallest: dict[str, Case] = {}
    for case in cases:
        if case.inp.family not in smallest or case.inp.n < smallest[case.inp.family].inp.n:
            smallest[case.inp.family] = case
    for case in smallest.values():
        try:
            OPS[workload](case)
        except Exception:  # noqa: BLE001 - failures are counted by the timed loop
            pass


# ---------------------------------------------------------------------------
# untraced ops and their checks


def solve_large_op(case: Case):
    return solve(parse_graph(case.inp.text)).inertia


def verify_small_op(case: Case):
    g = case.inp.graph
    return solve(g).inertia, inertia_oracle(g)


def reduce_cli_op(case: Case):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["reduce", "--output", "json", case.path], stdout=out, stderr=err)
    return code, out.getvalue()


def check(workload: str, case: Case, result) -> bool:
    want = case.expected
    if want is None:
        return False
    if workload == "solve-large":
        return list(result.as_tuple()) == want["inertia"]
    if workload == "verify-small":
        structural, oracle = result
        return structural == oracle and list(oracle.as_tuple()) == want["inertia"]
    code, stdout = result
    return code == 0 and sha256(stdout) == want["stdout_sha256"]


OPS = {"solve-large": solve_large_op, "verify-small": verify_small_op, "reduce-cli": reduce_cli_op}


# ---------------------------------------------------------------------------
# traced ops


def replay_solve(g, rec: Recorder, tally: Tally, top: bool = True) -> Inertia:
    """Re-run ``solve``'s public stage sequence, one span per call:
    components and class, ``two_core``, ``hanging_trees``, matched-root
    choice, then ``forest_inertia`` or ``describe_base`` and the base
    closed form.  Returns the inertia the stages add up to."""
    with rec.span("graph.components"):
        comps = connected_components(g)
        kinds = classify(g).components
    total = Inertia(0, 0, 0)
    for comp, kind in zip(comps, kinds):
        total = total + _replay_component(comp, kind, rec, tally, top)
    return total


def _replay_component(comp, kind, rec: Recorder, tally: Tally, top: bool) -> Inertia:
    if kind is ComponentClass.TREE:
        with rec.span("closed_forms.forest"):
            return forest_inertia(comp)
    if kind is ComponentClass.UNSUPPORTED:
        raise ValueError("benchmark inputs are never denser than bicyclic")
    with rec.span("structure.two_core"):
        core = two_core(comp)
    if top:
        tally.core_vertices += core.n
    if kind is ComponentClass.UNICYCLIC and core.n == comp.n:
        with rec.span("structure.describe_base"):
            d = describe_base(core)
        with rec.span("closed_forms.base"):
            return cycle_inertia(d.a)
    with rec.span("structure.hanging_trees"):
        trees = hanging_trees(comp, core)
    with rec.span("solver.pick_root"):
        matched = [t for t in trees if t.matched_at_root]
        choice = min(matched, key=lambda t: comp.vertex_index(t.root)) if matched else None
    if choice is not None:
        with rec.span("closed_forms.forest"):
            part = forest_inertia(choice.tree)
        rest = comp.without(choice.tree.vertices)
        if kind is ComponentClass.BICYCLIC:
            return part + replay_solve(rest, rec, tally, top=False)
        with rec.span("closed_forms.forest"):
            return part + forest_inertia(rest)
    with rec.span("structure.describe_base"):
        d = describe_base(core)
    with rec.span("closed_forms.base"):
        if d.kind is BaseKind.CYCLE:
            base = cycle_inertia(d.a)
        elif d.kind is BaseKind.INFINITY:
            base = infinity_base_inertia(d)
        else:
            base = theta_base_inertia(d)
    if d.kind is BaseKind.INFINITY:
        tally.folds += reduce_infinity_shape(d.p, d.l, d.q, d.a, d.b, d.c)[1]
    elif d.kind is BaseKind.THETA:
        tally.folds += reduce_theta_shape(d.p, d.l, d.q, d.a, d.b, d.c)[1]
    rest = comp.without(core.vertices)
    with rec.span("closed_forms.forest"):
        return base + forest_inertia(rest)


def _traced_solve(g, rec: Recorder, tally: Tally):
    with rec.span("solver.solve"):
        result = solve(g)
    tally.methods.update(m.value for m in result.methods)
    return result.inertia


def solve_large_traced(case: Case, rec: Recorder, tally: Tally):
    tally.n = case.inp.n
    with rec.span("op"):
        with rec.span("call"):
            with rec.span("graph.parse"):
                g = parse_graph(case.inp.text)
            structural = _traced_solve(g, rec, tally)
        with rec.span("replay"):
            staged = replay_solve(g, rec, tally)
    return structural, staged == structural


def verify_small_traced(case: Case, rec: Recorder, tally: Tally):
    g = case.inp.graph
    tally.n = case.inp.n
    with rec.span("op"):
        with rec.span("call"):
            structural = _traced_solve(g, rec, tally)
            with rec.span("oracle"):
                oracle = inertia_oracle(g)
        with rec.span("replay"):
            staged = replay_solve(g, rec, tally)
            with rec.span("graph.adjacency"):
                m = adjacency_matrix(g)
            with rec.span("matrix.diagonalize"):
                diag = congruent_diagonalize(m)
    tally.ecmo_steps += len(diag.steps)
    return (structural, oracle), staged == structural and diag.inertia == oracle


def reduce_cli_traced(case: Case, rec: Recorder, tally: Tally):
    tally.n = case.inp.n
    with rec.span("op"):
        with rec.span("call"):
            with rec.span("cli.main"):
                result = reduce_cli_op(case)
        with rec.span("replay"):
            with rec.span("graph.parse"):
                g = parse_graph(case.inp.text)
            with rec.span("reduction.reduce"):
                reduced, trace = reduce_to_core(g)
    rules = Counter(step.rule.value for step in trace.steps)
    tally.pendant_steps += rules["PendantPair"]
    tally.contract_steps += rules["PathContract"]
    tally.remaining_n += reduced.n
    tally.output_bytes += len(result[1].encode("utf-8"))
    printed = json.loads(result[1]) if result[0] == 0 else {}
    replay_ok = printed.get("offset") == list(trace.offset) and len(printed.get("steps", ())) == len(trace.steps)
    return result, replay_ok


TRACED_OPS = {
    "solve-large": solve_large_traced,
    "verify-small": verify_small_traced,
    "reduce-cli": reduce_cli_traced,
}
