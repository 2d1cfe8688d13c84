"""Build ``expected.json``: the fixed answer for every pooled input.

    PYTHONPATH=src python3 -m perfbench.make_expected

Answers are confirmed by routes independent of the structural solver:

* ``inertia_oracle`` on the whole graph when it is small;
* otherwise ``reduce_to_core`` followed by ``inertia_oracle`` on the reduced
  graph, plus the trace's offset (each isolated vertex left by the rewrites
  adds one zero eigenvalue, so the oracle only sees the rest).

``solve`` is run too, and a disagreement is reported, but the stored answer
is always the independent one.  For ``reduce-cli`` the stored value is the
digest of the CLI's JSON output; the inertia that output implies (offset
plus the oracle on its result graph) must equal the oracle's answer on the
input, or ``solve``'s where the input is too large for the dense oracle.
Each input is stored with the digest of its text, so a run can tell when an
input is no longer the one its answer was confirmed on.
"""

from __future__ import annotations

import io
import json
import sys
from time import perf_counter

from graph_inertia import cli
from graph_inertia.core import Inertia
from graph_inertia.graph import WeightedGraph, parse_graph
from graph_inertia.oracle import inertia_oracle
from graph_inertia.reduction import reduce_to_core
from graph_inertia.solver import solve

from . import inputs
from .workloads import EXPECTED_PATH, sha256

# The dense oracle is cubic; above this size the reduced graph is used.
ORACLE_MAX_N = 100
# The CLI reads its input from a file.
INPUT_FILE = EXPECTED_PATH.with_name("out") / "expected-input.txt"


def reduced_inertia(reduced: WeightedGraph, offset) -> Inertia:
    """Offset plus the oracle on the reduced graph, isolated vertices aside."""
    busy = [v for v in reduced.vertices if reduced.degree(v) > 0]
    core = inertia_oracle(reduced.induced(busy))
    return Inertia(offset[0] + core.pos, offset[1] + core.neg, core.zero + reduced.n - len(busy))


def independent_inertia(g: WeightedGraph) -> tuple[Inertia, str]:
    if g.n <= ORACLE_MAX_N:
        return inertia_oracle(g), "oracle"
    reduced, trace = reduce_to_core(g)
    return reduced_inertia(reduced, trace.offset), "reduce_to_core+oracle"


def cli_reduce_output(path: str) -> str:
    out = io.StringIO()
    code = cli.main(["reduce", "--output", "json", path], stdout=out, stderr=io.StringIO())
    if code != 0:
        raise RuntimeError(f"reduce exited with {code} on {path}")
    return out.getvalue()


def build_entry(workload: str, inp: inputs.Input) -> dict:
    g = parse_graph(inp.text)
    entry = {"sha256": sha256(inp.text), "n": g.n}
    if workload == "reduce-cli":
        INPUT_FILE.parent.mkdir(exist_ok=True)
        INPUT_FILE.write_text(inp.text, encoding="utf-8")
        stdout = cli_reduce_output(str(INPUT_FILE))
        printed = json.loads(stdout)
        result = parse_graph(inputs.edge_list_text(printed["result"]["vertices"], printed["result"]["edges"]))
        implied = reduced_inertia(result, printed["offset"])
        if g.n <= ORACLE_MAX_N:
            truth, route = inertia_oracle(g), "oracle"
        else:
            truth, route = solve(g).inertia, "solve"
        if implied != truth:
            raise RuntimeError(f"{inp.key}: reduce output implies {implied}, {route} gives {truth}")
        entry.update(stdout_sha256=sha256(stdout), inertia=list(truth.as_tuple()), confirmed_by=route)
        return entry
    truth, route = independent_inertia(g)
    structural = solve(g).inertia
    if structural != truth:
        print(f"MISMATCH {inp.key}: solve {structural}, {route} {truth}", file=sys.stderr)
    entry.update(inertia=list(truth.as_tuple()), confirmed_by=route)
    return entry


def write_entries(expected: dict) -> None:
    """Write the data file, one entry per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(expected.items())]
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> int:
    entries = {}
    for workload in sorted(inputs.WORKLOADS):
        for pick in inputs.pool(workload):
            t = perf_counter()
            inp = inputs.build_input(workload, *pick)
            entries[inp.key] = build_entry(workload, inp)
            print(f"{inp.key} {entries[inp.key]['inertia']} {perf_counter() - t:.1f}s", flush=True)
    write_entries(entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
