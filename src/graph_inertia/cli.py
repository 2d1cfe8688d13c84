"""Command-line front end: compute, classify, reduce, verify, generate, and
reproduce the double-cycle case table.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 verification mismatch.
``main`` writes only to the streams it is given, argparse's output included.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
from typing import BinaryIO, Sequence, TextIO

from .closed_forms import INFINITY_TABLE, infinity_condition, infinity_inertia
from .core import GraphError, Inertia, ParseError
from .graph import (
    GraphClass,
    WeightedGraph,
    _edges_json,
    _json_array,
    _q,
    _serialized_lines,
    adjacency_matrix,
    classify,
    parse_graph,
)
from .oracle import inertia_oracle
from .reduction import ReductionRule, ReductionTrace, reduce_to_core
from .solver import solve
from .structure import describe_base, two_core
from .testgen import GenSpec, build_infinity, generate, sample_infinity_weights

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_MISMATCH = 3

# The largest --n of gen and verify and --count of verify, checked first.
MAX_N = 10**7
MAX_COUNT = 10**6


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args only reads the parser, so every
    # call to main sees the same parser a fresh build would give.
    parser = argparse.ArgumentParser(
        prog="graph-inertia",
        description="Exact inertia of weighted trees, unicyclic and bicyclic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, run):
        p.set_defaults(run=run)
        p.add_argument("input", nargs="?", default="-", help="input file, or - for stdin")
        p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
        p.add_argument("--output", choices=("human", "json"), default="human")
        return p

    inertia = add_io(sub.add_parser("inertia", help="compute (i+, i-, i0)"), _cmd_inertia)
    inertia.add_argument("--method", choices=("structural", "oracle", "both"), default="structural")
    inertia.add_argument("--dump-matrix", action="store_true")
    add_io(sub.add_parser("classify", help="report the graph class and base shape"), _cmd_classify)
    add_io(sub.add_parser("reduce", help="run the rewrite engine and print its trace"), _cmd_reduce)

    verify = sub.add_parser("verify", help="compare solver and oracle on random graphs")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--class", dest="klass", choices=("tree", "unicyclic", "bicyclic"), default="tree")
    verify.add_argument("--count", type=int, default=100)
    verify.add_argument("--n", type=int, default=10, help="maximum vertex count")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--output", choices=("human", "json"), default="human")

    gen = sub.add_parser("gen", help="generate a random graph")
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("--class", dest="klass", choices=("tree", "forest", "unicyclic", "bicyclic"), default="tree")
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("edgelist", "json"), default="edgelist")

    table = sub.add_parser("table1", help="reproduce the double-cycle case table")
    table.set_defaults(run=_cmd_table1)
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--output", choices=("human", "json"), default="human")
    return parser


def _read_graph(args, stdin: TextIO | BinaryIO | None) -> WeightedGraph:
    # Bytes go to parse_graph undecoded, so invalid UTF-8 is a parse error.
    if args.input == "-":
        text = (stdin or sys.stdin.buffer).read()
    else:
        with open(args.input, "rb") as fh:
            text = fh.read()
    return parse_graph(text, args.format)


def _inertia_json(i: Inertia) -> dict:
    return {"pos": i.pos, "neg": i.neg, "zero": i.zero}


def _fmt(i: Inertia) -> str:
    return f"i+={i.pos} i-={i.neg} i0={i.zero}"


def _report(args, out: TextIO, payload: dict, lines: list[str]) -> None:
    """Print ``payload`` as JSON or ``lines`` as text, as ``--output`` asks."""
    if args.output == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        print("\n".join(lines), file=out)


def _cmd_inertia(args, out: TextIO, stdin: TextIO | BinaryIO | None) -> int:
    g = _read_graph(args, stdin)
    payload: dict = {}
    lines = []
    if args.dump_matrix:
        payload["matrix"] = adjacency_matrix(g).dump().splitlines()
        lines.extend(payload["matrix"])
    structural = oracle = None
    if args.method in ("structural", "both"):
        result = solve(g)
        structural = result.inertia
        methods = [m.value for m in result.methods]
        payload["structural"] = {**_inertia_json(structural), "methods": methods}
        lines.append(f"structural: {_fmt(structural)} [{','.join(methods)}]")
    if args.method in ("oracle", "both"):
        oracle = inertia_oracle(g)
        payload["oracle"] = _inertia_json(oracle)
        lines.append(f"oracle: {_fmt(oracle)}")
    ok = args.method != "both" or structural == oracle
    if args.method == "both":
        payload["match"] = ok
        lines.append("match" if ok else "MISMATCH")
    _report(args, out, payload, lines)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_classify(args, out: TextIO, stdin: TextIO | BinaryIO | None) -> int:
    g = _read_graph(args, stdin)
    cls = classify(g)
    payload = {"class": cls.overall.value, "components": [k.value for k in cls.components]}
    line = cls.overall.value
    if cls.overall in (GraphClass.UNICYCLIC, GraphClass.BICYCLIC):
        payload["base"] = str(describe_base(two_core(g)))
        line += f" {payload['base']}"
    _report(args, out, payload, [line])
    return EXIT_OK


def _reduce_json(reduced: WeightedGraph, trace: ReductionTrace) -> str:
    """The reduce report as ``json.dumps(payload, indent=2)`` prints it, written
    directly: that call runs CPython's pure-Python encoder, which costs more
    than the parse and the rewrites together on long traces."""
    steps = []
    pendant_pair = ReductionRule.PENDANT_PAIR
    for s in trace.steps:
        if s.rule is pendant_pair:
            # Every pendant pair removes two vertices, adds no edge and
            # costs (1, 1), so only its two ids vary.
            v, u = s.removed
            steps.append(
                f'{{\n      "rule": "PendantPair",\n      "removed": [\n        {_q(v)},\n        {_q(u)}\n'
                f'      ],\n      "added": [],\n      "offset": [\n        1,\n        1\n      ]\n    }}'
            )
        else:
            removed = _json_array([_q(v) for v in s.removed], "\n      ")
            added = _edges_json(s.added, "\n      ")
            pos, neg = s.offset
            steps.append(
                f'{{\n      "rule": {_q(s.rule.value)},\n      "removed": {removed},\n'
                f'      "added": {added},\n      "offset": [\n        {pos},\n        {neg}\n      ]\n    }}'
            )
    pos, neg = trace.offset
    steps_text = _json_array(steps, "\n  ")
    vertices = _json_array([_q(v) for v in reduced.vertices], "\n    ")
    edges = _edges_json(reduced._edge_rows(), "\n    ")
    return (
        f'{{\n  "steps": {steps_text},\n'
        f'  "offset": [\n    {pos},\n    {neg}\n  ],\n'
        f'  "result": {{\n    "vertices": {vertices},\n    "edges": {edges}\n  }}\n}}'
    )


def _cmd_reduce(args, out: TextIO, stdin: TextIO | BinaryIO | None) -> int:
    g = _read_graph(args, stdin)
    reduced, trace = reduce_to_core(g)
    if args.output == "json":
        print(_reduce_json(reduced, trace), file=out)
    else:
        if trace.steps:
            print(trace.serialize(), file=out)
        off = trace.offset
        print(f"offset=(+{off[0]},+{off[1]}) remaining n={reduced.n} m={reduced.m}", file=out)
    return EXIT_OK


def _cmd_verify(args, out: TextIO, stdin: TextIO | BinaryIO | None) -> int:
    n_min = {"tree": 1, "unicyclic": 3, "bicyclic": 5}[args.klass]
    if args.count < 1:
        raise GraphError(f"--count must be at least 1, got {args.count}")
    if args.count > MAX_COUNT:
        raise GraphError(f"--count must be at most {MAX_COUNT}, got {args.count}")
    if args.n > MAX_N:
        raise GraphError(f"--n must be at most {MAX_N}, got {args.n}")
    if args.n < n_min:
        raise GraphError(f"--n must be at least {n_min} for {args.klass} graphs, got {args.n}")
    mismatches = []
    for i in range(args.count):
        seed = args.seed + i
        n = n_min + seed % (args.n - n_min + 1)
        regime = "force" if i % 2 else "random"
        spec = GenSpec(args.klass, n, seed, regime=regime)
        g = generate(spec)
        if solve(g).inertia != inertia_oracle(g):
            mismatches.append(seed)
    matches = args.count - len(mismatches)
    payload = {"count": args.count, "matches": matches, "mismatch_seeds": mismatches}
    lines = [f"{matches}/{args.count} match", *(f"mismatch seed={seed}" for seed in mismatches)]
    _report(args, out, payload, lines)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _cmd_gen(args, out: TextIO, stdin: TextIO | BinaryIO | None) -> int:
    if args.n > MAX_N:
        raise GraphError(f"--n must be at most {MAX_N}, got {args.n}")
    g = generate(GenSpec(args.klass, args.n, args.seed))
    # The lines serialize_graph joins, written 4096 at a time: the text is
    # never held whole, and one write per line made the system time on a
    # pipe ten times that of one joined write at 10^6 lines.
    lines = _serialized_lines(g, args.format)
    while chunk := "".join(itertools.islice(lines, 4096)):
        out.write(chunk)
    return EXIT_OK


def _cmd_table1(args, out: TextIO, stdin: TextIO | BinaryIO | None) -> int:
    import random

    rng = random.Random(args.seed)
    rows = []
    all_match = True
    for shape, row in INFINITY_TABLE.items():
        p, l, q = shape
        for key, expected in row.outcomes:
            branch = None if key == "any" else key
            a, b, c = sample_infinity_weights(p, l, q, rng, branch=branch)
            closed = infinity_inertia(p, l, q, a, b, c)
            oracle = inertia_oracle(build_infinity(p, l, q, a, b, c))
            match = closed.pn == expected and oracle.pn == expected
            all_match = all_match and match
            cond = infinity_condition(p, l, q, a, b, c)
            rows.append(
                {
                    "shape": f"infinity({p},{l},{q})",
                    "branch": key,
                    "condition": row.condition_text,
                    "witness": {k: [str(x) for x in ws] for k, ws in zip("abc", (a, b, c))},
                    "condition_sides": None if cond is None else [str(cond.lhs), str(cond.rhs)],
                    "closed_form": list(closed.pn),
                    "oracle": list(oracle.pn),
                    "table": list(expected),
                    "match": match,
                }
            )
    lines = [
        f"{r['shape']:<16} branch={r['branch']:<4} closed={tuple(r['closed_form'])} "
        f"oracle={tuple(r['oracle'])} table={tuple(r['table'])} "
        f"{'match' if r['match'] else 'MISMATCH'}"
        for r in rows
    ]
    lines.append("all match" if all_match else "MISMATCHES FOUND")
    _report(args, out, {"rows": rows, "all_match": all_match}, lines)
    return EXIT_OK if all_match else EXIT_MISMATCH


def main(
    argv: Sequence[str] | None = None,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
    stdin: TextIO | BinaryIO | None = None,
) -> int:
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        # The subcommand is required, so every parse sets its handler.
        return args.run(args, out, stdin)
    except ParseError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_PARSE
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
