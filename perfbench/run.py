"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 25 --trace 0

One process, one thread, one caller in a closed loop: each op starts when the
previous one has returned and been checked.  A run sets up its inputs from
the seed, then repeats whole rounds over them (every input once per round,
in a seeded order), at least the workload's ``rounds``, until ``--seconds``
of wall time have passed.  Only whole rounds are run, so every run measures
the same mix of inputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes a separate
run that times every op untraced and traced, replays the layers beneath each
op one public call per span, and prints the per-layer metrics.  Metric lines
go to stdout as ``name value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the run's metadata (and, when traced, its spans) is written to
``perfbench/out/``.

Times are CPU time of the process (``time.process_time``), scaled to a
reference machine speed.  The ops are single-threaded and never wait on I/O.
On the shared virtual machine the bounds were set on, the same op's CPU time
still moved by 15-40% from one minute to the next, because neighbours slow
the core down, and wall time moved more.  So a fixed slice of stdlib-only
interpreter work (``calibration_unit``) runs before the loop and after every
op, for about 5% of the op's time, and each time is scaled by
``REFERENCE_CALIBRATION_S`` over the mean calibration time just before and
just after it.  Reported times are therefore "ms at the speed where one
calibration unit takes 3 ms".  The calibration never calls the package, so a
change to the package cannot move it.  Raw CPU times, the calibration
samples and the loop's wall time are kept in the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Typical CPU time of one calibration unit on the machine the bounds were set
# on (2 vCPU VM, Python 3.11); reported times are scaled to this speed.
REFERENCE_CALIBRATION_S = 0.003
# Calibration time after each op, as a share of the op's time (at least one unit).
CALIBRATION_SHARE = 0.05

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

METHODS = (
    "Forest",
    "CycleClosedForm",
    "UnicyclicTypeI",
    "UnicyclicTypeII",
    "BicyclicTypeI",
    "BicyclicTypeII",
    "OracleFallback",
)

# Per-layer time is the mean per op of the spans with that name.
SPAN_METRICS = {
    "graph.parse_ms": "graph.parse",
    "graph.components_ms": "graph.components",
    "graph.adjacency_ms": "graph.adjacency",
    "structure.two_core_ms": "structure.two_core",
    "structure.hanging_trees_ms": "structure.hanging_trees",
    "structure.describe_base_ms": "structure.describe_base",
    "solver.pick_root_ms": "solver.pick_root",
    "closed_forms.forest_ms": "closed_forms.forest",
    "closed_forms.base_ms": "closed_forms.base",
    "solver.solve_ms": "solver.solve",
    "oracle.ms": "oracle",
    "matrix.diagonalize_ms": "matrix.diagonalize",
    "reduction.reduce_ms": "reduction.reduce",
    "cli.main_ms": "cli.main",
}

# Exact counts, summed over the run's distinct inputs, from ``Tally`` fields.
COUNT_METRICS = {
    "closed_forms.folds": "folds",
    "matrix.ecmo_steps": "ecmo_steps",
    "reduction.pendant_steps": "pendant_steps",
    "reduction.contract_steps": "contract_steps",
    "reduction.remaining_n": "remaining_n",
    "cli.output_bytes": "output_bytes",
}

PER_LAYER = {
    **{name: "ms" for name in SPAN_METRICS},
    "solver.unattributed_ms": "ms",
    "cli.overhead_ms": "ms",
    "structure.core_share": "ratio",
    "solver.type_ii_share": "ratio",
    **{f"solver.share.{m}": "ratio" for m in METHODS},
    "solver.components": "count",
    **{name: "bytes" if name == "cli.output_bytes" else "count" for name in COUNT_METRICS},
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Run:
    """What the timed loop saw."""

    latencies: list[float] = field(default_factory=list)
    # One calibration before the first op and one after every op.
    calibration: list[float] = field(default_factory=list)
    order: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    rounds: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, key: str, ok: bool, why: str = "wrong answer") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{key}: {why}")


def calibration_unit() -> int:
    """A fixed slice of interpreter work like the package's: exact
    rational arithmetic, dict and set traffic, string formatting and
    splitting.  Its CPU time measures how fast the machine runs right now."""
    rng = random.Random(7)
    table: dict[str, int] = {}
    total = Fraction(0)
    lines = []
    for i in range(250):
        num, den = rng.randint(1, 20), rng.randint(1, 10)
        w = Fraction(num, den)
        total += w * w / (w + 1)
        table[f"v{i}"] = table.get(f"v{i // 2}", 0) + num
        lines.append(f"v{i} v{i + 1} {num}/{den}")
    return len(set(table)) + sum(len(line.split()) for line in lines) + total.denominator % 7


def calibrate(after_s: float) -> float:
    """Mean CPU time of one calibration unit, over units run for about
    ``CALIBRATION_SHARE`` of ``after_s`` (at least one unit)."""
    units = max(1, round(CALIBRATION_SHARE * after_s / REFERENCE_CALIBRATION_S))
    t = process_time()
    for _ in range(units):
        calibration_unit()
    return (process_time() - t) / units


def normalise(times: list[float], calibration: list[float]) -> list[float]:
    """Scale ``times[j]`` to the reference speed by the calibration taken just
    before it (``calibration[j]``) and just after it (``calibration[j + 1]``)."""
    return [2 * t * REFERENCE_CALIBRATION_S / (calibration[j] + calibration[j + 1]) for j, t in enumerate(times)]


def _import_benchmark():
    """Import the package from this checkout's ``src`` and the workloads."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import graph_inertia

    src = (ROOT / "src").resolve()
    if src not in Path(graph_inertia.__file__).resolve().parents:
        raise ImportError(f"graph_inertia was imported from outside {src}")
    from perfbench import workloads

    return workloads


def _loop(cases, seed: int, seconds: float, rounds: int, do_op) -> Run:
    """Whole rounds over ``cases`` in seeded order, at least ``rounds``,
    until ``seconds`` pass.

    ``do_op`` runs and records one op and returns its CPU time.
    """
    order_rng = random.Random(f"order/{seed}")
    run = Run()
    start, cpu_start = perf_counter(), process_time()
    run.calibration.append(calibrate(0.0))
    while run.rounds < rounds or perf_counter() - start < seconds:
        order = list(range(len(cases)))
        order_rng.shuffle(order)
        for i in order:
            op_s = do_op(run, i, cases[i])
            run.order.append(i)
            run.calibration.append(calibrate(op_s))
        run.rounds += 1
    run.wall = perf_counter() - start
    run.cpu = process_time() - cpu_start
    return run


def _call(fn, *args):
    """``fn(*args)`` and its duration; an exception is returned, not raised."""
    t = process_time()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - any failure of an op is counted
        result = exc
    return result, process_time() - t


def measure(workloads, workload: str, cases, seed: int, seconds: float, rounds: int) -> Run:
    op = workloads.OPS[workload]

    def do_op(run: Run, i: int, case) -> float:
        result, dt = _call(op, case)
        run.latencies.append(dt)
        if isinstance(result, Exception):
            run.record(case.inp.key, False, repr(result))
        else:
            run.record(case.inp.key, workloads.check(workload, case, result))
        return dt

    return _loop(cases, seed, seconds, rounds, do_op)


def measure_traced(workloads, workload: str, cases, seed: int, seconds: float, rounds: int):
    """Each op runs untraced, then traced with its replay; both are checked.

    Returns the run, the recorder, one tally per case (from the first round)
    and the total untraced time of the ops.
    """
    op = workloads.OPS[workload]
    traced_op = workloads.TRACED_OPS[workload]
    rec = workloads.Recorder()
    tallies = [workloads.Tally() for _ in cases]
    untraced_s = 0.0

    def do_op(run: Run, i: int, case) -> float:
        nonlocal untraced_s
        result, dt = _call(op, case)
        untraced_s += dt
        ok = not isinstance(result, Exception) and workloads.check(workload, case, result)
        rec.op = run.attempted
        tally = tallies[i] if run.rounds == 0 else workloads.Tally()
        traced, traced_dt = _call(traced_op, case, rec, tally)
        if isinstance(traced, Exception):
            run.record(case.inp.key, False, repr(traced))
        else:
            result, replay_ok = traced
            ok = ok and workloads.check(workload, case, result)
            run.record(case.inp.key, ok and replay_ok, "replay disagrees" if ok else "wrong answer")
        return dt + traced_dt

    run = _loop(cases, seed, seconds, rounds, do_op)
    return run, rec, tallies, untraced_s


def end_to_end_metrics(run: Run, distinct: int, rounds: int, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and how the tail was taken.

    The tail percentile is the highest that has ``TAIL_BEYOND`` samples
    beyond it in a run of the minimum ``rounds`` over ``distinct`` inputs.
    It is fixed per workload, so a faster program, which fits more rounds
    into the same seconds, is still read at the same percentile.
    """
    lat = sorted(normalise(run.latencies, run.calibration))
    base = rounds * distinct
    percentile = 1 - TAIL_BEYOND / base
    rank = -(-len(lat) * (base - TAIL_BEYOND) // base)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": (run.attempted - run.failed) / sum(lat),
        "latency_ms_p50": 1000 * statistics.median(lat),
        "latency_ms_tail": 1000 * lat[rank - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {"percentile": 100 * percentile, "samples": len(lat), "beyond": len(lat) - rank}
    return metrics, tail


def per_layer_metrics(workloads, rec, tallies, run: Run, untraced_s: float) -> dict:
    totals = rec.totals()
    scale = REFERENCE_CALIBRATION_S / statistics.median(run.calibration)

    def ms(span: str) -> float:
        return 1000 * scale * totals[span] / run.attempted

    metrics = {name: ms(span) for name, span in SPAN_METRICS.items()}
    solve_ms = metrics["solver.solve_ms"]
    metrics["solver.unattributed_ms"] = (
        solve_ms - sum(ms(s) for s in workloads.STAGES) if solve_ms else 0.0
    )
    main_ms = metrics["cli.main_ms"]
    metrics["cli.overhead_ms"] = (
        main_ms - metrics["graph.parse_ms"] - metrics["reduction.reduce_ms"] if main_ms else 0.0
    )
    methods: Counter = Counter()
    for t in tallies:
        methods.update(t.methods)
    components = sum(methods.values())
    n = sum(t.n for t in tallies)
    metrics["structure.core_share"] = sum(t.core_vertices for t in tallies) / n
    metrics["solver.type_ii_share"] = (
        sum(methods[m] for m in workloads.TYPE_II) / components if components else 0.0
    )
    for m in METHODS:
        metrics[f"solver.share.{m}"] = methods[m] / components if components else 0.0
    metrics["solver.components"] = components
    for name, attr in COUNT_METRICS.items():
        metrics[name] = sum(getattr(t, attr) for t in tallies)
    metrics["trace.overhead_ratio"] = (totals["call"] - untraced_s) / untraced_s
    return metrics


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve-large", "verify-small", "reduce-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    t0 = process_time()
    try:
        workloads = _import_benchmark()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import_s = process_time() - t0

    # The reduce-cli inputs are files, since the CLI reads its input from one.
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, setup_calibration = [], [calibrate(import_s)]
        for _ in range(SETUP_REPEATS):
            t = process_time()
            expected = workloads.load_expected()
            cases = workloads.prepare(args.workload, args.seed, expected, workdir)
            workloads.warm_up(args.workload, cases)
            setup_times.append(process_time() - t)
            setup_calibration.append(calibrate(setup_times[-1]))
        import_scaled = import_s * REFERENCE_CALIBRATION_S / setup_calibration[0]
        setup_s = import_scaled + statistics.median(normalise(setup_times, setup_calibration))
        rounds = workloads.inputs.WORKLOADS[args.workload].rounds
        if args.trace:
            run, rec, tallies, untraced_s = measure_traced(
                workloads, args.workload, cases, args.seed, args.seconds, rounds
            )
            metrics = per_layer_metrics(workloads, rec, tallies, run, untraced_s)
            units, tail = PER_LAYER, None
        else:
            run = measure(workloads, args.workload, cases, args.seed, args.seconds, rounds)
            metrics, tail = end_to_end_metrics(run, len(cases), rounds, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run.failed == 0
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"fail_ratio {run.failed / run.attempted:.6g} ratio (base: {run.failed} of {run.attempted} ops)")
    if tail:
        print(f"latency_ms_tail taken at p{tail['percentile']:.2f} of {tail['samples']} samples, {tail['beyond']} beyond")
    for failure in run.failures:
        print(f"failed {failure}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "samples": {
            "ops": run.attempted,
            "rounds": run.rounds,
            "distinct_inputs": len(cases),
            "setup_repeats": SETUP_REPEATS,
        },
        "loop": {"wall_s": run.wall, "cpu_s": run.cpu},
        "calibration": {
            "reference_s": REFERENCE_CALIBRATION_S,
            "loop_median_s": statistics.median(run.calibration),
        },
        "raw_cpu": {
            "setup_s": import_s + statistics.median(setup_times),
            "latency_ms_p50": 1000 * statistics.median(run.latencies) if run.latencies else None,
        },
        "setup": {"import_s": import_s, "repeats_s": setup_times, "calibration_s": setup_calibration},
        "fail_ratio": {"value": run.failed / run.attempted, "failed": run.failed, "attempted": run.attempted},
        "latency_ms_tail": tail,
        "inputs": [case.inp.key for case in cases],
        "ops": {"input": run.order, "cpu_s": run.latencies, "calibration_s": run.calibration},
        "failures": run.failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.trace:
        report["spans"] = rec.spans
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
