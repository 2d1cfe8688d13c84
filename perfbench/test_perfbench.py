"""Tests for the benchmark itself, on scaled-down instances of its inputs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from graph_inertia.core import Inertia
from graph_inertia.graph import parse_graph
from graph_inertia.oracle import inertia_oracle
from graph_inertia.solver import solve

from perfbench import inputs, run, workloads

SMALL_SIZES = (30, 60, 90)


def _small_case(family: str, n: int, instance: int = 0) -> workloads.Case:
    inp = inputs.build_input("solve-large", family, n, instance)
    return workloads.Case(inp, {"inertia": list(inertia_oracle(parse_graph(inp.text)).as_tuple())})


def test_inputs_are_a_pure_function_of_the_seed():
    first = inputs.make_inputs("verify-small", 7)
    again = inputs.make_inputs("verify-small", 7)
    assert [(i.key, i.text) for i in first] == [(i.key, i.text) for i in again]
    assert inputs.select("solve-large", 7) == inputs.select("solve-large", 7)
    assert inputs.select("solve-large", 7) != inputs.select("solve-large", 8)
    for family in inputs.LONG_FAMILIES:
        assert inputs.build_input("solve-large", family, 90, 3) == inputs.build_input("solve-large", family, 90, 3)


def test_every_seed_takes_the_same_number_of_each_stratum():
    spec = inputs.WORKLOADS["reduce-cli"]
    for seed in (0, 1, 2):
        picks = inputs.select("reduce-cli", seed)
        strata = {(f, n) for f, n, _ in picks}
        assert len(strata) == len(spec.families) * len(spec.sizes)
        assert len(picks) == len(strata) * spec.pick


@pytest.mark.parametrize("family", inputs.TESTGEN_FAMILIES + inputs.LONG_FAMILIES)
@pytest.mark.parametrize("n", SMALL_SIZES)
def test_staged_replay_equals_solve(family, n):
    g = parse_graph(inputs.build_input("solve-large", family, n, 1).text)
    staged = workloads.replay_solve(g, workloads.Recorder(), workloads.Tally())
    assert staged == solve(g).inertia


@pytest.mark.parametrize("family", inputs.WORKLOADS["verify-small"].families)
def test_staged_replay_equals_solve_on_every_regime(family):
    for n in inputs.WORKLOADS["verify-small"].sizes[:3]:
        g = inputs.build_input("verify-small", family, n, 2).graph
        assert workloads.replay_solve(g, workloads.Recorder(), workloads.Tally()) == solve(g).inertia


@pytest.mark.parametrize(
    "family, method",
    [("long-cycle", "UnicyclicTypeII"), ("long-infinity", "BicyclicTypeII"), ("long-theta", "BicyclicTypeII")],
)
def test_long_families_are_type_ii(family, method):
    for instance in range(4):
        case = _small_case(family, 60, instance)
        tally = workloads.Tally()
        (structural, replay_ok) = workloads.solve_large_traced(case, workloads.Recorder(), tally)
        assert replay_ok
        assert list(structural.as_tuple()) == case.expected["inertia"]
        assert dict(tally.methods) == {method: 1}
        if family != "long-cycle":
            assert tally.folds > 0


def test_long_cycle_takes_the_zero_eigenvalue_branch():
    g = parse_graph(inputs.build_input("solve-large", "long-cycle", 60, 0).text)
    assert solve(g).inertia.zero == 2


def test_corrupted_expected_answer_is_counted_as_a_failure():
    cases = [_small_case(family, 30) for family in inputs.LONG_FAMILIES]
    rounds = 2
    clean = run.measure(workloads, "solve-large", cases, seed=0, seconds=0, rounds=rounds)
    assert (clean.attempted, clean.failed) == (3 * rounds, 0)
    pos, neg, zero = cases[1].expected["inertia"]
    cases[1].expected = {"inertia": [pos + 1, neg, zero - 1]}
    corrupted = run.measure(workloads, "solve-large", cases, seed=0, seconds=0, rounds=rounds)
    assert (corrupted.attempted, corrupted.failed) == (3 * rounds, rounds)
    assert corrupted.failures == [f"{cases[1].inp.key}: wrong answer"] * rounds


def test_traced_failures_name_their_cause(monkeypatch):
    cases = [_small_case("long-cycle", 30)]
    pos, neg, zero = cases[0].expected["inertia"]
    cases[0].expected = {"inertia": [pos + 1, neg, zero - 1]}
    wrong = run.measure_traced(workloads, "solve-large", cases, seed=0, seconds=0, rounds=1)[0]
    assert wrong.failures == [f"{cases[0].inp.key}: wrong answer"]

    cases = [_small_case("long-cycle", 30)]
    monkeypatch.setattr(workloads, "replay_solve", lambda g, rec, tally: Inertia(0, 0, g.n))
    disagrees = run.measure_traced(workloads, "solve-large", cases, seed=0, seconds=0, rounds=1)[0]
    assert disagrees.failures == [f"{cases[0].inp.key}: replay disagrees"]


@pytest.mark.parametrize("ran_rounds, beyond", [(3, run.TAIL_BEYOND), (9, 3 * run.TAIL_BEYOND)])
def test_tail_percentile_is_fixed_by_the_minimum_run(ran_rounds, beyond):
    distinct, rounds = 36, 3
    samples = [float(i + 1) for i in range(ran_rounds * distinct)]
    ran = run.Run(latencies=samples, calibration=[run.REFERENCE_CALIBRATION_S] * (len(samples) + 1))
    ran.attempted = len(samples)
    metrics, tail = run.end_to_end_metrics(ran, distinct, rounds, setup_s=1.0)
    assert tail["beyond"] == beyond
    assert metrics["latency_ms_tail"] == pytest.approx(1000 * (len(samples) - beyond))
    assert tail["percentile"] == pytest.approx(100 * (1 - run.TAIL_BEYOND / (rounds * distinct)))


def test_input_that_no_longer_matches_its_digest_fails(tmp_path):
    expected = workloads.load_expected()
    cases = workloads.prepare("verify-small", 0, expected, tmp_path)
    assert all(case.expected is not None for case in cases)
    key = cases[0].inp.key
    stale = {**expected, key: {**expected[key], "sha256": "0" * 64}}
    cases = workloads.prepare("verify-small", 0, stale, tmp_path)[:3]
    assert cases[0].expected is None
    assert run.measure(workloads, "verify-small", cases, seed=0, seconds=0, rounds=2).failed == 2


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    cases = []
    for i, family in enumerate(("long-infinity", "unicyclic")):
        inp = inputs.build_input("reduce-cli", family, 30, 0)
        path = tmp_path / f"{i}.txt"
        path.write_text(inp.text)
        stdout = workloads.reduce_cli_op(workloads.Case(inp, None, str(path)))[1]
        cases.append(workloads.Case(inp, {"stdout_sha256": workloads.sha256(stdout)}, str(path)))
    result, rec, tallies, untraced = run.measure_traced(workloads, "reduce-cli", cases, seed=0, seconds=0, rounds=1)
    assert result.failed == 0
    metrics = run.per_layer_metrics(workloads, rec, tallies, result, untraced)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["reduction.contract_steps"] > 0
    assert metrics["cli.main_ms"] > metrics["reduction.reduce_ms"] > 0


def test_expected_data_covers_the_whole_pool():
    expected = workloads.load_expected()
    keys = {f"{w}/{f}/{n}/{i}" for w in inputs.WORKLOADS for f, n, i in inputs.pool(w)}
    assert set(expected) == keys
    assert all(e["confirmed_by"] != "solve" or e["n"] > 100 for e in expected.values())


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
