import argparse
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_inertia
from graph_inertia import Inertia, WeightedGraph, cli
from graph_inertia.cli import main
from graph_inertia.graph import parse_graph, serialize_graph
from graph_inertia.reduction import ReductionTrace, reduce_to_core
from graph_inertia.solver import SolveResult
from graph_inertia.testgen import (
    GenSpec,
    build_cycle,
    build_infinity,
    build_theta,
    generate,
    sample_cycle_weights,
    sample_infinity_weights,
    sample_theta_weights,
)

from reference import reduce_payload
from test_acceptance import _hang_two_vertex_paths


def run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


C3 = "1 2 1\n2 3 1\n3 1 1\n"


def test_inertia_both_on_triangle(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(C3)
    code, out, _ = run(["inertia", "--method", "both", str(path)])
    assert code == 0
    assert out.count("i+=1 i-=2 i0=0") == 2
    assert "match" in out


def test_inertia_from_stdin_oracle_only():
    code, out, _ = run(["inertia", "--method", "oracle", "-"], C3)
    assert code == 0
    assert "oracle: i+=1 i-=2 i0=0" in out


def test_inertia_json_roundtrips():
    code, out, _ = run(["inertia", "--method", "both", "--output", "json", "-"], C3)
    assert code == 0
    payload = json.loads(out)
    assert (payload["structural"]["pos"], payload["structural"]["neg"], payload["structural"]["zero"]) == (1, 2, 0)
    assert payload["oracle"] == {"pos": 1, "neg": 2, "zero": 0}
    assert payload["match"] is True


def test_inertia_dump_matrix():
    code, out, _ = run(["inertia", "--method", "oracle", "--dump-matrix", "-"], "1 2 1/2\n")
    assert code == 0
    assert "0 1/2" in out


def test_classify_theta():
    text = "u v 1\nu x 1\nx v 1\nu y1 1\ny1 y2 1\ny2 y3 1\ny3 v 1\n"
    code, out, _ = run(["classify", "-"], text)
    assert code == 0
    assert out.strip() == "bicyclic theta(2,3,5)"


def test_classify_tree_json():
    code, out, _ = run(["classify", "--output", "json", "-"], "a b 1\n")
    assert code == 0
    assert json.loads(out) == {"class": "tree", "components": ["tree"]}


def test_reduce_prints_trace():
    code, out, _ = run(["reduce", "-"], "a b 1\nb c 2\n")
    assert code == 0
    assert "PendantPair" in out
    assert "offset=(+1,+1)" in out


def test_reduce_json():
    code, out, _ = run(["reduce", "--output", "json", "-"], "a b 1\nb c 2\n")
    payload = json.loads(out)
    assert payload["offset"] == [1, 1]
    assert payload["result"]["vertices"] == ["c"]


# Vertex ids that need escaping or that an edge list cannot hold: a quote, a
# backslash, the comment and header marks, a slash, a non-ASCII letter, an
# astral character (a surrogate pair in ASCII JSON) and a control character.
_ODD_IDS = ['"', "\\", "#", "/", "vertices:x", "\u00e9", "\U0001f600", "\x01"]


def _relabelled(g, names):
    name = dict(zip(g.vertices, names))
    return WeightedGraph([name[v] for v in g.vertices], [(name[u], name[v], w) for u, v, w in g.edges])


def _reduce_json_matches_the_reference(text, fmt):
    code, out, err = run(["reduce", "--format", fmt, "--output", "json", "-"], text)
    reduced, trace = reduce_to_core(parse_graph(text, fmt))
    assert (code, err) == (0, "")
    assert out == json.dumps(reduce_payload(reduced, trace), indent=2) + "\n"
    return out


def _odd_cycle():
    """A 13-cycle on the odd ids and five plain ones, with weights a/b."""
    names = _ODD_IDS + [f"c{i}" for i in range(5)]
    ws = [Fraction(2 + i % 3, 3 + i % 4) for i in range(len(names))]
    return build_cycle(ws), names


@pytest.mark.parametrize("case", ["empty", "header-only", "peels-away", "contracts", "mixed"])
def test_reduce_json_bytes_equal_json_dumps(case):
    if case == "empty":
        out = _reduce_json_matches_the_reference("", "edgelist")
        assert '"steps": []' in out and '"vertices": []' in out and '"edges": []' in out
    elif case == "header-only":
        out = _reduce_json_matches_the_reference("vertices: a b c\n", "edgelist")
        assert '"steps": []' in out and '"edges": []' in out and '"vertices": [\n' in out
    elif case == "peels-away":
        path = WeightedGraph(_ODD_IDS, [(u, v, "3/7") for u, v in zip(_ODD_IDS, _ODD_IDS[1:])])
        out = _reduce_json_matches_the_reference(serialize_graph(path, "json"), "json")
        assert '"vertices": []' in out and "\\ud83d\\ude00" in out and "\\u0001" in out
    elif case == "contracts":
        cycle, names = _odd_cycle()
        out = _reduce_json_matches_the_reference(serialize_graph(_relabelled(cycle, names), "json"), "json")
        steps = json.loads(out)["steps"]
        assert any(s["rule"] == "PathContract" and "/" in s["added"][0][2] for s in steps)
    else:
        # The reduce-cli shape: a base that folds, a two-vertex path hanging
        # off every base vertex, so pendant pairs and contractions share one
        # trace, with escaped ids in both.
        cycle, _ = _odd_cycle()
        g = _hang_two_vertex_paths(cycle, random.Random(16))
        names = _ODD_IDS + [f"p{i}" for i in range(g.n - len(_ODD_IDS))]
        out = _reduce_json_matches_the_reference(serialize_graph(_relabelled(g, names), "json"), "json")
        steps = json.loads(out)["steps"]
        rules = {s["rule"] for s in steps if set(s["removed"]) & set(_ODD_IDS)}
        assert rules == {"PendantPair", "PathContract"}


_IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
    lambda v: not any(ch.isspace() for ch in v)
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("tree", "forest", "unicyclic", "bicyclic")),
    st.integers(5, 40),
    st.integers(0, 10**6),
    st.sampled_from(("random", "unit", "force")),
    st.data(),
)
def test_reduce_json_bytes_on_relabelled_graphs(cls, n, seed, regime, data):
    g = generate(GenSpec(cls, n, seed, regime=regime))
    names = data.draw(st.lists(_IDS, min_size=g.n, max_size=g.n, unique=True))
    _reduce_json_matches_the_reference(serialize_graph(_relabelled(g, names), "json"), "json")


_PARSER_CALLS = [
    (["inertia", "--method", "both", "--output", "json", "-"], C3),
    (["inertia", "--method", "nonsense", "-"], C3),
    (["--help"], ""),
    (["inertia", "-"], C3),
    (["reduce", "--output", "json", "-"], "a b 1\nb c 2\n"),
]


def _parser_transcript(capsys):
    """Exit code and every byte written, argparse's own output included."""
    got = []
    for argv, text in _PARSER_CALLS:
        code, out, err = run(argv, text)
        printed = capsys.readouterr()
        got.append((code, out, err, printed.out, printed.err))
    return got


def test_cached_parser_keeps_no_state(monkeypatch, capsys):
    cli._build_parser.cache_clear()
    cached = _parser_transcript(capsys)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(_PARSER_CALLS) - 1)
    assert [t[0] for t in cached] == [0, 1, 0, 0, 0]
    assert cached[3][1] == "structural: i+=1 i-=2 i0=0 [CycleClosedForm]\n"
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert _parser_transcript(capsys) == cached


def test_gen_deterministic_and_parseable():
    args = ["gen", "--class", "unicyclic", "--n", "9", "--seed", "5"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert code1 == code2 == 0
    assert out1 == out2
    g = parse_graph(out1)
    assert g.n == 9


def test_gen_json_format():
    code, out, _ = run(["gen", "--class", "tree", "--n", "4", "--seed", "1", "--format", "json"])
    assert code == 0
    assert parse_graph(out, "json").n == 4


# gen writes its lines 4096 at a time: a tree on n vertices has n lines.
@pytest.mark.parametrize("cls,n", [("tree", 1), ("tree", 4096), ("tree", 4097), ("bicyclic", 9001)])
@pytest.mark.parametrize("fmt", ["edgelist", "json"])
def test_gen_writes_what_serialize_graph_returns(cls, n, fmt):
    code, out, err = run(["gen", "--class", cls, "--n", str(n), "--seed", "6", "--format", fmt])
    assert (code, err) == (0, "")
    assert out == serialize_graph(generate(GenSpec(cls, n, 6)), fmt)


def test_gen_writes_nothing_for_a_graph_it_cannot_write(monkeypatch):
    # No generated id holds a "#"; a graph that does is refused before its
    # first line reaches the stream.
    g = WeightedGraph(["a", "b#"], [("a", "b#", 1)])
    monkeypatch.setattr(cli, "generate", lambda spec: g)
    code, out, err = run(["gen"])
    assert (code, out) == (1, "")
    assert err == "error: vertex id 'b#' cannot be written as an edge list\n"
    code, out, _ = run(["gen", "--format", "json"])
    assert code == 0 and parse_graph(out, "json") == g


def test_verify_summary_and_exit():
    code, out, _ = run(["verify", "--class", "unicyclic", "--count", "25", "--n", "12", "--seed", "7"])
    assert code == 0
    assert out.strip() == "25/25 match"


def test_verify_json_output_is_stable():
    args = ["verify", "--class", "bicyclic", "--count", "10", "--n", "10", "--seed", "3", "--output", "json"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert code1 == 0 and out1 == out2
    assert json.loads(out1)["matches"] == 10


@pytest.mark.parametrize("extra", [
    ["--count", "0"],
    ["--count", "-2"],
    ["--class", "tree", "--n", "0"],
    ["--class", "unicyclic", "--n", "2"],
    ["--class", "bicyclic", "--n", "4"],
])
def test_verify_rejects_a_count_or_size_below_its_minimum(extra):
    code, out, err = run(["verify", *extra])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_accepts_the_class_minimum():
    code, out, _ = run(["verify", "--class", "bicyclic", "--n", "5", "--seed", "17575", "--count", "1"])
    assert code == 0 and out == "1/1 match\n"


class _Generated(Exception):
    pass


def _refuse_to_generate(spec):
    raise _Generated(spec.n)


@pytest.mark.parametrize("argv, message", [
    (["gen", "--n", "100000000000000"], "--n must be at most 10000000, got 100000000000000"),
    (["gen", "--class", "bicyclic", "--n", "10000001"], "--n must be at most 10000000, got 10000001"),
    (["verify", "--n", "100000000000000"], "--n must be at most 10000000, got 100000000000000"),
    (["verify", "--count", "1000001"], "--count must be at most 1000000, got 1000001"),
])
def test_gen_and_verify_refuse_sizes_above_their_limits(monkeypatch, argv, message):
    # A missing check reaches generate, which fails at once here instead of
    # allocating the graph.
    monkeypatch.setattr(cli, "generate", _refuse_to_generate)
    assert run(argv) == (1, "", f"error: {message}\n")


def test_gen_and_verify_take_sizes_at_their_limits(monkeypatch):
    assert (cli.MAX_N, cli.MAX_COUNT) == (10**7, 10**6)
    monkeypatch.setattr(cli, "generate", _refuse_to_generate)
    with pytest.raises(_Generated):
        run(["gen", "--n", str(cli.MAX_N)])
    with pytest.raises(_Generated):
        run(["verify", "--n", str(cli.MAX_N), "--count", str(cli.MAX_COUNT)])
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert "`--n` above 10^7" in section and "`--count` above 10^6" in section


def test_gen_bicyclic_at_four_vertices():
    code, out, _ = run(["gen", "--class", "bicyclic", "--n", "4", "--seed", "7"])
    assert code == 0
    g = parse_graph(out)
    assert (g.n, g.m) == (4, 5)


ROOT = Path(__file__).resolve().parents[1]


def test_readme_entry_points_are_root_exports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = readme[readme.index("Key entry points"):readme.index("Everything else")]
    names = set(re.findall(r"`(\w+)`", sentence)) - {"graph_inertia"}
    assert "solve" in names and "parse_graph" in names
    # Nothing public beyond ``__all__`` and the submodules is re-exported.
    public = {
        name
        for name, value in vars(graph_inertia).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == set(graph_inertia.__all__) == public


def test_readme_synopsis_lists_every_long_option():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = {}
    for line in block.splitlines():
        if line.startswith("graph-inertia "):
            command = line.split()[1]
            synopsis[command] = line
        else:
            synopsis[command] += line
    parser = cli._build_parser.__wrapped__()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(synopsis) == sorted(commands)
    missing = [
        (name, option)
        for name, sub in commands.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and not re.search(re.escape(option) + r"(?![\w-])", synopsis[name])
    ]
    assert missing == []


def test_readme_quick_start_prints_what_it_promises(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    promised = re.search(r"print\(solve\(g\)\.inertia\) +# (.*)", block)[1]
    assert promised == "(i+=1, i-=2, i0=0)"
    exec(block, {})
    assert capsys.readouterr().out == promised + "\n"


def _wrong_solve(g):
    """Every vertex a zero eigenvalue: wrong for any graph with an edge."""
    return SolveResult(Inertia(0, 0, g.n), (), ReductionTrace(()))


def test_inertia_mismatch_exits_3(monkeypatch):
    monkeypatch.setattr(cli, "solve", _wrong_solve)
    code, out, _ = run(["inertia", "--method", "both", "-"], C3)
    assert code == 3
    assert out.splitlines()[-1] == "MISMATCH"
    code, out, _ = run(["inertia", "--method", "both", "--output", "json", "-"], C3)
    assert code == 3
    assert json.loads(out)["match"] is False


def test_verify_mismatch_exits_3(monkeypatch):
    monkeypatch.setattr(cli, "solve", _wrong_solve)
    args = ["verify", "--class", "unicyclic", "--count", "3"]
    code, out, _ = run(args)
    assert code == 3
    assert out == "0/3 match\nmismatch seed=0\nmismatch seed=1\nmismatch seed=2\n"
    code, out, _ = run([*args, "--output", "json"])
    assert code == 3
    assert json.loads(out) == {"count": 3, "matches": 0, "mismatch_seeds": [0, 1, 2]}


def test_table1_mismatch_exits_3(monkeypatch):
    monkeypatch.setattr(cli, "inertia_oracle", lambda g: Inertia(0, 0, g.n))
    code, out, _ = run(["table1"])
    assert code == 3
    assert out.splitlines()[-1] == "MISMATCHES FOUND"


def test_cli_runs_as_a_process():
    argv = [sys.executable, "-m", "graph_inertia.cli", "inertia", "-"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ok = subprocess.run(argv, input=C3.encode(), capture_output=True, env=env, timeout=60)
    assert ok.returncode == 0
    assert ok.stdout.decode() == "structural: i+=1 i-=2 i0=0 [CycleClosedForm]\n"
    assert ok.stderr == b""
    bad = subprocess.run(argv, input=b"1 2 \xff", capture_output=True, env=env, timeout=60)
    assert (bad.returncode, bad.stdout) == (2, b"")
    assert bad.stderr.decode().startswith("error: invalid UTF-8 at byte 4: ")
    assert bad.stderr.count(b"\n") == 1


def test_table1_all_match():
    code, out, _ = run(["table1", "--seed", "2"])
    assert code == 0
    assert out.strip().endswith("all match")
    code, out, _ = run(["table1", "--seed", "2", "--output", "json"])
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert len(payload["rows"]) == 29
    # the json report carries computed and expected values per branch
    assert all(r["closed_form"] == r["table"] == r["oracle"] for r in payload["rows"])


def test_usage_error_exit_code():
    code, _, _ = run(["inertia", "--method", "nonsense", "-"], C3)
    assert code == 1
    code, _, _ = run(["no-such-command"])
    assert code == 1


def test_parse_error_exit_code_and_message():
    code, _, err = run(["inertia", "-"], "1 2 0\n")
    assert code == 2
    assert err.startswith("error: line 1")


@pytest.mark.parametrize(
    "text, v", [('{"vertices": ["a b"]}', "'a b'"), ('{"edges": [["", "b", 1]]}', "''")]
)
def test_json_vertex_ids_must_be_non_empty_without_whitespace(text, v):
    code, out, err = run(["inertia", "--format", "json", "-"], text)
    assert (code, out) == (2, "")
    assert err == f"error: vertex id must be a non-empty string without whitespace: {v}\n"


@pytest.mark.parametrize(
    "weight",
    ["1e400", "7" * 5000, "true", "0.1"],
    ids=["float-overflow", "5000-digit-int", "bool", "float"],
)
def test_json_weights_must_be_exact(weight):
    code, out, err = run(["inertia", "--format", "json", "-"], f'{{"edges": [["a", "b", {weight}]]}}')
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_deeply_nested_json_is_a_parse_error():
    code, out, err = run(["inertia", "--format", "json", "-"], "[" * 100000)
    assert code == 2
    assert out == ""
    assert err == "error: invalid json: nested too deeply\n"


_LONG = "7" * 5000


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("json", f'{{"edges": [["a", "b", "{_LONG}"]]}}'),
        ("json", f'{{"edges": [["a", "b", "x{_LONG}"]]}}'),
        ("json", f'{{"edges": [["a", "b", {_LONG}]]}}'),
        ("json", f'{{"edges": [["a", "{_LONG}"]]}}'),
        ("json", f'{{"edges": [["a", ["{_LONG}"], 1]]}}'),
        ("json", f'{{"edges": [["{_LONG}", "b", 1], ["b", "{_LONG}", 2]]}}'),
        ("edgelist", f"a b {_LONG}\n"),
        ("edgelist", f"a b x{_LONG}\n"),
        ("edgelist", f"a b 1 {_LONG}\n"),
        ("edgelist", f"{_LONG} {_LONG} 1\n"),
    ],
    ids=[
        "json-digit-string", "json-bad-string", "json-integer", "json-short-edge",
        "json-list-endpoint", "json-duplicate-edge", "edgelist-digits", "edgelist-bad-weight",
        "edgelist-long-line", "edgelist-self-loop",
    ],
)
def test_long_input_is_cut_in_parse_errors(fmt, text):
    code, out, err = run(["inertia", "--format", fmt, "-"], text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode("utf-8")) < 200


def test_classify_json_names_the_base_of_a_cyclic_graph():
    code, out, _ = run(["classify", "--output", "json", "-"], C3)
    assert code == 0
    assert json.loads(out) == {"class": "unicyclic", "components": ["unicyclic"], "base": "cycle(3)"}


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"edges": []}\n}', "line 2: invalid json: Extra data"),
        ("[]", "top-level json value must be an object"),
        ('{"vertices": ["a", 1]}', '"vertices" must be a list of strings'),
        ('{"edges": {}}', '"edges" must be a list'),
    ],
    ids=["invalid-json", "top-level-list", "non-string-vertex", "edges-not-a-list"],
)
def test_json_structure_errors_are_parse_errors(text, message):
    assert run(["inertia", "--format", "json", "-"], text) == (2, "", f"error: {message}\n")


def test_invalid_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2 \xff\n")
    for argv, stdin in ((["inertia", str(path)], None), (["inertia", "-"], io.BytesIO(path.read_bytes()))):
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, stdout=out, stderr=err, stdin=stdin)
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        assert len(err.getvalue().encode("utf-8")) < 200


def test_byte_order_mark_does_not_change_the_output(tmp_path):
    # The mark must not join the first vertex id: a triangle stays a triangle.
    plain, marked = tmp_path / "c3.txt", tmp_path / "c3-bom.txt"
    plain.write_text(C3)
    marked.write_bytes(b"\xef\xbb\xbf" + C3.encode())
    for argv in (["inertia", "--method", "both"], ["classify"], ["reduce", "--output", "json"]):
        assert run([*argv, str(marked)]) == run([*argv, str(plain)])
    assert run(["inertia", "--method", "both", str(marked)])[1].count("i+=1 i-=2 i0=0") == 2
    assert run(["classify", str(marked)])[1] == "unicyclic cycle(3)\n"


def test_argparse_writes_to_the_streams_main_is_given(capsys):
    code, out, err = run(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: graph-inertia")
    code, out, err = run(["inertia", "--method", "nonsense", "-"], C3)
    assert (code, out) == (1, "")
    assert "invalid choice: 'nonsense'" in err
    assert capsys.readouterr() == ("", "")


def test_missing_file_is_usage_error(tmp_path):
    code, _, err = run(["inertia", str(tmp_path / "nope.txt")])
    assert code == 1
    assert err.startswith("error:")


def test_byte_identical_given_same_inputs(tmp_path):
    g = generate(GenSpec("bicyclic", 11, 9))
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(g))
    runs = {run(["inertia", "--method", "both", str(path)])[1] for _ in range(3)}
    assert len(runs) == 1


# SHA-256 of ``_cli_transcript()``.  Any byte change in what the commands
# below print, or in their exit codes, fails the pin; a deliberate change to
# CLI output records the new digest here.
CLI_TRANSCRIPT_SHA256 = "0c594de614e0bf797a9616ee09d6f33257636e32bd64b8e06c4f9ec0e75883ad"


def _pinned_inputs():
    """Edge-list texts: testgen graphs of every class and regime up to n = 300,
    long type-II bases that fold, and malformed inputs."""
    texts = [
        serialize_graph(generate(GenSpec(cls, n, 7 * n + i, regime=regime)))
        for i, cls in enumerate(("tree", "forest", "unicyclic", "bicyclic"))
        for regime in ("random", "unit", "force")
        for n in (6, 11, 24, 80, 300)
    ]
    rng = random.Random(4)
    bases = [
        build_cycle(sample_cycle_weights(24, rng, branch="eq")),
        build_cycle(sample_cycle_weights(27, rng)),
        build_infinity(11, 6, 9, *sample_infinity_weights(11, 6, 9, rng)),
        build_infinity(8, 1, 12, *sample_infinity_weights(8, 1, 12, rng)),
        build_theta(7, 10, 13, *sample_theta_weights(7, 10, 13, rng)),
        build_theta(2, 9, 10, *sample_theta_weights(2, 9, 10, rng)),
    ]
    texts += [serialize_graph(g) for g in bases]
    texts += [serialize_graph(_hang_two_vertex_paths(g, rng)) for g in bases]
    texts += ["1 2 0\n", "1 2 1/0\n", "1 2 1.5\n", "1 1 1\n", "a b 1\nb a 2\n", "a b\n"]
    return texts


def _cli_transcript():
    """Exit code, stdout and stderr of every pinned command, in order."""
    commands = [
        ["inertia", "--method", "both", "--output", "json", "-"],
        ["inertia", "-"],
        ["classify", "-"],
        ["reduce", "-"],
        ["reduce", "--output", "json", "-"],
    ]
    runs = [(argv, text) for text in _pinned_inputs() for argv in commands]
    runs += [
        (["verify", "--class", cls, "--count", "40", "--n", "30", "--seed", "11", "--output", "json"], "")
        for cls in ("tree", "unicyclic", "bicyclic")
    ]
    runs += [(["table1", "--seed", str(seed), "--output", "json"], "") for seed in (0, 5)]
    runs += [
        (["gen", "--class", cls, "--n", str(n), "--seed", "3", "--format", fmt], "")
        for cls in ("tree", "forest", "unicyclic", "bicyclic")
        for n in (9, 60)
        for fmt in ("edgelist", "json")
    ]
    parts = []
    for argv, text in runs:
        code, out, err = run(argv, text)
        parts.append(f"{' '.join(argv)}\n{code}\n{out}\x00{err}\x00")
    return "".join(parts).encode("utf-8")


def test_cli_output_bytes_are_pinned():
    assert hashlib.sha256(_cli_transcript()).hexdigest() == CLI_TRANSCRIPT_SHA256
