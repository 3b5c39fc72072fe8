import contextlib
import io
import json
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosekit import bounds, cli
from choosekit.indepset import STGraph
from choosekit.model import ListInstance, dump_instance, load_instance, read_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_and_check_round_trip(tmp_path, capsys):
    path = str(tmp_path / "witness.json")
    code, out = run(capsys, "construct", "blocks", "--ka", "2", "--a", "2", "--out", path, "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["properColoring"] is False
    assert payload["point"] == [2, 4, 2, 2]

    code, out = run(capsys, "check", "--in", path)
    assert code == 0
    assert json.loads(out)["properColoring"] is False


def test_construct_simple(capsys):
    code, out = run(capsys, "construct", "simple", "--ka", "2", "--a", "1", "--r", "2", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == [4, 2, 2, 2]
    assert payload["properColoring"] is False


def test_check_engine_choice(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "construct", "blocks", "--ka", "2", "--a", "1", "--out", path)
    for engine in ("backtracking", "transversal"):
        code, out = run(capsys, "check", "--in", path, "--engine", engine)
        assert code == 0
        assert json.loads(out)["properColoring"] is False


def test_decide_emits_witness_that_fails_check(tmp_path, capsys):
    wpath = str(tmp_path / "w.json")
    code, out = run(capsys, "decide", "--point", "2,4,2,2", "--witness-out", wpath)
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "unchoosable"
    assert payload["witnessFile"] == wpath

    code, out = run(capsys, "check", "--in", wpath)
    assert code == 0
    assert json.loads(out)["properColoring"] is False


def test_decide_prints_a_mirrored_singleton_witness_byte_for_byte(capsys):
    code, out = run(capsys, "decide", "--point", "5,3,3,1")
    assert code == 0
    assert out == (
        '{"nodesExplored": 0, "rule": "singleton-lists-exact", "tag": "unchoosable", "witness": '
        '{"aLists": [[0, 1, 2], [0, 1, 2], [0, 1, 2]], "adjacency": "complete", '
        '"bLists": [[0], [1], [2], [0], [1]], "kA": 3, "kB": 1, "universe": 3}}\n'
    )


def test_decide_choosable_point(capsys):
    code, out = run(capsys, "decide", "--point", "2,3,2,2")
    assert code == 0
    assert json.loads(out)["tag"] == "choosable"


def test_decide_exhausted_exit_code(capsys):
    code, out = run(capsys, "decide", "--point", "2,4,2,2", "--budget", "5")
    assert code == 1
    assert json.loads(out)["tag"] == "exhausted"


def test_decide_out_of_memory_exit_code(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli.checker, "_decide_column", exhausted)
    assert cli.main(["decide", "--point", "5,5,3,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "choosekit: error: decide: out of memory\n"


def test_check_colors_an_instance_deeper_than_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "deep.json"
    dump_instance(ListInstance.complete(4, 2, 2, [(0, 1)] * 600, [(2, 3)] * 600), path)
    code, out = run(capsys, "check", "--in", str(path), "--engine", "backtracking")
    assert code == 0
    assert json.loads(out)["properColoring"] is True


@pytest.mark.parametrize("engine", ["transversal", "backtracking"])
@pytest.mark.parametrize("universe", [10**7, 10**30])
def test_check_colors_lists_at_the_top_of_a_huge_universe(tmp_path, capsys, engine, universe):
    # four lists on the top four colors: at 10^7 the transversal engine once
    # ran out of this budget (exit 1), and at 10^30 both engines ended in an
    # OverflowError traceback
    path = tmp_path / "top.json"
    u = universe
    dump_instance(ListInstance.complete(u, 2, 2, [(u - 4, u - 3), (u - 2, u - 1)],
                                        [(u - 4, u - 2), (u - 3, u - 1)]), path)
    code, out = run(capsys, "check", "--in", str(path), "--engine", engine, "--budget", "1000")
    assert code == 0
    assert json.loads(out)["properColoring"] is True


def test_amplify_pipeline(tmp_path, capsys):
    src = str(tmp_path / "base.json")
    dst = str(tmp_path / "blown.json")
    run(capsys, "construct", "blocks", "--ka", "2", "--a", "1", "--out", src)
    code, out = run(capsys, "amplify", "--kind", "blowup", "--r", "2", "--in", src, "--out", dst, "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == [4, 2, 2, 2]
    assert payload["properColoring"] is False
    inst = load_instance(dst)
    assert inst.num_b() == 4 and inst.kb == 2


def test_bounds_output(capsys):
    code, out = run(capsys, "bounds", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["ximLo"] - 0.5493061443340549) < 1e-12
    assert abs(payload["ximHi"] - 0.6931471805599453) < 1e-12
    assert abs(payload["alpha"] - 0.1018160943972684) < 1e-9


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("k", [118, 200, 400, 2055, 10**6])
def test_bounds_output_beyond_float_range(capsys, k):
    code, out = run(capsys, "bounds", "--k", str(k))
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["k"] == k
    for key in ("ximHi", "ximPrimeUpper"):
        assert payload[key] == "inf" or isinstance(payload[key], float)
    assert (payload["ximPrimeUpper"] == "inf") == (k >= 2055)


_BIG = 10**400


@pytest.mark.parametrize("argv, line", [
    (("classify", "--point", "3,9,2,1"),
     '{"point": [3, 9, 2, 1], "rule": "block-threshold", "verdict": "unchoosable", '
     '"xi": 9.887510598012987}'),
    (("classify", "--point", f"3,{_BIG},2,2"),
     f'{{"point": [3, {_BIG}, 2, 2], "rule": "block-threshold", "verdict": "unchoosable", '
     '"xi": "inf"}'),
    (("bounds", "--k", "2"),
     '{"alpha": 0.10181609439726842, "k": 2, "uStar": 0.2846681370408385, '
     '"ximHi": 0.6931471805599453, "ximHiRule": "block-construction", '
     '"ximLo": 0.5493061443340549, "ximLoRule": "greedy-blocking", '
     '"ximPrimeLower": 0.3807500052094045, "ximPrimeUpper": 96.09060278364026}'),
    (("bounds", "--k", "2055"),
     '{"alpha": 1.6315253774323227e-05, "k": 2055, "uStar": 4.903735381872112e-05, '
     '"ximHi": "inf", "ximHiRule": "composite-swap", '
     '"ximLo": 1.6315253774323227e-05, "ximLoRule": "xi-below-alpha", '
     '"ximPrimeLower": 0.0001244532636343052, "ximPrimeUpper": "inf"}'),
], ids=["classify", "classify-inf", "bounds-2", "bounds-2055"])
def test_json_output_is_pinned(capsys, argv, line):
    # every key and value, "inf" where the float would overflow
    assert run(capsys, *argv) == (0, line + "\n")


def test_classify_output(capsys):
    code, out = run(capsys, "classify", "--point", "3,9,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "unchoosable"
    assert payload["rule"] == "block-threshold"


@pytest.mark.parametrize("point, xi, verdict", [
    ("400,400,400,400", 0.0, "choosable"),
    (f"3,{10**400},2,2", "inf", "unchoosable"),
    (f"3,3,{10**400},2", 0.0, "choosable"),
    (f"3,3,{10**400},1", "inf", "choosable"),
])
def test_classify_beyond_float_range(capsys, point, xi, verdict):
    code, out = run(capsys, "classify", "--point", point)
    assert code == 0
    assert out.count("\n") == 1
    payload = json.loads(out, parse_constant=_reject_constant)
    assert (payload["xi"], payload["verdict"]) == (xi, verdict)


def test_frontier_beyond_float_range(capsys):
    code, out = run(capsys, "frontier", "--ka", "300", "--kb", "300", "--maxA", "1000", "--maxB", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1001
    assert lines[1:] == [f"{da},1,300,300,0,choosable,trivial-degrees,0" for da in range(1, 1001)]


def test_classify_nontrivial_ka_beyond_float_range_is_usage_error(capsys):
    big = 10**400
    code = cli.main(["classify", "--point", f"{big},2,{big},2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "choosekit: error: classify: k must be >= 1 and fit a float\n"


def test_frontier_ka_beyond_float_range(capsys):
    big = 10**400
    code, out = run(capsys, "frontier", "--ka", str(big), "--kb", "2", "--maxA", "2", "--maxB", "2")
    assert code == 0
    assert out.splitlines()[1:] == [
        f"{da},{db},{big},2,0,choosable,trivial-degrees,0" for da in (1, 2) for db in (1, 2)
    ]


def test_pblocked_counterexample_exact(capsys):
    code, out = run(capsys, "pblocked", "--counterexample", "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "83/315"
    assert payload["exceedsProductBound"] is True
    assert payload["withinDegreeBound"] is True


def test_pblocked_file_and_mc(tmp_path, capsys):
    path = tmp_path / "st.json"
    path.write_text(json.dumps({"s": 1, "t": 1, "edges": [[0, 0]]}))
    code, out = run(capsys, "pblocked", "--in", str(path), "--exact")
    assert code == 0
    assert json.loads(out)["exact"] == "1/2"
    code, out = run(capsys, "pblocked", "--in", str(path), "--mc", "20000", "--seed", "5")
    assert code == 0
    assert abs(json.loads(out)["estimate"] - 0.5) < 0.02


def test_pblocked_mc_output_is_pinned(capsys):
    # recorded with the kernel that drew a fresh 2^18-float array per chunk
    code, out = run(capsys, "pblocked", "--counterexample", "--mc", "300000", "--seed", "5")
    assert code == 0
    assert out == (
        '{"estimate": 0.26377, "stdError": 0.000804560723003553, '
        '"successes": 79131, "trials": 300000}\n'
    )


def test_pblocked_mc_output_is_the_same_on_any_cpu_count(capsys, monkeypatch):
    # 400,000 rows of 9 floats: one, two or three workers
    argv = ("pblocked", "--counterexample", "--mc", "400000", "--seed", "5")
    outs = []
    for affinity, cpus in [(1, 2), (2, 2), (None, 3)]:
        _usable_cpus(monkeypatch, affinity, cpus)
        outs.append(run(capsys, *argv))
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]


def test_pblocked_mc_worker_out_of_memory_exit_code(capsys, monkeypatch):
    def out_of_memory(nbrs, width, seed, start, stop):
        if start:  # only the worker past the first row range fails
            raise MemoryError
        return 0

    _usable_cpus(monkeypatch, 2, 2)
    monkeypatch.setattr(cli.indepset, "_count_blocked", out_of_memory)
    assert cli.main(["pblocked", "--counterexample", "--mc", "300000", "--seed", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "choosekit: error: pblocked: out of memory\n"


_BAD_ST_FILES = [
    pytest.param(None, "exact", "cannot read", id="missing"),
    pytest.param("{", "exact", "is not JSON", id="truncated"),
    pytest.param("[1, 2]", "exact", "keys s, t and edges", id="list"),
    pytest.param('{"s": 1, "t": 1}', "mc", "keys s, t and edges", id="no-edges"),
    pytest.param('{"s": -1, "t": 2, "edges": []}', "exact", "non-negative integers", id="negative-s"),
    pytest.param('{"s": "1", "t": 2, "edges": []}', "mc", "non-negative integers", id="string-s"),
    pytest.param('{"s": 1, "t": 2, "edges": [[0, 5]]}', "exact", "out of range", id="range-exact"),
    pytest.param('{"s": 1, "t": 2, "edges": [[0, 5]]}', "mc", "out of range", id="range-mc"),
    pytest.param(
        '{"s": 1, "t": 2, "edges": [[0, 1], [0, 1]]}', "exact", "parallel edge", id="parallel"
    ),
    pytest.param('{"s": 1, "t": 2, "edges": [[0]]}', "mc", "integer pairs", id="short-edge"),
    pytest.param('{"s": 1, "t": 2, "edges": [[0.7, 0]]}', "exact", "integer pairs", id="float-edge"),
    pytest.param('{"s": 1, "t": 2, "edges": 3}', "exact", "integer pairs", id="edges-not-list"),
    pytest.param('{"s": 11, "t": 10, "edges": []}', "exact", "exceeds the cap of 20", id="past-cap"),
]


@pytest.mark.parametrize("content, mode, says", _BAD_ST_FILES)
def test_pblocked_bad_input_is_usage_error(tmp_path, capsys, content, mode, says):
    path = tmp_path / "g.json"
    if content is not None:
        path.write_text(content)
    flags = ["--exact"] if mode == "exact" else ["--mc", "100", "--seed", "1"]
    code = cli.main(["pblocked", "--in", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("choosekit: error: pblocked: ")
    assert captured.err.count("\n") == 1 and says in captured.err
    assert "Traceback" not in captured.err


_GOOD_INSTANCE = {
    "universe": 2, "kA": 1, "kB": 1, "adjacency": "complete", "aLists": [[0]], "bLists": [[1]],
}


_BAD_INSTANCE_FILES = [
    pytest.param(None, "cannot read", id="missing"),
    pytest.param("{", "is not JSON", id="truncated"),
    pytest.param("[1, 2]", "keys universe, kA, kB, adjacency, aLists and bLists", id="list"),
    pytest.param(
        json.dumps({k: v for k, v in _GOOD_INSTANCE.items() if k != "bLists"}), "bLists",
        id="no-blists",
    ),
    pytest.param(json.dumps({**_GOOD_INSTANCE, "kA": "1"}), "must be integers", id="string-ka"),
    pytest.param(
        json.dumps({**_GOOD_INSTANCE, "aLists": [0, 1]}), "lists of integer lists", id="flat-lists"
    ),
    pytest.param(
        json.dumps({**_GOOD_INSTANCE, "bLists": [[1.5]]}), "lists of integer lists",
        id="float-color",
    ),
    pytest.param(
        json.dumps({**_GOOD_INSTANCE, "adjacency": [[0]]}), "integer pairs", id="short-edge"
    ),
    pytest.param(
        json.dumps({**_GOOD_INSTANCE, "adjacency": "bipartite"}), "integer pairs",
        id="unknown-adjacency",
    ),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["amplify", "--kind", "blowup", "--r", "2"],
        ["simulate", "--p", "0.5", "--trials", "10", "--seed", "1"],
    ],
    ids=["check", "amplify", "simulate"],
)
@pytest.mark.parametrize("content, says", _BAD_INSTANCE_FILES)
def test_bad_instance_file_is_usage_error(tmp_path, capsys, argv, content, says):
    path = tmp_path / "inst.json"
    if content is not None:
        path.write_text(content)
    code = cli.main([*argv, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"choosekit: error: {argv[0]}: ")
    assert captured.err.count("\n") == 1 and says in captured.err


@pytest.mark.parametrize("content, says", _BAD_INSTANCE_FILES)
def test_load_instance_gives_the_cli_message(tmp_path, capsys, content, says):
    path = tmp_path / "inst.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ValueError) as exc:
        load_instance(path)
    assert cli.main(["check", "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"choosekit: error: check: {exc.value}\n"


@pytest.mark.parametrize(
    "content, mode, says", [p for p in _BAD_ST_FILES if p.id != "past-cap"]  # a reader fault each
)
def test_stgraph_reader_gives_the_cli_message(tmp_path, capsys, content, mode, says):
    path = tmp_path / "g.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ValueError) as exc:
        read_json(path, STGraph.from_dict)
    assert cli.main(["pblocked", "--in", str(path), "--exact"]) == 2
    assert capsys.readouterr().err == f"choosekit: error: pblocked: {exc.value}\n"


_SIMULATE = ["simulate", "--p", "0.5", "--trials", "10", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, instance, says",
    [
        (["check", "--engine", "transversal"], {"adjacency": [[0, 0]]}, "complete bipartite"),
        (_SIMULATE, {"adjacency": [[0, 0]]}, "complete bipartite"),
        (_SIMULATE, {"aLists": []}, "nonempty"),
    ],
    ids=["check-explicit", "simulate-explicit", "simulate-empty-part"],
)
def test_instance_outside_a_commands_domain_is_usage_error(tmp_path, capsys, argv, instance, says):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**_GOOD_INSTANCE, **instance}))
    code = cli.main([*argv, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"choosekit: error: {argv[0]}: ")
    assert captured.err.count("\n") == 1 and says in captured.err


def test_backtracking_check_takes_explicit_adjacency(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**_GOOD_INSTANCE, "adjacency": [[0, 0]]}))
    code, out = run(capsys, "check", "--in", str(path), "--engine", "backtracking")
    assert code == 0 and json.loads(out)["properColoring"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["amplify", "--kind", "blowup", "--r", "2", "--verify"],
        _SIMULATE,
    ],
    ids=["check", "amplify", "simulate"],
)
def test_invariant_breaking_lists_are_reported_as_violations(tmp_path, capsys, argv):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**_GOOD_INSTANCE, "kA": 2, "aLists": [[0, 5]]}))
    code = cli.main([*argv, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    payload = json.loads(captured.out)
    assert payload["wellFormed"] is False
    assert any("color 5 out of universe" in v for v in payload["violations"])


@pytest.mark.parametrize(
    "via, engine",
    [("flag", "backtracking"), ("env", "backtracking"), ("flag", "transversal"), ("env", "transversal")],
    ids=["flag", "env", "flag-transversal", "env-transversal"],
)
def test_check_budget_exhaustion(tmp_path, capsys, monkeypatch, via, engine):
    # 51 vertices: without a budget, backtracking rejects this after 250,026
    # nodes (0.6 s on a 2-vCPU Xeon VM; without its dominance cut it
    # exhausted the default 5,000,000 after 35.6 s) and the transversal
    # engine after 1,342
    path = str(tmp_path / "blocks.json")
    run(capsys, "construct", "blocks", "--ka", "3", "--a", "2,2,2", "--out", path)
    argv = ["check", "--in", path, "--engine", engine]
    if via == "flag":
        argv += ["--budget", "1000"]
    else:
        monkeypatch.setenv(cli.BUDGET_ENV, "1000")
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out) == {"tag": "exhausted", "nodesExplored": 1001}


def test_python_dash_m_runs_the_cli(run_python, monkeypatch, capsys):
    # what cli.main prints in process, byte for byte and with its exit code,
    # for a verdict and for a usage error; the child's stdout is a pipe, so
    # argparse wraps usage to COLUMNS or 80
    monkeypatch.setenv("COLUMNS", os.environ.get("COLUMNS") or "80")
    for argv in (["classify", "--point", "3,9,2,1"], ["classify", "--point", "3,9"]):
        done = run_python("-m", "choosekit", *argv)
        assert (done.returncode, done.stdout, done.stderr) == _call(capsys, argv)


def test_classify_at_a_huge_ka_answers_without_building_kb_to_the_ka(run_python):
    # kb**ka = 3**(10**9) would take far longer than the fixture's timeout
    done = run_python("-m", "choosekit", "classify", "--point", "2,2,1000000000,3")
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert (payload["xi"], payload["rule"]) == (0.0, "trivial-degrees")


def test_python_dash_m_reads_sys_argv(run_python, capsys):
    # main(argv=None), as the console script calls it, parses sys.argv[1:]
    argv = ["decide", "--point", "2,3,2,2"]
    done = run_python("-m", "choosekit", *argv)
    code, out = run(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Help and usage errors of every command, each recorded as (exit code,
#: stdout, stderr) from the parser that built all ten subcommands per call.
_MESSAGES = json.loads(Path(__file__).with_name("cli_messages.json").read_text())


@pytest.mark.parametrize("pinned", _MESSAGES, ids=lambda m: "_".join(m["argv"]) or "no-args")
def test_help_and_usage_errors_are_pinned(monkeypatch, capsys, pinned):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert _call(capsys, pinned["argv"]) == (pinned["code"], pinned["stdout"], pinned["stderr"])


_COMMANDS = "check,decide,construct,amplify,bounds,classify,pblocked,frontier,simulate,selftest"


@pytest.mark.parametrize("command", [None, "nope", "-h"])
def test_build_parser_lists_every_subcommand(monkeypatch, capsys, command):
    # no command, an unknown one and -h all answer from the one full parser
    monkeypatch.setenv("COLUMNS", "80")
    assert f"{{{_COMMANDS}}}" in cli.build_parser().format_usage()
    code, out, err = _call(capsys, [] if command is None else [command])
    assert code == (0 if command == "-h" else 2)
    assert f"{{{_COMMANDS}}}" in out + err


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


_POINT = ["--point", "2,4,2,2"]  # unchoosable in 9 nodes


@pytest.mark.parametrize(
    ("calls", "codes"),
    [
        ([["decide", "--point", "2,4"], ["decide", *_POINT]], [2, 0]),
        ([["decide", *_POINT, "--budget", "3"], ["decide", *_POINT]], [1, 0]),
        ([["decide", *_POINT], ["classify", *_POINT]], [0, 0]),
    ],
    ids=["usage-error-then-good", "budget-then-default", "decide-then-classify"],
)
def test_back_to_back_calls_share_no_state(monkeypatch, capsys, calls, codes):
    # in a run of calls, each answers as it does on a freshly built parser
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(_call(capsys, argv))
    in_a_row = [_call(capsys, argv) for argv in calls]
    assert in_a_row == alone
    assert [code for code, _, _ in in_a_row] == codes


def test_pblocked_mc_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pblocked", "--counterexample", "--mc", "100"])
    assert exc.value.code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", "--point", "2,4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["decide", "classify"])
@pytest.mark.parametrize("text", ["3,x,1,1", "0,1,1,1", "2,4,2"])
def test_bad_point_is_usage_error(capsys, command, text):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--point", text])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"point must be four positive integers dA,dB,kA,kB, got '{text}'" in captured.err
    assert "_parse_point" not in captured.err


def test_bounds_k_beyond_float_range_is_usage_error(capsys):
    code = cli.main(["bounds", "--k", str(10**400)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "choosekit: error: bounds: k must be >= 1 and fit a float\n"


def test_bounds_k_past_the_divisor_scan_limit_is_usage_error(capsys):
    # the scan up to sqrt(k) would run about 10^15 steps at k = 10^30
    started = time.perf_counter()
    code = cli.main(["bounds", "--k", str(10**30)])
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"choosekit: error: bounds: k must be at most {bounds.XIM_MAX_K}:"
        " the divisor scan grows as sqrt(k)\n"
    )
    code, out = run(capsys, "bounds", "--k", str(bounds.XIM_MAX_K))
    assert code == 0
    assert json.loads(out)["k"] == bounds.XIM_MAX_K


def test_frontier_csv(tmp_path, capsys):
    out_path = str(tmp_path / "grid.csv")
    code, _ = run(
        capsys, "frontier", "--ka", "2", "--kb", "2", "--maxA", "3", "--maxB", "5",
        "--out", out_path,
    )
    assert code == 0
    lines = Path(out_path).read_text().splitlines()
    assert lines[0] == "deltaA,deltaB,kA,kB,xi,verdict,rule,nodesExplored"
    rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    assert len(rows) == 15
    assert rows[("2", "3")][5] == "choosable"
    assert rows[("2", "4")][5] == "unchoosable"


# `frontier` on the two grids the benchmark runs, at its budget; recorded from
# the kernel before the one-pass packing scan and the flat candidate walk, so
# any change to a verdict, a rule or a node count shows here
_PINNED_FRONTIER_CSV = {
    ("2", "3", "3", "8"): (
        'deltaA,deltaB,kA,kB,xi,verdict,rule,nodesExplored\n'
        '1,1,2,3,0,choosable,trivial-degrees,0\n'
        '1,2,2,3,0,choosable,trivial-degrees,0\n'
        '1,3,2,3,0,choosable,trivial-degrees,0\n'
        '1,4,2,3,0,choosable,trivial-degrees,0\n'
        '1,5,2,3,0,choosable,trivial-degrees,0\n'
        '1,6,2,3,0,choosable,trivial-degrees,0\n'
        '1,7,2,3,0,choosable,trivial-degrees,0\n'
        '1,8,2,3,0,choosable,trivial-degrees,0\n'
        '2,1,2,3,0.0770163533955,choosable,trivial-degrees,0\n'
        '2,2,2,3,0.154032706791,choosable,trivial-degrees,0\n'
        '2,3,2,3,0.231049060187,choosable,enumeration,9\n'
        '2,4,2,3,0.308065413582,choosable,enumeration,9\n'
        '2,5,2,3,0.385081766978,choosable,enumeration,9\n'
        '2,6,2,3,0.462098120373,choosable,enumeration,9\n'
        '2,7,2,3,0.539114473769,choosable,enumeration,9\n'
        '2,8,2,3,0.616130827164,choosable,enumeration,9\n'
        '3,1,2,3,0.122068032074,choosable,trivial-degrees,0\n'
        '3,2,2,3,0.244136064148,choosable,trivial-degrees,0\n'
        '3,3,2,3,0.366204096223,choosable,enumeration,16\n'
        '3,4,2,3,0.488272128297,choosable,enumeration,60\n'
        '3,5,2,3,0.610340160371,choosable,enumeration,83\n'
        '3,6,2,3,0.732408192445,choosable,enumeration,83\n'
        '3,7,2,3,0.85447622452,unchoosable,enumeration,18\n'
        '3,8,2,3,0.976544256594,unchoosable,enumeration,19\n'
    ),
    ("3", "2", "5", "4"): (
        'deltaA,deltaB,kA,kB,xi,verdict,rule,nodesExplored\n'
        '1,1,3,2,0,choosable,trivial-degrees,0\n'
        '1,2,3,2,0,choosable,trivial-degrees,0\n'
        '1,3,3,2,0,choosable,trivial-degrees,0\n'
        '1,4,3,2,0,choosable,trivial-degrees,0\n'
        '2,1,3,2,0.0600566267398,choosable,trivial-degrees,0\n'
        '2,2,3,2,0.12011325348,choosable,trivial-degrees,0\n'
        '2,3,3,2,0.180169880219,choosable,trivial-degrees,0\n'
        '2,4,3,2,0.240226506959,choosable,trivial-degrees,0\n'
        '3,1,3,2,0.150868620102,choosable,trivial-degrees,0\n'
        '3,2,3,2,0.301737240203,choosable,enumeration,9\n'
        '3,3,3,2,0.452605860305,choosable,enumeration,16\n'
        '3,4,3,2,0.603474480406,choosable,enumeration,16\n'
        '4,1,3,2,0.240226506959,choosable,trivial-degrees,0\n'
        '4,2,3,2,0.480453013918,choosable,enumeration,9\n'
        '4,3,3,2,0.720679520877,choosable,enumeration,60\n'
        '4,4,3,2,0.960906027836,choosable,enumeration,60\n'
        '5,1,3,2,0.323786299248,choosable,trivial-degrees,0\n'
        '5,2,3,2,0.647572598495,choosable,enumeration,9\n'
        '5,3,3,2,0.971358897743,choosable,enumeration,83\n'
        '5,4,3,2,1.29514519699,unchoosable,enumeration,96\n'
    ),
}


@pytest.mark.parametrize("grid", sorted(_PINNED_FRONTIER_CSV))
def test_frontier_csv_of_the_benchmark_grids_is_pinned(tmp_path, capsys, grid):
    out_path = tmp_path / "grid.csv"
    ka, kb, max_a, max_b = grid
    code, _ = run(
        capsys, "frontier", "--ka", ka, "--kb", kb, "--maxA", max_a, "--maxB", max_b,
        "--budget", "5000000", "--jobs", "1", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_bytes() == _PINNED_FRONTIER_CSV[grid].encode()


def test_frontier_decides_each_cell_through_decide_choosable_once(tmp_path, capsys, monkeypatch):
    # the benchmark's traced run wraps checker.decide_choosable to check every
    # witness, so a serial sweep must still call it once per cell
    calls = []
    real = cli.checker.decide_choosable

    def counting(point, **kwargs):
        calls.append((point.delta_a, point.delta_b, point.ka, point.kb, kwargs["sweep"]))
        return real(point, **kwargs)

    monkeypatch.setattr(cli.checker, "decide_choosable", counting)
    out_path = tmp_path / "grid.csv"
    code, _ = run(
        capsys, "frontier", "--ka", "2", "--kb", "3", "--maxA", "3", "--maxB", "8",
        "--budget", "5000000", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_bytes() == _PINNED_FRONTIER_CSV["2", "3", "3", "8"].encode()
    cells = [(da, db, 2, 3) for da in range(1, 4) for db in range(1, 9)]
    assert [call[:4] for call in calls] == cells
    (sweep,) = {call[4] for call in calls}  # one sweep serves every cell
    assert isinstance(sweep, cli.checker.Sweep)


def test_frontier_exhausted_exit_code(tmp_path, capsys):
    out_path = str(tmp_path / "grid.csv")
    code, _ = run(
        capsys, "frontier", "--ka", "2", "--kb", "2", "--maxA", "2", "--maxB", "4",
        "--out", out_path, "--budget", "5",
    )
    assert code == 1
    content = Path(out_path).read_text()
    assert "exhausted" in content


def test_frontier_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    run(capsys, "frontier", "--ka", "2", "--kb", "1", "--maxA", "2", "--maxB", "3", "--out", a)
    run(capsys, "frontier", "--ka", "2", "--kb", "1", "--maxA", "2", "--maxB", "3", "--out", b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_frontier_parallel_matches_serial(tmp_path, capsys):
    serial = str(tmp_path / "serial.csv")
    parallel = str(tmp_path / "parallel.csv")
    run(capsys, "frontier", "--ka", "2", "--kb", "2", "--maxA", "2", "--maxB", "4", "--out", serial)
    run(
        capsys, "frontier", "--ka", "2", "--kb", "2", "--maxA", "2", "--maxB", "4",
        "--out", parallel, "--jobs", "2",
    )
    assert Path(serial).read_bytes() == Path(parallel).read_bytes()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def _usable_cpus(monkeypatch, affinity, cpus):
    """Make the process see cpus CPUs and be allowed affinity of them (None:
    a platform without sched_getaffinity)."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)


def _pool_sizes(tmp_path, capsys, monkeypatch):
    """The pools an unbounded --jobs frontier opens, its CSV checked against a
    serial run's."""
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    # 25 cells, 16 of them past the trivial degrees, in 4 columns (2, 2, delta_b 2-5)
    grid = ["frontier", "--ka", "2", "--kb", "2", "--maxA", "5", "--maxB", "5"]
    serial, pooled = str(tmp_path / "serial.csv"), str(tmp_path / "pooled.csv")
    run(capsys, *grid, "--out", serial)
    assert _RecordingPool.sizes == []
    run(capsys, *grid, "--out", pooled, "--jobs", "1000000")
    assert Path(serial).read_bytes() == Path(pooled).read_bytes()
    return _RecordingPool.sizes


@pytest.mark.parametrize("cpus,expected", [(64, [4]), (3, [3]), (1, []), (None, [])])
def test_frontier_pool_never_outgrows_cells_or_cpus(tmp_path, capsys, monkeypatch, cpus, expected):
    _usable_cpus(monkeypatch, cpus, cpus)  # None: the platform says neither
    assert _pool_sizes(tmp_path, capsys, monkeypatch) == expected


@pytest.mark.parametrize(
    "affinity,cpus,expected",
    [(1, 2, []), (2, 64, [2]), (None, 3, [3])],
)
def test_frontier_pool_fits_the_cpus_this_process_may_use(
    tmp_path, capsys, monkeypatch, affinity, cpus, expected
):
    # under `taskset -c 0` on two CPUs, --jobs forks no worker for the second
    _usable_cpus(monkeypatch, affinity, cpus)
    assert _pool_sizes(tmp_path, capsys, monkeypatch) == expected


@pytest.mark.parametrize("grid", sorted(_PINNED_FRONTIER_CSV))
def test_a_pooled_frontier_walks_each_column_once(tmp_path, capsys, monkeypatch, grid):
    import concurrent.futures

    pooled = []  # the columns walked through the pool's map

    class Pool(_RecordingPool):
        def map(self, fn, *iterables):
            return [pooled.append(args[:3]) or fn(*args) for args in zip(*iterables)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    _usable_cpus(monkeypatch, 64, 64)
    walked, real = [], cli.checker._decide_column

    def walking(ka, kb, db, das, budget):
        walked.append((ka, kb, db))
        return real(ka, kb, db, das, budget)

    monkeypatch.setattr(cli.checker, "_decide_column", walking)
    ka, kb, max_a, max_b = grid
    out_path = tmp_path / "grid.csv"
    code, _ = run(
        capsys, "frontier", "--ka", ka, "--kb", kb, "--maxA", max_a, "--maxB", max_b,
        "--budget", "5000000", "--jobs", "64", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_bytes() == _PINNED_FRONTIER_CSV[grid].encode()
    # one worker per column, each column walked once in the pool, and
    # building the rows walks nothing again
    assert walked == pooled and len(set(walked)) == len(walked) > 1
    assert _RecordingPool.sizes == [len(walked)]


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "5")
    code, out = run(capsys, "decide", "--point", "5,5,3,3")
    assert code == 1
    assert json.loads(out) == {"tag": "exhausted", "nodesExplored": 6, "rule": "enumeration"}


def test_budget_env_is_read_on_every_call(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "9")
    assert json.loads(run(capsys, "decide", "--point", "5,5,3,3")[1])["nodesExplored"] == 10
    monkeypatch.delenv(cli.BUDGET_ENV)
    code, out = run(capsys, "decide", "--point", "5,5,3,3")
    assert code == 0 and json.loads(out)["tag"] == "choosable"


def test_budget_flag_beats_the_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "abc")
    code, out = run(capsys, "decide", "--point", "5,5,3,3", "--budget", "5")
    assert code == 1 and json.loads(out)["nodesExplored"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--point", "2,4,2,2", "--witness-out"],
        ["construct", "blocks", "--ka", "2", "--a", "1", "--out"],
        ["amplify", "--kind", "blowup", "--r", "2", "--in", "{inst}", "--out"],
        ["frontier", "--ka", "2", "--kb", "2", "--maxA", "1", "--maxB", "2", "--out"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_is_usage_error(tmp_path, capsys, instance_file, argv):
    argv = [a.replace("{inst}", instance_file) for a in argv]
    code = cli.main([*argv, str(tmp_path / "no-such-dir" / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"choosekit: error: {argv[0]}: ")
    assert captured.err.count("\n") == 1 and "No such file or directory" in captured.err


def test_frontier_unwritable_output_fails_before_any_cell(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell was decided before --out was opened")

    monkeypatch.setattr(cli.checker, "decide_choosable", refuse)
    code = cli.main(
        ["frontier", "--ka", "3", "--kb", "3", "--maxA", "5", "--maxB", "5",
         "--out", str(tmp_path / "no-such-dir" / "f.csv")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("choosekit: error: frontier: ")
    assert captured.err.count("\n") == 1 and "No such file or directory" in captured.err


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_bad_budget_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv(cli.BUDGET_ENV, value)
    code = cli.main(["decide", "--point", "1,1,2,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert cli.BUDGET_ENV in captured.err and "Traceback" not in captured.err


def test_bad_budget_env_only_breaks_commands_with_a_budget(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "abc")
    code, out = run(capsys, "bounds", "--k", "3")
    assert code == 0 and json.loads(out)["k"] == 3
    assert cli.main(["decide", "--point", "5,5,3,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"choosekit: error: {cli.BUDGET_ENV} must be a non-negative integer, got 'abc'\n"
    )


def test_negative_budget_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", "--point", "1,1,2,2", "--budget", "-1"])
    assert exc.value.code == 2


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "construct", "blocks", "--ka", "2", "--a", "1", "--out", path)
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--k", "0"],
        ["bounds", "--k", "x"],
        ["frontier", "--ka", "0", "--kb", "1", "--maxA", "1", "--maxB", "1"],
        ["frontier", "--ka", "1", "--kb", "0", "--maxA", "1", "--maxB", "1"],
        ["frontier", "--ka", "1", "--kb", "1", "--maxA", "0", "--maxB", "1"],
        ["frontier", "--ka", "1", "--kb", "1", "--maxA", "1", "--maxB", "-3"],
        ["frontier", "--ka", "1", "--kb", "1", "--maxA", "1", "--maxB", "1", "--jobs", "0"],
        ["construct", "blocks", "--ka", "0", "--a", "1"],
        ["construct", "blocks", "--ka", "2", "--a", "2,0"],
        ["construct", "blocks", "--ka", "2", "--a", "2,x"],
        ["construct", "simple", "--ka", "0", "--a", "1", "--r", "1"],
        ["construct", "simple", "--ka", "2", "--a", "0", "--r", "1"],
        ["construct", "simple", "--ka", "2", "--a", "1", "--r", "0"],
        ["amplify", "--kind", "blowup", "--r", "0", "--in", "{inst}"],
        ["pblocked", "--counterexample", "--mc", "0", "--seed", "1"],
        ["simulate", "--in", "{inst}", "--p", "0.5", "--trials", "0", "--seed", "7"],
        ["simulate", "--in", "{inst}", "--p", "0.5", "--trials", "5", "--seed", "7", "--eps", "-5"],
        ["simulate", "--in", "{inst}", "--p", "0.5", "--trials", "5", "--seed", "7", "--eps", "nan"],
        ["simulate", "--in", "{inst}", "--p", "1.5", "--trials", "5", "--seed", "7"],
        ["selftest", "--only", "x"],
        ["selftest", "--only", "0"],
        ["selftest", "--only", "11"],
        ["selftest", "--only", "3,11"],
    ],
    ids="_".join,
)
def test_out_of_range_argument_is_usage_error(capsys, instance_file, argv):
    argv = [a.replace("{inst}", instance_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "must be" in captured.err
    if argv[0] == "selftest":
        assert "1-10" in captured.err


def test_simulate_requires_seed(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "construct", "blocks", "--ka", "2", "--a", "1", "--out", path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--in", path, "--p", "0.5", "--trials", "10"])
    assert exc.value.code == 2


def test_simulate_output(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "construct", "blocks", "--ka", "2", "--a", "2", "--out", path)
    code, out = run(capsys, "simulate", "--in", path, "--p", "0.5", "--trials", "500", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["successes"] == 0  # the instance is uncolorable
    assert payload["trials"] == 500
    assert payload["successes"] + payload["aborts"] + payload["bStarved"] == 500


@pytest.mark.parametrize("ka, argv, line", [
    ("2", ("--p", "0.5", "--trials", "500", "--seed", "7"),
     '{"aborts": 283, "bStarved": 217, "p": 0.5, "seed": 7, "successRate": 0.0, '
     '"successes": 0, "threshold": 0.5792633409542193, "trials": 500}'),
    ("1", ("--p", "0.5", "--trials", "200", "--seed", "7"),
     '{"aborts": 0, "bStarved": 200, "p": 0.5, "seed": 7, "successRate": 0.0, '
     '"successes": 0, "threshold": "inf", "trials": 200}'),
], ids=["ka2", "ka1-no-threshold"])
def test_simulate_output_is_pinned(tmp_path, capsys, ka, argv, line):
    path = str(tmp_path / "inst.json")
    run(capsys, "construct", "blocks", "--ka", ka, "--a", "2", "--out", path)
    assert run(capsys, "simulate", "--in", path, *argv) == (0, line + "\n")


def test_check_rejects_malformed_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "universe": 2,
                "kA": 2,
                "kB": 1,
                "adjacency": "complete",
                "aLists": [[0, 5]],
                "bLists": [[0]],
            }
        )
    )
    code, out = run(capsys, "check", "--in", str(path))
    assert code == 2
    payload = json.loads(out)
    assert payload["wellFormed"] is False
    assert payload["violations"]


def test_decide_inline_witness(capsys):
    code, out = run(capsys, "decide", "--point", "2,1,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "unchoosable"
    assert payload["witness"]["kA"] == 2 and payload["witness"]["kB"] == 1


def test_amplify_expand_kind(tmp_path, capsys):
    src = str(tmp_path / "base.json")
    run(capsys, "construct", "blocks", "--ka", "2", "--a", "1", "--out", src)
    code, out = run(capsys, "amplify", "--kind", "expand", "--r", "2", "--in", src, "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == [2, 4, 2, 2]
    assert payload["properColoring"] is False


def test_simulate_eps_flag_changes_threshold(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "construct", "blocks", "--ka", "2", "--a", "2", "--out", path)
    _, out_lo = run(capsys, "simulate", "--in", path, "--p", "0.5", "--trials", "50",
                    "--seed", "7", "--eps", "0.1")
    _, out_hi = run(capsys, "simulate", "--in", path, "--p", "0.5", "--trials", "50",
                    "--seed", "7", "--eps", "2.0")
    assert json.loads(out_lo)["threshold"] < json.loads(out_hi)["threshold"]


def test_selftest_subset(capsys):
    code, out = run(capsys, "selftest", "--only", "3,6,7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 3
    assert all(l.startswith("[PASS]") for l in lines)
    assert "3/3 criteria passed" in out


_WRONG_TYPE = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4).filter(lambda t: t != "complete"),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def _malformed_file(draw, good, list_keys):
    """The text of a JSON file that is good mangled, short of a key, holding
    a value of the wrong type, or not an object at all."""
    d = dict(good)
    how = draw(st.sampled_from(["mangle", "drop", "wrong", "wrong-row", "not-object"]))
    if how == "mangle":
        text = json.dumps(d)
        junk = st.sampled_from(["", "]", ",", "x", "\u00e9"])
        return text[: draw(st.integers(0, len(text) - 1))] + draw(junk)
    if how == "drop":
        for key in draw(st.sets(st.sampled_from(sorted(d)), min_size=1)):
            del d[key]
    elif how == "wrong":
        d[draw(st.sampled_from(sorted(d)))] = draw(_WRONG_TYPE)
    elif how == "wrong-row":
        bad = draw(_WRONG_TYPE)
        d[draw(st.sampled_from(list_keys))] = draw(st.sampled_from([[bad], [[bad, 0]]]))
    else:
        d = draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text(max_size=4)))
    return json.dumps(d)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


@given(
    text=_malformed_file(_GOOD_INSTANCE, ["aLists", "bLists", "adjacency"]),
    argv=st.sampled_from([["check"], ["amplify", "--kind", "expand", "--r", "2"], _SIMULATE]),
)
@settings(max_examples=150, deadline=None)
def test_malformed_instance_file_fuzz(tmp_path_factory, text, argv):
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(text)
    code, printed = _run_quietly([*argv, "--in", str(path)])
    assert code == 2
    assert printed.count("\n") == 1 and "Traceback" not in printed


@given(
    text=_malformed_file({"s": 2, "t": 2, "edges": [[0, 0], [1, 1]]}, ["edges"]),
    mode=st.sampled_from([["--exact"], ["--mc", "10", "--seed", "1"]]),
)
@settings(max_examples=100, deadline=None)
def test_malformed_stgraph_file_fuzz(tmp_path_factory, text, mode):
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(text)
    code, printed = _run_quietly(["pblocked", "--in", str(path), *mode])
    assert code == 2
    assert printed.count("\n") == 1 and "Traceback" not in printed
