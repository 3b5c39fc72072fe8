import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosekit import cli
from choosekit.indepset import STGraph
from choosekit.model import load_instance, read_json


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


def test_decide_choosable_point(capsys):
    code, out = run(capsys, "decide", "--point", "2,3,2,2")
    assert code == 0
    assert json.loads(out)["tag"] == "choosable"


def test_decide_exhausted_exit_code(capsys):
    code, out = run(capsys, "decide", "--point", "2,4,2,2", "--budget", "5")
    assert code == 1
    assert json.loads(out)["tag"] == "exhausted"


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


@pytest.mark.parametrize("k", [118, 200, 400, 2055])
def test_bounds_output_beyond_float_range(capsys, k):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out = run(capsys, "bounds", "--k", str(k))
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["k"] == k
    for key in ("ximHi", "ximPrimeUpper"):
        assert payload[key] == "inf" or isinstance(payload[key], float)
    assert (payload["ximPrimeUpper"] == "inf") == (k >= 2055)


def test_classify_output(capsys):
    code, out = run(capsys, "classify", "--point", "3,9,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "unchoosable"
    assert payload["rule"] == "block-threshold"


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


@pytest.mark.parametrize("via", ["flag", "env"])
def test_check_budget_exhaustion(tmp_path, capsys, monkeypatch, via):
    # 51 vertices: backtracking takes well over 20 s to finish without a budget
    path = str(tmp_path / "blocks.json")
    run(capsys, "construct", "blocks", "--ka", "3", "--a", "2,2,2", "--out", path)
    argv = ["check", "--in", path, "--engine", "backtracking"]
    if via == "flag":
        argv += ["--budget", "1000"]
    else:
        monkeypatch.setenv(cli.BUDGET_ENV, "1000")
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out) == {"tag": "exhausted", "nodesExplored": 1001}


def test_python_dash_m_runs_the_cli():
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        [sys.executable, "-m", "choosekit", "classify", "--point", "3,9,2,1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == "unchoosable"


def test_pblocked_mc_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pblocked", "--counterexample", "--mc", "100"])
    assert exc.value.code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", "--point", "2,4"])
    assert exc.value.code == 2


def test_frontier_csv(tmp_path, capsys):
    out_path = str(tmp_path / "grid.csv")
    code, _ = run(
        capsys, "frontier", "--ka", "2", "--kb", "2", "--maxA", "3", "--maxB", "5",
        "--out", out_path,
    )
    assert code == 0
    lines = open(out_path).read().splitlines()
    assert lines[0] == "deltaA,deltaB,kA,kB,xi,verdict,rule,nodesExplored"
    rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    assert len(rows) == 15
    assert rows[("2", "3")][5] == "choosable"
    assert rows[("2", "4")][5] == "unchoosable"


def test_frontier_exhausted_exit_code(tmp_path, capsys):
    out_path = str(tmp_path / "grid.csv")
    code, _ = run(
        capsys, "frontier", "--ka", "2", "--kb", "2", "--maxA", "2", "--maxB", "4",
        "--out", out_path, "--budget", "5",
    )
    assert code == 1
    content = open(out_path).read()
    assert "exhausted" in content


def test_frontier_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    run(capsys, "frontier", "--ka", "2", "--kb", "1", "--maxA", "2", "--maxB", "3", "--out", a)
    run(capsys, "frontier", "--ka", "2", "--kb", "1", "--maxA", "2", "--maxB", "3", "--out", b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_frontier_parallel_matches_serial(tmp_path, capsys):
    serial = str(tmp_path / "serial.csv")
    parallel = str(tmp_path / "parallel.csv")
    run(capsys, "frontier", "--ka", "2", "--kb", "2", "--maxA", "2", "--maxB", "4", "--out", serial)
    run(
        capsys, "frontier", "--ka", "2", "--kb", "2", "--maxA", "2", "--maxB", "4",
        "--out", parallel, "--jobs", "2",
    )
    assert open(serial, "rb").read() == open(parallel, "rb").read()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus,expected", [(64, [4]), (3, [3]), (1, []), (None, [])])
def test_frontier_pool_never_outgrows_cells_or_cpus(tmp_path, capsys, monkeypatch, cpus, expected):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    grid = ["frontier", "--ka", "2", "--kb", "2", "--maxA", "1", "--maxB", "4"]
    serial, pooled = str(tmp_path / "serial.csv"), str(tmp_path / "pooled.csv")
    run(capsys, *grid, "--out", serial)
    assert _RecordingPool.sizes == []
    run(capsys, *grid, "--out", pooled, "--jobs", "1000000")
    assert _RecordingPool.sizes == expected
    assert open(serial, "rb").read() == open(pooled, "rb").read()


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "5")
    parser = cli.build_parser()
    args = parser.parse_args(["decide", "--point", "2,4,2,2"])
    assert args.budget == 5


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


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_bad_budget_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv(cli.BUDGET_ENV, value)
    code = cli.main(["decide", "--point", "1,1,2,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert cli.BUDGET_ENV in captured.err and "Traceback" not in captured.err


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
