import json

import pytest

from choosekit import cli
from choosekit.model import load_instance


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


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "5")
    parser = cli.build_parser()
    args = parser.parse_args(["decide", "--point", "2,4,2,2"])
    assert args.budget == 5


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
