"""Tests of the benchmark itself: each check must flag a corrupted output,
inputs must follow the seed, and the comparison must classify correctly.

    python3 -m pytest -q bench/bench_tests.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from choosekit import (  # noqa: E402
    BlockSpec, RegimePoint, STGraph, classify, construct_blocks, has_proper_coloring,
    p_blocked_exact, p_blocked_monte_carlo, fancy_bound,
)
from choosekit.acceptance import CriterionResult  # noqa: E402
from choosekit.model import ListInstance, Coloring  # noqa: E402


def _classify(cell):
    return classify(RegimePoint(*cell))


def _reference_csv(grid, reference, flip=None):
    """The CSV `frontier` would print if every cell kept its reference verdict."""
    ka, kb, max_a, max_b = grid
    lines = [",".join(checks.FRONTIER_HEADER)]
    for da in range(1, max_a + 1):
        for db in range(1, max_b + 1):
            cell = (da, db, ka, kb)
            v = reference[cell]
            if cell == flip:
                v = "choosable" if v == "unchoosable" else "unchoosable"
            lines.append(f"{da},{db},{ka},{kb},{checks.xi_value(*cell):.12g},{v},enumeration,0")
    return "\n".join(lines) + "\n"


def test_frontier_reference_passes_and_flipped_verdict_is_flagged():
    ref = checks.load_frontier_reference()
    assert len(ref) == 44 and sum(v in checks.DECIDED for v in ref.values()) == 43
    for grid in workloads.Frontier.GRIDS:
        rc = 1 if grid[:2] == (2, 3) else 0
        clean = checks.frontier_problems(grid, _reference_csv(grid, ref), rc, ref, _classify)
        assert not any(clean.values())
    grid = (2, 3, 3, 8)
    flipped = checks.frontier_problems(
        grid, _reference_csv(grid, ref, flip=(3, 7, 2, 3)), 1, ref, _classify)
    assert flipped[(3, 7, 2, 3)]


def test_frontier_exhausted_cell_may_resolve_only_monotonically():
    ref = checks.load_frontier_reference()
    grid = (2, 3, 3, 8)
    text = _reference_csv(grid, ref)
    for resolved in ("choosable", "unchoosable"):
        out = checks.frontier_problems(grid, text.replace(",exhausted,", f",{resolved},"), 0,
                                       ref, _classify)
        assert not any(out.values())
    # were (3,8,2,3) exhausted at the seed, choosable there would sit above the
    # unchoosable (3,7,2,3)
    loose = {**ref, (3, 8, 2, 3): "exhausted"}
    flipped = _reference_csv(grid, ref, flip=(3, 8, 2, 3))
    out = checks.frontier_problems(grid, flipped, 1, loose, _classify)
    assert out[(3, 8, 2, 3)] and not out[(3, 7, 2, 3)]
    # an exit code that disagrees with the verdicts is flagged on every cell
    assert all(checks.frontier_problems(grid, text, 0, ref, _classify).values())


def test_invalid_coloring_is_flagged():
    inst = ListInstance.complete(3, 2, 2, [(0, 1), (1, 2)], [(0, 2), (1, 2)])
    found, coloring = has_proper_coloring(inst, engine="backtracking")
    assert found and not checks.coloring_problems(inst, coloring)
    colors = coloring.as_dict()
    outside = {**colors, ("A", 0): 2}  # 2 is not in A0's list
    assert checks.coloring_problems(inst, Coloring.make(outside))
    a0 = colors[("A", 0)]
    clash = {**colors, **{("B", j): a0 for j, l in enumerate(inst.b_lists) if a0 in l}}
    assert checks.coloring_problems(inst, Coloring.make(clash))


def test_oracle_agrees_with_theorem_and_both_engines():
    witness = construct_blocks(BlockSpec(2, (1, 1)))
    assert not checks.colorable_oracle(witness.universe, witness.a_lists, witness.b_lists)
    wl = workloads.Check(None)
    for d in wl.inputs(3, 0)[:: wl.PER_CLASS // 4]:
        if d["kind"] == "random":
            inst = ListInstance.complete(d["universe"], d["kA"], d["kB"], d["aLists"], d["bLists"])
            want = checks.colorable_oracle(d["universe"], d["aLists"], d["bLists"])
            assert has_proper_coloring(inst)[0] == want


def test_perturbed_fraction_is_flagged():
    small = STGraph.make(3, 4, [(0, 0), (1, 1), (2, 1), (2, 3), (0, 2)])
    graph = (3, 4, [list(e) for e in small.edges])
    p = p_blocked_exact(small)
    assert p == checks.order_count_p(*graph)
    mc = p_blocked_monte_carlo(small, 20_000, 1)
    bound = fancy_bound(small)
    assert not checks.blocking_problems(graph, p, mc, bound)
    assert checks.blocking_problems(graph, p + Fraction(1, 10**6), mc, bound)
    # the equality family: two copies of K_{2,2} give exactly 1/4
    pair = STGraph.make(4, 4, [(c * 2 + i, c * 2 + t) for c in range(2) for i in range(2)
                               for t in range(2)])
    args = ((4, 4, [list(e) for e in pair.edges]), p_blocked_exact(pair),
            p_blocked_monte_carlo(pair, 20_000, 1), fancy_bound(pair))
    assert not checks.blocking_problems(*args, equality_j=2)
    assert checks.blocking_problems(args[0], args[1] * Fraction(1001, 1000), *args[2:],
                                    equality_j=2)


def _criteria(reference, drop=None):
    out = []
    for i in range(1, 11):
        if i == drop:
            continue
        detail = "measured 0.46138, target 0.32663" if i == 8 else "ok"
        out.append(CriterionResult(i, f"c{i}", i in reference["passed"], detail))
    return out


def test_missing_criterion_is_flagged():
    ref = checks.load_selftest_reference()
    assert not any(checks.selftest_problems(_criteria(ref), ref).values())
    assert checks.selftest_problems(_criteria(ref, drop=3), ref)[3]
    wrong8 = _criteria(ref)
    wrong8[7] = CriterionResult(8, "c8", False, "measured 0.40000")
    assert checks.selftest_problems(wrong8, ref)[8]


def test_criterion_8_reference_follows_from_the_closed_form():
    k = 200
    log_bound = 2 * math.log(k) + (k + 1) * math.log(2) + k * math.log(
        ((k + 1) * math.log(2) + 2 * math.log(k)) / k)
    ref = checks.load_selftest_reference()
    assert f"{log_bound / k:.5f}" == ref["criterion_8_measured"]


def test_same_seed_gives_identical_inputs_and_other_seeds_differ():
    for cls in (workloads.Check, workloads.Blocking):
        wl = cls(None)
        a = json.dumps(wl.inputs(7, 2), sort_keys=True).encode()
        assert a == json.dumps(wl.inputs(7, 2), sort_keys=True).encode()
        assert a != json.dumps(wl.inputs(8, 2), sort_keys=True).encode()
        assert a != json.dumps(wl.inputs(7, 3), sort_keys=True).encode()


def test_check_mix_holds_both_verdicts_in_every_class():
    wl = workloads.Check(None)
    seen = {}
    for d in wl.inputs(1, 0):
        if d["kind"] == "random":
            verdict = checks.colorable_oracle(d["universe"], d["aLists"], d["bLists"])
            seen.setdefault((d["kA"], d["kB"]), set()).add(verdict)
    assert seen == {key: {True, False} for key in wl.CLASSES}


def test_paired_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(parent, [x * 1.5 for x in parent], "higher", 0.1)[0] == "better"
    assert compare.verdict(parent, [x * 0.8 for x in parent], "higher", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(reversed(parent)), "higher", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, [15.0, 5.0] * 5, "higher", 0.1)[0] == "unresolved"
    # a lower-is-better figure that dropped by 2 % wins every pair, yet stays inside the
    # parent's spread, so it is not claimed as a gain
    assert compare.verdict(noisy, [x * 0.98 for x in noisy], "lower", 10.0)[0] == "unchanged"


def test_faster_change_that_fails_more_does_not_win():
    def runs(rate, fail):
        return {"blocking": {s: {"started_at": float(s), "correct": not fail,
                                 "end_to_end": {"items_per_s": {"value": rate + 0.01 * s},
                                                "fail_frac": {"value": fail}}}
                             for s in range(10)}}

    spec = {"items_per_s": ("1/s", "higher", 0.1)}
    (row,) = compare.compare(runs(10.0, 0.0), runs(20.0, 0.0), spec)
    assert row[-1] == "better"
    (row,) = compare.compare(runs(10.0, 0.0), runs(20.0, 0.05), spec)
    assert row[-1] != "better"


def test_reference_seconds_follow_the_kernel_time_around_the_interval():
    import speed

    times, costs = speed._times[:], speed._costs[:]
    try:
        speed._times[:] = [0.1 * i for i in range(40)]
        # the machine runs at half the reference speed, then at a fifth
        speed._costs[:] = [2 * speed.REF_S] * 20 + [5 * speed.REF_S] * 20
        assert math.isclose(speed.reference_seconds(0.3, 0.4), 0.2)
        assert math.isclose(speed.reference_seconds(3.0, 0.5), 0.1)
    finally:
        speed._times[:], speed._costs[:] = times, costs


def test_speed_probe_samples_and_leaves_its_own_time_out():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    speed.start()
    try:
        t0 = speed.clock()
        wall0 = time.perf_counter()
        while time.perf_counter() - wall0 < 0.6:
            pass
        t = speed.clock() - t0
        wall = time.perf_counter() - wall0
    finally:
        speed.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed._costs) >= 3
    assert t < wall - 0.9 * sum(speed._costs)
    assert speed.reference_seconds(t0, t) > 0
