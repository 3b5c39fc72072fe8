"""End-to-end acceptance checks, shared by `choosekit selftest` and pytest.

Each criterion_N() is a pure check returning (passed, detail).  SPECS holds
each criterion's name and wall-time limit, in CRITERIA order; run_criteria
runs a selection, numbers each result by its position, and builds the
CriterionResult that callers render as one pass/fail line.  Everything here
is deterministic (fixed seeds).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import amplify, bounds, checker, constructions, indepset
from .model import RegimePoint

FUZZ_SEED = 20260809


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:2d} ({self.name}): {self.detail}"


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def criterion_1() -> tuple[bool, str]:
    """Every small block construction is uncolorable, by both engines."""
    checked = 0
    for ka in (2, 3):
        for total in (1, 2, 3):
            for a in _compositions(total):
                inst = constructions.construct_blocks(constructions.BlockSpec(ka, a))
                bt, _ = checker.has_proper_coloring(inst, engine="backtracking")
                tv, _ = checker.has_proper_coloring(inst, engine="transversal")
                if bt or tv:
                    return False, (
                        f"ka={ka} a={a} admitted a coloring (backtracking={bt}, transversal={tv})"
                    )
                checked += 1
    return True, f"{checked} block instances rejected by both engines"


def criterion_2() -> tuple[bool, str]:
    """The (ka, kb) = (2, 2) frontier sits between delta_b = 3 and 4 at delta_a = 2."""
    v4 = checker.decide_choosable(RegimePoint(2, 4, 2, 2))
    v3 = checker.decide_choosable(RegimePoint(2, 3, 2, 2))
    ok = v4.tag == checker.UNCHOOSABLE and v3.tag == checker.CHOOSABLE
    if ok:
        reject, _ = checker.has_proper_coloring(v4.witness)
        ok = not reject
    return ok, (
        f"(2,4,2,2) -> {v4.tag} [{v4.nodes_explored} nodes], (2,3,2,2) -> {v3.tag} "
        f"[{v3.nodes_explored} nodes]"
    )


def criterion_3() -> tuple[bool, str]:
    """Blowup and expansion of the smallest witness stay uncolorable with the
    predicted parameters."""
    base = constructions.construct_blocks(constructions.BlockSpec(2, (1,)))  # K_{1,2} witness
    point = base.point()

    blown = amplify.blowup(base, 2)
    expanded = amplify.expand(base, 2)
    problems = []
    if blown.point() != amplify.amplify_params(point, amplify.BLOWUP, 2):
        problems.append(f"blowup params {blown.point()}")
    if expanded.point() != amplify.amplify_params(point, amplify.EXPANSION, 2):
        problems.append(f"expansion params {expanded.point()}")
    for label, inst in (("blowup", blown), ("expansion", expanded)):
        for engine in ("backtracking", "transversal"):
            found, _ = checker.has_proper_coloring(inst, engine=engine)
            if found:
                problems.append(f"{label} colorable via {engine}")
    return not problems, (
        "; ".join(problems) if problems else
        f"blowup -> {blown.point()}, expansion -> {expanded.point()}, both uncolorable"
    )


def criterion_4() -> tuple[bool, str]:
    """Blocking engine on the product-bound counterexample: recursion equals
    the oracle that counts all 9! blocking orders prefix set by prefix set,
    beats the false product bound, respects the true one, and Monte Carlo
    agrees within 4 sigma."""
    g = indepset.counterexample_graph()
    pe = indepset.p_blocked_exact(g)
    pb = indepset.p_blocked_bruteforce(g)
    prod = indepset.local_product_bound(g)
    fb = indepset.fancy_bound_fraction(g)
    mc = indepset.p_blocked_monte_carlo(g, 10**6, FUZZ_SEED)
    sigma = math.sqrt(float(pe) * (1.0 - float(pe)) / mc.trials)
    checks = {
        "recursion == brute force": pe == pb,
        "exceeds product bound": pe - Fraction(prod) > Fraction(1, 10**9),
        "within degree bound": pe <= fb and fb == Fraction(1, 3),
        "MC within 4 sigma": abs(mc.estimate - float(pe)) <= 4.0 * sigma,
    }
    failed = [k for k, v in checks.items() if not v]
    return not failed, (
        "; ".join(failed) if failed else
        f"p = {pe} = {float(pe):.6f}, product bound {prod:.8f}, "
        f"MC {mc.estimate:.6f} (sigma {sigma:.6f})"
    )


def criterion_5() -> tuple[bool, str]:
    """Equality family: unions of identical complete bipartite blocks meet the
    degree bound with exact rational equality."""
    bad = []
    for a in (1, 2, 3):
        for j in (1, 2):
            edges = [
                (c * a + i, c * a + t) for c in range(j) for i in range(a) for t in range(a)
            ]
            g = indepset.STGraph.make(a * j, a * j, edges)
            pe = indepset.p_blocked_exact(g)
            fb = indepset.fancy_bound_fraction(g)
            if pe != fb or pe != Fraction(1, 2**j):
                bad.append(f"a={a} j={j}: p={pe} bound={fb}")
    return not bad, "; ".join(bad) or "p = bound = 2^-j on all unions (a <= 3, j <= 2)"


def criterion_6() -> tuple[bool, str]:
    """Interval for the smallest unchoosable xi at ka = 2."""
    xb = bounds.xim_bounds(2)
    a2 = bounds.alpha(2).alpha
    lo_ok = abs(xb.lo - 0.5 * math.log(3.0)) <= 1e-12
    hi_ok = abs(xb.hi - math.log(2.0)) <= 1e-12
    alpha_ok = a2 <= 0.5 * math.log(3.0)
    return lo_ok and hi_ok and alpha_ok, (
        f"[{xb.lo:.12f}, {xb.hi:.12f}] vs [ln(3)/2, ln 2], alpha(2) = {a2:.12f}"
    )


def criterion_7() -> tuple[bool, str]:
    """ka=3 upper bound tightened by the 7-edge/7-set witness value."""
    seven = 7.0 * math.log(7.0) ** 2 / 27.0
    xb = bounds.xim_bounds(3)
    return seven < math.log(3.0) ** 2 and abs(xb.hi - seven) <= 1e-12, (
        f"{seven:.5f} < {math.log(3.0) ** 2:.5f}, hi = {xb.hi:.5f} via {xb.hi_rule}"
    )


def criterion_8() -> tuple[bool, str]:
    """Log-slope of the xi' upper bound within 0.05 of its limit at k = 200.

    For the closed form of bounds.xim_prime_upper the slope exceeds the limit
    ln 2 + ln ln 2 by exactly g(k) = e_k + ln(1 + e_k / ln 2), with
    e_k = (ln 2 + 2 ln k) / k.  g(200) = 0.13474, and g first drops to 0.05 at
    k = 663, so this criterion fails; it is kept red at its stated strength
    rather than loosened.
    """
    target = math.log(2.0) + math.log(math.log(2.0))
    slope = math.log(bounds.xim_prime_upper(200)) / 200
    return abs(slope - target) <= 0.05, (
        f"measured {slope:.5f}, target {target:.5f}, |diff| = {abs(slope - target):.5f} "
        f"(tolerance 0.05)"
    )


def criterion_9() -> tuple[bool, str]:
    """Inequality fuzzers: the tedious inequality on 10^5 random points and
    the at-most-three fixed-point count on 10^4 random curves."""
    rng = np.random.RandomState([FUZZ_SEED])  # random.Random(FUZZ_SEED); see fuzz_points
    for first in range(0, 10**5, 10**4):  # in blocks, so temporaries stay small
        points = fuzz_points(rng, 10**4)
        holds = bounds.verify_tedious(*points)
        if not holds.all():
            i = int(np.argmin(holds))
            a, b, beta, gamma = (float(v[i]) for v in points)
            return False, (
                f"tedious inequality failed at trial {first + i}: "
                f"a={a} b={b} beta={beta} gamma={gamma}"
            )
    # 10^4 curves in blocks of 250: the counter's widest level then holds
    # 1,971 open blocks, so each (11, 1971) float temporary is 173 kB (one
    # call on all 10^4 curves would reach 59,921 blocks, 5.3 MB each)
    for _ in range(40):
        a, b = fuzz_curves(rng, 250).T
        counts = bounds.count_double_exp_fixed_points(a, b)
        if (counts > 3).any():
            i = int(np.argmax(counts > 3))
            a, b = float(a[i]), float(b[i])
            return False, f"{int(counts[i])} double-exponential fixed points at a={a} b={b}"
    return True, "10^5 inequality samples hold; 10^4 fixed-point counts all <= 3"


def fuzz_points(rng, count):
    """The next count points (a, b, beta, gamma) of criterion 9, as four
    arrays: a, b = uniform(0, 1), beta = uniform(0, 10) and gamma = max(a, b)
    + max(uniform(0, 10), 1e-9), drawn point by point.

    Seeded with the array [FUZZ_SEED], numpy's legacy generator runs the
    Mersenne Twister of random.Random(FUZZ_SEED) from the same state and
    makes the same doubles u; uniform(0, hi) = 0.0 + (hi - 0.0) * u is
    hi * u bit for bit.
    """
    points = rng.random_sample((count, 4))
    points *= (1.0, 1.0, 10.0, 10.0)
    a, b, beta, offset = points.T
    return a, b, beta, np.maximum(a, b) + np.maximum(offset, 1e-9)


def fuzz_curves(rng, count):
    """The next count curves (a, b) of criterion 9, as rows: each of a and b
    is max(uniform(0, 10), 1e-9), as in fuzz_points."""
    curves = rng.random_sample((count, 2))
    curves *= 10.0
    return np.maximum(curves, 1e-9)


def criterion_10() -> tuple[bool, str]:
    """Classifier never contradicts the exact decision on the small grid, and
    unchoosability is monotone in both degrees."""
    grid = [RegimePoint(da, db, ka, kb)
            for ka in (1, 2) for kb in (1, 2) for da in range(1, 4) for db in range(1, 6)]
    sweep = checker.Sweep(grid)
    verdicts = {}
    for point in grid:
        v = checker.decide_choosable(point, sweep=sweep)
        if v.tag == checker.EXHAUSTED:
            return False, f"budget exhausted at {point}"
        verdicts[(point.ka, point.kb, point.delta_a, point.delta_b)] = v.tag
        report = bounds.classify(point)
        if report.verdict not in (bounds.UNKNOWN, v.tag):
            return False, (
                f"classifier says {report.verdict}, oracle disagrees at {point} "
                f"({report.rule})"
            )
    for (ka, kb, da, db), tag in verdicts.items():
        if tag != checker.UNCHOOSABLE:
            continue
        for nxt in ((ka, kb, da + 1, db), (ka, kb, da, db + 1)):
            if nxt in verdicts and verdicts[nxt] != checker.UNCHOOSABLE:
                return False, f"monotonicity broken between {(ka, kb, da, db)} and {nxt}"
    unch = sum(1 for t in verdicts.values() if t == checker.UNCHOOSABLE)
    return True, (
        f"{len(verdicts)} cells decided ({unch} unchoosable); classifier consistent, monotone"
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


#: (name, wall-time limit in seconds or None for no limit) of each
#: criterion, in CRITERIA order.
SPECS = (
    ("block-construction exactness", 10.0),
    ("exhaustive frontier point", 60.0),
    ("amplification soundness", 5.0),
    ("blocking probability engine", 30.0),
    ("degree-bound equality family", None),
    ("ka=2 interval", None),
    ("ka=3 tightening", None),
    ("xi-prime slope at k=200", None),
    ("appendix fuzz", 20.0),
    ("classifier/oracle grid", None),
)


def run_criteria(only=None):
    """Run the selected criteria (1-based positions in CRITERIA; None = all).

    Each result is stamped with its wall time; exceeding a criterion's time
    limit fails it even when its checks hold.
    """
    results = []
    for i, (fn, (name, limit)) in enumerate(zip(CRITERIA, SPECS, strict=True), start=1):
        if only is not None and i not in only:
            continue
        start = time.perf_counter()
        passed, detail = fn()
        elapsed = time.perf_counter() - start
        detail += f" [{elapsed:.2f}s"
        if limit is not None:
            detail += f" of {limit:.0f}s allowed"
            if elapsed >= limit:
                passed = False
                detail += "; over budget"
        results.append(CriterionResult(i, name, passed, detail + "]"))
    return results
