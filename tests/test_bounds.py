import math
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosekit import acceptance, bounds, checker
from choosekit.bounds import (
    CHOOSABLE,
    UNCHOOSABLE,
    UNKNOWN,
    alpha,
    classify,
    count_double_exp_fixed_points,
    entropy_f,
    verify_tedious,
    xi,
    xim_bounds,
    xim_prime_lower,
    xim_prime_upper,
)
from choosekit.constructions import BlockSpec, construct_blocks
from choosekit.model import ListInstance, RegimePoint

# (root of phi, alpha) by k, frozen from 30-digit mpmath: the root of
# phi(u) = 1 - u + k*u*ln(u) below e^(-(k-1)/k), and u*f(u)^(k-1) there.
ALPHA_ORACLE = {
    2: (0.28466813704083846, 0.10181609439726844),
    3: (0.1489992965125086, 0.04795805241595889),
    10: (0.026918259600680217, 0.008157807839336582),
    100: (0.001542115074889666, 0.0004893802029017689),
    1000: (0.00010965958802510552, 3.617343987414574e-05),
}


def test_entropy_endpoints():
    assert entropy_f(1.0) == 0.0
    assert entropy_f(0.0) == 1.0
    assert abs(entropy_f(1 / math.e) - (1 - 2 / math.e)) < 1e-15
    with pytest.raises(ValueError):
        entropy_f(-0.1)
    with pytest.raises(ValueError):
        entropy_f(1.1)


def test_alpha_k1_exact():
    res = alpha(1)
    assert res.alpha == 1.0


@pytest.mark.parametrize("k", sorted(ALPHA_ORACLE))
def test_alpha_matches_mpmath(k):
    u_star, value = ALPHA_ORACLE[k]
    res = alpha(k)
    assert abs(res.u_star - u_star) <= 2 * math.ulp(u_star)
    assert abs(res.alpha - value) <= 2 * math.ulp(value)


def test_alpha_is_the_root_of_phi_and_beats_a_grid():
    u = np.linspace(0.0, 1.0, 10001)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 1.0 - u + u * np.log(u)
    f[0] = 1.0
    for k in range(2, 1001):
        res = alpha(k)

        def phi(x):
            return 1.0 - x + k * x * math.log(x)

        assert phi(res.u_star * (1 - 1e-12)) > 0 > phi(res.u_star * (1 + 1e-12)), k
        grid_max = float((u * f ** (k - 1)).max())
        assert res.alpha >= grid_max - 4 * math.ulp(grid_max), k


def test_alpha_rejects_k_beyond_float_range():
    assert alpha(2**1023).alpha > 0.0
    for k in (0, 10**400):
        with pytest.raises(ValueError, match="k must be >= 1 and fit a float"):
            alpha(k)


def test_alpha_k2_below_upper_bounds():
    assert 0.0 < alpha(2).alpha <= math.log(2)


def test_alpha_k50_asymptotic_floor():
    assert alpha(50).alpha >= 1.0 / (math.e**2 * 50**3)


def test_alpha_bounded_by_one():
    for k in range(1, 21):
        res = alpha(k)
        assert 0.0 < res.alpha <= 1.0
        if k >= 2:
            assert 0.0 < res.u_star < 1.0


def test_xi_values():
    assert abs(xi(RegimePoint(2, 4, 2, 2)) - math.log(2)) < 1e-15
    assert xi(RegimePoint(5, 3, 1, 6)) == 0.5  # ka=1: delta_b / kb, any delta_a
    assert xi(RegimePoint(1, 3, 1, 6)) == 0.5
    assert abs(xi(RegimePoint(7, 7, 3, 3)) - 7 * math.log(7) ** 2 / 27) < 1e-15
    assert abs(xi(RegimePoint(7, 7, 3, 3)) - 0.9817023761990853) < 1e-12
    assert xi(RegimePoint(1, 5, 2, 1)) == 0.0  # ln(1) kills ka >= 2


def test_xi_beyond_float_range():
    # the direct form overflows on the way; xi is exp of its logarithm
    assert xi(RegimePoint(400, 400, 400, 400)) == 0.0  # about e^-1676
    assert bounds._log_xi(RegimePoint(400, 400, 400, 400)) == pytest.approx(-1676, abs=1)
    assert xi(RegimePoint(3, 10**400, 2, 2)) == math.inf
    assert xi(RegimePoint(1, 10**400, 1, 2)) == math.inf
    assert xi(RegimePoint(1, 10**400, 3, 2)) == 0.0  # ln(1) kills ka >= 2
    assert xi(RegimePoint(1000, 1, 300, 300)) == 0.0
    # 10^300 * ln(10^6)^9 overflows, though xi = ln(10^6)^9 fits a float
    x = xi(RegimePoint(10**6, 10**300, 10, 10**30))
    assert x == pytest.approx(math.log(1e6) ** 9, rel=1e-12)
    # ka past float range: 0.0 or inf by the sign of ln ln(delta_a) - ln kb
    assert xi(RegimePoint(3, 3, 10**400, 2)) == 0.0
    assert xi(RegimePoint(3, 3, 10**400, 1)) == math.inf
    assert xi(RegimePoint(1, 3, 10**400, 1)) == 0.0  # ln(1) kills ka >= 2


def test_xi_is_zero_only_past_float_range():
    # ln(2)^2099 underflows to 0.0, though xi = e^-78.5 fits a float
    point = RegimePoint(2, 10**300, 2100, 1)
    assert bounds._log_xi(point) == pytest.approx(-78.5, abs=0.1)
    assert xi(point) == pytest.approx(math.exp(bounds._log_xi(point)), rel=1e-12, abs=0.0)


# xi(2, 10^300, ka, 1) = 10^300 * ln(2)^(ka-1), from 40-digit mpmath; from
# ka = 1934 on the factor ln(2)^(ka-1) is subnormal while xi is a normal float
_XI_SUBNORMAL_FACTOR = {
    1950: 5.8725074576892351365e-11,
    2000: 6.4579790116471211105e-19,
    2020: 4.2325865753070224719e-22,
    2030: 1.0835787027567522416e-23,
}


@pytest.mark.parametrize("ka", sorted(_XI_SUBNORMAL_FACTOR))
def test_xi_where_the_log_factor_is_subnormal(ka):
    got = xi(RegimePoint(2, 10**300, ka, 1))
    assert got == pytest.approx(_XI_SUBNORMAL_FACTOR[ka], rel=1e-12, abs=0.0)


def test_classify_is_fast_where_kb_to_the_ka_is_huge():
    # the logarithm puts xi below float range, so kb**ka is never built
    start = time.perf_counter()
    report = classify(RegimePoint(2, 2, 10**7, 3))
    assert time.perf_counter() - start < 0.5
    assert (report.xi, report.verdict, report.rule) == (0.0, CHOOSABLE, bounds.RULE_TRIVIAL)


@pytest.mark.parametrize("point", [(3, 9, 2, 1), (3, 3, 2, 1), (2, 10, 2, 10), (2, 3, 2, 2),
                                   (5, 3, 1, 2), (7, 7, 3, 3)])
def test_classify_is_invariant_under_scaling_past_float_range(point):
    # delta_b * c^ka and kb * c leave xi, and so every rule's test, unchanged;
    # at c = 10^400 each threshold's direct form overflows and logarithms decide
    da, db, ka, kb = point
    c = 10**400
    small, large = classify(RegimePoint(*point)), classify(RegimePoint(da, db * c**ka, ka, kb * c))
    assert (large.verdict, large.rule) == (small.verdict, small.rule)
    assert large.xi == pytest.approx(small.xi, rel=1e-11)


def test_classify_threshold_where_both_sides_overflow():
    # both sides of the general threshold overflow a float: xi = 1.8e10
    # against 2^19 ln(10)^9 = 9.4e8, so the rule fires
    report = classify(RegimePoint(10**6, 10**300, 10, 10**30))
    assert (report.verdict, report.rule) == (UNCHOOSABLE, bounds.RULE_GENERAL_THRESHOLD)


def test_classify_unchoosable_via_general_threshold():
    report = classify(RegimePoint(3, 9, 2, 1))
    assert report.verdict == UNCHOOSABLE
    assert report.rule == bounds.RULE_GENERAL_THRESHOLD


def test_classify_choosable_small_ratio():
    report = classify(RegimePoint(5, 1, 1, 2))
    assert report.verdict == CHOOSABLE  # fires on the trivial-degree rule first


def test_classify_k1_band():
    # ka=1, kb <= delta_b <= 2kb: classifier has no applicable rule
    report = classify(RegimePoint(5, 3, 1, 2))
    assert report.verdict in (UNKNOWN, UNCHOOSABLE)


def test_classify_xi_below_alpha():
    # degrees at or above the list sizes, so the trivial rule passes;
    # xi = 10 ln(2) / 100 = 0.069 < alpha(2) = 0.1018
    point = RegimePoint(2, 10, 2, 10)
    report = classify(point)
    assert report.verdict == CHOOSABLE
    assert report.rule == bounds.RULE_XI_ALPHA


def test_classify_pair_threshold():
    # delta_b * ln(delta_a) > 1.4 kb^2 but below the general threshold
    point = RegimePoint(3, 3, 2, 1)
    assert 3 * math.log(3) > 1.4
    assert 3 * math.log(3) < 8 * math.log(2)
    report = classify(point)
    assert report.verdict == UNCHOOSABLE
    assert report.rule == bounds.RULE_PAIR_THRESHOLD


def test_classify_open_band_is_unknown():
    report = classify(RegimePoint(2, 3, 2, 2))
    assert report.verdict in (UNKNOWN, CHOOSABLE)
    assert report.verdict != UNCHOOSABLE  # the point is exactly choosable


@pytest.mark.parametrize("point", [(10, 5 * 10**19, 10, 25), (100, 10**20, 10, 50)])
def test_classify_exact_tie_with_the_general_threshold(point):
    # xi equals the general threshold 2^19 ln(10)^9 exactly at both points,
    # and the strict test leaves a tie unknown
    report = classify(RegimePoint(*point))
    assert (report.verdict, report.rule) == (UNKNOWN, bounds.RULE_NONE)


def test_xim_bounds_k1_exact():
    xb = xim_bounds(1)
    assert xb.lo == xb.hi == 1.0


@pytest.mark.parametrize("k", range(2, 7))
def test_bounds_are_plain_floats(k):
    xb = xim_bounds(k)
    res = alpha(k)
    assert {type(xb.lo), type(xb.hi), type(res.alpha), type(res.u_star)} == {float}


def test_xim_bounds_k2():
    xb = xim_bounds(2)
    assert abs(xb.lo - 0.5 * math.log(3)) < 1e-12
    assert abs(xb.hi - math.log(2)) < 1e-12
    assert xb.lo_rule == bounds.RULE_HALF_LOG3


def test_xim_bounds_k3_tightened():
    xb = xim_bounds(3)
    assert abs(xb.hi - 7 * math.log(7) ** 2 / 27) < 1e-12
    assert xb.hi < math.log(3) ** 2


def test_xim_bounds_k4_composite():
    xb = xim_bounds(4)
    expected = 16 * math.log(32) ** 3 / 4**4
    assert abs(xb.hi - expected) < 1e-12
    assert xb.hi < math.log(4) ** 3
    assert xb.hi_rule == bounds.RULE_COMPOSITE


def test_xim_sandwich_through_k20():
    for k in range(2, 21):
        xb = xim_bounds(k)
        assert xb.lo <= xb.hi
        assert alpha(k).alpha <= xb.lo + 1e-12


def test_xim_bounds_beyond_float_range():
    # Candidates are compared by their logarithms: where the part-swapped
    # witness's closed form overflows a float on the way (118 = 2 * 59,
    # 119 = 7 * 17, 400 = 25 * 16) it still wins, and an upper bound beyond
    # float range is inf.  At 400 the divisor 25, past sqrt(400), beats
    # r = 20 (9.9198303002970526e239).  Expected values: 50-digit mpmath
    # evaluations.
    for k, r, expected in (
        (118, 2, 3.6441074338760375e73),
        (119, 7, 1.3096713134914825e66),
        (400, 25, 4.6019999325376419e239),
    ):
        xb = xim_bounds(k)
        assert xb.hi_rule == bounds.RULE_COMPOSITE, (k, r)
        assert abs(xb.hi / expected - 1) < 1e-12
        assert math.log(xb.hi) < (k - 1) * math.log(math.log(k))
    assert xim_bounds(397).hi_rule == bounds.RULE_LOG_POWER  # 397 is prime
    assert math.isfinite(xim_bounds(397).hi)
    xb = xim_bounds(401)  # prime; (ln 401)^400 ~ 1.2e311
    assert xb.hi == math.inf and xb.hi_rule == bounds.RULE_LOG_POWER
    assert math.isfinite(xim_prime_upper(2054))
    assert xim_prime_upper(2055) == math.inf


def _xim_hi_from_integers(k):
    """(hi, hi_rule) as xim_bounds chose them by logs of the exact integers
    delta_b = (k / r)^k * r and delta_a = k^r, for k >= 2."""
    candidates = [((k - 1) * math.log(math.log(k)), bounds.RULE_LOG_POWER,
                   lambda: math.log(k) ** (k - 1))]
    if k == 3:
        seven = 7.0 * math.log(7.0) ** 2 / 27.0
        candidates.append((math.log(seven), bounds.RULE_SEVEN, lambda: seven))
    for r in range(2, k):
        if k % r:
            continue
        delta_b, delta_a = (k // r) ** k * r, k**r
        log_swapped = math.log(delta_a) + (k - 1) * math.log(math.log(delta_b)) - k * math.log(k)
        candidates.append((log_swapped, bounds.RULE_COMPOSITE, lambda da=delta_a, db=delta_b:
                           da * math.log(db) ** (k - 1) / float(k) ** k))
    log_hi, rule, bound = min(candidates, key=lambda c: c[0])
    try:
        hi = bound()
    except OverflowError:
        hi = math.inf
    if math.isinf(hi) and log_hi < math.log(sys.float_info.max):
        hi = math.exp(log_hi)
    return hi, rule


def test_xim_bounds_matches_the_integer_formula():
    for k in range(2, 601):
        xb = xim_bounds(k)
        assert (xb.hi, xb.hi_rule) == _xim_hi_from_integers(k), k
        expected_lo_rule = bounds.RULE_HALF_LOG3 if k == 2 else bounds.RULE_XI_ALPHA
        assert xb.lo_rule == expected_lo_rule, k


def test_xim_bounds_at_large_k():
    # 720720 = 2^4 3^2 5 7 11 13 has 240 divisors; none of their candidates
    # is built as an integer, and the bound is beyond float range.
    xb = xim_bounds(720720)
    assert xb.hi == math.inf and xb.hi_rule == bounds.RULE_COMPOSITE
    assert xb.lo == alpha(720720).alpha


def test_composite_proof_chain_inequalities():
    for k in range(2, 101):
        assert k * math.log(k) ** 2 < (k - 1) ** 2
        assert math.log(k) ** 2 + 2 * math.log(k) < 2 * (k - 1)
        assert k - 1 > math.log(k)


def test_xim_prime_upper_k2_formula():
    assert abs(xim_prime_upper(2) - 8 * (5 * math.log(2)) ** 2) < 1e-9


def test_xim_prime_upper_dominates_lower():
    for k in (2, 3, 5, 10):
        assert xim_prime_upper(k) >= xim_prime_lower(k)
    assert abs(xim_prime_lower(2) - xim_bounds(2).lo * math.log(2)) < 1e-15


def test_xim_prime_lower_takes_k_past_the_scan_limit():
    k = 10**30
    with pytest.raises(ValueError):
        xim_bounds(k)
    assert xim_prime_lower(k) == alpha(k).alpha * math.log(k)


def test_xim_prime_slope_converges_slowly():
    # profile of ln(upper)/k toward ln 2 + ln ln 2 = 0.326634...
    target = math.log(2) + math.log(math.log(2))
    slope_200 = math.log(xim_prime_upper(200)) / 200
    slope_800 = math.log(xim_prime_upper(800)) / 800
    assert abs(slope_200 - 0.4613753261124946) < 1e-10
    assert slope_800 < slope_200
    assert abs(slope_800 - target) < 0.05  # inside tolerance exactly from k = 663 on


def reserve_probability(ka: int, kb: int, delta_a: int, eps: float = 0.1) -> float:
    """Reservation probability p = (1 + eps/ka) * ln(delta_a) / (f(u0) * kb)
    of the randomized reserve-coloring procedure."""
    if ka < 2:
        raise ValueError("the reservation formula needs ka >= 2 (f(u0) vanishes at ka = 1)")
    a = alpha(ka)
    return (1.0 + eps / ka) * math.log(delta_a) / (entropy_f(a.u_star) * kb)


def test_reserve_probability_formula():
    a = alpha(2)
    expected = (1 + 0.1 / 2) * math.log(16) / (entropy_f(a.u_star) * 3)
    assert abs(reserve_probability(2, 3, 16, eps=0.1) - expected) < 1e-15
    with pytest.raises(ValueError):
        reserve_probability(1, 3, 16)


def test_verify_tedious_equality_at_beta_zero():
    assert verify_tedious(0.3, 0.7, 0.0, 2.0)
    assert verify_tedious(1.0, 0.0, 0.0, 1.5)


def test_verify_tedious_examples():
    assert verify_tedious(0.5, 0.5, 1.0, 2.0)
    assert verify_tedious(0.0, 0.4, 3.0, 2.0)
    assert verify_tedious(1.0, 1.0, 10.0, 1.0000001)


def test_verify_tedious_domain():
    with pytest.raises(ValueError):
        verify_tedious(1.5, 0.5, 1.0, 2.0)  # a > 1
    with pytest.raises(ValueError):
        verify_tedious(0.5, 0.5, 1.0, 0.4)  # gamma <= max(a, b)
    with pytest.raises(ValueError):
        verify_tedious(0.5, -0.1, 1.0, 2.0)


def _small_fuzz_points():
    rng = random.Random(5)
    for _ in range(2000):
        a, b = rng.uniform(0, 1), rng.uniform(0, 1)
        beta = rng.uniform(0, 10)
        gamma = max(a, b) + max(rng.uniform(0, 10), 1e-9)
        yield a, b, beta, gamma


def _extreme_fuzz_points():
    # huge beta and near-degenerate gamma stress the log-space evaluation
    rng = random.Random(99)
    for _ in range(5000):
        a, b = rng.uniform(0, 1), rng.uniform(0, 1)
        beta = rng.choice([rng.uniform(0, 1), rng.uniform(0, 100), rng.uniform(0, 1e6)])
        gamma = max(a, b) + rng.choice(
            [rng.uniform(1e-9, 1e-3), rng.uniform(1e-9, 10), rng.uniform(1e-9, 100)]
        )
        yield a, b, beta, gamma


def test_verify_tedious_small_fuzz():
    for a, b, beta, gamma in _small_fuzz_points():
        assert verify_tedious(a, b, beta, gamma)


def test_verify_tedious_extreme_magnitudes():
    for a, b, beta, gamma in _extreme_fuzz_points():
        assert verify_tedious(a, b, beta, gamma)


def _reference_verify_tedious(a, b, beta, gamma):
    """verify_tedious as it was written for one point, in math-module floats."""
    if min(a, b, beta, gamma) < 0 or a > 1 or gamma <= max(a, b):
        raise ValueError("need a, b, beta, gamma >= 0, a <= 1, gamma > max(a, b)")
    lhs = -(gamma - a) * math.log1p(beta * (gamma - a) / (gamma - b))
    if a == 0:
        correction = 0.0
    elif b == 0:
        if beta == 0:
            correction = 0.0
        else:
            return True  # right side is infinite
    else:
        correction = math.log1p(beta * a * a / b)
    rhs = -gamma * math.log1p(beta) + correction
    return lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


def _criterion_9_points():
    rng = np.random.RandomState([acceptance.FUZZ_SEED])
    blocks = [acceptance.fuzz_points(rng, 10**4) for _ in range(10)]
    return [np.concatenate(v) for v in zip(*blocks)]


def _criterion_9_curves():
    rng = np.random.RandomState([acceptance.FUZZ_SEED])
    rng.random_sample(4 * 10**5)  # the points come first in the stream
    return acceptance.fuzz_curves(rng, 10**4)


# The branches of the scalar body: a == 0, b == 0 with and without beta, beta
# == 0, both zero, and points within rounding of equality.
_EDGE_POINTS = [
    (0.0, 0.4, 3.0, 2.0), (0.0, 0.0, 3.0, 1.0), (1.0, 0.0, 0.0, 1.5), (1.0, 0.0, 2.0, 1.5),
    (0.3, 0.7, 0.0, 2.0), (0.5, 0.5, 1.0, 2.0), (1.0, 1.0, 10.0, 1.0000001),
    (0.0, 0.0, 0.0, 1e-9), (1.0, 1.0, 1e6, 1.0 + 1e-9),
]


@pytest.mark.parametrize("source", ["criterion 9", "small fuzz", "extreme magnitudes", "edges"])
def test_verify_tedious_arrays_match_scalar_body(source):
    if source == "criterion 9":
        a, b, beta, gamma = _criterion_9_points()
        assert len(a) == 10**5
    else:
        points = {"small fuzz": _small_fuzz_points, "extreme magnitudes": _extreme_fuzz_points,
                  "edges": lambda: _EDGE_POINTS}[source]()
        a, b, beta, gamma = (np.array(v) for v in zip(*points))
    got = verify_tedious(a, b, beta, gamma)
    assert got.dtype == bool and got.shape == a.shape
    points = zip(a.tolist(), b.tolist(), beta.tolist(), gamma.tolist())
    expected = [_reference_verify_tedious(*p) for p in points]
    assert got.tolist() == expected
    for i in range(0, len(a), max(1, len(a) // 50)):  # the scalar form gives the same bool
        point = (a[i].item(), b[i].item(), beta[i].item(), gamma[i].item())
        assert verify_tedious(*point) is expected[i]


def test_verify_tedious_broadcasts_and_checks_every_element():
    assert verify_tedious(np.array([0.0, 0.5, 1.0]), 0.5, 1.0, 2.0).tolist() == [True] * 3
    with pytest.raises(ValueError, match="need a, b, beta, gamma >= 0"):
        verify_tedious(np.array([0.5, 1.5]), 0.5, 1.0, 2.0)  # one a > 1
    with pytest.raises(ValueError, match="need a, b, beta, gamma >= 0"):
        verify_tedious(0.5, 0.5, np.array([1.0, -1.0]), 2.0)  # one negative beta
    with pytest.raises(ValueError, match="need a, b, beta, gamma >= 0"):
        verify_tedious(0.5, np.array([0.1, 0.9]), 1.0, 0.8)  # one gamma <= max(a, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", range(4))
def test_verify_tedious_rejects_nan_and_infinity(where, bad):
    point = [0.5, 0.5, 1.0, 2.0]
    point[where] = bad
    with pytest.raises(ValueError, match="all finite"):
        verify_tedious(*point)
    point[where] = np.array([point[where - 1 if where else 1], bad])  # one bad element
    with pytest.raises(ValueError, match="all finite"):
        verify_tedious(*point)


def test_fixed_point_count_basic():
    assert count_double_exp_fixed_points(1.0, 1.0) == 1
    for a, b in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            count_double_exp_fixed_points(a, b)


@pytest.mark.parametrize(
    "a, b", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0)]
)
def test_fixed_point_count_rejects_nan_and_infinity(a, b):
    # NaN fails every comparison, so a bare "a <= 0" check let it through
    # and the NaN grid counted 0 roots
    with pytest.raises(ValueError, match="positive and finite"):
        count_double_exp_fixed_points(a, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("where", ["a", "b"])
def test_fixed_point_count_checks_every_array_element(where, bad):
    good = np.linspace(0.5, 5.0, 40)
    assert count_double_exp_fixed_points(good, 2.0).shape == (40,)
    spoiled = good.copy()
    spoiled[17] = bad  # one bad element among many
    a, b = (spoiled, good) if where == "a" else (good, spoiled)
    with pytest.raises(ValueError, match="positive and finite"):
        count_double_exp_fixed_points(a, b)


def test_fixed_point_count_three_cycle_case():
    # strong decay splits the fixed point into a 2-cycle: three solutions
    assert count_double_exp_fixed_points(3.0, 5.0) == 3


def test_fixed_point_count_steep_decay_keeps_one():
    # a*b of 40 to 160 is past e: the fixed point and both 2-cycle points
    for a in (20.0, 50.0, 80.0):
        assert count_double_exp_fixed_points(a, 2.0) == 3


def test_fixed_point_count_small_fuzz():
    rng = random.Random(6)
    for _ in range(300):
        a = max(rng.uniform(0, 10), 1e-9)
        b = max(rng.uniform(0, 10), 1e-9)
        assert count_double_exp_fixed_points(a, b) <= 3


def _reference_fixed_point_count(a, b):
    """The counter's original grid scan: np.sign and a product of signs.
    Only meaningful where h(0) = b e^(-ab) is above 0 (see _h0_underflows)."""
    x = np.linspace(0.0, b, 10**4 + 1)
    h = b * np.exp(-a * b * np.exp(-a * x)) - x
    sign = np.sign(h)
    return len(np.nonzero((sign[:-1] != 0) & (sign[:-1] * sign[1:] <= 0))[0])


def test_fixed_point_count_matches_sign_scan():
    rng = random.Random(11)
    counts = set()
    for _ in range(300):
        a = max(rng.uniform(0, 10), 1e-9)
        b = max(rng.uniform(0, 10), 1e-9)
        expected = _reference_fixed_point_count(a, b)
        assert count_double_exp_fixed_points(a, b) == expected, (a, b)
        counts.add(expected)
    assert counts >= {1, 3}


@pytest.mark.parametrize(
    "a, b, zero_at",
    [
        # a near ln(b/x0)/x0 makes grid point x0 a fixed point of g; these a
        # make h(x0) round to exactly 0, where > and >= differ
        (0.693147180559945, 2.0, 5000),
        # h = 0 on a block end of each level of the refinement: blocks of
        # 1000, 100 and 10 intervals, then a single interval.  No a, b puts
        # the zero at k = 100: it needs exp(.) within about an ulp of
        # x_100 / b = 0.01, where exp's outputs lie 5 ulps apart, so k = 300
        # stands in for it.
        (4.168924924238127, 5.5232107433905, 1000),
        (20.08576897938324, 5.81930735955266, 300),
        (104.67846003657596, 5.0, 90),
        (5.0007500916738e-05, 2.0, 10**4 - 1),
    ],
)
def test_fixed_point_count_matches_sign_scan_on_grid_roots(a, b, zero_at):
    x = np.linspace(0.0, b, 10**4 + 1)
    assert (b * np.exp(-a * b * np.exp(-a * x)) - x)[zero_at] == 0.0
    assert count_double_exp_fixed_points(a, b) == _reference_fixed_point_count(a, b)


def _h0_underflows(a, b):
    """Whether h(0) = g(b) = b e^(-ab) reads 0.0, as the sign scan computes
    it: there the grid loses the root near 0, and the counter refuses."""
    with np.errstate(over="ignore"):
        return np.exp(-(np.asarray(a) * b)) * b == 0


_OUT_OF_DOMAIN = r"need b\*exp\(-a\*b\) > 0"


@pytest.mark.parametrize("a, b", [(1e300, 1e10), (1e200, 1e200), (1e-300, 1e300), (500.0, 5.0)])
def test_fixed_point_count_matches_sign_scan_at_extremes(a, b):
    # g(b) = b e^(-ab) reads 0.0 on all but (1e-300, 1e300), where a*b = 1:
    # a grid that starts at h(0) = 0.0 loses the root near 0
    if _h0_underflows(a, b):
        with pytest.raises(ValueError, match=_OUT_OF_DOMAIN):
            count_double_exp_fixed_points(a, b)
    else:
        assert count_double_exp_fixed_points(a, b) == _reference_fixed_point_count(a, b)
    assert _h0_underflows(a, b) == (a != 1e-300)


def test_fixed_point_count_domain_boundary():
    # At b = 1, b e^(-ab) is the least subnormal float up to this a and 0.0 past it
    a = 745.1332191019411
    assert count_double_exp_fixed_points(a, 1.0) == 3
    with pytest.raises(ValueError, match=_OUT_OF_DOMAIN):
        count_double_exp_fixed_points(np.nextafter(a, math.inf), 1.0)
    good = np.linspace(0.5, 5.0, 40)
    assert count_double_exp_fixed_points(good, 2.0).shape == (40,)
    spoiled = good.copy()
    spoiled[17] = 400.0  # a*b = 800: one curve out of the domain among many
    with pytest.raises(ValueError, match=_OUT_OF_DOMAIN):
        count_double_exp_fixed_points(spoiled, 2.0)


def _closed_form_fixed_point_count(a, b):
    """g(x) = b e^(-a x) has one fixed point x*, with a x* = W(ab) and
    g'(x*) = -W(ab); W(ab) > 1 exactly when ab > e, and then x* repels and
    g(g(x)) = x gains a 2-cycle: three solutions, else one."""
    return 1 + 2 * (np.asarray(a) * np.asarray(b) > math.e)


def test_fixed_point_count_matches_sign_scan_on_criterion_9_curves():
    curves = _criterion_9_curves()
    got = count_double_exp_fixed_points(curves[:, 0], curves[:, 1])
    assert got.shape == (10**4,)
    assert np.array_equal(got, _closed_form_fixed_point_count(curves[:, 0], curves[:, 1]))
    counts = set()
    for (a, b), count in zip(curves.tolist(), got.tolist()):
        # the grid is np.linspace's, bit for bit
        steps = np.arange(10**4 + 1.0) * (b / 10**4)
        steps[-1] = b
        assert steps.tobytes() == np.linspace(0.0, b, 10**4 + 1).tobytes(), b
        expected = _reference_fixed_point_count(a, b)
        assert count == expected, (a, b)
        counts.add(expected)
    assert counts >= {1, 3}


def test_fixed_point_count_matches_closed_form_on_log_uniform_curves():
    # a, b log-uniform in [1e-6, 1e6], and a near the boundary at b = 1: every
    # curve the counter accepts gets the closed form's count, up to the last
    # one whose g(b) = b e^(-ab) is above 0, and every other curve is refused
    rng = np.random.default_rng(7)
    a, b = 10.0 ** rng.uniform(-6.0, 6.0, (2, 100_000))
    a = np.concatenate([a, rng.uniform(700.0, 745.14, 2000)])
    b = np.concatenate([b, np.ones(2000)])
    out = _h0_underflows(a, b)
    assert 0 < np.count_nonzero(out[-2000:]) < 10  # the boundary lies in that range
    for p, q in zip(a[out].tolist(), b[out].tolist()):
        with pytest.raises(ValueError, match=_OUT_OF_DOMAIN):
            count_double_exp_fixed_points(p, q)
    a, b = a[~out], b[~out]
    got = np.concatenate(
        [count_double_exp_fixed_points(a[i:i + 1000], b[i:i + 1000]) for i in range(0, a.size, 1000)]
    )
    assert np.array_equal(got, _closed_form_fixed_point_count(a, b))
    assert np.count_nonzero(a * b > 100) > 7000 and (a * b).max() > 745


def test_fixed_point_count_does_not_depend_on_the_batch():
    # criterion 9 counts its 10^4 curves in 40 calls of 250; one call over all
    # of them holds other curves' blocks in the same arrays, in another order
    a, b = _criterion_9_curves().T
    blocks = [count_double_exp_fixed_points(a[i:i + 250], b[i:i + 250]) for i in range(0, 10**4, 250)]
    assert np.array_equal(count_double_exp_fixed_points(a, b), np.concatenate(blocks))


def test_double_exp_matches_the_plain_form():
    # one buffer and a fixed operation order, with the bytes of the plain
    # form b*exp(-ab*exp(-a*x))
    a = np.array([0.5, 3.0, 7.0, 1e-3])
    b = np.array([2.0, 5.0, 0.1, 9.0])
    ab = a * b
    x = np.linspace(0.0, 1.0, 11)[:, None] * b
    plain = np.exp(np.exp(x * -a) * -ab) * b
    assert bounds._double_exp(x, a, b, ab).tobytes() == plain.tobytes()


def _limit_points(monkeypatch, limit):
    """Fail as soon as the counter has evaluated g(g(x)) at more than limit points."""
    real, points = bounds._double_exp, [0]

    def counted(x, a, b, ab):
        points[0] += x.size
        assert points[0] <= limit
        return real(x, a, b, ab)

    monkeypatch.setattr(bounds, "_double_exp", counted)


def test_fixed_point_count_work_on_criterion_9_curves(monkeypatch):
    # Points where criterion 9 evaluates g(g(x)): 1,682,758 by nested blocks
    # of 10; 4,737,276 by 50-interval blocks and a scan of each open one; a
    # full scan needs 10^4 * 10,001.  The ceiling leaves 1 % for other
    # roundings of exp near a block's bound.
    _limit_points(monkeypatch, 1_700_000)
    passed, detail = acceptance.criterion_9()
    assert passed, detail


@pytest.mark.parametrize("a, b", [(1.0, 1e-320)])
def test_fixed_point_count_work_where_no_block_settles(monkeypatch, a, b):
    # A subnormal step b / 10^4 sets tol = b, so no block settles: 11 points
    # for each of 1, 10, 100 and 1000 blocks, a full scan's 10,001 plus 22 %.
    _limit_points(monkeypatch, 12_221)
    assert count_double_exp_fixed_points(a, b) >= 1


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# a and b in criterion 9's range; over many magnitudes, out of the domain
# too; and with a*b in [1e2, 745], up to the domain's edge, where the
# tolerance of the coarse step is widest
_CURVES = st.one_of(
    st.tuples(st.floats(1e-9, 10.0), st.floats(1e-9, 10.0)),
    st.tuples(_log_uniform(1e-9, 1e4), _log_uniform(1e-9, 1e4)),
    st.tuples(_log_uniform(1e-3, 1e6), _log_uniform(1e2, 745.0)).map(
        lambda c: (c[1] / c[0], c[0])
    ),
)


@given(curves=st.lists(_CURVES, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_fixed_point_count_matches_sign_scan_property(curves):
    a, b = np.array(curves).T
    out = _h0_underflows(a, b)
    if out.any():  # one curve out of the domain refuses the whole batch
        with pytest.raises(ValueError, match=_OUT_OF_DOMAIN):
            count_double_exp_fixed_points(a, b)
        a, b = a[~out], b[~out]
        if not a.size:
            return
    expected = [_reference_fixed_point_count(p, q) for p, q in zip(a.tolist(), b.tolist())]
    got = count_double_exp_fixed_points(a, b)
    assert got.dtype.kind == "i" and got.tolist() == expected, curves
    scalar = count_double_exp_fixed_points(a[0].item(), b[0].item())
    assert type(scalar) is int and scalar == expected[0]
    assert count_double_exp_fixed_points(a[:, None], b[:, None]).shape == (len(a), 1)


def test_fixed_point_count_tolerates_errors_of_g_within_its_bound(monkeypatch):
    # The block bound is sound for any g(g(x)) within tol / 2 = 8 eps b (1 + a b)
    # of the exact one, monotone or not.  Perturb the computed g(g(x)) by
    # +-0.45 tol, by the low bit of x, and compare with a full scan of the same
    # perturbed values.  Large a*b makes g(g(x)) flat at b near x = b, where a
    # bound without the tolerance misses the bracket into x = b; it is
    # flattest at the domain's edge, a*b near 745.
    real = bounds._double_exp

    def perturbed(x, a, b, ab):
        error = 0.45 * 16 * sys.float_info.epsilon * b * (1.0 + ab)
        return real(x, a, b, ab) + np.where(x.view(np.int64) & 1, error, -error)

    rng = random.Random(29)
    a = np.array([10 ** rng.uniform(-1, 2) for _ in range(60)])
    b = np.array([10 ** rng.uniform(0, 2) for _ in range(60)])
    keep = ~_h0_underflows(a, b)
    assert np.count_nonzero(keep) == 54  # 6 of the 60 draws have a*b past the domain
    edge_b = np.repeat([1.0, 3.0, 50.0], 3)
    edge_ab = np.tile([740.0, 744.0, 745.0], 3)
    a = np.concatenate([a[keep], edge_ab / edge_b])
    b = np.concatenate([b[keep], edge_b])
    monkeypatch.setattr(bounds, "_double_exp", perturbed)
    got = count_double_exp_fixed_points(a, b)
    expected = []
    for p, q in zip(a.tolist(), b.tolist()):
        x = np.linspace(0.0, q, 10**4 + 1)[None, :]
        h = perturbed(x, np.array([[p]]), np.array([[q]]), np.array([[p * q]]))[0] - x[0]
        expected.append(_bracket_rule(h))
    assert got.tolist() == expected


def _bracket_rule(h):
    """The counter's bracket rule as four comparisons: a + followed by 0 or -,
    or a - followed by 0 or +; a NaN on either side is no bracket."""
    left, right = h[:-1], h[1:]
    return int(np.count_nonzero(((left > 0) & (right <= 0)) | ((left < 0) & (right >= 0))))


@pytest.mark.parametrize("where", ["after h[0] > 0", "before a rise", "at x = 0", "at a drop"])
def test_fixed_point_count_skips_brackets_into_nan(monkeypatch, where):
    # No finite (a, b) puts a lone NaN on the grid, so plant one in g(g(x)) at
    # grid point k; h is NaN there and only there.
    a, b, n = 3.0, 5.0, 10**4
    x = np.linspace(0.0, b, n + 1)
    h = b * np.exp(-a * b * np.exp(-a * x)) - x
    drops = np.flatnonzero((h[:-1] > 0) & (h[1:] <= 0)) + 1
    rises = np.flatnonzero((h[:-1] < 0) & (h[1:] >= 0)) + 1
    k = {"after h[0] > 0": 1, "before a rise": int(rises[0]) - 1, "at x = 0": 0,
         "at a drop": int(drops[0])}[where]
    real, planted_at = bounds._double_exp, x[k]

    def planted(x, a, b, ab):
        g = real(x, a, b, ab)
        g[x == planted_at] = np.nan
        return g

    monkeypatch.setattr(bounds, "_double_exp", planted)
    h[k] = np.nan
    assert np.isnan(h).nonzero()[0].tolist() == [k]
    if k:
        assert h[k - 1] != 0
    assert count_double_exp_fixed_points(a, b) == _bracket_rule(h)
    pos, neg = h > 0, h < 0
    naive = np.count_nonzero(pos[:-1] > pos[1:]) + np.count_nonzero(neg[:-1] > neg[1:])
    assert naive == _bracket_rule(h) + (k > 0)  # it would count the sign before the NaN


FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def _certifies(inst, k, rule):
    """inst has no colouring by either engine, and its xi is xim_bounds(k).hi,
    which rule gives."""
    for engine in ("backtracking", "transversal"):
        assert checker.has_proper_coloring(inst, engine=engine) == (False, None), engine
    hi = xim_bounds(k)
    assert hi.hi_rule == rule
    assert abs(xi(inst.point()) - hi.hi) < 1e-12


def test_seven_seven_witness_certifies_the_ka_3_upper_bound():
    # xim_bounds(3).hi = 7 ln^2 7 / 27 is the xi of K_{7,7} with the Fano
    # plane's lines as both parts' lists; both engines find no colouring
    _certifies(ListInstance.complete(7, 3, 3, FANO_LINES, FANO_LINES), 3, bounds.RULE_SEVEN)


@pytest.mark.parametrize("a", [(2,), (2, 2), (1, 1, 1)])
def test_block_construction_certifies_the_ka_2_upper_bound(a):
    # BlockSpec(k, (a,) * r) has delta_a = k^r, delta_b = r a^k and kb = r a,
    # so its xi is (ln k)^(k-1) whatever a and r are: ln 2 at k = 2
    _certifies(construct_blocks(BlockSpec(2, a)), 2, bounds.RULE_LOG_POWER)


def test_composite_swap_certifies_the_ka_4_upper_bound():
    # BlockSpec(4, (2, 2)) has delta_a = 16, delta_b = 32 and lists (4, 4);
    # its list-swapped mirror has xi = 16 ln(32)^3 / 4^4
    inst = construct_blocks(BlockSpec(4, (2, 2)))
    mirror = ListInstance.complete(inst.universe, inst.kb, inst.ka, inst.b_lists, inst.a_lists)
    _certifies(mirror, 4, bounds.RULE_COMPOSITE)


@pytest.mark.parametrize("call, message", [
    (lambda: xim_bounds(0), "k must be >= 1"),
    (lambda: xim_prime_upper(1), "k must be >= 2"),
    (lambda: xim_prime_lower(1), "k must be >= 2"),
], ids=["xim_bounds", "xim_prime_upper", "xim_prime_lower"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
