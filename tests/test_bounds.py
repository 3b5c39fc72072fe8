import math
import random

import numpy as np
import pytest

from choosekit import acceptance, bounds
from choosekit.bounds import (
    CHOOSABLE,
    UNCHOOSABLE,
    UNKNOWN,
    alpha,
    classify,
    count_double_exp_fixed_points,
    entropy_f,
    reserve_probability,
    verify_tedious,
    xi,
    xim_bounds,
    xim_prime_lower,
    xim_prime_upper,
)
from choosekit.model import RegimePoint

# frozen from a 10^6-point grid oracle with golden-section refinement
ALPHA_2 = 0.1018160943972684
U_STAR_2 = 0.2846681439970920


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


def test_alpha_k2_matches_grid_oracle():
    res = alpha(2)
    assert abs(res.alpha - ALPHA_2) < 1e-9
    assert abs(res.u_star - U_STAR_2) < 1e-6


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
    # 119 = 7 * 17, 400 = 20 * 20) it still wins, and an upper bound beyond
    # float range is inf.  Expected values: 50-digit mpmath evaluations.
    for k, r, expected in (
        (118, 2, 3.6441074338760375e73),
        (119, 7, 1.3096713134914825e66),
        (400, 20, 9.9198303002970526e239),
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


def test_xim_prime_slope_converges_slowly():
    # profile of ln(upper)/k toward ln 2 + ln ln 2 = 0.326634...
    target = math.log(2) + math.log(math.log(2))
    slope_200 = math.log(xim_prime_upper(200)) / 200
    slope_800 = math.log(xim_prime_upper(800)) / 800
    assert abs(slope_200 - 0.4613753261124946) < 1e-10
    assert slope_800 < slope_200
    assert abs(slope_800 - target) < 0.05  # inside tolerance exactly from k = 663 on


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


def test_fixed_point_count_three_cycle_case():
    # strong decay splits the fixed point into a 2-cycle: three solutions
    assert count_double_exp_fixed_points(3.0, 5.0) == 3


def test_fixed_point_count_steep_decay_keeps_one():
    for a in (20.0, 50.0, 80.0):
        assert count_double_exp_fixed_points(a, 2.0) >= 1


def test_fixed_point_count_small_fuzz():
    rng = random.Random(6)
    for _ in range(300):
        a = max(rng.uniform(0, 10), 1e-9)
        b = max(rng.uniform(0, 10), 1e-9)
        assert count_double_exp_fixed_points(a, b) <= 3


def _reference_fixed_point_count(a, b, resolution=1e-4):
    """The counter's original grid scan: np.sign and a product of signs."""
    n = max(int(round(1.0 / resolution)), 8)
    x = np.linspace(0.0, b, n + 1)
    h = b * np.exp(-a * b * np.exp(-a * x)) - x
    sign = np.sign(h)
    return len(np.nonzero((sign[:-1] != 0) & (sign[:-1] * sign[1:] <= 0))[0])


@pytest.mark.parametrize("resolution", [1e-4, 1e-2, 0.5])
def test_fixed_point_count_matches_sign_scan(resolution):
    # resolution 0.5 would give 2 intervals; the floor of 8 applies
    rng = random.Random(11)
    counts = set()
    for _ in range(300):
        a = max(rng.uniform(0, 10), 1e-9)
        b = max(rng.uniform(0, 10), 1e-9)
        expected = _reference_fixed_point_count(a, b, resolution)
        assert count_double_exp_fixed_points(a, b, resolution) == expected, (a, b)
        counts.add(expected)
    assert counts >= {1, 3}


@pytest.mark.parametrize(
    "a, b, resolution, zero_at",
    [
        # a near ln(b/x0)/x0 makes grid point x0 a fixed point of g; these a
        # make h(x0) round to exactly 0, where > and >= differ
        (1.38629436111989, 1.0, 0.5, 4),
        (5.545177444479561, 1.0, 0.5, 2),
        (3.359583710671543, 1.0, 1e-2, 33),
        (0.693147180559945, 2.0, 1e-4, 5000),
    ],
)
def test_fixed_point_count_matches_sign_scan_on_grid_roots(a, b, resolution, zero_at):
    n = max(int(round(1.0 / resolution)), 8)
    x = np.linspace(0.0, b, n + 1)
    assert (b * np.exp(-a * b * np.exp(-a * x)) - x)[zero_at] == 0.0
    expected = _reference_fixed_point_count(a, b, resolution)
    assert count_double_exp_fixed_points(a, b, resolution) == expected


@pytest.mark.parametrize("a, b", [(1e300, 1e10), (1e200, 1e200), (1e-300, 1e300), (500.0, 5.0)])
def test_fixed_point_count_matches_sign_scan_at_extremes(a, b):
    count = count_double_exp_fixed_points(a, b)
    if math.isinf(a * b):
        # the old formula is NaN on the grid here and counts 0, but g(g(x)) = x
        # always has a root in [0, b]
        assert count >= 1
    else:
        assert count == _reference_fixed_point_count(a, b)


def test_fixed_point_count_matches_sign_scan_on_criterion_9_curves():
    curves = _criterion_9_curves().tolist()
    counts = set()
    for a, b in curves[:2000]:
        # the grid is np.linspace's, bit for bit
        steps = bounds._grid_steps(10**4) * (b / 10**4)
        steps[-1] = b
        assert steps.tobytes() == np.linspace(0.0, b, 10**4 + 1).tobytes(), b
        expected = _reference_fixed_point_count(a, b)
        assert count_double_exp_fixed_points(a, b) == expected, (a, b)
        counts.add(expected)
    assert counts >= {1, 3}


def _bracket_rule(h):
    """The counter's bracket rule as four comparisons: a + followed by 0 or -,
    or a - followed by 0 or +; a NaN on either side is no bracket."""
    left, right = h[:-1], h[1:]
    return int(np.count_nonzero(((left > 0) & (right <= 0)) | ((left < 0) & (right >= 0))))


@pytest.mark.parametrize("where", ["after h[0] > 0", "before a rise", "at x = 0", "at a drop"])
def test_fixed_point_count_skips_brackets_into_nan(monkeypatch, where):
    # No finite (a, b) puts a lone NaN on the grid, so plant one in the grid
    # steps; h is NaN there and only there.
    a, b, n = 3.0, 5.0, 10**4
    x = np.linspace(0.0, b, n + 1)
    h = b * np.exp(-a * b * np.exp(-a * x)) - x
    drops = np.flatnonzero((h[:-1] > 0) & (h[1:] <= 0)) + 1
    rises = np.flatnonzero((h[:-1] < 0) & (h[1:] >= 0)) + 1
    k = {"after h[0] > 0": 1, "before a rise": int(rises[0]) - 1, "at x = 0": 0,
         "at a drop": int(drops[0])}[where]
    steps = np.arange(n + 1.0)
    steps[k] = np.nan
    monkeypatch.setattr(bounds, "_grid_steps", lambda _: steps)
    x[k] = np.nan
    h = b * np.exp(-a * b * np.exp(-a * x)) - x
    assert np.isnan(h).nonzero()[0].tolist() == [k]
    if k:
        assert h[k - 1] != 0
    assert count_double_exp_fixed_points(a, b) == _bracket_rule(h)
    pos, neg = h > 0, h < 0
    naive = np.count_nonzero(pos[:-1] > pos[1:]) + np.count_nonzero(neg[:-1] > neg[1:])
    assert naive == _bracket_rule(h) + (k > 0)  # it would count the sign before the NaN
