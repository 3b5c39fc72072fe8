"""Numeric threshold machinery for the choosability invariant xi.

xi(delta_a, delta_b, ka, kb) = delta_b * ln(delta_a)^(ka-1) / kb^ka governs
choosability of complete bipartite graphs up to constant factors.  This
module evaluates xi, the entropy-style function f and its derived maximum
alpha(k), the sufficient-condition classifier, interval bounds on the
smallest unchoosable xi, and two numeric inequality verifiers used as fuzz
targets.

All logarithms are natural.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .model import RegimePoint

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = -1075 * math.log(2.0)  # math.exp is 0.0 at and below it
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # the smallest normal float

# Verdict labels shared with the exact decision engine.
CHOOSABLE = "choosable"
UNCHOOSABLE = "unchoosable"
UNKNOWN = "unknown"

# Classifier / bound provenance labels, named for what each rule does.
RULE_TRIVIAL = "trivial-degrees"          # a part's degree below its list size
RULE_XI_ALPHA = "xi-below-alpha"          # xi < alpha(ka) choosability threshold
RULE_GENERAL_THRESHOLD = "block-threshold"    # general unchoosability threshold
RULE_PAIR_THRESHOLD = "pair-list-threshold"   # sharper ka=2 unchoosability threshold
RULE_NONE = "none"

RULE_SINGLETON_EXACT = "singleton-lists-exact"    # exact rule for ka = 1
RULE_HALF_LOG3 = "greedy-blocking"        # ka=2 lower bound from the blocking analysis
RULE_LOG_POWER = "block-construction"     # (ln k)^(k-1) upper bound
RULE_SEVEN = "seven-seven-witness"        # ka=3 upper bound from the K_{7,7} witness
RULE_COMPOSITE = "composite-swap"         # composite-k upper bound via the swapped witness


def entropy_f(u: float) -> float:
    """f(u) = 1 - u + u*ln(u) on [0, 1], with f(0) = 1 by continuity."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    if u == 0.0:
        return 1.0
    return 1.0 - u + u * math.log(u)


class AlphaResult(NamedTuple):
    k: int
    alpha: float
    u_star: float


@lru_cache(maxsize=None)
def alpha(k: int) -> AlphaResult:
    """Global maximum of u * f(u)^(k-1) over [0, 1].  alpha(1) = 1 exactly.

    For k >= 2 the derivative is f(u)^(k-2) * phi(u) with
    phi(u) = 1 - u + k*u*ln(u), and f > 0 on [0, 1).  phi(0) = 1, phi falls
    to a negative minimum at e^(-(k-1)/k) and rises to phi(1) = 0, so its
    one root in (0, e^(-(k-1)/k)) is the maximiser u*.  It is bisected
    until the midpoint meets an endpoint, and u* is the upper end.  f^(k-1)
    is taken as exp((k-1) * log1p(f - 1)), since the power multiplies any
    rounding of f by k - 1.
    """
    if not 1 <= k <= sys.float_info.max:
        raise ValueError("k must be >= 1 and fit a float")
    if k == 1:
        return AlphaResult(1, 1.0, 1.0)
    lo, hi = 0.0, math.exp(-(k - 1) / k)
    mid = 0.5 * hi
    while lo < mid < hi:
        if 1.0 - mid + k * mid * math.log(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return AlphaResult(k, hi * math.exp((k - 1) * math.log1p(hi * (math.log(hi) - 1.0))), hi)


def xi(point: RegimePoint) -> float:
    """delta_b * ln(delta_a)^(ka-1) / kb^ka.

    For ka = 1 this is delta_b / kb (the log factor has exponent zero, even
    at delta_a = 1); for ka >= 2 and delta_a = 1 it is 0.  Evaluated
    log-first (_from_log): 0.0 or math.inf only where xi itself leaves
    float range, and for a ka past float range, 0.0 or math.inf by the sign
    of ln ln(delta_a) - ln kb.  Where ln(delta_a)^(ka-1) is subnormal it has
    lost digits that the product would show, so xi is exp of its logarithm.
    """
    da, db, ka, kb = point.delta_a, point.delta_b, point.ka, point.kb

    def direct():
        if ka == 1:
            return db / kb
        factor = math.log(da) ** (ka - 1)
        return db * factor / kb**ka if factor >= _TINY else 0.0  # 0.0: exp of the log

    return _from_log(_log_xi(point), direct)


def _log_xi(point: RegimePoint) -> float:
    """ln xi(point) from the parameters' logarithms, for integers of any size."""
    if point.ka > 1 and point.delta_a == 1:
        return -math.inf
    log_log_da = math.log(math.log(point.delta_a) or 1.0)  # ln(1)^0 = 1 at ka = 1
    if point.ka > sys.float_info.max:  # (ka - 1) * ... would not convert to a float
        return math.inf if log_log_da > math.log(point.kb) else -math.inf
    return math.log(point.delta_b) + (point.ka - 1) * log_log_da - point.ka * math.log(point.kb)


def _from_log(log_value: float, direct) -> float:
    """A positive value, given its natural logarithm and a direct form.

    Where log_value puts the value past float range, math.inf or 0.0,
    without calling direct (which may build huge integers on the way).
    Otherwise direct(), unless it overflows (OverflowError, inf or NaN) or
    underflows to 0.0 on the way; then exp(log_value).
    """
    if log_value >= _LOG_FLOAT_MAX:
        return math.inf
    if log_value < _LOG_FLOAT_MIN:
        return 0.0
    try:
        value = direct()
    except OverflowError:
        value = math.inf
    return value if 0.0 < value < math.inf else math.exp(log_value)


class BoundReport(NamedTuple):
    point: RegimePoint
    xi: float
    verdict: str
    rule: str


def trivial_degrees(point: RegimePoint) -> bool:
    """A part's degree is below its list size, so every assignment is colourable."""
    return point.delta_a < point.ka or point.delta_b < point.kb


def classify(point: RegimePoint) -> BoundReport:
    """Sufficient-condition classifier: choosable, unchoosable, or unknown.

    Rules fire in a fixed priority order and the report names the rule that
    produced the verdict.  Unknown is an honest outcome: the sufficient
    conditions leave a band of the parameter space undecided.
    """
    da, db, ka, kb = point.delta_a, point.delta_b, point.ka, point.kb
    x = xi(point)

    if trivial_degrees(point):
        return BoundReport(point, x, CHOOSABLE, RULE_TRIVIAL)
    if x < alpha(ka).alpha:
        return BoundReport(point, x, CHOOSABLE, RULE_XI_ALPHA)
    # General threshold; ln(1)^0 = 1 keeps the ka = 1 case meaningful.  Each
    # test compares the ratio of its two sides with 1: for finite positive
    # floats fl(lhs / rhs) > 1 exactly when lhs > rhs.
    log_xi, log_da, log_ka = _log_xi(point), math.log(da), math.log(ka) or 1.0
    log_rhs = (2 * ka - 1) * math.log(2.0) + (ka - 1) * math.log(log_ka)
    ratio = lambda: db * log_da ** (ka - 1) / (2 ** (2 * ka - 1) * log_ka ** (ka - 1) * kb**ka)
    if _from_log(log_xi - log_rhs, ratio) > 1.0:
        return BoundReport(point, x, UNCHOOSABLE, RULE_GENERAL_THRESHOLD)
    if ka == 2 and db >= kb:
        if _from_log(log_xi - math.log(1.4), lambda: db * log_da / (1.4 * kb * kb)) > 1.0:
            return BoundReport(point, x, UNCHOOSABLE, RULE_PAIR_THRESHOLD)
    return BoundReport(point, x, UNKNOWN, RULE_NONE)


#: Largest k that xim_bounds takes: its divisor scan runs up to sqrt(k), which
#: takes about 70 ms at 10**12 on a 2-vCPU Xeon VM and grows as sqrt(k).
XIM_MAX_K = 10**12


class XimBounds(NamedTuple):
    k: int
    lo: float
    hi: float
    lo_rule: str
    hi_rule: str


def xim_bounds(k: int) -> XimBounds:
    """Interval [lo, hi] bracketing the infimum xi over unchoosable instances
    at fixed ka = k.

    k = 1 is exact: the infimum is 1.  For k >= 2 the lower endpoint is
    alpha(k), improved to ln(3)/2 at k = 2; the upper endpoint is
    (ln k)^(k-1), tightened at k = 3 by the 7-edge/7-set witness and for
    composite k by evaluating the part-swapped block witness.  The candidate
    upper endpoints are compared by their logarithms, taken from the logs of
    k and its divisors, so no candidate builds a large integer or raises.
    The best one is evaluated by its closed form, or as exp of its logarithm
    (within 1e-12 relative) where the closed form overflows on the way; hi
    is math.inf when the bound itself exceeds a float (first at k = 401).
    A k above XIM_MAX_K raises ValueError rather than start the scan.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return XimBounds(1, 1.0, 1.0, RULE_SINGLETON_EXACT, RULE_SINGLETON_EXACT)

    lo, lo_rule = _xim_lower(k)  # alpha rejects k past float range
    if k > XIM_MAX_K:
        raise ValueError(f"k must be at most {XIM_MAX_K}: the divisor scan grows as sqrt(k)")

    log_k = math.log(k)
    seven = 7.0 * math.log(7.0) ** 2 / 27.0
    # (log of the bound, rule, divisor r of k); the first smallest log wins.
    candidates = [((k - 1) * math.log(log_k), RULE_LOG_POWER, 0)]
    if k == 3:
        candidates.append((math.log(seven), RULE_SEVEN, 0))
    # The scan stops at sqrt(k); each divisor's cofactor is a divisor too.
    divisors = [r for r in range(2, math.isqrt(k) + 1) if k % r == 0]
    for r in divisors + [k // r for r in divisors]:
        # K_{delta_b, delta_a} with delta_b = a^k * r, delta_a = k^r
        # (a = k / r) is unchoosable at list sizes (k, k); so is its
        # part-swapped mirror, whose xi is
        # delta_a * ln(delta_b)^(k-1) / k^k.
        log_db = k * math.log(k // r) + math.log(r)
        log_xi = r * log_k + (k - 1) * math.log(log_db) - k * log_k
        candidates.append((log_xi, RULE_COMPOSITE, r))
    log_hi, hi_rule, r = min(candidates, key=lambda c: c[0])
    direct = lambda: seven if hi_rule == RULE_SEVEN else log_k ** (k - 1)
    if hi_rule == RULE_COMPOSITE and log_hi < _LOG_FLOAT_MAX:
        # The integers are small wherever the bound fits a float; the
        # fallback's logarithm is taken from them.
        delta_b, delta_a = (k // r) ** k * r, k**r
        log_hi = math.log(delta_a) + (k - 1) * math.log(math.log(delta_b)) - k * log_k
        direct = lambda: delta_a * math.log(delta_b) ** (k - 1) / float(k) ** k
    hi = _from_log(log_hi, direct)
    return XimBounds(k, lo, hi, lo_rule, hi_rule)


def _xim_lower(k: int) -> tuple[float, str]:
    """xim_bounds' lower endpoint and its rule for k >= 2: alpha(k),
    improved to ln(3)/2 at k = 2.  Needs no divisor scan."""
    lo, lo_rule = alpha(k).alpha, RULE_XI_ALPHA
    if k == 2 and 0.5 * math.log(3.0) > lo:
        lo, lo_rule = 0.5 * math.log(3.0), RULE_HALF_LOG3
    return lo, lo_rule


def xim_prime_upper(k: int) -> float:
    """Upper bound on the variant infimum that carries exponent k on the log.

    Evaluates k^2 * 2^(k+1) * ((k+1)ln2 + 2 ln k)^k / k^k, the xi'-value of
    the classic K_{d,d} witness with d = k^2 * 2^(k+1).  It is evaluated as
    2 * k^2 * (2 * inner)^k with inner = ((k+1)ln2 + 2 ln k)/k, which keeps
    every intermediate in the normal float range: the result is finite for
    2 <= k <= 2054 (it grows like e^(0.35 k)), and math.inf from k = 2055 on,
    where the value itself exceeds a float.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    inner = ((k + 1) * math.log(2.0) + 2.0 * math.log(k)) / k
    log_value = math.log(2.0) + 2.0 * math.log(k) + k * math.log(2.0 * inner)
    return _from_log(log_value, lambda: math.ldexp(k * k * (2.0 * inner) ** k, 1))


def xim_prime_lower(k: int) -> float:
    """Lower bound on the same variant: (lower xi_m bound) * ln k.  Takes
    every k that alpha takes: the lower endpoint needs no divisor scan, so
    XIM_MAX_K does not apply."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return _xim_lower(k)[0] * math.log(k)


def verify_tedious(a, b, beta, gamma):
    """Check (1 + beta*(g-a)/(g-b))^-(g-a) <= (1+beta)^-g * (1 + beta*a^2/b).

    A fuzz target: the inequality is a theorem on its stated domain, so any
    False return signals an evaluation bug rather than a counterexample.
    Compared in log space with a small slack for rounding.  Elementwise on
    arrays, which broadcast together and give a bool array; scalars give a
    bool.
    """
    import numpy as np

    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, beta, gamma)))
    a, b, beta, gamma = args
    if (
        not all(np.isfinite(v).all() and (v >= 0).all() for v in args)
        or (a > 1).any()
        or (gamma <= np.maximum(a, b)).any()
    ):
        raise ValueError("need a, b, beta, gamma >= 0, a <= 1, gamma > max(a, b), all finite")
    lhs = -(gamma - a) * np.log1p(beta * (gamma - a) / (gamma - b))
    # The correction is 0 where a == 0, or where b == 0 and beta == 0.  Where
    # b == 0 but a and beta are not, the right side is infinite: it holds.
    infinite_rhs = (b == 0) & (a != 0) & (beta != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = np.where((a == 0) | (b == 0), 0.0, np.log1p(beta * a * a / b))
    rhs = -gamma * np.log1p(beta) + correction
    holds = (lhs <= rhs + 1e-9 * (1.0 + np.abs(rhs))) | infinite_rhs
    return holds if holds.ndim else bool(holds)


#: Pieces that count_double_exp_fixed_points cuts each open block into; its
#: grid has _FAN**4 intervals, so every block at every level is whole.
_FAN = 10


def count_double_exp_fixed_points(a, b):
    """Count solutions of g(g(x)) = x for g(x) = b*exp(-a*x), a, b > 0 finite.

    Every solution lies in [0, b] since g maps the reals into (0, b].  The
    interval is scanned on a grid of n = _FAN**4 = 10^4 intervals, and each
    grid interval over which h(x) = g(g(x)) - x changes sign, or reaches 0
    from a nonzero value, counts as one root; no bisection follows, since
    the count is all that is returned.  Tangential (double) roots may be
    missed; the count of transversal roots is what the at-most-three
    property constrains.  Elementwise on arrays, which broadcast together
    and give an int array; scalars give an int.

    Raises ValueError unless every curve's h(0) = g(b) = b*exp(-a*b), as
    computed, is above 0: a*b up to about 745, a little less where b < 1.
    Beyond it h(0) reads 0.0 and the root near 0 is lost, and from a*b near
    9.2e4 on the grid's first interval holds two roots, so no evaluation of
    h could give the count.  Where it answers, the count is 1 + 2*(a*b > e),
    as tests check against that closed form.

    [0, b] is cut into _FAN blocks of n / _FAN grid intervals, then each
    block that can hold a bracket into _FAN pieces, down to single
    intervals.  The count is a full scan's, sign for sign: G = g(g(.)) is
    nondecreasing since g decreases, so on a block [x_i, x_j] every grid
    point has G(x_i) - x_j <= h <= G(x_j) - x_i.  The computed G is within
    tol / 2 of G, with tol = 16 eps b (1 + a b) (eps the machine epsilon)
    from the rounding of the exponents, so a block whose bound clears tol
    has one strict sign at every grid point as computed too.  A subnormal
    step b / n sets tol = b, so no block settles, and such a curve costs a
    full scan plus 22 %.

    Each level holds its open blocks as columns: the grid index k, x and
    g(g(x)) are (_FAN + 1, blocks) arrays, and a block's curve values (a,
    b, a*b, step, tol) are 1-D arrays that broadcast along the rows, so
    every NumPy pass runs along the long axis.  Columns are in no
    particular curve order; only the final bincount ties them to curves.
    """
    import numpy as np

    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not ((0 < a) & (a < math.inf) & (0 < b) & (b < math.inf)).all():
        raise ValueError("a and b must be positive and finite")
    shape, a, b = a.shape, a.reshape(-1), b.reshape(-1)
    with np.errstate(over="ignore"):
        ab = a * b
    if not (np.exp(-ab) * b > 0).all():  # h(0) in _double_exp's operation order
        raise ValueError("need b*exp(-a*b) > 0, so a*b up to about 745")
    n = _FAN**4
    step = b / n
    tol = b * np.where(step < _TINY, 1.0, 16 * _EPS * (1.0 + ab))

    rows, first, piece = np.arange(a.size), np.zeros(a.size), n // _FAN
    offsets = np.arange(_FAN + 1.0)[:, None]
    while True:
        # Grid point k is k * (b / n), and point n is b: np.linspace(0, b, n + 1),
        # bit for bit wherever b / n does not underflow to 0.
        k = first + piece * offsets
        x = k * step[rows]
        np.copyto(x, b[rows], where=k == n)
        g = _double_exp(x, a[rows], b[rows], ab[rows])
        if piece == 1:
            break
        t = tol[rows]
        settled = (g[:-1] - x[1:] > t) | (g[1:] - x[:-1] < -t)
        pieces, columns = np.nonzero(~settled)
        rows, first, piece = rows[columns], k[pieces, columns], piece // _FAN
    g -= x
    # A + followed by 0 or -, or a - followed by 0 or +; never by NaN.
    left, right = g[:-1], g[1:]
    brackets = ((left > 0) & (right <= 0)) | ((left < 0) & (right >= 0))
    counts = np.bincount(rows[np.nonzero(brackets)[1]], minlength=a.size).reshape(shape)
    return counts if counts.ndim else int(counts)


def _double_exp(x, a, b, ab):
    """g(g(x)) = b*exp(-a*b*exp(-a*x)) elementwise, with arrays a, b and
    ab = a*b of one shape broadcast against x (in the counter, one value
    per column), in one buffer and in a fixed operation order."""
    import numpy as np

    g = np.multiply(x, -a)
    np.exp(g, out=g)
    g *= -ab
    np.exp(g, out=g)
    g *= b
    return g
