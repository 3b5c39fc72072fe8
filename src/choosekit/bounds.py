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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import RegimePoint

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

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


@dataclass(frozen=True)
class AlphaResult:
    k: int
    alpha: float
    u_star: float


@lru_cache(maxsize=None)
def alpha(k: int) -> AlphaResult:
    """Global maximum of u * f(u)^(k-1) over [0, 1].

    Dense grid scan (10^4 points) followed by golden-section refinement of
    the best bracket; no unimodality assumption.  alpha(1) = 1 exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return AlphaResult(1, 1.0, 1.0)

    u = np.linspace(0.0, 1.0, 10001)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = 1.0 - u + u * np.log(u)
    f[0] = 1.0
    g = u * f ** (k - 1)
    i = int(np.argmax(g))
    lo = float(u[max(i - 1, 0)])  # plain floats from here on, not np.float64
    hi = float(u[min(i + 1, len(u) - 1)])

    def gv(x):
        return x * entropy_f(x) ** (k - 1)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    while b - a > 1e-15:
        if gv(c) > gv(d):
            b = d
        else:
            a = c
        c = b - (b - a) * invphi
        d = a + (b - a) * invphi
    u_star = 0.5 * (a + b)
    return AlphaResult(k, gv(u_star), u_star)


def xi(point: RegimePoint) -> float:
    """delta_b * ln(delta_a)^(ka-1) / kb^ka.

    For ka = 1 this is delta_b / kb (the log factor has exponent zero, even
    at delta_a = 1); for ka >= 2 and delta_a = 1 it is 0.
    """
    log_da = math.log(point.delta_a)
    if point.ka == 1:
        return point.delta_b / point.kb
    return point.delta_b * log_da ** (point.ka - 1) / point.kb ** point.ka


@dataclass(frozen=True)
class BoundReport:
    point: RegimePoint
    xi: float
    verdict: str
    rule: str


def classify(point: RegimePoint) -> BoundReport:
    """Sufficient-condition classifier: choosable, unchoosable, or unknown.

    Rules fire in a fixed priority order and the report names the rule that
    produced the verdict.  Unknown is an honest outcome: the sufficient
    conditions leave a band of the parameter space undecided.
    """
    da, db, ka, kb = point.delta_a, point.delta_b, point.ka, point.kb
    x = xi(point)

    if da < ka or db < kb:
        return BoundReport(point, x, CHOOSABLE, RULE_TRIVIAL)
    if x < alpha(ka).alpha:
        return BoundReport(point, x, CHOOSABLE, RULE_XI_ALPHA)
    # General threshold; ln(1)^0 = 1 keeps the ka = 1 case meaningful.
    log_da = math.log(da)
    log_ka_pow = math.log(ka) ** (ka - 1) if ka >= 2 else 1.0
    if db * log_da ** (ka - 1) > 2 ** (2 * ka - 1) * log_ka_pow * kb ** ka:
        return BoundReport(point, x, UNCHOOSABLE, RULE_GENERAL_THRESHOLD)
    if ka == 2 and db >= kb and db * log_da > 1.4 * kb * kb:
        return BoundReport(point, x, UNCHOOSABLE, RULE_PAIR_THRESHOLD)
    return BoundReport(point, x, UNKNOWN, RULE_NONE)


@dataclass(frozen=True)
class XimBounds:
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
    upper endpoints are compared by their logarithms, so a candidate beyond
    float range never raises.  The best one is evaluated by its closed form,
    or as exp of its logarithm (within 1e-12 relative) where the closed
    form overflows on the way; hi is math.inf when the bound itself exceeds
    a float (first at k = 401).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return XimBounds(1, 1.0, 1.0, RULE_SINGLETON_EXACT, RULE_SINGLETON_EXACT)

    lo, lo_rule = alpha(k).alpha, RULE_XI_ALPHA
    if k == 2 and 0.5 * math.log(3.0) > lo:
        lo, lo_rule = 0.5 * math.log(3.0), RULE_HALF_LOG3

    # (log of the bound, rule, bound); the first smallest log wins.
    candidates = [
        ((k - 1) * math.log(math.log(k)), RULE_LOG_POWER, lambda: math.log(k) ** (k - 1))
    ]
    if k == 3:
        seven = 7.0 * math.log(7.0) ** 2 / 27.0
        candidates.append((math.log(seven), RULE_SEVEN, lambda: seven))
    for r in range(2, int(math.isqrt(k)) + 1):
        if k % r:
            continue
        a = k // r
        # K_{delta_b, delta_a} with delta_b = a^k * r, delta_a = k^r is
        # unchoosable at list sizes (k, k); so is its part-swapped mirror,
        # whose xi is the quantity below.
        delta_b = a**k * r
        delta_a = k**r
        log_swapped = (
            math.log(delta_a) + (k - 1) * math.log(math.log(delta_b)) - k * math.log(k)
        )
        candidates.append(
            (
                log_swapped,
                RULE_COMPOSITE,
                lambda da=delta_a, db=delta_b: da * math.log(db) ** (k - 1) / float(k) ** k,
            )
        )
    log_hi, hi_rule, bound = min(candidates, key=lambda c: c[0])
    try:
        hi = bound()
    except OverflowError:
        hi = math.inf
    if math.isinf(hi) and log_hi < _LOG_FLOAT_MAX:
        hi = math.exp(log_hi)  # only an intermediate of the closed form overflowed
    return XimBounds(k, lo, hi, lo_rule, hi_rule)


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
    try:
        return math.ldexp(k * k * (2.0 * inner) ** k, 1)
    except OverflowError:
        return math.inf


def xim_prime_lower(k: int) -> float:
    """Lower bound on the same variant: (lower xi_m bound) * ln k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return xim_bounds(k).lo * math.log(k)


def reserve_probability(ka: int, kb: int, delta_a: int, eps: float = 0.1) -> float:
    """Reservation probability p = (1 + eps/ka) * ln(delta_a) / (f(u0) * kb)
    used by the randomized reserve-coloring procedure."""
    if ka < 2:
        raise ValueError("the reservation formula needs ka >= 2 (f(u0) vanishes at ka = 1)")
    a = alpha(ka)
    return (1.0 + eps / ka) * math.log(delta_a) / (entropy_f(a.u_star) * kb)


def verify_tedious(a, b, beta, gamma):
    """Check (1 + beta*(g-a)/(g-b))^-(g-a) <= (1+beta)^-g * (1 + beta*a^2/b).

    A fuzz target: the inequality is a theorem on its stated domain, so any
    False return signals an evaluation bug rather than a counterexample.
    Compared in log space with a small slack for rounding.  Elementwise on
    arrays, which broadcast together and give a bool array; scalars give a
    bool.
    """
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


def count_double_exp_fixed_points(a: float, b: float, resolution: float = 1e-4) -> int:
    """Count solutions of g(g(x)) = x for g(x) = b*exp(-a*x), a, b > 0 finite.

    Every solution lies in [0, b] since g maps the reals into (0, b].  The
    interval is scanned at step resolution*b (at least 8 steps), and each
    grid interval over which h(x) = g(g(x)) - x changes sign, or reaches 0
    from a nonzero value, counts as one root; no bisection follows, since
    the count is all that is returned.  Tangential (double) roots may be
    missed; the count of transversal roots is what the at-most-three
    property constrains.
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("a and b must be positive and finite")
    n = max(int(round(1.0 / resolution)), 8)
    # np.linspace(0, b, n + 1) without its overhead: the same products, bit
    # for bit, wherever b / n does not underflow to 0.
    x = _grid_steps(n) * (b / n)
    x[-1] = b
    # h = b * exp(-a*b * exp(-a*x)) - x in one buffer, same operation order.
    if math.isfinite(a * b):
        h = np.multiply(x, -a)
        np.exp(h, out=h)
        h *= -a * b
    else:
        # -a*b*exp(-a*x) would be -inf * 0 = NaN where exp(-a*x) underflows;
        # -exp(ln a + ln b - a*x) goes to -inf there instead.
        with np.errstate(over="ignore"):
            h = np.multiply(x, -a)
            h += math.log(a) + math.log(b)
            np.exp(h, out=h)
        np.negative(h, out=h)
    np.exp(h, out=h)
    h *= b
    h -= x
    # A + followed by 0 or -, or a - followed by 0 or +; never by NaN.
    pos, neg = h > 0, h < 0
    brackets = np.count_nonzero(pos[:-1] > pos[1:]) + np.count_nonzero(neg[:-1] > neg[1:])
    if np.count_nonzero(pos) + np.count_nonzero(neg) < h.size:  # some h is 0 or NaN
        brackets -= np.count_nonzero((pos[:-1] | neg[:-1]) & np.isnan(h[1:]))
    return int(brackets)


@lru_cache(maxsize=8)
def _grid_steps(n: int) -> np.ndarray:
    """0.0, 1.0, ..., n as floats: read-only, shared by the counts at n."""
    steps = np.arange(n + 1, dtype=float)
    steps.flags.writeable = False
    return steps
