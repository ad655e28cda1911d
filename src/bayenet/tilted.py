"""The tail-tilted density family used by the penalty-rate conditionals.

Members have unnormalized density

    f(x) = Phi(-x)^(-q) x^(a-1) exp(-b x^2 - c x),    x > 0,

with integer q >= 0: a generalization of the gamma (q = b = 0) and
modified half-normal (q = 0) laws.  The reciprocal normal tail makes f
heavier than its power-exponential factor, so naive Gaussian-style
envelopes fail; instead:

* is_logconcave gives sufficient conditions under which f is integrable
  and log-concave (for q >= 1: a >= 1, b >= q/2, c > 0; for q = 0 the
  classical power-exponential conditions).
* mode_bounds returns a closed-form bracket of the mode built from the
  two-sided hazard inequality x < phi(x)/Phi(-x) < x + 1/x.
* sample_tilted draws exactly, dispatching q = 0 members to the gamma
  (through gig) or modified half-normal sampler, log-concave q >= 1
  members to adaptive rejection sampling seeded with knots at the mode
  bracket, and q >= 1 members with 0 < a < 1 whose a = 1 twin is
  log-concave to one fixed hull on the log scale: a power law below a
  split, tangents above it (_sample_small_shape).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .distributions import require_finite, sample_gig, sample_mhn
from .envelope import (
    LogDensityTarget,
    PiecewiseExpEnvelope,
    ars_sample,
    build_envelope,
    sample_from_envelope,
)
from .special import log_std_normal_cdf, mills_ratio, mills_ratio_excess


@dataclass(frozen=True)
class TiltedParams:
    q: int
    a: float
    b: float
    c: float

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if not (-math.inf < a < math.inf and -math.inf < b < math.inf
                and -math.inf < c < math.inf):
            # an infinity leaves the hull no usable knot
            require_finite(a=a, b=b, c=c)
        if int(self.q) != self.q or self.q < 0:
            raise ValueError("q must be a nonnegative integer")
        if not self.a > 0.0:
            raise ValueError("a must be positive")
        if self.b < 0.0:
            raise ValueError("b must be nonnegative")


def log_density(p, x):
    if x <= 0.0:
        return -math.inf
    val = (p.a - 1.0) * math.log(x) - p.b * x * x - p.c * x
    if p.q:
        val -= p.q * log_std_normal_cdf(-x)
    return val


def dlog_density(p, x):
    val = (p.a - 1.0) / x - 2.0 * p.b * x - p.c
    if p.q:
        val += p.q * mills_ratio(x)
    return val


def d2log_density(p, x):
    val = -(p.a - 1.0) / (x * x) - 2.0 * p.b
    if p.q:
        m = mills_ratio(x)
        val += p.q * m * (m - x)
    return val


def is_logconcave(p):
    """Sufficient conditions for integrability plus log-concavity."""
    if p.q == 0:
        return p.a >= 1.0 and (p.b > 0.0 or p.c > 0.0)
    return p.a >= 1.0 and p.b >= 0.5 * p.q and p.c > 0.0


def mode_bounds(p):
    """Closed-form (lower, upper) bracket of the mode for q >= 1 members.

    A zero lower bound means the hazard inequality gives no positive
    lower bound (a = 1 with quadratic slack).
    """
    if p.q < 1 or not is_logconcave(p):
        raise ValueError("mode_bounds needs a log-concave member with q >= 1")
    t = 2.0 * p.b - p.q
    if t <= 1e-12 * p.q:
        return (p.a - 1.0) / p.c, (p.a - 1.0 + p.q) / p.c
    # the roots of t x^2 + c x - k for k = a-1 and k = a-1+q, each in
    # its cancellation-free form
    lo = 2.0 * (p.a - 1.0) / (math.sqrt(p.c * p.c + 4.0 * (p.a - 1.0) * t)
                              + p.c)
    k = p.a - 1.0 + p.q
    hi = 2.0 * k / (math.sqrt(p.c * p.c + 4.0 * k * t) + p.c)
    return lo, hi


def _bisect_root(f, lo, hi):
    # relative stop at 1e-10: every bracket here is positive, and an
    # absolute one would stop far from a mode near zero
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-10 * mid:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_mode(p):
    """Mode of the density; 0.0 when the density decreases from x = 0+.

    Bisection of the log-derivative inside a bracket grown geometrically
    from 1, for every q: it rests on the slope alone, so a fault in
    mode_bounds cannot move the mode it finds.
    """
    df = lambda x: dlog_density(p, x)
    lo = hi = 1.0
    for _ in range(200):
        if df(lo) > 0.0:
            break
        lo /= 8.0
    else:
        return 0.0
    for _ in range(200):
        if df(hi) < 0.0:
            break
        hi *= 8.0
    return _bisect_root(df, lo, hi)


def sample_tilted(p, rng):
    """One exact draw from a log-concave member of the family, or from a
    q >= 1 member with 0 < a < 1 whose a = 1 twin is log-concave."""
    if p.q >= 1 and p.a < 1.0 and is_logconcave(
            TiltedParams(p.q, 1.0, p.b, p.c)):
        return _sample_small_shape(p, rng)
    if not is_logconcave(p):
        raise ValueError(
            "density not certified log-concave for these parameters")
    if p.q == 0:
        if p.b == 0.0:
            # gig's chi = 0 limit is the gamma(a, rate c) draw
            return sample_gig(p.a, 2.0 * p.c, 0.0, rng)
        return sample_mhn(p.a, p.b, p.c, rng)
    lo, hi = mode_bounds(p)
    knots = [hi] if lo <= 0.0 else [lo, hi]
    target = LogDensityTarget(
        lambda x: log_density(p, x), lambda x: dlog_density(p, x),
        support_lower=0.0)
    return ars_sample(target, knots, rng)


# the normal hazard at 0
_HAZARD_AT_0 = math.sqrt(2.0 / math.pi)
# log of the smallest positive double: e^y underflows to 0 at or below it
_LOG_SMALLEST_X = math.log(5e-324)


def _log_factor(p, x):
    """(l, l', l' + x l'') at x for l = log g, g = x^(1-a) f:
    l = -e x^2 - c x + q log h(x) up to a constant, with e = b - q/2 and
    h the normal hazard, whose terms do not cancel.  (log h)' is the
    excess D = h - x, and D' = h D - 1."""
    e = p.b - 0.5 * p.q
    excess = mills_ratio_excess(x)
    slope = p.q * excess - 2.0 * e * x - p.c
    bend = slope + x * (p.q * ((x + excess) * excess - 1.0) - 2.0 * e)
    return p.q * math.log(x + excess) - (e * x + p.c) * x, slope, bend


def _sample_small_shape(p, rng):
    """One draw of a q >= 1 member with 0 < a < 1, b >= q/2 and c > 0:
    x^(a-1) makes f unbounded at 0 and not log-concave.

    On y = log x the log density is psi(y) = a y + l(e^y), and psi'' is
    x (l' + x l'') = x (q F(x) - c - 4 e x), where F = (x D)' falls from
    sqrt(2/pi) at 0 and stays below 4/x^3 (tests/test_tilted.py checks
    both against mpmath).  So psi is concave above the one root of
    F = (c + 4 e x)/q, everywhere if c >= q sqrt(2/pi).  Above a split s
    at or past that root the envelope is a tangent hull of psi; below
    it, e^(a y) times the bound of g on (0, s] from l's tangent at s.
    The two form one fixed hull with exact segment masses, so any such s
    gives an exact sampler; s is found to within 10 % of the root.  A
    draw that underflows to 0 is drawn again, which drops the mass below
    the smallest double: about (c x_min)^a, 6e-4 at a = 0.01 and c = 1.
    """
    a = p.a
    # the hull and the mode search read psi at the same nodes
    terms = lru_cache(None)(lambda y: _log_factor(p, math.exp(y)))
    s = 0.0
    if p.q * _HAZARD_AT_0 > p.c:
        bend = lambda x: _log_factor(p, x)[2]
        lo = s = (4.0 * p.q / p.c) ** (1.0 / 3.0)
        while bend(lo) <= 0.0:
            s, lo = lo, 0.5 * lo
        while s > 1.1 * lo:
            mid = math.sqrt(lo * s)
            lo, s = (mid, s) if bend(mid) > 0.0 else (lo, mid)
    # psi's mode is that of x^a g: safeguarded Newton steps in y inside
    # the a + 1 member's mode bracket, above s
    lo, hi = mode_bounds(TiltedParams(p.q, a + 1.0, p.b, p.c))
    y_lo, y_hi = math.log(max(lo, s)), math.log(hi)
    y = y_hi
    for _ in range(100):
        _, slope, bend = terms(y)
        x = math.exp(y)
        if a + x * slope > 0.0:
            y_lo = y
        else:
            y_hi = y
        step = (a + x * slope) / (x * bend)
        if abs(step) <= 1e-9 or y_hi - y_lo <= 1e-9:
            break
        y = y - step if y_lo < y - step < y_hi else 0.5 * (y_lo + y_hi)
    target = LogDensityTarget(
        lambda y: a * y + terms(y)[0],
        lambda y: a + math.exp(y) * terms(y)[1],
        support_lower=math.log(s) if s else -math.inf, mode=y,
        curvature=math.exp(y) * terms(y)[2])
    hull = build_envelope(target, K=2)
    if s:
        # the power law e^(a y + top) on (-inf, log s] opens the hull
        log_s = math.log(s)
        log_g, slope, _ = _log_factor(p, s)
        top = log_g + max(0.0, -s * slope)
        hull = PiecewiseExpEnvelope(
            [log_s] + hull.knots, [a] + hull.slopes, [top] + hull.intercepts,
            [-math.inf] + hull.bounds,
            [a * log_s + top - math.log(a)] + hull.log_masses)
    # a proposal whose e^y underflows to 0 is drawn again
    target.support_lower = _LOG_SMALLEST_X
    return math.exp(sample_from_envelope(target, hull, rng))
