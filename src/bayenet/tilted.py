"""The tail-tilted density family of the theta conditionals.

Members have unnormalized density

    f(x) = Phi(-x)^(-q) x^(a-1) exp(-q x^2/2 - c x),    x > 0,

with integer q >= 1: every theta draw of the sweeps is the member with
q = p and a = L.  The reciprocal normal tail makes f heavier than its
power-exponential factor, so naive Gaussian-style envelopes fail;
instead:

* is_logconcave gives the sufficient conditions a >= 1 and c > 0 under
  which f is integrable and log-concave.
* mode_bounds returns the closed-form bracket ((a-1)/c, (a-1+q)/c) of
  the mode, built from the two-sided hazard inequality
  x < phi(x)/Phi(-x) < x + 1/x.
* sample_tilted draws exactly: log-concave members by adaptive
  rejection sampling, and members with 0 < a < 1 and c > 0 from one
  fixed hull on the log scale: a power law below a split, tangents
  above it (_sample_small_shape).
* tangent_hull is the adaptive hull of the members (q, a, c) at every
  c.  It opens at the mode bracket, and log f + c x, whose tangents it
  keeps, does not depend on c.  A chain's theta conditionals differ
  only in c, so the chain keeps one such hull for all its theta draws
  (kernels.theta_hull): a draw then costs a reweighing of the hull's
  segments at the new c, and log f is evaluated only where the squeeze
  fails.  Each draw stays exact: it is a rejection draw under a hull
  that dominates its target, and the hull depends only on earlier
  draws.  The hull checks its family when it is made, so a chain's draw
  through it passes sample_tilted the rate c alone, and only c is
  checked per draw.
* log_density, dlog_density and d2log_density past the tail cut
  (special._TAIL_CUT) read -q x^2/2 - q log Phi(-x) as q log h(x) plus
  a constant, h the normal hazard, through _log_factor and the
  hazard's excess.  Formed apart, the two would cancel, leaving the
  slope 50 % off at x = 1e8 and both at 0 by 1e10, where a small rate
  c makes the kept hull propose, and the curvature with the wrong sign
  at 1e6.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

# no code here draws gig or mhn: perfbench/tracer.py patches both names
# in this module, and they go with its two SITES rows for them
from .distributions import require_finite, sample_gig, sample_mhn
from .envelope import (
    LogDensityTarget,
    PiecewiseExpEnvelope,
    TangentHull,
    ars_sample,
    build_envelope,
    sample_from_envelope,
)
from .special import (
    _LOG_SQRT_2PI,
    _TAIL_CUT,
    log_std_normal_cdf,
    mills_ratio,
    mills_ratio_excess_rise,
)


@dataclass(frozen=True)
class TiltedParams:
    q: int
    a: float
    c: float

    def __post_init__(self):
        a, c = self.a, self.c
        if not (-math.inf < a < math.inf and -math.inf < c < math.inf):
            # an infinity leaves the hull no usable knot
            require_finite(a=a, c=c)
        if int(self.q) != self.q or self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q}")
        if not self.a > 0.0:
            raise ValueError("a must be positive")


def log_density(p, x):
    if x <= 0.0:
        return -math.inf
    if x > _TAIL_CUT:
        # -q x^2/2 - c x - q log Phi(-x) is l + q log sqrt(2 pi), and
        # the terms of l do not cancel
        return ((p.a - 1.0) * math.log(x) + _log_factor(p, x)[0]
                + p.q * _LOG_SQRT_2PI)
    return ((p.a - 1.0) * math.log(x) - 0.5 * p.q * x * x - p.c * x
            - p.q * log_std_normal_cdf(-x))


def dlog_density(p, x):
    if x > _TAIL_CUT:
        # -q x - c + q h(x) is l', which reads q (h - x) directly
        return (p.a - 1.0) / x + _log_factor(p, x)[1]
    return (p.a - 1.0) / x - p.q * x - p.c + p.q * mills_ratio(x)


def d2log_density(p, x):
    if x > _TAIL_CUT:
        # l'' = (bend - slope)/x in _log_factor's terms, which is
        # q (F - D)/x: formed from D and F directly, so neither c nor
        # the pair -q and q h (h - x) cancels
        excess, rise = mills_ratio_excess_rise(x)
        return -(p.a - 1.0) / (x * x) + p.q * (rise - excess) / x
    m = mills_ratio(x)
    return -(p.a - 1.0) / (x * x) - p.q + p.q * m * (m - x)


def is_logconcave(p):
    """Sufficient conditions for integrability plus log-concavity."""
    return p.a >= 1.0 and p.c > 0.0


def mode_bounds(p):
    """Closed-form (lower, upper) bracket of the mode of a log-concave
    member.  The slope (a-1)/x - c + q (h(x) - x) lies between
    (a-1)/x - c and (a-1+q)/x - c, so the lower bound is 0 at a = 1.
    """
    if not is_logconcave(p):
        raise ValueError("mode_bounds needs a log-concave member")
    return (p.a - 1.0) / p.c, (p.a - 1.0 + p.q) / p.c


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


# the refusal of a member outside is_logconcave, whether passed whole or
# as a rate alone
_NOT_LOGCONCAVE = "density not certified log-concave for these parameters"


def sample_tilted(p, rng, hull=None):
    """One exact draw from a log-concave member of the family, or from a
    member with 0 < a < 1 and c > 0, whose a = 1 twin is log-concave.

    A log-concave member is drawn by adaptive rejection through hull, a
    tangent_hull(p.q, p.a) that earlier draws at other c may have
    refined; a fresh one if None.  The draw is exact whatever the hull
    holds.

    p may also be the rate c alone, with hull a tangent_hull whose family
    (q, a) the caller checked once for all its draws (a chain's theta
    draws: kernels.theta_hull).  The draw is then that of
    TiltedParams(q, a, c) through hull, bit for bit, and only c is
    checked, with the messages the full path gives; a rate alone without
    a hull is refused.
    """
    if not isinstance(p, TiltedParams):
        if hull is None or not 0.0 < p < math.inf:
            if hull is None:
                raise ValueError("a rate alone needs its family's hull")
            require_finite(c=p)
            raise ValueError(_NOT_LOGCONCAVE)
        return ars_sample(hull, p, rng)
    if p.a < 1.0 and p.c > 0.0:
        return _sample_small_shape(p, rng)
    if not is_logconcave(p):
        raise ValueError(_NOT_LOGCONCAVE)
    if hull is None:
        hull = tangent_hull(p.q, p.a)
    elif hull.key != (p.q, p.a):
        raise ValueError(f"hull is for (q, a) = {hull.key}, not "
                         f"{(p.q, p.a)}")
    return ars_sample(hull, p.c, rng)


def tangent_hull(q, a):
    """An empty hull for the log-concave members (q, a, c) at every c:
    it keeps the tangents of log f + c x, which no c moves
    (envelope.TangentHull).  It opens at mode_bounds' knots and steps its
    right tail out to mode_bounds' upper end.  The family is checked
    here: q a positive integer and a finite and positive.  At a < 1 it
    is None: those members are not log-concave, and sample_tilted draws
    them by the small-shape sampler, which keeps no hull."""
    g = TiltedParams(q, a, 0.0)
    if a < 1.0:
        return None

    def seed(c):
        lo, hi = mode_bounds(TiltedParams(q, a, c))
        return (hi,) if lo <= 0.0 else (lo, hi)

    return TangentHull(LogDensityTarget(
        lambda x: log_density(g, x), lambda x: dlog_density(g, x),
        support_lower=0.0), seed, key=(q, a))


# the normal hazard at 0
_HAZARD_AT_0 = math.sqrt(2.0 / math.pi)
# log of the smallest positive double: e^y underflows to 0 at or below it
_LOG_SMALLEST_X = math.log(5e-324)


def _log_factor(p, x):
    """(l, l', l' + x l'') at x for l = log g, g = x^(1-a) f:
    l = -c x + q log h(x) up to a constant, with h the normal hazard,
    whose terms do not cancel.  (log h)' is the excess D = h - x, so
    l' + x l'' = q F - c with F = (x D)', which mills_ratio_excess_rise
    keeps accurate far into the tail."""
    excess, rise = mills_ratio_excess_rise(x)
    slope = p.q * excess - p.c
    bend = p.q * rise - p.c
    return p.q * math.log(x + excess) - p.c * x, slope, bend


def _sample_small_shape(p, rng):
    """One draw of a member with 0 < a < 1 and c > 0: x^(a-1) makes f
    unbounded at 0 and not log-concave.

    On y = log x the log density is psi(y) = a y + l(e^y), and psi'' is
    x (l' + x l'') = x (q F(x) - c), where F = (x D)' falls from
    sqrt(2/pi) at 0 and stays below 4/x^3 (tests/test_tilted.py checks
    both against mpmath).  So psi is concave above the one root of
    F = c/q, everywhere if c >= q sqrt(2/pi).  Above a split s at or
    past that root the envelope is a tangent hull of psi; below it,
    e^(a y) g(s).  The two form one fixed hull with exact segment
    masses, so any such s gives an exact sampler; s is found to within
    10 % of the root.  A draw that underflows to 0 is drawn again, which
    drops the mass below the smallest double: about (c x_min)^a, 6e-4 at
    a = 0.01 and c = 1.

    g(s) bounds g on (0, s].  The hazard h has 0 < h' < 1, and h' = h D
    rises, since h is convex (Sampford 1953, Ann. Math. Stat. 24;
    tests/test_tilted.py checks both against mpmath on [0, 1000]).  So
    D' = h' - 1 < 0 rises, and l'' = q D' < 0.  At the root r of
    bend = l' + x l'' = q F - c, l'(r) = r q |D'(r)| > 0, and past r,
    l'' >= -q |D'(r)|.  The search starts where bend < 0 (F < 4/x^3)
    and ends with r <= s < 1.1 r, so l'(s) >= (2 r - s) q |D'(r)| > 0,
    and the concave l rises on (0, s].
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
    lo, hi = mode_bounds(TiltedParams(p.q, a + 1.0, p.c))
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
        # the power law e^(a y) g(s) on (-inf, log s] opens the hull
        hull = PiecewiseExpEnvelope(
            [math.log(s)] + hull.knots, [a] + hull.slopes,
            [_log_factor(p, s)[0]] + hull.intercepts,
            [-math.inf] + hull.bounds)
    # a proposal whose e^y underflows to 0 is drawn again
    target.support_lower = _LOG_SMALLEST_X
    return math.exp(sample_from_envelope(target, hull, rng))
