"""Exact samplers for the distributions the Gibbs kernels draw from.

Conventions:

* truncated normal: N(mean, var) restricted to one side of zero.
* inverse-Gaussian(mean mu, shape lam): density
  sqrt(lam/(2 pi x^3)) exp(-lam (x - mu)^2 / (2 mu^2 x)).
* generalized inverse Gaussian gig(lam, psi, chi): density proportional
  to x^(lam-1) exp(-(psi x + chi / x)/2) on x > 0.
* modified half normal mhn(alpha, beta, gamma): density proportional to
  x^(alpha-1) exp(-beta x^2 - gamma x) on x > 0.
* hazard-tilted gamma hgamma(a, c, q, t): density proportional to
  x^(a-1) exp(-c x) (sqrt(x) h(t / sqrt(x)))^q on x > 0, where
  h(z) = phi(z)/Phi(-z) is the standard normal hazard.  lambda2 given
  sigma2 and lambda1 is hgamma(R, nu2/2 + b'b/(2 sigma2), p, t), with
  t = lambda1/(2 sigma) in the common form and lambda1 in the
  differential one.

gig is sampled on s = log x - log(chi/psi)/2, where its log density is
lam s - omega cosh s with omega = sqrt(psi chi): strictly concave for
every order lam, so one piecewise-exponential hull covers all interior
cases.  The tangents of -omega cosh s at fixed knots cross at points
that depend on neither omega nor lam, so a GigHull kept across draws
of one order serves every omega.  GigHull.fit holds its keep-or-rebuild
rule: a draw resets the hull's tangents at the new omega and reweighs
them, or, when the mode or the width has moved too far from its knots,
adopts a fixed hull from envelope.build_envelope, as an empty hull does
at its first draw.  Every draw goes through a GigHull: the sweeps keep
one per chain (kernels.u1_hull), and a single draw passes an empty one.
The hull holds the order, so a draw passes sample_gig only (psi, chi).
Its limits chi = 0 (a gamma law) and psi = 0 (an inverse gamma) are
refused: u1, the one gig the sweeps draw, has psi > 0 and
chi = rss + nu_b > 0.
mhn is drawn for alpha > 1 only, where it is log-concave with an
interior mode: ratio of uniforms shifted to the mode, with the minimal
rectangle in closed form (Dagpunar 1989, Leydold 2000).  The sweeps'
mhn draws have alpha = 2R + L + p > 1 (u2) and n + p + nu_a - 1 >= 3
(the differential 1/sigma), so alpha <= 1 is refused.
hgamma is proposed from a gamma density.  On w = log x its log density
is a w - c e^w + q L(w) with L(w) = w/2 + log h(t e^(-w/2)), and L is
convex in w and concave in x = e^w: with z = t e^(-w/2), L'(w) is half
the second moment of the overshoot Z - z of a standard normal Z given
Z > z, which falls as z grows while z^2 times it rises (both by
exponential-family monotonicity), so 0 < L' < 1/2.  The tangent of L in
x at the mode folds into exp(-c x), which leaves a gamma(a, rate)
envelope; the tangent in w bounds L from below, a squeeze that skips
the hazard for most proposals.  mhn's uniform pairs, and hgamma's
uniforms and proposals (a scale times a standard gamma variate), come
from the stream's buffered blocks (rng.RngStream.uniform and
standard_gamma).

The inverse Gaussian draws a list of means in Python floats, at every
size, in one body: the sweeps draw p of them at once, and up to about 30
means numpy's fixed cost per call outweighs its arithmetic (past that,
numpy would save little; model.LATENT_FLOAT_MAX's comment has timings).

Every sampler refuses a non-finite argument with a ValueError that names
it, before it draws: a nan or an infinity would otherwise fail deep in
a hull, loop in a rejection test, or come back as a draw.
"""

import math

import numpy as np

from .envelope import (
    LogDensityTarget,
    PiecewiseExpEnvelope,
    build_envelope,
    sample_from_envelope,
)
# no code here reads log_std_normal_cdf: perfbench/tracer.py patches the
# name in this module, and it goes with that SITES row
from .special import log_std_normal_cdf, mills_ratio_excess_rise

_EXP_CLIP = 700.0
_INF = math.inf
_LOG_2 = math.log(2.0)


def require_finite(**values):
    """Raise a ValueError naming the first argument that is not finite.

    The samplers test their arguments with inline comparisons and call
    this only once a test fails, to name the cause.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _exp(t):
    return math.exp(min(t, _EXP_CLIP))


def _std_normal_excess(a, rng):
    """Z - a for Z ~ N(0,1) conditioned on Z >= a > 0.5: Robert's (1995)
    exponential proposal with rate alpha, whose excess e/alpha is
    returned as drawn, so a far truncation point costs it no digits.
    The acceptance term z - alpha is e/alpha - (alpha - a), with
    alpha - a = 2/(a + sqrt(a^2 + 4)) free of cancellation, and hypot
    keeps a^2 from overflowing."""
    gap = 2.0 / (a + math.hypot(a, 2.0))
    alpha = a + gap
    while True:
        x = rng.exponential() / alpha
        d = x - gap
        if rng.uniform() <= math.exp(-0.5 * d * d):
            return x


def _nonnegative_normal(mean, s, rng):
    """N(mean, s^2) restricted to x >= 0, from the stream's buffered
    scalar draws: up to a truncation point a = -mean/s of 0.5, a
    standard normal redrawn until it passes a; past it, Robert's
    excess."""
    a = -mean / s
    if a > 0.5:
        return s * _std_normal_excess(a, rng)
    z = rng.normal()
    while z < a:
        z = rng.normal()
    return max(mean + s * z, 0.0)


# redraws of an exact 0 before the negative side gives up
_TN_MAX_REDRAWS = 100000


def sample_truncated_normal(mean, var, side, rng):
    """One draw of N(mean, var) restricted to x >= 0 or x < 0.

    Past the truncation point a = |mean|/sd > 0.5 the draw is the scaled
    excess over 0 itself, not mean + sd z, which would cancel to 0 once
    a passes about 1e8.
    """
    if not (-_INF < mean < _INF and 0.0 < var < _INF):
        # a nan truncation point would never be accepted
        require_finite(mean=mean, var=var)
        raise ValueError("var must be positive")
    s = math.sqrt(var)
    if side == "nonnegative":
        return _nonnegative_normal(mean, s, rng)
    if side == "negative":
        # an exact 0 is redrawn: the negative side is x < 0
        for _ in range(_TN_MAX_REDRAWS):
            x = _nonnegative_normal(-mean, s, rng)
            if x > 0.0:
                return -x
        raise RuntimeError(
            f"truncated normal drew 0 in {_TN_MAX_REDRAWS} draws of the "
            f"negative side (mean={mean}, var={var})")
    raise ValueError(f"unknown side {side!r}")


# the other root's scalings outside [1e-150, 1e150]
_UP, _DOWN = 2.0 ** 600, 2.0 ** -600


def _refuse_inverse_gaussian(means, shape):
    """Raise the ValueError that names a bad inverse-Gaussian argument:
    the shape first, then the first mean that is not finite."""
    require_finite(shape=shape)
    for value in means:
        require_finite(mean=value)
    raise ValueError("mean and shape must be positive")


def sample_inverse_gaussian(means, shape, rng):
    """Inverse-Gaussian draws via the squared-normal transform (Michael,
    Schucany & Haas 1976), one per element of the list means, as an
    array: all normals first, then all uniforms, each from one gen call.
    A single draw passes a one-element list.

    The smaller root of the defining quadratic is computed in conjugate
    form mean/(1 + w + sqrt(w (w + 2))), with w = mean y^2/(2 shape),
    which stays positive even when the standard textbook expression
    would cancel to rounding noise.  Where
    sqrt(w (w + 2)) overflows the root is the Levy limit shape/y^2, to
    which it rounds.  The other root mean^2/x is formed only where x is
    rejected; at a mean past 1e150 or below 1e-150 it is that of mean/s
    and x/s, with s = 2^600 or 2^-600, times s, which rounds alike.  So
    no overflow, and no division by a zero x, is ever computed.
    """
    if not 0.0 < shape < _INF:
        _refuse_inverse_gaussian(means, shape)
    for m in means:
        # a nan mean fails both comparisons
        if not 0.0 < m < _INF:
            _refuse_inverse_gaussian(means, shape)
    n = len(means)
    ys = rng.gen.standard_normal(n).tolist()
    us = rng.gen.random(n).tolist()
    two_shape, sqrt = 2.0 * shape, math.sqrt
    draws = []
    for m, y, u in zip(means, ys, us):
        y2 = y * y
        w = y2 * m / two_shape
        t = sqrt((w + 2.0) * w)
        x = m / ((w + 1.0) + t)
        if t == _INF:
            x = shape / y2
        if u <= m / (m + x):
            draws.append(x)
        elif 1e-150 <= m <= 1e150:
            draws.append(m * m / x)
        else:
            s = _UP if m > 1e150 else _DOWN
            ms = m / s
            draws.append(ms * ms / (x / s) * s)
    return np.array(draws)


class GigHull(PiecewiseExpEnvelope):
    """The hull of gig(lam, psi, chi) on s, kept across draws at every
    omega.

    On s = log x - log(chi/psi)/2 the log density is
    lam s - omega cosh s, with omega = sqrt(psi chi).  Its tangent at
    the knot s_i has slope lam - omega sinh s_i and intercept
    -omega (cosh s_i - s_i sinh s_i), so two tangents cross where
    neither omega nor lam moves them: a new omega only resets each
    segment's tangent and reweighs it.  sinh s_i and
    cosh s_i - s_i sinh s_i are kept per knot from the last rebuild.
    cosh is convex, so the tangents lie above the log density at every
    omega > 0, and each draw stays exact: the hull depends only on
    earlier draws.  It holds the order lam, checked when it is made.
    """

    __slots__ = ("lam", "sinhs", "bends")

    def __init__(self, lam):
        if not -_INF < lam < _INF:
            require_finite(lam=lam)
        # empty: the first draw builds it
        self.lam = lam
        self.knots = []

    def fit(self, target, omega):
        """Fit the hull to the member at omega, whose mode and curvature
        target holds, and return it.

        It keeps its knots, and only resets its tangents (retarget),
        while the mode stays strictly between its second and
        second-to-last knots and those two knots stay 2 to 8 of the
        target's widths s apart (4 when built).  The mode rule keeps
        both tails integrable: the leftmost tangent rises and the
        rightmost falls.  The width rule keeps the hull tight: kept
        while the curvature grew 100-fold, a hull accepted 0.14 of its
        proposals.  Otherwise it adopts a hull built at this omega.
        """
        knots = self.knots
        if (len(knots) > 2 and knots[1] < target.mode < knots[-2]
                and 4.0 <= (knots[-2] - knots[1]) ** 2 * -target.curvature
                <= 64.0):
            self.retarget(omega)
        else:
            self.adopt(build_envelope(target, K=3))
        return self

    def adopt(self, env):
        """Take the knots, tangents and weights of a hull built at the
        current omega.  Past |s| = 700, s sinh s nears overflow: a hull
        with a knot there keeps no knots, so the next draw builds its
        own."""
        self.bounds, self.slopes, self.intercepts, self._cum = (
            env.bounds, env.slopes, env.intercepts, env._cum)
        knots = env.knots if max(map(abs, env.knots)) < 700.0 else []
        self.knots = knots
        self.sinhs = [math.sinh(s) for s in knots]
        self.bends = [math.cosh(s) - s * sh
                      for s, sh in zip(knots, self.sinhs)]

    def retarget(self, omega):
        """Reset each tangent to the member at omega."""
        lam = self.lam
        self.slopes = [lam - omega * sh for sh in self.sinhs]
        self.intercepts = [-omega * b for b in self.bends]
        self.reweigh()


def sample_gig(psi, chi, rng, hull):
    """One draw of gig(hull.lam, psi, chi) with psi > 0 and chi > 0.

    The draw goes through hull, a GigHull(lam) that earlier draws at
    other (psi, chi) may have fitted, or an empty one; it is exact
    whatever the hull holds.
    """
    if not (0.0 < psi < _INF and 0.0 < chi < _INF):
        require_finite(psi=psi, chi=chi)
        if not psi > 0.0:
            raise ValueError(f"psi must be positive, got {psi}")
        raise ValueError(f"chi must be positive, got {chi}")
    lam = hull.lam

    # on s = log x - log(chi/psi)/2 the log density is lam s - omega cosh s
    log_psi, log_chi = math.log(psi), math.log(chi)
    log_omega = 0.5 * (log_psi + log_chi)
    omega = math.sqrt(psi) * math.sqrt(chi)
    ratio = lam / omega
    # asinh(r) is log(2 |r|) to double precision long before r overflows
    mode = (math.asinh(ratio) if -_INF < ratio < _INF
            else math.copysign(_LOG_2 + math.log(abs(lam)) - log_omega, lam))

    # the hull reads dlog_f at a knot right after log_f, so log_f keeps
    # the last s's pair (omega e^s, omega e^-s) and dlog_f reuses it;
    # each is formed on the log scale, so omega and e^s may lie outside
    # the double range while their product does not
    knot = up = down = math.nan

    def log_f(s):
        nonlocal knot, up, down
        if s != knot:
            knot = s
            up, down = _exp(log_omega + s), _exp(log_omega - s)
        return lam * s - 0.5 * (up + down)

    def dlog_f(s):
        if s != knot:
            log_f(s)
        return lam - 0.5 * (up - down)

    # omega cosh(mode) = hypot(lam, omega)
    target = LogDensityTarget(
        log_f, dlog_f, support_lower=-math.inf, mode=mode,
        curvature=-math.hypot(lam, omega))
    s = sample_from_envelope(target, hull.fit(target, omega), rng)
    try:
        return math.exp(s + 0.5 * (log_chi - log_psi))
    except OverflowError:
        raise ValueError(f"gig({lam}, {psi}, {chi}) drew a value out of "
                         "floating-point range") from None


def _mhn_mode(a_minus_1, beta, gamma):
    """Positive root of (a-1)/x - 2 beta x - gamma = 0, cancellation-free."""
    disc = math.sqrt(gamma * gamma + 8.0 * beta * a_minus_1)
    if gamma >= 0.0:
        return 2.0 * a_minus_1 / (gamma + disc)
    return (disc - gamma) / (4.0 * beta)


_MHN_MAX_PROPOSALS = 100000


def _mhn_rectangle(a_minus_1, a):
    """Ratio-of-uniforms rectangle for the mhn draw.

    On the relative scale d = x/mode - 1 the log density ratio is

        h(d) = (alpha-1) (log1p(d) - d) - a d^2 / 2,   a = 2 beta mode^2,

    exact because the mode equation gives gamma mode = alpha-1 - a.  The
    v-edges are the extremes of d exp(h(d)/2); they sit where
    2 + d h'(d) = 0, which in w = 1/d is the cubic

        R(w) = 2 w^3 + 2 w^2 - (a + alpha-1) w - a = 0

    with one root below -1 (R(-1) = alpha-1 > 0), one in (-1, 0)
    (R(0) = -a < 0) and one above 0.  The lowest root is the cosine root
    that stays well conditioned when the upper two nearly coincide
    (alpha -> 1 with a -> 0); dividing it out leaves a quadratic whose
    positive root has no cancellation.

    Returns (d_lo, v_lo, d_hi, v_hi) with d_lo < 0 < d_hi.
    """
    s = 0.5 * (a + a_minus_1)
    p3 = (s + 1.0 / 3.0) / 3.0
    r = 2.0 * math.sqrt(p3)
    q = 2.0 / 27.0 + a_minus_1 / 6.0 - a / 3.0
    cos3 = max(-1.0, min(1.0, -q / (p3 * r)))
    w_lo = -r * math.cos(math.acos(cos3) / 3.0 - math.pi / 3.0) - 1.0 / 3.0
    # R(w) = 2 (w - w_lo)(w^2 + e w + f) with f = a / (2 w_lo) < 0
    f = 0.5 * a / w_lo
    e = 0.5 * (a_minus_1 + a * (1.0 + 1.0 / w_lo)) / w_lo
    w_hi = 0.5 * (math.sqrt(e * e - 4.0 * f) - e)
    d_lo, d_hi = 1.0 / w_lo, 1.0 / w_hi
    # d_lo rounds to -1 only for alpha within a few ulps of 1; the left
    # edge is never below -1 (|d| < 1 and h <= 0 there), so -1 bounds it
    v_lo = -1.0
    if d_lo > -1.0:
        v_lo = d_lo * math.exp(0.5 * (a_minus_1 * (math.log1p(d_lo) - d_lo)
                                      - 0.5 * a * d_lo * d_lo))
    v_hi = d_hi * math.exp(0.5 * (a_minus_1 * (math.log1p(d_hi) - d_hi)
                                  - 0.5 * a * d_hi * d_hi))
    return d_lo, v_lo, d_hi, v_hi


def sample_mhn(alpha, beta, gamma, rng):
    """One draw of mhn(alpha, beta, gamma) with alpha > 1."""
    if not (-_INF < alpha < _INF and -_INF < beta < _INF
            and -_INF < gamma < _INF):
        # a nan would make every rejection test false and never return
        require_finite(alpha=alpha, beta=beta, gamma=gamma)
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    # ratio of uniforms shifted to the mode: (u, v) uniform on the
    # rectangle (0, 1] x [v_lo, v_hi], d = v/u accepted when
    # u^2 <= exp(h(d)); see _mhn_rectangle.  u = 1 - U for U in [0, 1)
    # is never 0.
    am1 = alpha - 1.0
    m = _mhn_mode(am1, beta, gamma)
    a = 2.0 * beta * m * m
    _, v_lo, _, v_hi = _mhn_rectangle(am1, a)
    if not (0.0 < m < math.inf and 0.0 < v_hi < math.inf):
        raise ValueError(
            f"mhn({alpha}, {beta}, {gamma}) is out of floating-point range")
    width = v_hi - v_lo
    random = rng.uniform
    log, log1p = math.log, math.log1p
    for _ in range(_MHN_MAX_PROPOSALS):
        u = 1.0 - random()
        d = (v_lo + width * random()) / u
        if d > -1.0 and 2.0 * log(u) <= am1 * (log1p(d) - d) - 0.5 * a * d * d:
            return m + m * d
    raise RuntimeError(
        f"mhn ratio-of-uniforms sampler failed to accept in "
        f"{_MHN_MAX_PROPOSALS} proposals (alpha={alpha}, beta={beta}, "
        f"gamma={gamma}, mode={m})")


_HGAMMA_MAX_PROPOSALS = 100000
_SQRT8 = math.sqrt(8.0)


def _hazard_term(w, log_t):
    """(L(w), L'(w)) for hgamma: L(w) = w/2 + log h(z), z = t e^(-w/2).

    L' = (1 - z (h(z) - z))/2 is about 1/z^2 for large z, so it takes
    h - z from mills_ratio_excess_rise: h - z from the hazard itself would
    leave L' an error of z^2 times the machine epsilon.  Above z = 2e17,
    where e^(-w/2) may overflow, h(z)/z is 1 to double precision and L
    is log t.
    """
    lz = log_t - 0.5 * w
    if lz > 40.0:
        return log_t, 0.0
    z = math.exp(lz)
    excess = mills_ratio_excess_rise(z)[0]
    return 0.5 * w + math.log(z + excess), 0.5 - 0.5 * z * excess


def _hgamma_mode(a, c, q, t):
    """An estimate of the mode of hgamma's log density in w.

    L' is replaced by 4 / (z + sqrt(z^2 + 8))^2, within 6 % of it for
    every z >= 0, and two Newton steps solve c e^w = a + q L'(w) from the
    right end of [log(a/c), log((a + q/2)/c)], which holds the mode.
    Only the envelope's touching point depends on the estimate.
    """
    exp, log, hypot = math.exp, math.log, math.hypot
    log_c = log(c)
    lo = log(a) - log_c
    w = hi = log(a + 0.5 * q) - log_c
    for _ in range(2):
        z = t * exp(-0.5 * w if w > -1400.0 else 700.0)
        root = hypot(z, _SQRT8)
        qa = 4.0 * q / ((root + z) * (root + z))
        w -= (w - log(a + qa) + log_c) / (1.0 - qa * z / (root * (a + qa)))
        w = lo if w < lo else hi if w > hi else w
    return w


def _hgamma_envelope(a, c, q, t):
    """(m, L(m), L'(m), rate): the gamma envelope of hgamma that touches
    its density at w = m.

    L is concave in x = e^w, so L(w) <= L(m) + L'(m)(x e^(-m) - 1) for
    every w, and the density is at most a constant times
    x^(a-1) exp(-rate x) with rate = c - q L'(m) e^(-m).  That needs
    rate > 0, which holds near the mode (there c e^m = a + q L'(m)); if
    the estimate misses, m moves to log(q/c), where c e^m = q > 2 q L'.
    """
    log_t = math.log(t)
    m = _hgamma_mode(a, c, q, t)
    value, slope = _hazard_term(m, log_t)
    rate = c - q * slope * math.exp(-m)
    if not rate > 0.0:
        m = math.log(q / c)
        value, slope = _hazard_term(m, log_t)
        rate = c - q * slope * math.exp(-m)
    return m, value, slope, rate


def sample_hazard_gamma(a, c, q, t, rng):
    """One draw of hgamma(a, c, q, t).

    A gamma(a, rate) proposal x = e^w from _hgamma_envelope is accepted
    with probability exp(q (L(w) - L(m) - L'(m)(x e^(-m) - 1))).  L is
    convex in w, so L(w) >= L(m) + L'(m)(w - m), and a proposal that
    passes with that bound in place of L(w) is accepted without
    evaluating h.  A draw of 0 or of an infinity is redrawn.
    """
    if not (0.0 < a < _INF and 0.0 < c < _INF and 0.0 < q < _INF
            and 0.0 < t < _INF):
        require_finite(a=a, c=c, q=q, t=t)
        raise ValueError("a, c, q and t must be positive")
    m, value, slope, rate = _hgamma_envelope(a, c, q, t)
    log_t = math.log(t)
    scale = 1.0 / rate
    inv_em = math.exp(-m)
    gamma, log = rng.standard_gamma, math.log
    for _ in range(_HGAMMA_MAX_PROPOSALS):
        x = scale * gamma(a)
        u = rng.uniform()
        if not (0.0 < x < _INF and u > 0.0):
            continue
        w = log(x)
        lu = log(u)
        rise = x * inv_em - 1.0
        if lu <= q * slope * (w - m - rise):
            return x
        if lu <= q * (_hazard_term(w, log_t)[0] - value - slope * rise):
            return x
    raise RuntimeError(
        f"hgamma sampler failed to accept in {_HGAMMA_MAX_PROPOSALS} "
        f"proposals (a={a}, c={c}, q={q}, t={t})")
