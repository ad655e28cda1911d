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

gig is sampled on the log scale, where the density is strictly concave
for every order lam, so one piecewise-exponential hull covers all
interior cases; its limits chi = 0 and psi = 0 are drawn by
sample_gamma and sample_inverse_gamma.
mhn splits on alpha alone into two regimes: alpha > 1 is log-concave
with an interior mode (ratio of uniforms shifted to the mode, with the
minimal rectangle in closed form; Dagpunar 1989, Leydold 2000);
alpha <= 1 is handled by a two-piece proposal (power law below a split
point, truncated normal above it), which covers the density unbounded
at 0 for alpha < 1 and is exact for alpha = 1.
hgamma is proposed from a gamma density.  On w = log x its log density
is a w - c e^w + q L(w) with L(w) = w/2 + log h(t e^(-w/2)), and L is
convex in w and concave in x = e^w: with z = t e^(-w/2), L'(w) is half
the second moment of the overshoot Z - z of a standard normal Z given
Z > z, which falls as z grows while z^2 times it rises (both by
exponential-family monotonicity), so 0 < L' < 1/2.  The tangent of L in
x at the mode folds into exp(-c x), which leaves a gamma(a, rate)
envelope; the tangent in w bounds L from below, a squeeze that skips
the hazard for most proposals.

Every sampler refuses a non-finite argument with a ValueError that names
it, before it draws: a nan or an infinity would otherwise fail deep in
a hull, loop in a rejection test, or come back as a draw.
"""

import math

import numpy as np

from .envelope import (
    LogDensityTarget,
    build_envelope,
    sample_from_envelope,
)
from .rng import log_uniform
from .special import log_std_normal_cdf, mills_ratio_excess

_EXP_CLIP = 700.0
_INF = math.inf


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


def _std_normal_lower_truncated(a, rng):
    """Z ~ N(0,1) conditioned on Z >= a, from the stream's buffered
    scalar draws."""
    if a <= 0.5:
        while True:
            z = rng.normal()
            if z >= a:
                return z
    # Robert's exponential proposal for a hard truncation
    alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        z = a + rng.exponential() / alpha
        d = z - alpha
        if rng.uniform() <= math.exp(-0.5 * d * d):
            return z


def sample_truncated_normal(mean, var, side, rng):
    """One draw of N(mean, var) restricted to x >= 0 or x < 0."""
    if not (-_INF < mean < _INF and 0.0 < var < _INF):
        # a nan truncation point would never be accepted
        require_finite(mean=mean, var=var)
        raise ValueError("var must be positive")
    s = math.sqrt(var)
    if side == "nonnegative":
        z = _std_normal_lower_truncated(-mean / s, rng)
        return max(mean + s * z, 0.0)
    if side == "negative":
        while True:
            z = _std_normal_lower_truncated(mean / s, rng)
            x = -max(-mean + s * z, 0.0)
            if x < 0.0:
                return x
    raise ValueError(f"unknown side {side!r}")


def sample_inverse_gaussian(mean, shape, rng):
    """Inverse-Gaussian draws via the squared-normal transform, one per
    element of mean (a float for a single draw): all normals first, then
    all uniforms.

    The smaller root of the defining quadratic is computed in conjugate
    form mean/(1 + w + sqrt(w (w + 2))), which stays positive even when
    the standard textbook expression would cancel to rounding noise.
    """
    mean = np.asarray(mean, dtype=float)
    if not (0.0 < shape < _INF and ((mean > 0.0) & (mean < _INF)).all()):
        require_finite(shape=shape)
        for value in mean.flat:
            require_finite(mean=value)
        raise ValueError("mean and shape must be positive")
    y = rng.gen.standard_normal(mean.shape) ** 2
    w = mean * y / (2.0 * shape)
    x = mean / (1.0 + w + np.sqrt(w * (w + 2.0)))
    keep = rng.gen.random(mean.shape) <= mean / (mean + x)
    draws = np.where(keep, x, mean * mean / x)
    return draws if draws.ndim else float(draws)


def sample_gig(lam, psi, chi, rng):
    """One draw of gig(lam, psi, chi), boundary cases included.

    chi = 0 needs lam > 0 and is gamma(lam, rate psi/2); psi = 0 needs
    lam < 0 and is inverse-gamma(-lam, scale chi/2).
    """
    if not (-_INF < lam < _INF and 0.0 <= psi < _INF and 0.0 <= chi < _INF):
        require_finite(lam=lam, psi=psi, chi=chi)
        raise ValueError("psi and chi must be nonnegative")
    if chi == 0.0:
        if not (lam > 0.0 and psi > 0.0):
            raise ValueError("chi = 0 requires lam > 0 and psi > 0")
        return sample_gamma(lam, 0.5 * psi, rng)
    if psi == 0.0:
        if not lam < 0.0:
            raise ValueError("psi = 0 requires lam < 0")
        return sample_inverse_gamma(-lam, 0.5 * chi, rng)

    root = math.sqrt(psi) * math.sqrt(chi)
    disc = math.hypot(lam, root)
    if lam >= 0.0:
        x_mode = (lam + disc) / psi
    else:
        # conjugate form, no cancellation when psi*chi << lam^2
        x_mode = chi / (disc - lam)

    # the hull reads dlog_f at a knot right after log_f, so log_f keeps
    # the last t's pair (psi e^t, chi e^-t) and dlog_f reuses it
    knot = up = down = math.nan

    def log_f(t):
        nonlocal knot, up, down
        if t != knot:
            knot, up, down = t, psi * _exp(t), chi * _exp(-t)
        return lam * t - 0.5 * (up + down)

    def dlog_f(t):
        if t != knot:
            log_f(t)
        return lam - 0.5 * (up - down)

    target = LogDensityTarget(
        log_f, dlog_f, support_lower=-math.inf,
        mode=math.log(x_mode),
        curvature=-0.5 * (psi * x_mode + chi / x_mode),
    )
    env = build_envelope(target, K=3)
    return math.exp(sample_from_envelope(target, env, rng))


def _mhn_mode(a_minus_1, beta, gamma):
    """Positive root of (a-1)/x - 2 beta x - gamma = 0, cancellation-free."""
    disc = math.sqrt(gamma * gamma + 8.0 * beta * a_minus_1)
    if gamma >= 0.0:
        return 2.0 * a_minus_1 / (gamma + disc)
    return (disc - gamma) / (4.0 * beta)


def sample_mhn(alpha, beta, gamma, rng):
    """One draw of mhn(alpha, beta, gamma)."""
    if not (-_INF < alpha < _INF and -_INF < beta < _INF
            and -_INF < gamma < _INF):
        # a nan would make every rejection test false and never return
        require_finite(alpha=alpha, beta=beta, gamma=gamma)
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError("alpha and beta must be positive")
    if alpha > 1.0:
        return _sample_mhn_rou(alpha, beta, gamma, rng)
    return _sample_mhn_small_alpha(alpha, beta, gamma, rng)


_MHN_MAX_PROPOSALS = 100000


def _mhn_rectangle(a_minus_1, a):
    """Ratio-of-uniforms rectangle for the mhn draw with power above 1.

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


def _sample_mhn_rou(alpha, beta, gamma, rng):
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
    random = rng.gen.random
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


def _sample_mhn_small_alpha(alpha, beta, gamma, rng):
    # alpha <= 1.  Split at the mode of the alpha+1 tilt: below it a pure
    # power-law proposal dominated by the max of exp(-beta x^2 - gamma x);
    # above it a truncated normal carrying the power factor frozen at the
    # split, which x^(alpha-1) can only lower.  At alpha = 1 that factor
    # is 1 and every upper proposal is accepted.
    s = _mhn_mode(alpha, beta, gamma)
    c0 = gamma / (2.0 * beta)
    x1 = min(max(0.0, -c0), s)
    log_g1 = -beta * x1 * x1 - gamma * x1
    log_m1 = log_g1 + alpha * math.log(s) - math.log(alpha)
    log_m2 = ((alpha - 1.0) * math.log(s) + beta * c0 * c0
              + 0.5 * math.log(math.pi / beta)
              + log_std_normal_cdf(-(s + c0) * math.sqrt(2.0 * beta)))
    p1 = 1.0 / (1.0 + math.exp(min(log_m2 - log_m1, _EXP_CLIP)))
    while True:
        if rng.gen.random() < p1:
            u = rng.gen.random()
            x = s * u ** (1.0 / alpha)
            if x <= 0.0:
                continue
            if log_uniform(rng) <= (-beta * x * x - gamma * x) - log_g1:
                return x
        else:
            x = s + sample_truncated_normal(
                -c0 - s, 0.5 / beta, "nonnegative", rng)
            if log_uniform(rng) <= (alpha - 1.0) * (math.log(x) - math.log(s)):
                return x


def sample_gamma(shape, rate, rng):
    """One gamma draw with the rate convention."""
    if not (0.0 < shape < _INF and 0.0 < rate < _INF):
        require_finite(shape=shape, rate=rate)
        raise ValueError("shape and rate must be positive")
    return rng.gen.gamma(shape, 1.0 / rate)


def sample_inverse_gamma(shape, scale, rng):
    """One inverse-gamma draw; density propto x^(-shape-1) exp(-scale/x)."""
    if not (0.0 < shape < _INF and 0.0 < scale < _INF):
        require_finite(shape=shape, scale=scale)
        raise ValueError("shape and scale must be positive")
    g = rng.gen.gamma(shape, 1.0)
    while g == 0.0:
        g = rng.gen.gamma(shape, 1.0)
    return scale / g


_HGAMMA_MAX_PROPOSALS = 100000
_SQRT8 = math.sqrt(8.0)


def _hazard_term(w, log_t):
    """(L(w), L'(w)) for hgamma: L(w) = w/2 + log h(z), z = t e^(-w/2).

    L' = (1 - z (h(z) - z))/2 is about 1/z^2 for large z, so it takes
    h - z from mills_ratio_excess: h - z from the hazard itself would
    leave L' an error of z^2 times the machine epsilon.  Above z = 2e17,
    where e^(-w/2) may overflow, h(z)/z is 1 to double precision and L
    is log t.
    """
    lz = log_t - 0.5 * w
    if lz > 40.0:
        return log_t, 0.0
    z = math.exp(lz)
    excess = mills_ratio_excess(z)
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
    gamma, log = rng.gen.gamma, math.log
    for _ in range(_HGAMMA_MAX_PROPOSALS):
        x = gamma(a, scale)
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
