"""Exact samplers for the distributions the Gibbs kernels draw from.

Conventions:

* truncated normal: N(mean, var) restricted to one side of zero.
* inverse-Gaussian(mean mu, shape lam): density
  sqrt(lam/(2 pi x^3)) exp(-lam (x - mu)^2 / (2 mu^2 x)).
* generalized inverse Gaussian gig(lam, psi, chi): density proportional
  to x^(lam-1) exp(-(psi x + chi / x)/2) on x > 0.
* modified half normal mhn(alpha, beta, gamma): density proportional to
  x^(alpha-1) exp(-beta x^2 - gamma x) on x > 0.

gig is sampled on the log scale, where the density is strictly concave
for every order lam, so one piecewise-exponential hull covers all cases.
mhn splits into three regimes: alpha = 1 reduces to a truncated normal,
alpha > 1 is log-concave with an interior mode (hull sampler), and
alpha < 1 has an unbounded density at 0 and is handled by a two-piece
proposal (power law below a split point, truncated normal above it).
"""

import math

import numpy as np

from .envelope import (
    LogDensityTarget,
    build_envelope,
    sample_from_envelope,
)
from .rng import log_uniform
from .special import log_std_normal_cdf

_EXP_CLIP = 700.0


def _exp(t):
    return math.exp(min(t, _EXP_CLIP))


def _std_normal_lower_truncated(a, rng):
    """Z ~ N(0,1) conditioned on Z >= a."""
    if a <= 0.5:
        while True:
            z = rng.gen.standard_normal()
            if z >= a:
                return z
    # Robert's exponential proposal for a hard truncation
    alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        z = a + rng.gen.standard_exponential() / alpha
        d = z - alpha
        if rng.gen.random() <= math.exp(-0.5 * d * d):
            return z


def sample_truncated_normal(mean, var, side, rng):
    """One draw of N(mean, var) restricted to x >= 0 or x < 0."""
    if not var > 0.0:
        raise ValueError("var must be positive")
    if not math.isfinite(mean):
        # a nan truncation point would never be accepted
        raise ValueError(f"mean must be finite, got {mean}")
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
    if not (shape > 0.0 and (mean > 0.0).all()):
        raise ValueError("mean and shape must be positive")
    y = rng.gen.standard_normal(mean.shape) ** 2
    w = mean * y / (2.0 * shape)
    x = mean / (1.0 + w + np.sqrt(w * (w + 2.0)))
    keep = rng.gen.random(mean.shape) <= mean / (mean + x)
    draws = np.where(keep, x, mean * mean / x)
    return draws if draws.ndim else float(draws)


def sample_gig(lam, psi, chi, rng):
    """One draw of gig(lam, psi, chi), boundary cases included.

    chi = 0 needs lam > 0 (gamma limit); psi = 0 needs lam < 0
    (inverse-gamma limit).
    """
    if psi < 0.0 or chi < 0.0:
        raise ValueError("psi and chi must be nonnegative")
    if chi == 0.0:
        if not (lam > 0.0 and psi > 0.0):
            raise ValueError("chi = 0 requires lam > 0 and psi > 0")
        return rng.gen.gamma(lam, 2.0 / psi)
    if psi == 0.0:
        if not lam < 0.0:
            raise ValueError("psi = 0 requires lam < 0")
        g = rng.gen.gamma(-lam, 1.0)
        while g == 0.0:
            g = rng.gen.gamma(-lam, 1.0)
        return 0.5 * chi / g

    root = math.sqrt(psi) * math.sqrt(chi)
    disc = math.hypot(lam, root)
    if lam >= 0.0:
        x_mode = (lam + disc) / psi
    else:
        # conjugate form, no cancellation when psi*chi << lam^2
        x_mode = chi / (disc - lam)

    def log_f(t):
        return lam * t - 0.5 * (psi * _exp(t) + chi * _exp(-t))

    def dlog_f(t):
        return lam - 0.5 * (psi * _exp(t) - chi * _exp(-t))

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
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError("alpha and beta must be positive")
    if alpha == 1.0:
        return sample_truncated_normal(
            -gamma / (2.0 * beta), 0.5 / beta, "nonnegative", rng)
    if alpha > 1.0:
        mode = _mhn_mode(alpha - 1.0, beta, gamma)

        def log_f(x):
            return (alpha - 1.0) * math.log(x) - beta * x * x - gamma * x

        def dlog_f(x):
            return (alpha - 1.0) / x - 2.0 * beta * x - gamma

        target = LogDensityTarget(
            log_f, dlog_f, support_lower=0.0, mode=mode,
            curvature=-(alpha - 1.0) / (mode * mode) - 2.0 * beta)
        env = build_envelope(target, K=2)
        return sample_from_envelope(target, env, rng)
    return _sample_mhn_small_alpha(alpha, beta, gamma, rng)


def _sample_mhn_small_alpha(alpha, beta, gamma, rng):
    # Split at the mode of the alpha+1 tilt: below it a pure power-law
    # proposal dominated by the max of exp(-beta x^2 - gamma x); above it
    # a truncated normal carrying the power factor frozen at the split.
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
    if not (shape > 0.0 and rate > 0.0):
        raise ValueError("shape and rate must be positive")
    return rng.gen.gamma(shape, 1.0 / rate)


def sample_inverse_gamma(shape, scale, rng):
    """One inverse-gamma draw; density propto x^(-shape-1) exp(-scale/x)."""
    if not (shape > 0.0 and scale > 0.0):
        raise ValueError("shape and scale must be positive")
    g = rng.gen.gamma(shape, 1.0)
    while g == 0.0:
        g = rng.gen.gamma(shape, 1.0)
    return scale / g
