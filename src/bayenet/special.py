"""Numerically stable standard-normal tail functions.

Orthant weights, envelope tangents and the tilted density all hinge on
log Phi(x) and the hazard phi(x)/Phi(-x) staying accurate far into the
tail, where a naive erfc quotient under- or overflows.  The hazard is
computed with the classical Mills-ratio continued fraction

    phi(x)/Phi(-x) = x + 1/(x + 2/(x + 3/(x + ...)))      (x large)

and log Phi is recovered from it, so both stay finite and accurate down
to x = -38 and beyond.
"""

import math

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Switch-over to the continued fraction.  At x = 5 the fraction with 64
# levels agrees with 50-digit arithmetic to ~1e-16 relative, and from
# there on, where the fraction only converges faster, 40 levels return
# the 64-level value bit for bit: on 200,001 points over [5, 1e6] and
# 402,000 random points in [5, 40] (32 levels and 28 do not everywhere).
# test_special checks a grid of such points.
_TAIL_CUT = 5.0
_CF_LEVELS = 40


def std_normal_pdf(x):
    """Density of N(0, 1) at x."""
    return math.exp(-0.5 * x * x - _LOG_SQRT_2PI)


def std_normal_cdf(x):
    """Phi(x), accurate in both tails down to the underflow limit."""
    if x <= 0.0:
        return 0.5 * math.erfc(-x / _SQRT2)
    return 1.0 - 0.5 * math.erfc(x / _SQRT2)


def _hazard_cf_levels(x, last):
    # Backward evaluation of the Mills-ratio continued fraction without
    # its leading x, from its deepest level up to level `last`; valid
    # for x >= _TAIL_CUT.  Down to level 1 it is the excess h - x.
    acc = 0.0
    for k in range(_CF_LEVELS, last - 1, -1):
        acc = k / (x + acc)
    return acc


def _hazard_cf(x):
    return x + _hazard_cf_levels(x, 1)


def mills_ratio(x):
    """Hazard phi(x)/Phi(-x) of the standard normal.

    Grows like x + 1/x for large x; tends to 0 for x -> -inf.
    """
    if x > _TAIL_CUT:
        return _hazard_cf(x)
    # Phi(-x) with -x >= -5 is far from underflow, so the quotient is safe.
    return std_normal_pdf(x) / std_normal_cdf(-x)


def mills_ratio_excess_rise(x):
    """(D, F): the excess D = h(x) - x of the hazard, accurate to
    rounding where it is small, and the rise F = (x D)' = D + x D',
    where D' = h D - 1.

    Past _TAIL_CUT, h D - 1 would keep only x^2 times the machine
    epsilon of its value, about -1/x^2, and D + x D' cancels again to
    about 4/x^3.  There both come from the continued fraction's levels:
    with R3 its value from level 3 down, R = 2/(x + R3) and
    D = 1/(x + R), 1 - h D = D (R - D) and F = D R (R3 - D), and no
    factor cancels.
    """
    if x > _TAIL_CUT:
        r3 = _hazard_cf_levels(x, 3)
        r = 2.0 / (x + r3)
        d = 1.0 / (x + r)
        return d, d * r * (r3 - d)
    d = mills_ratio(x) - x
    return d, d + x * ((x + d) * d - 1.0)


def log_std_normal_cdf(x):
    """log Phi(x), finite and accurate for all representable x."""
    if x > 0.0:
        # log(1 - Phi(-x)); erfc underflowing to 0 correctly yields 0.0.
        return math.log1p(-0.5 * math.erfc(x / _SQRT2))
    if x >= -_TAIL_CUT:
        return math.log(0.5 * math.erfc(-x / _SQRT2))
    t = -x
    return -_LOG_SQRT_2PI - 0.5 * t * t - math.log(_hazard_cf(t))


def log_upper_incomplete_gamma_half(x):
    """log Gamma(1/2, x), finite for arbitrarily large x >= 0.

    Uses the identity Gamma(1/2, x) = 2 sqrt(pi) Phi(-sqrt(2 x)).
    """
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return math.log(2.0 * _SQRT_PI) + log_std_normal_cdf(-math.sqrt(2.0 * x))
