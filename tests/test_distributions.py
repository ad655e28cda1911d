"""KS and moment checks for the base samplers against quadrature CDFs."""

import math

import mpmath as mp
import numpy as np
import pytest

from bayenet.distributions import (
    sample_gamma,
    sample_gig,
    sample_inverse_gamma,
    sample_inverse_gaussian,
    sample_mhn,
    sample_truncated_normal,
)
from bayenet.rng import RngStream
from bayenet.special import mills_ratio

from helpers import cdf_table, ks_statistic, ks_threshold

mp.mp.dps = 30
N = 20000


def _ks_ok(draws, logpdf, lo, hi):
    xs, c = cdf_table(logpdf, lo, hi)
    return ks_statistic(draws, xs, c) < ks_threshold(len(draws))


def test_truncated_normal_soft_truncation():
    rng = RngStream(101, 0)
    m, v = 1.0, 4.0
    draws = [sample_truncated_normal(m, v, "nonnegative", rng)
             for _ in range(N)]
    assert min(draws) >= 0.0
    assert _ks_ok(draws, lambda x: -0.5 * (x - m) ** 2 / v, 0.0, m + 9 * 2.0)


def test_truncated_normal_hard_truncation():
    # standardized bound a = 4/sqrt(2) > 0.5: exercises the exponential
    # proposal branch
    rng = RngStream(101, 1)
    m, v = -4.0, 2.0
    draws = [sample_truncated_normal(m, v, "nonnegative", rng)
             for _ in range(N)]
    assert min(draws) >= 0.0
    assert _ks_ok(draws, lambda x: -0.5 * (x - m) ** 2 / v, 0.0, 4.0)
    # closed-form truncated-normal mean: m + s * phi(a)/Phi(-a)
    s = math.sqrt(v)
    a = -m / s
    want = m + s * mills_ratio(a)
    se = np.std(draws) / math.sqrt(N)
    assert abs(np.mean(draws) - want) < 5 * se


def test_truncated_normal_negative_side():
    rng = RngStream(101, 2)
    m, v = 3.0, 1.5
    draws = [sample_truncated_normal(m, v, "negative", rng) for _ in range(N)]
    assert max(draws) < 0.0
    assert _ks_ok(draws, lambda x: -0.5 * (x - m) ** 2 / v, -7.0, 0.0)


def test_truncated_normal_validates():
    with pytest.raises(ValueError):
        sample_truncated_normal(0.0, 0.0, "nonnegative", RngStream(1))
    with pytest.raises(ValueError):
        sample_truncated_normal(0.0, 1.0, "positive", RngStream(1))
    # a nan mean used to loop forever in the tail sampler
    for mean in (math.nan, math.inf, -math.inf):
        for side in ("nonnegative", "negative"):
            with pytest.raises(ValueError, match="mean must be finite"):
                sample_truncated_normal(mean, 1.0, side, RngStream(1))


def _ig_logpdf(mu, lam):
    return lambda x: (-1.5 * math.log(x)
                      - lam * (x - mu) ** 2 / (2.0 * mu * mu * x))


def test_inverse_gaussian_distribution():
    rng = RngStream(102, 0)
    mu, lam = 2.0, 3.0
    draws = [sample_inverse_gaussian(mu, lam, rng) for _ in range(N)]
    assert _ks_ok(draws, _ig_logpdf(mu, lam), 1e-8, 40.0)
    # mean mu, variance mu^3/lam
    se = math.sqrt(mu ** 3 / lam / N)
    assert abs(np.mean(draws) - mu) < 5 * se


def test_inverse_gaussian_small_mean():
    rng = RngStream(102, 1)
    mu, lam = 0.3, 5.0
    draws = [sample_inverse_gaussian(mu, lam, rng) for _ in range(N)]
    assert _ks_ok(draws, _ig_logpdf(mu, lam), 1e-10, 2.0)


def test_inverse_gaussian_extreme_ratio_stays_positive():
    rng = RngStream(102, 2)
    for _ in range(2000):
        assert sample_inverse_gaussian(1e8, 1e-4, rng) > 0.0
    with pytest.raises(ValueError):
        sample_inverse_gaussian(-1.0, 1.0, rng)


def _gig_logpdf(lam, psi, chi):
    return lambda x: ((lam - 1.0) * math.log(x)
                      - 0.5 * (psi * x + chi / x))


def test_gig_interior_orders():
    cases = [(2.5, 3.0, 1.7), (-0.5, 2.0, 4.0), (0.5, 1.0, 1.0),
             (-3.0, 0.5, 6.0)]
    for i, (lam, psi, chi) in enumerate(cases):
        rng = RngStream(103, i)
        draws = [sample_gig(lam, psi, chi, rng) for _ in range(N)]
        assert _ks_ok(draws, _gig_logpdf(lam, psi, chi), 1e-9, 80.0), (lam, psi, chi)


def test_gig_gamma_boundary():
    rng = RngStream(103, 10)
    draws = [sample_gig(2.0, 3.0, 0.0, rng) for _ in range(N)]
    assert _ks_ok(draws, lambda x: math.log(x) - 1.5 * x, 1e-9, 30.0)


def test_gig_inverse_gamma_boundary():
    rng = RngStream(103, 11)
    draws = [sample_gig(-2.0, 0.0, 3.0, rng) for _ in range(N)]
    assert _ks_ok(draws, lambda x: -3.0 * math.log(x) - 1.5 / x, 1e-6, 400.0)


def test_gig_validates():
    rng = RngStream(103, 12)
    with pytest.raises(ValueError):
        sample_gig(1.0, -1.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_gig(-1.0, 1.0, 0.0, rng)
    with pytest.raises(ValueError):
        sample_gig(1.0, 0.0, 1.0, rng)


def _mhn_logpdf(a, b, c):
    return lambda x: (a - 1.0) * math.log(x) - b * x * x - c * x


def test_mhn_log_concave_regime():
    rng = RngStream(104, 0)
    draws = [sample_mhn(3.0, 2.0, 2.0, rng) for _ in range(N)]
    assert _ks_ok(draws, _mhn_logpdf(3.0, 2.0, 2.0), 1e-9, 6.0)


def test_mhn_negative_linear_coefficient():
    rng = RngStream(104, 1)
    draws = [sample_mhn(2.0, 1.0, -3.0, rng) for _ in range(N)]
    assert _ks_ok(draws, _mhn_logpdf(2.0, 1.0, -3.0), 1e-9, 8.0)


def test_mhn_exact_truncated_normal_regime():
    rng = RngStream(104, 2)
    draws = [sample_mhn(1.0, 0.5, -1.0, rng) for _ in range(N)]
    assert _ks_ok(draws, lambda x: -0.5 * x * x + x, 1e-9, 10.0)


def test_mhn_unbounded_at_zero_regime():
    # KS is invariant under monotone maps; checking y = x^a removes the
    # integrable singularity at 0 so the trapezoid oracle converges
    cases = [(0.4, 2.0, 1.5), (0.05, 1.0, 0.0), (0.9, 0.3, -2.0)]
    for i, (a, b, c) in enumerate(cases):
        rng = RngStream(104, 10 + i)
        draws = [sample_mhn(a, b, c, rng) for _ in range(N)]
        assert min(draws) > 0.0

        def log_pdf_y(y, a=a, b=b, c=c):
            x = y ** (1.0 / a)
            return -b * x * x - c * x

        ys = [d ** a for d in draws]
        assert _ks_ok(ys, log_pdf_y, 1e-12, 12.0 ** a), (a, b, c)


def test_mhn_validates():
    rng = RngStream(104, 20)
    with pytest.raises(ValueError):
        sample_mhn(0.0, 1.0, 0.0, rng)
    with pytest.raises(ValueError):
        sample_mhn(1.0, 0.0, 0.0, rng)


def test_gamma_and_inverse_gamma():
    rng = RngStream(105, 0)
    draws = [sample_gamma(4.0, 2.0, rng) for _ in range(N)]
    # mean shape/rate, var shape/rate^2
    assert abs(np.mean(draws) - 2.0) < 5 * math.sqrt(1.0 / N)
    assert _ks_ok(draws, lambda x: 3.0 * math.log(x) - 2.0 * x, 1e-9, 25.0)

    rng = RngStream(105, 1)
    draws = [sample_inverse_gamma(3.0, 4.0, rng) for _ in range(N)]
    # mean scale/(shape-1) = 2
    assert abs(np.mean(draws) - 2.0) < 5 * np.std(draws) / math.sqrt(N)
    assert _ks_ok(draws, lambda x: -4.0 * math.log(x) - 4.0 / x, 1e-4, 300.0)

    with pytest.raises(ValueError):
        sample_gamma(-1.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_inverse_gamma(1.0, -1.0, rng)


def test_rng_streams_reproducible_and_distinct():
    a = RngStream(42, (1, 2)).gen.random(5)
    b = RngStream(42, (1, 2)).gen.random(5)
    c = RngStream(42, (1, 3)).gen.random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    d = RngStream(42, 7)
    assert d.substream(3).stream_id == (7, 3)
    assert np.array_equal(d.substream(3).gen.random(4),
                          RngStream(42, (7, 3)).gen.random(4))
