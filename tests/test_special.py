"""Checks for the stable normal tail functions.

Expected values were frozen from 50-digit mpmath evaluations before the
implementation was written; a live mpmath grid cross-check backs them up.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from bayenet.special import (
    log_std_normal_cdf,
    log_upper_incomplete_gamma_half,
    mills_ratio,
    mills_ratio_excess_rise,
    std_normal_cdf,
    std_normal_pdf,
)


def test_cdf_frozen_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(-1.959964) == pytest.approx(
        0.0249999990964424043, rel=1e-12
    )
    assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429486, rel=1e-14)
    assert std_normal_cdf(-8.0) == pytest.approx(6.220960574271784e-16, rel=1e-12)


def test_cdf_symmetry_and_range():
    for x in [0.0, 0.3, 1.7, 4.2, 8.0, 20.0]:
        lo = std_normal_cdf(-x)
        hi = std_normal_cdf(x)
        assert 0.0 <= lo <= hi <= 1.0
        assert lo + hi == pytest.approx(1.0, abs=1e-15)


def test_cdf_saturates_gracefully():
    assert std_normal_cdf(-400.0) == 0.0
    assert std_normal_cdf(400.0) == 1.0


def test_log_cdf_frozen_values():
    assert log_std_normal_cdf(-10.0) == pytest.approx(
        -53.23128515051247058, abs=1e-10
    )
    assert log_std_normal_cdf(-38.0) == pytest.approx(
        -726.5572160188201301, abs=1e-10
    )
    assert log_std_normal_cdf(-5.0) == pytest.approx(
        -15.06499839398872574, abs=1e-12
    )
    assert log_std_normal_cdf(8.0) == pytest.approx(
        -6.220960574271786e-16, rel=1e-10
    )


@mp.workdps(50)
def test_log_cdf_mpmath_grid():
    # 1e-10 absolute over the contract range, including both branch switches
    xs = [-38.0, -30.0, -20.0, -10.0, -5.0000001, -5.0, -4.9999999,
          -3.0, -1.0, 0.0, 0.5, 2.0, 5.0, 8.0]
    for x in xs:
        want = float(mp.log(mp.ncdf(mp.mpf(x))))
        assert log_std_normal_cdf(x) == pytest.approx(want, abs=1e-10), x


def test_log_cdf_is_finite_deep_in_tail():
    val = log_std_normal_cdf(-1e4)
    assert math.isfinite(val)
    assert val < -4.9e7


def test_mills_frozen_values():
    assert mills_ratio(0.0) == pytest.approx(0.7978845608028653559, rel=1e-13)
    assert mills_ratio(30.0) == pytest.approx(30.03325966743367704, rel=1e-13)
    assert mills_ratio(-3.0) == pytest.approx(0.0044378390421256638, rel=1e-12)


def test_mills_continuous_at_branch_switch():
    assert mills_ratio(5.0) == pytest.approx(5.186503967125842116, rel=1e-12)
    assert mills_ratio(5.0000001) == pytest.approx(5.186504063856198708, rel=1e-12)


def _hazard_cf_64(x):
    # the continued fraction at 64 levels, which the 40 in use must match
    acc = 0.0
    for k in range(64, 0, -1):
        acc = k / (x + acc)
    return x + acc


def test_far_tail_matches_the_64_level_fraction_bit_for_bit():
    # both tail functions that read the fraction, on a geometric grid
    # over (5, 1e6] and random points in (5, 40], where h is evaluated
    # most (the theta and lambda2 draws of the wide design)
    grid = np.geomspace(np.nextafter(5.0, 6.0), 1e6, 20001)
    rand = np.random.default_rng(20261019).uniform(
        np.nextafter(5.0, 6.0), 40.0, 20000)
    for x in np.concatenate([grid, rand]).tolist():
        want = _hazard_cf_64(x)
        assert mills_ratio(x) == want, x
        assert log_std_normal_cdf(-x) == (-0.5 * math.log(2.0 * math.pi)
                                          - 0.5 * x * x - math.log(want)), x


@mp.workdps(50)
def test_mills_excess_is_accurate_far_out():
    # h(x) - x to 1e-13 relative where it is 1/x and smaller: the
    # difference of two nearly equal numbers would keep only
    # x * 2.2e-16 of it
    for x in [0.0, 0.5, 4.9, 5.0, 5.5, 12.0, 1e2, 1e4, 1e6, 1e9]:
        xm = mp.mpf(x)
        want = float(mp.npdf(xm) / mp.ncdf(-xm) - xm)
        assert mills_ratio_excess_rise(x)[0] == pytest.approx(
            want, rel=1e-13), x


@mp.workdps(150)
def test_mills_excess_rise_is_accurate_far_out():
    # D = h - x and F = (x D)' = D + x (h D - 1) to 1e-13 relative on
    # (5, 1e15], where F is about 4/x^3: in doubles h D - 1 keeps only
    # x^2 times the machine epsilon and F cancels once more.  The
    # reference loses about 3 log10(x) digits to the same
    # cancellations, so 60 digits are too few past 1e9
    for x in np.geomspace(np.nextafter(5.0, 6.0), 1e15, 41).tolist():
        xm = mp.mpf(x)
        h = mp.npdf(xm) / mp.ncdf(-xm)
        d = h - xm
        excess, rise = mills_ratio_excess_rise(x)
        assert excess == pytest.approx(float(d), rel=1e-13), x
        assert rise == pytest.approx(float(d + xm * (h * d - 1)),
                                     rel=1e-13), x


@given(st.floats(min_value=1e-6, max_value=30.0))
def test_mills_gordon_bounds(x):
    h = mills_ratio(x)
    assert x < h < x + 1.0 / x


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_mills_recovers_cdf(x):
    # Phi(-x) = phi(x) / mills(x), 1e-12 relative over the moderate range
    recovered = std_normal_pdf(x) / mills_ratio(x)
    assert recovered == pytest.approx(std_normal_cdf(-x), rel=1e-12)


@given(st.floats(min_value=-37.0, max_value=37.0),
       st.floats(min_value=1e-8, max_value=0.5))
def test_cdf_monotone(x, dx):
    assert std_normal_cdf(x) <= std_normal_cdf(x + dx)


def test_upper_gamma_half_rejects_negative():
    with pytest.raises(ValueError):
        log_upper_incomplete_gamma_half(-0.1)


@mp.workdps(50)
def test_log_upper_gamma_half_consistent_and_deep():
    # from just above 0 to far beyond float underflow of Gamma(1/2, x)
    for x in [0.0, 1e-12, 1e-6, 0.01, 0.5, 3.0, 12.5, 40.0, 1e3, 1e6]:
        want = float(mp.log(mp.gammainc(mp.mpf("0.5"), mp.mpf(x), mp.inf)))
        assert log_upper_incomplete_gamma_half(x) == pytest.approx(
            want, rel=1e-12, abs=1e-15)
