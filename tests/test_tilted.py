"""Density values, concavity certificates, mode bounds, exact sampling."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayenet import oracle, tilted
from bayenet.distributions import sample_gamma
from bayenet.envelope import _segment_log_mass
from bayenet.oracle import _tilted_property_check
from bayenet.rng import RngStream
from bayenet.tilted import (
    TiltedParams,
    d2log_density,
    dlog_density,
    find_mode,
    is_logconcave,
    log_density,
    mode_bounds,
    sample_tilted,
)

from helpers import cdf_table, hull_log_value, ks_statistic, ks_threshold


def _mp_log_density(p, x):
    x = mp.mpf(x)
    v = ((p.a - 1) * mp.log(x) - p.b * x ** 2 - p.c * x
         - p.q * mp.log(mp.ncdf(-x)))
    return v


@mp.workdps(40)
def test_log_density_matches_mpmath():
    cases = [TiltedParams(2, 1.0, 1.0, 0.5), TiltedParams(8, 9.0, 30.0, 0.2),
             TiltedParams(0, 2.0, 1.0, -0.5),
             TiltedParams(3, 4.0, 1.5, 2.0)]
    for p in cases:
        for x in [0.05, 0.5, 1.7, 6.0, 20.0]:
            want = float(_mp_log_density(p, x))
            assert log_density(p, x) == pytest.approx(want, rel=1e-10, abs=1e-8)
    assert log_density(cases[0], 0.0) == -math.inf
    assert log_density(cases[0], -1.0) == -math.inf


@mp.workdps(40)
def test_derivatives_match_mpmath():
    p = TiltedParams(3, 2.0, 2.0, 1.0)
    for x in [0.2, 0.9, 3.0, 12.0]:
        d1 = float(mp.diff(lambda t: _mp_log_density(p, t), mp.mpf(x)))
        d2 = float(mp.diff(lambda t: _mp_log_density(p, t), mp.mpf(x), 2))
        assert dlog_density(p, x) == pytest.approx(d1, rel=1e-8, abs=1e-8)
        assert d2log_density(p, x) == pytest.approx(d2, rel=1e-7, abs=1e-7)
    p0 = TiltedParams(0, 1.5, 0.5, 0.3)
    for x in [0.1, 1.0, 4.0]:
        d1 = float(mp.diff(lambda t: _mp_log_density(p0, t), mp.mpf(x)))
        assert dlog_density(p0, x) == pytest.approx(d1, rel=1e-8)


def test_concavity_certificate_truth_table():
    assert is_logconcave(TiltedParams(2, 1.0, 1.0, 0.5))
    assert not is_logconcave(TiltedParams(2, 1.0, 0.9, 1.0))   # b < q/2
    assert not is_logconcave(TiltedParams(2, 0.5, 2.0, 1.0))   # a < 1
    assert not is_logconcave(TiltedParams(2, 1.0, 1.0, 0.0))   # c = 0
    assert is_logconcave(TiltedParams(0, 2.0, 1.0, 0.0))
    assert is_logconcave(TiltedParams(0, 1.0, 0.0, 3.0))
    assert not is_logconcave(TiltedParams(0, 0.5, 1.0, 0.0))
    assert not is_logconcave(TiltedParams(0, 2.0, 0.0, 0.0))   # not integrable


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(1.0, 8.0), st.floats(0.0, 4.0),
       st.floats(0.01, 5.0))
def test_certified_members_are_concave_on_grid(q, a, b_extra, c):
    p = TiltedParams(q, a, 0.5 * q + b_extra, c)
    assert is_logconcave(p)
    for x in np.geomspace(1e-3, 50.0, 80):
        assert d2log_density(p, x) <= 1e-9


def test_slack_violation_breaks_concavity_in_the_tail():
    # b slightly below q/2 turns the second derivative positive far out
    p = TiltedParams(4, 1.0, 1.9, 1.0)
    assert not is_logconcave(p)
    assert max(d2log_density(p, x) for x in np.geomspace(1.0, 200.0, 200)) > 0


def test_mode_bounds_quadratic_slack_zero():
    # 2b = q: bracket is ((a-1)/c, (a-1+q)/c)
    p = TiltedParams(3, 2.0, 1.5, 2.0)
    lo, hi = mode_bounds(p)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(2.0)
    m = find_mode(p)
    assert lo < m < hi
    assert dlog_density(p, m) == pytest.approx(0.0, abs=1e-6)


def test_mode_bounds_positive_slack_unit_shape():
    # a = 1, 2b > q: zero lower bound, closed-form upper bound
    p = TiltedParams(2, 1.0, 2.0, 1.0)
    lo, hi = mode_bounds(p)
    t = 2.0 * p.b - p.q
    assert lo == 0.0
    assert hi == pytest.approx((math.sqrt(1.0 + 4.0 * p.q * t) - 1.0) / (2 * t))
    assert dlog_density(p, hi) < 0.0


def test_mode_bounds_positive_slack_general():
    p = TiltedParams(2, 3.0, 4.0, 0.5)
    lo, hi = mode_bounds(p)
    assert 0.0 < lo < hi
    assert dlog_density(p, lo) > 0.0 > dlog_density(p, hi)
    m = find_mode(p)
    assert lo < m < hi


def test_mode_bounds_upper_end_without_cancellation():
    # 4 (a-1+q) t is far below c^2 here, so sqrt(c^2 + 4kt) - c would
    # cancel to 0; the mode is about 2.0003e-4
    p = TiltedParams(2, 3.0, 1.0 + 2e-12, 1e4)
    lo, hi = mode_bounds(p)
    assert lo <= find_mode(p) <= hi
    assert hi == pytest.approx(4e-4, rel=1e-12)


def test_mode_bounds_rejects_uncertified():
    with pytest.raises(ValueError):
        mode_bounds(TiltedParams(0, 2.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        mode_bounds(TiltedParams(2, 1.0, 0.5, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.floats(1.0, 6.0), st.floats(0.0, 3.0),
       st.floats(0.05, 4.0))
# modes of about 1e-15 and 1e-16: the first is far below the bracket
# width an absolute stop accepts, the second below the rounded lower
# bound of mode_bounds
@example(q=1, a=1.0000000000000002, b_extra=0.0, c=1.0)
@example(q=1, a=1.0000000000000002, b_extra=0.5412782301114079,
         c=3.8558216968412675)
def test_mode_always_inside_bracket(q, a, b_extra, c):
    p = TiltedParams(q, a, 0.5 * q + b_extra, c)
    lo, hi = mode_bounds(p)
    m = find_mode(p)
    if a > 1.0:
        # (a-1)/x makes the density rise from 0+, so the mode is interior
        assert m > 0.0
    if m == 0.0:
        # boundary mode: density must be decreasing from the start
        assert dlog_density(p, min(hi, 1.0) * 1e-9) <= 0.0
    else:
        assert lo <= m <= hi
        assert abs(dlog_density(p, m)) < 1e-5 * max(1.0, abs(p.c))


def _mode_by_bisection(p):
    # the mode from the slope alone, by bisection in log x; kept apart
    # from find_mode and mode_bounds so that both can be held to it
    lo, hi = 1e-200, 1e200
    if dlog_density(p, lo) <= 0.0:
        return 0.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if dlog_density(p, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def test_find_mode_does_not_trust_the_mode_bracket(monkeypatch):
    # a bracket whose upper end, 0, lies below the mode: a bisection
    # inside it could not reach the mode
    p = TiltedParams(2, 3.0, 1.0 + 2e-12, 1e4)
    monkeypatch.setattr(tilted, "mode_bounds", lambda p: (2e-4, 0.0))
    assert find_mode(p) == pytest.approx(_mode_by_bisection(p), rel=1e-9)
    assert find_mode(p) == pytest.approx(2.0003e-4, rel=1e-4)


def test_property_suite_flags_an_upper_bound_below_the_mode(monkeypatch):
    real = tilted.mode_bounds

    def short_bounds(p):
        lo, _ = real(p)
        return lo, lo + 0.5 * (_mode_by_bisection(p) - lo)

    monkeypatch.setattr(tilted, "mode_bounds", short_bounds)
    monkeypatch.setattr(oracle, "mode_bounds", short_bounds)
    result = _tilted_property_check(5, RngStream(0, 43))
    assert not result.passed
    assert "mode outside bounds" in result.detail


def test_boundary_mode_member_still_samples():
    # a = 1 with c big enough that the density decreases from 0+
    p = TiltedParams(2, 1.0, 1.0, 3.0)
    assert find_mode(p) == 0.0
    rng = RngStream(201, 0)
    draws = [sample_tilted(p, rng) for _ in range(20000)]
    xs, c = cdf_table(lambda x: log_density(p, x), 1e-9, 8.0)
    assert ks_statistic(draws, xs, c) < ks_threshold(len(draws))


def _ks_tilted(p, seed, lo, hi, n=20000):
    rng = RngStream(202, seed)
    draws = [sample_tilted(p, rng) for _ in range(n)]
    xs, c = cdf_table(lambda x: log_density(p, x), lo, hi)
    return ks_statistic(draws, xs, c), ks_threshold(n)


def test_sample_tilted_interior_mode():
    # 2b = q cancels the Gaussian decay exactly: the tail is gamma-like
    # (x^(q+a-1) e^(-cx)), so the oracle grid must run far out
    ks, thr = _ks_tilted(TiltedParams(4, 2.0, 2.0, 1.0), 0, 1e-9, 45.0)
    assert ks < thr


def test_sample_tilted_high_order_tilt():
    # parameters shaped like a data-augmented rate conditional
    ks, thr = _ks_tilted(TiltedParams(8, 9.0, 30.0, 0.2), 1, 1e-9, 4.0)
    assert ks < thr


def test_sample_tilted_dispatches_q0():
    # power-exponential member: matching named sampler paths
    ks, thr = _ks_tilted(TiltedParams(0, 2.0, 1.0, 0.5), 2, 1e-9, 8.0)
    assert ks < thr
    ks, thr = _ks_tilted(TiltedParams(0, 2.0, 0.0, 3.0), 3, 1e-9, 15.0)
    assert ks < thr
    # b = 0 goes through gig's chi = 0 limit: the gamma draw itself
    for i in range(20):
        got = sample_tilted(TiltedParams(0, 2.0, 0.0, 3.0), RngStream(203, i))
        assert got == sample_gamma(2.0, 3.0, RngStream(203, i))
    # a shape below 2 and a small rate: the modified half-normal draw
    ks, thr = _ks_tilted(TiltedParams(0, 1.5, 0.5, 0.3), 5, 1e-9, 12.0)
    assert ks < thr


def test_sample_tilted_rejects_uncertified():
    # a < 1 is sampled only where the a = 1 twin is log-concave
    with pytest.raises(ValueError):
        sample_tilted(TiltedParams(2, 0.5, 0.9, 1.0), RngStream(1))
    with pytest.raises(ValueError):
        sample_tilted(TiltedParams(0, 0.5, 2.0, 1.0), RngStream(1))
    with pytest.raises(ValueError):
        sample_tilted(TiltedParams(1, 1.0, 0.5, 0.0), RngStream(1))   # c = 0


def test_params_validate():
    with pytest.raises(ValueError):
        TiltedParams(-1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        TiltedParams(2, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        TiltedParams(2, 1.0, -0.5, 1.0)
    # non-finite input fails when the member is built, naming the field:
    # an infinity used to leave sample_tilted's hull no usable knot
    good = {"a": 2.0, "b": 3.0, "c": 1.0}
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TiltedParams(2, **dict(good, **{name: bad}))


def _mp_hazard_excess_product(x):
    # x D(x), D = h(x) - x the excess of the normal hazard over x
    x = mp.mpf(x)
    return x * (mp.npdf(x) / mp.ncdf(-x) - x)


@mp.workdps(40)
def test_small_shape_split_rests_on_a_concave_hazard_excess():
    # _sample_small_shape's log-scale density is concave above the root
    # of F = (x D)' = (c + 4 e x)/q only if x D is concave, so that F
    # falls from F(0) = sqrt(2/pi); the root's search starts from
    # (4 q/c)^(1/3), which needs F < 4/x^3
    for x in np.geomspace(1e-3, 300.0, 25):
        F = mp.diff(_mp_hazard_excess_product, mp.mpf(x))
        assert mp.diff(_mp_hazard_excess_product, mp.mpf(x), 2) < 0, x
        assert F * mp.mpf(x) ** 3 < 4, x
        assert 0 < F < math.sqrt(2.0 / math.pi), x
        # and the sampler's own F, from its psi''/x at c = e = 0, q = 1
        got = tilted._log_factor(TiltedParams(1, 0.5, 0.5, 0.0), float(x))
        assert got[2] == pytest.approx(float(F), rel=1e-6, abs=1e-12), x


@pytest.mark.parametrize("q, a, c", [
    (40, 0.05, 0.01), (1, 0.05, 0.1), (8, 0.999, 1.0),   # split s > 0
    (8, 0.3, 30.0),                                       # s = 0
])
def test_small_shape_hull_bounds_psi_with_exact_masses(monkeypatch, q, a, c):
    p = TiltedParams(q, a, 0.5 * q, c)
    hulls = []
    real = tilted.sample_from_envelope

    def capture(target, env, rng):
        hulls.append(env)
        return real(target, env, rng)

    monkeypatch.setattr(tilted, "sample_from_envelope", capture)
    sample_tilted(p, RngStream(205, q))
    (env,) = hulls
    assert env.bounds[0] == -math.inf
    if q * math.sqrt(2.0 / math.pi) > c:
        # the power law e^(a y + top) below log s opens the hull
        assert env.slopes[0] == a
    for i, log_mass in enumerate(env.log_masses):
        assert log_mass == pytest.approx(_segment_log_mass(
            env.bounds[i], env.bounds[i + 1], env.slopes[i],
            env.intercepts[i]), rel=1e-12, abs=1e-12), i
    # psi(y) = y + log f(e^y) with the constant of q log h, h the hazard;
    # env.bounds[1] is log s when s > 0
    for y in np.linspace(env.bounds[1] - 40.0, env.bounds[-2] + 4.0, 8001):
        psi = (y + log_density(p, math.exp(y))
               - 0.5 * q * math.log(2.0 * math.pi))
        assert hull_log_value(env, y) >= psi - 1e-9 * (1.0 + abs(psi)), y


def _ks_small_shape(p, seed, lo, hi, n=10000):
    # on y = log x, where the density x f(x) is bounded; the KS distance
    # is the same on either scale.  The table resolves a bulk as narrow
    # as 0.16 (the first case below) on a span of 900
    rng = RngStream(204, seed)
    draws = [math.log(sample_tilted(p, rng)) for _ in range(n)]
    xs, c = cdf_table(lambda y: y + log_density(p, math.exp(y)), lo, hi,
                      n=200001)
    return ks_statistic(draws, xs, c), ks_threshold(n)


@pytest.mark.parametrize("seed, p, lo, hi", [
    # a tiny shape with a small tilt and rate: the bulk lies near
    # x = 4000, far above the split
    (0, TiltedParams(40, 0.05, 20.0, 0.01), -900.0, 10.0),
    # with one normal-CDF factor and quadratic slack, the spike at 0 and
    # the bulk share the mass, so both pieces of the envelope draw
    (1, TiltedParams(1, 0.05, 1.2, 0.1), -900.0, 6.0),
    # psi concave on the whole line, the mode of f at 0
    (2, TiltedParams(8, 0.3, 4.0, 30.0), -160.0, 1.0),
    # the shape just below 1, with quadratic slack
    (3, TiltedParams(8, 0.999, 4.5, 1.0), -60.0, 3.0),
], ids=["a0.05-q40-c0.01", "a0.05-q1-slack", "a0.3-c30", "a0.999"])
def test_sample_tilted_small_shape(seed, p, lo, hi):
    ks, thr = _ks_small_shape(p, seed, lo, hi)
    assert ks < thr
