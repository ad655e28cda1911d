"""Density values, concavity certificates, mode bounds, exact sampling."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayenet import oracle, tilted
from bayenet.envelope import MAX_KNOTS
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
    tangent_hull,
)

from helpers import (cdf_table, hull_log_value, ks_statistic, ks_threshold,
                     reference_weights)


def _mp_log_density(p, x):
    x = mp.mpf(x)
    v = ((p.a - 1) * mp.log(x) - p.q * x ** 2 / 2 - p.c * x
         - p.q * mp.log(mp.ncdf(-x)))
    return v


@mp.workdps(40)
def test_log_density_matches_mpmath():
    cases = [TiltedParams(2, 1.0, 0.5), TiltedParams(8, 9.0, 0.2),
             TiltedParams(1, 2.0, -0.5), TiltedParams(3, 4.0, 2.0)]
    for p in cases:
        for x in [0.05, 0.5, 1.7, 6.0, 20.0]:
            want = float(_mp_log_density(p, x))
            assert log_density(p, x) == pytest.approx(want, rel=1e-10, abs=1e-8)
    assert log_density(cases[0], 0.0) == -math.inf
    assert log_density(cases[0], -1.0) == -math.inf


@mp.workdps(40)
def test_derivatives_match_mpmath():
    p = TiltedParams(3, 2.0, 1.0)
    for x in [0.2, 0.9, 3.0, 12.0]:
        d1 = float(mp.diff(lambda t: _mp_log_density(p, t), mp.mpf(x)))
        d2 = float(mp.diff(lambda t: _mp_log_density(p, t), mp.mpf(x), 2))
        assert dlog_density(p, x) == pytest.approx(d1, rel=1e-8, abs=1e-8)
        assert d2log_density(p, x) == pytest.approx(d2, rel=1e-7, abs=1e-7)
    p0 = TiltedParams(1, 1.5, 0.3)
    for x in [0.1, 1.0, 4.0]:
        d1 = float(mp.diff(lambda t: _mp_log_density(p0, t), mp.mpf(x)))
        assert dlog_density(p0, x) == pytest.approx(d1, rel=1e-8)


# members with the exponent q x^2/2 of every theta conditional of the
# sweeps; the test names keep b = q/2, that exponent's coefficient when
# the family had one
FAR_OUT_MEMBERS = [
    TiltedParams(8, 1.0, 0.0), TiltedParams(8, 1.0, 1e-8),
    TiltedParams(40, 1.0, 1e-3), TiltedParams(4, 2.0, 1.0)]


@mp.workdps(100)
@pytest.mark.parametrize("p", FAR_OUT_MEMBERS)
def test_density_and_slope_match_mpmath_far_out_at_b_half_q(p):
    # -q x^2/2 - q log Phi(-x) and -q x + q h(x) cancel to
    # q log h + q log sqrt(2 pi) and q D = q (h - x), about q/x, far
    # past the tail cut, where the sweeps' kept hull proposes at small c
    for x in np.geomspace(np.nextafter(5.0, 6.0), 1e15, 41).tolist():
        want = _mp_log_density(p, x)
        assert log_density(p, x) == pytest.approx(float(want), rel=1e-12), x
        xm = mp.mpf(x)
        slope = ((p.a - 1) / xm - p.q * xm - p.c
                 + p.q * mp.npdf(xm) / mp.ncdf(-xm))
        assert dlog_density(p, x) == pytest.approx(float(slope),
                                                   rel=1e-12), x


@mp.workdps(100)
@pytest.mark.parametrize("p", FAR_OUT_MEMBERS)
def test_curvature_matches_mpmath_far_out_at_b_half_q(p):
    # -q + q h (h - x) cancels to about -q/x^2, which the difference of
    # the two read positive by x = 1e6
    for x in np.geomspace(np.nextafter(5.0, 6.0), 1e15, 41).tolist():
        xm = mp.mpf(x)
        h = mp.npdf(xm) / mp.ncdf(-xm)
        want = -(p.a - 1) / (xm * xm) - p.q + p.q * h * (h - xm)
        assert d2log_density(p, x) == pytest.approx(float(want),
                                                    rel=1e-12), x


def test_concavity_certificate_truth_table():
    assert is_logconcave(TiltedParams(2, 1.0, 0.5))
    assert not is_logconcave(TiltedParams(2, 0.5, 1.0))    # a < 1
    assert not is_logconcave(TiltedParams(2, 1.0, 0.0))    # c = 0
    assert not is_logconcave(TiltedParams(2, 3.0, -1.0))   # not integrable


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(1.0, 8.0), st.floats(0.01, 5.0))
def test_certified_members_are_concave_on_grid(q, a, c):
    p = TiltedParams(q, a, c)
    assert is_logconcave(p)
    for x in np.geomspace(1e-3, 50.0, 80):
        assert d2log_density(p, x) <= 1e-9


def test_mode_bounds_quadratic_slack_zero():
    # the bracket is ((a-1)/c, (a-1+q)/c)
    p = TiltedParams(3, 2.0, 2.0)
    lo, hi = mode_bounds(p)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(2.0)
    m = find_mode(p)
    assert lo < m < hi
    assert dlog_density(p, m) == pytest.approx(0.0, abs=1e-6)


def test_mode_bounds_upper_end_without_cancellation():
    # a large rate: the upper end (a-1+q)/c = 4e-4 is a single quotient,
    # exact to rounding, and the bracket (2e-4, 4e-4) holds the mode,
    # about 2.0003e-4
    p = TiltedParams(2, 3.0, 1e4)
    lo, hi = mode_bounds(p)
    assert lo <= find_mode(p) <= hi
    assert hi == pytest.approx(4e-4, rel=1e-12)


def test_mode_bounds_rejects_uncertified():
    with pytest.raises(ValueError):
        mode_bounds(TiltedParams(2, 0.5, 1.0))
    with pytest.raises(ValueError):
        mode_bounds(TiltedParams(2, 1.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.floats(1.0, 6.0), st.floats(0.05, 4.0))
# modes of about 1e-15 and 1e-16, far below the bracket width an
# absolute stop accepts
@example(q=1, a=1.0000000000000002, c=1.0)
@example(q=1, a=1.0000000000000002, c=3.8558216968412675)
def test_mode_always_inside_bracket(q, a, c):
    p = TiltedParams(q, a, c)
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
    p = TiltedParams(2, 3.0, 1e4)
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
    p = TiltedParams(2, 1.0, 3.0)
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
    # q x^2/2 cancels the Gaussian decay exactly: the tail is gamma-like
    # (x^(q+a-1) e^(-cx)), so the oracle grid must run far out
    ks, thr = _ks_tilted(TiltedParams(4, 2.0, 1.0), 0, 1e-9, 45.0)
    assert ks < thr


def test_sample_tilted_high_order_tilt():
    # a high tilt and a small rate: the bulk is near (q + a - 1)/c = 80
    ks, thr = _ks_tilted(TiltedParams(8, 9.0, 0.2), 1, 1e-9, 400.0)
    assert ks < thr


def test_sample_tilted_rejects_uncertified():
    # a < 1 is sampled only where the a = 1 twin is log-concave
    with pytest.raises(ValueError):
        sample_tilted(TiltedParams(2, 0.5, 0.0), RngStream(1))
    with pytest.raises(ValueError):
        sample_tilted(TiltedParams(1, 1.0, 0.0), RngStream(1))   # c = 0


def test_params_validate():
    # q = 0, the gamma and modified half-normal members, is refused by
    # name: every theta draw has q = p >= 1
    for q in (0, -1):
        with pytest.raises(ValueError,
                           match=f"q must be a positive integer, got {q}"):
            TiltedParams(q, 1.0, 1.0)
    with pytest.raises(ValueError):
        TiltedParams(2, 0.0, 1.0)
    # non-finite input fails when the member is built, naming the field:
    # an infinity used to leave sample_tilted's hull no usable knot
    good = {"a": 2.0, "c": 1.0}
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
    # of F = (x D)' = c/q only if x D is concave, so that F
    # falls from F(0) = sqrt(2/pi); the root's search starts from
    # (4 q/c)^(1/3), which needs F < 4/x^3
    for x in np.geomspace(1e-3, 300.0, 25):
        F = mp.diff(_mp_hazard_excess_product, mp.mpf(x))
        assert mp.diff(_mp_hazard_excess_product, mp.mpf(x), 2) < 0, x
        assert F * mp.mpf(x) ** 3 < 4, x
        assert 0 < F < math.sqrt(2.0 / math.pi), x
        # and the sampler's own F, from its psi''/x at c = 0, q = 1
        got = tilted._log_factor(TiltedParams(1, 0.5, 0.0), float(x))
        assert got[2] == pytest.approx(float(F), rel=1e-6, abs=1e-12), x


@mp.workdps(150)
@pytest.mark.parametrize("c", [2.3e-22, 1.0])
def test_small_shape_bend_is_accurate_far_out(c):
    # l' + x l'' = q F - c with F = (x D)' about 4/x^3, to 1e-13 of its
    # terms on (5, 1e15]: the split's root search reads its sign where
    # q F and c nearly cancel (x near 5e7 at c = 2.3e-22), and the
    # mode's Newton steps divide by it.  150 digits, as in test_special
    p = TiltedParams(8, 0.02, c)
    for x in np.geomspace(np.nextafter(5.0, 6.0), 1e15, 41).tolist():
        xm = mp.mpf(x)
        h = mp.npdf(xm) / mp.ncdf(-xm)
        d = h - xm
        rise = d + xm * (h * d - 1)
        want = 8 * rise - c
        got = tilted._log_factor(p, x)[2]
        scale = 8 * rise + c
        assert abs(got - want) <= 1e-13 * scale, x


# members (p, L, c) of L = R = 0.02 chains on a design with n = 20
# and p = 8, whose rates fell to 1e-22: the mode search overflowed
# (the first two) or the hull's right tail turned up (the third) while
# the bend lost every digit past x = 1e6
@pytest.mark.parametrize("c", [5.607396714734979e-12, 2.296964702699318e-22,
                               8.571555425126005e-22])
@mp.workdps(20)
def test_small_shape_draws_at_tiny_rates(c):
    # past x = 1e11, Phi(-x)^-q exp(-q x^2/2) is (2 pi)^(q/2) (x + D)^q
    # with D about 1/x, so the member is gamma(q + a, rate c) to 1e-21
    p = TiltedParams(8, 0.02, c)
    rng = RngStream(206, int(-math.log10(c)))
    n = 400
    draws = np.array([sample_tilted(p, rng) for _ in range(n)])
    assert np.isfinite(draws).all() and draws.min() > 0.0
    u = np.sort([float(mp.gammainc(8.02, 0, c * x, regularized=True))
                 for x in draws])
    i = np.arange(1, n + 1)
    assert max((i / n - u).max(), (u - (i - 1) / n).max()) < ks_threshold(n)


@mp.workdps(50)
def test_small_shape_power_law_rests_on_a_convex_hazard():
    # _sample_small_shape bounds g on (0, s] by g(s): its proof needs the
    # normal hazard h to have 0 < h' < 1 with h' = h (h - x) rising
    def slope(x):
        h = mp.npdf(x) / mp.ncdf(-x)
        return h * (h - x)

    xs = [mp.mpf(0)] + [mp.mpf(x) for x in np.geomspace(1e-3, 1000.0, 120)]
    slopes = [slope(x) for x in xs]
    assert all(0 < v < 1 for v in slopes)
    assert all(u < v for u, v in zip(slopes, slopes[1:]))


@pytest.mark.parametrize("q, a, c", [
    (40, 0.05, 0.01), (1, 0.05, 0.1), (8, 0.999, 1.0),   # split s > 0
    (8, 0.3, 30.0),                                       # s = 0
])
def test_small_shape_hull_bounds_psi_with_exact_masses(monkeypatch, q, a, c):
    p = TiltedParams(q, a, c)
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
        # the power law e^(a y) g(s) below log s opens the hull
        assert env.slopes[0] == a
    np.testing.assert_allclose(env._cum, reference_weights(env),
                               rtol=1e-9, atol=1e-15)
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
    (0, TiltedParams(40, 0.05, 0.01), -900.0, 10.0),
    # with one normal-CDF factor, the spike at 0 and the bulk share the
    # mass, so both pieces of the envelope draw
    (1, TiltedParams(1, 0.05, 0.1), -900.0, 6.0),
    # psi concave on the whole line, the mode of f at 0
    (2, TiltedParams(8, 0.3, 30.0), -160.0, 1.0),
    # the shape just below 1: the bulk is near q + a - 1 = 8
    (3, TiltedParams(8, 0.999, 1.0), -60.0, 4.0),
], ids=["a0.05-q40-c0.01", "a0.05-q1", "a0.3-c30", "a0.999"])
def test_sample_tilted_small_shape(seed, p, lo, hi):
    ks, thr = _ks_small_shape(p, seed, lo, hi)
    assert ks < thr


@pytest.mark.parametrize("q, a", [(8, 1.0), (40, 6.0)])
def test_kept_hull_dominates_the_density_over_a_sweep_of_rates(q, a):
    # the knots draws add, replace at the cap and step out as c moves
    # must leave a hull above log f at the rate each draw was at
    hull = tangent_hull(q, a)
    rng = RngStream(211, q)
    gen = rng.gen
    replaced = False
    for _ in range(300):
        p = TiltedParams(q, a, math.exp(gen.uniform(math.log(0.05),
                                                    math.log(300.0))))
        knots, right = list(hull.knots), hull.knots[-1:]
        sample_tilted(p, rng, hull)
        replaced |= len(knots) == MAX_KNOTS and hull.knots != knots
        assert len(hull.knots) <= MAX_KNOTS
        # the rightmost knot is never dropped
        assert hull.knots[-1] >= max(right, default=0.0)
        for x in np.exp(gen.uniform(math.log(1e-4), math.log(1e3), 20)):
            tol = 1e-10 * (1.0 + 0.5 * q * x * x + p.c * x)
            assert hull_log_value(hull, x) >= log_density(p, x) - tol
    assert replaced


# explicit R < 1 priors let lambda2 fall near 0 and theta's rate c with
# it: the kept hull's seed tangent is then nearly flat and proposes far
# past the tail cut, where q x^2/2 and q log Phi(-x) must not be formed
# apart, and its slopes are of order c, far below any absolute tie floor
@pytest.mark.parametrize("c", [1e-3, 1e-8, 1e-30])
@pytest.mark.parametrize("q", [8, 40])
def test_kept_hull_draws_at_small_rates(q, c):
    # Phi(-x)^-q exp(-q x^2/2) is (2 pi)^(q/2) h(x)^q, and
    # h(x)^q = x^q (1 + D/x)^q with 0 < D < 1/x, so c x is gamma(1 + q)
    # to a relative q/x^2, below 1e-5 over the bulk
    p = TiltedParams(q, 1.0, c)
    hull = tangent_hull(p.q, p.a)
    rng = RngStream(212, q)
    draws = [c * sample_tilted(p, rng, hull) for _ in range(5000)]
    table = oracle.auto_cdf(lambda y: q * np.log(y) - y, (1e-8, 1e3))
    d, ok = oracle.ks_test(draws, table)
    assert ok, d


def test_sample_tilted_refuses_another_familys_hull():
    with pytest.raises(ValueError, match="hull is for"):
        sample_tilted(TiltedParams(8, 1.0, 1.0), RngStream(1),
                      tangent_hull(8, 2.0))


@pytest.mark.parametrize("q, a", [(8, 1.0), (40, 6.0)])
def test_rate_alone_through_a_kept_hull_is_the_full_draw(q, a):
    # a chain checks theta's family once and then passes the rate alone:
    # the draws, the hull and the stream stay those of the full path
    fast, full = tangent_hull(q, a), tangent_hull(q, a)
    rng_fast, rng_full = RngStream(213, q), RngStream(213, q)
    rates = np.exp(np.random.default_rng(q).uniform(-3.0, 5.0, 200))
    for c in rates.tolist():
        assert (sample_tilted(c, rng_fast, fast)
                == sample_tilted(TiltedParams(q, a, c), rng_full, full))
        assert fast.knots == full.knots
    assert (rng_fast.gen.bit_generator.state
            == rng_full.gen.bit_generator.state)
    assert rng_fast.uniforms == rng_full.uniforms


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_rate_alone_is_refused_with_the_full_paths_message(c):
    def message(draw):
        with pytest.raises(ValueError) as caught:
            draw()
        return str(caught.value)

    hull = tangent_hull(8, 1.0)
    want = message(lambda: sample_tilted(TiltedParams(8, 1.0, c),
                                         RngStream(1), hull))
    assert message(lambda: sample_tilted(c, RngStream(1), hull)) == want
    assert hull.knots == []


def test_rate_alone_without_a_hull_is_refused():
    rng = RngStream(1)
    with pytest.raises(ValueError, match="needs its family's hull"):
        sample_tilted(1.0, rng)
    assert rng.uniforms == []


def test_tangent_hull_checks_the_family_once():
    assert tangent_hull(8, 2.5).key == (8, 2.5)
    # the a < 1 members are not log-concave: they keep no hull
    assert tangent_hull(8, 0.5) is None
    with pytest.raises(ValueError, match="a must be positive"):
        tangent_hull(8, 0.0)
    with pytest.raises(ValueError, match="a must be finite"):
        tangent_hull(8, math.nan)
    with pytest.raises(ValueError, match="q must be a positive integer"):
        tangent_hull(0, 1.0)
