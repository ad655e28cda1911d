"""KS and moment checks for the base samplers against quadrature CDFs."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from bayenet import distributions, kernels, oracle
from bayenet.distributions import (
    GigHull,
    _hazard_term,
    _hgamma_envelope,
    _mhn_mode,
    _mhn_rectangle,
    sample_gig,
    sample_hazard_gamma,
    sample_inverse_gaussian,
    sample_mhn,
    sample_truncated_normal,
)
from bayenet.envelope import EnvelopeError
from bayenet.rng import RngStream
from bayenet.special import mills_ratio

from helpers import (cdf_table, hull_log_value, ks_statistic, ks_threshold,
                     reference_weights)

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


@pytest.mark.parametrize("a", [1e3, 1e6, 1e9])
def test_truncated_normal_far_tail_excess(a):
    # N(-a, 1) above 0 and N(a, 1) below it: |X| is the excess of Z over
    # a given Z > a, P(|X| > t) = Phi(-(a + t))/Phi(-a).  With
    # log_std_normal_cdf's far-tail form, log Phi(-x) = -x^2/2 -
    # log(sqrt(2 pi) h(x)) with h the hazard, that is
    # exp(-t (a + t/2)) h(a)/h(a + t), where the rounding of a + t
    # reaches only the slowly varying h: at a = 1e9, a + t is a itself
    rng = RngStream(101, 3)
    n = 4000

    def survival(t):
        return math.exp(-t * (a + 0.5 * t)) * mills_ratio(a) / mills_ratio(
            a + t)

    for mean, side in ((-a, "nonnegative"), (a, "negative")):
        draws = [abs(sample_truncated_normal(mean, 1.0, side, rng))
                 for _ in range(n)]
        assert min(draws) > 0.0, side
        u = np.sort([1.0 - survival(x) for x in draws])
        i = np.arange(1, n + 1)
        d = max((i / n - u).max(), (u - (i - 1) / n).max())
        assert d < ks_threshold(n), (side, d)


def test_truncated_normal_gives_up_on_a_negative_side_it_cannot_reach(
        monkeypatch):
    # sd 1e-160 at a truncation point 1e260 sds out: every excess
    # underflows to 0, which the negative side (x < 0) must redraw
    monkeypatch.setattr(distributions, "_TN_MAX_REDRAWS", 50)
    assert sample_truncated_normal(-1e100, 1e-320, "nonnegative",
                                   RngStream(1)) == 0.0
    with pytest.raises(RuntimeError, match="drew 0 in 50 draws"):
        sample_truncated_normal(1e100, 1e-320, "negative", RngStream(1))


def test_truncated_normal_validates():
    with pytest.raises(ValueError):
        sample_truncated_normal(0.0, 0.0, "nonnegative", RngStream(1))
    with pytest.raises(ValueError):
        sample_truncated_normal(0.0, 1.0, "positive", RngStream(1))
    # a nan mean used to loop forever in the tail sampler, and an
    # infinite var came back as an infinite draw
    for bad in (math.nan, math.inf, -math.inf):
        for side in ("nonnegative", "negative"):
            with pytest.raises(ValueError, match="mean must be finite"):
                sample_truncated_normal(bad, 1.0, side, RngStream(1))
            with pytest.raises(ValueError, match="var must be finite"):
                sample_truncated_normal(0.5, bad, side, RngStream(1))


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


def test_inverse_gaussian_validates_finite():
    # an infinite mean used to come back as nan, with a RuntimeWarning
    rng = RngStream(102, 4)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="mean must be finite"):
            sample_inverse_gaussian(bad, 1.0, rng)
        with pytest.raises(ValueError, match="mean must be finite"):
            sample_inverse_gaussian(np.array([1.0, bad]), 1.0, rng)
        with pytest.raises(ValueError, match="shape must be finite"):
            sample_inverse_gaussian(1.0, bad, rng)


def test_inverse_gaussian_vectorized_elementwise():
    # each element of one vectorized call follows the law of its own mean
    rng = RngStream(102, 4)
    means = np.array([1e-2, 0.3, 4.0, 1e2])
    lam = 1.5
    draws = np.array([sample_inverse_gaussian(means, lam, rng)
                      for _ in range(N // 2)])
    assert draws.shape == (N // 2, means.size)
    for k, mu in enumerate(means):
        # KS on the log scale, where the long right tail of a large mean
        # needs no fine grid; the upper end leaves a tail mass below 1e-9
        hi = mu + 10.0 * mu ** 1.5 / math.sqrt(lam) + 45.0 * mu * mu / lam
        logpdf = _ig_logpdf(mu, lam)
        assert _ks_ok(np.log(draws[:, k]), lambda t: logpdf(math.exp(t)) + t,
                      math.log(1e-9 * mu), math.log(hi)), mu


def test_inverse_gaussian_draws_are_pinned():
    # a single draw consumes one normal, then one uniform; these values
    # were recorded with the scalar sampler that predates vectorization
    rng = RngStream(102, 3)
    got = [sample_inverse_gaussian(mu, 1.5, rng)
           for mu in (0.01, 1.0, 100.0, 2.0, 0.3)]
    assert got == [0.009520788911885309, 0.34757487567694856,
                   3.65018870360766, 7.226256086292833, 0.2281510085441679]
    assert all(type(v) is float for v in got)
    # a vector of means: all normals first, then all uniforms, element k
    # taking the k-th of each (the scalar formula on those gives these)
    got = sample_inverse_gaussian(np.array([0.5, 20.0, 3.0, 0.05]), 2.0,
                                  RngStream(102, 5))
    want = [0.4229218539809062, 2.3048722578618994, 4.60507413903954,
            0.03238107211910849]
    np.testing.assert_array_equal(got, want)


def test_inverse_gaussian_draws_the_levy_limit_at_huge_means():
    # past w = mean y^2/(2 shape) of about 1e154 the product w (w + 2)
    # overflowed, with a RuntimeWarning, and the draws came back 0; past
    # mean/shape of about 1e307 w itself did, and at mean 1e150, shape
    # 1e-150 the unused other root warned.  The last two shapes are
    # subnormal.  To rounding the law there is the Levy limit, CDF
    # erfc(sqrt(shape/(2x)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mean, shape in ((1e160, 1.0), (1e200, 1.0), (1e250, 1.0),
                            (1e300, 1.0), (1e300, 1e-10), (1e305, 1e-5),
                            (1e300, 1e-7), (1e150, 1e-150), (1e10, 1e-300),
                            (1.0, 1e-310), (1e-10, 1e-310)):
            got = sample_inverse_gaussian(np.full(4, mean), shape,
                                          RngStream(1, 2))
            assert np.all((got > 0.0) & (got < math.inf)), (mean, shape)
            assert 0.0 < sample_inverse_gaussian(mean, shape,
                                                 RngStream(1, 2)) < math.inf
        assert np.geterr()["over"] == "warn"
        for mean, shape, stream in ((1e200, 2.5, 6), (1e300, 1e-10, 9)):
            draws = np.sort(sample_inverse_gaussian(
                np.full(N, mean), shape, RngStream(102, stream)))
            cdf = np.array([math.erfc(math.sqrt(shape / (2.0 * x)))
                            for x in draws.tolist()])
            i = np.arange(1, N + 1)
            d = max((i / N - cdf).max(), (cdf - (i - 1) / N).max())
            assert d < oracle.ks_threshold(N), (mean, shape)


@pytest.mark.parametrize("scale, means, shape", [
    (2.0 ** 600, [7.679754087604107e158, 1e155, 3e158, 5e157],
     1.2131161818920183e158),
    (2.0 ** -600, [1e-300, 3e-170, 1e-151, 1e-160], 1e-290),
], ids=["huge", "tiny"])
def test_inverse_gaussian_other_root_scales_exactly(scale, means, shape):
    # the other root mean^2/x overflowed past mean = 1.3e154, to inf: a
    # common-form latent draw at mean 7.7e158, shape 1.2e158 came back
    # inf in 4 of 8 coordinates, and the next sweep's u1 draw raised.
    # Below 1e-154 mean^2 underflowed, and the other root came back 0.
    # Scaling mean and shape by a power of 2 is exact, so the draws must
    # be the scaled call's, scaled back, bit for bit, and the ordinary
    # means of a mixed call must keep their bits
    means = np.tile(means, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_inverse_gaussian(means, shape, RngStream(102, 7))
    want = scale * sample_inverse_gaussian(means / scale, shape / scale,
                                           RngStream(102, 7))
    assert np.all((got > 0.0) & (got < math.inf)) and (got > means).any()
    assert got.tobytes() == want.tobytes()
    mixed = sample_inverse_gaussian(
        np.array([0.5, means[0], 3.0, means[1]]), 2.0, RngStream(102, 8))
    tame = sample_inverse_gaussian(np.array([0.5, 1.0, 3.0, 1.0]), 2.0,
                                   RngStream(102, 8))
    assert mixed[[0, 2]].tobytes() == tame[[0, 2]].tobytes()


_FLOAT_CUT = kernels.LATENT_FLOAT_MAX


@pytest.mark.parametrize("size", [_FLOAT_CUT, _FLOAT_CUT + 1])
@pytest.mark.parametrize("means, shape", [
    ([0.5, 1e-200, 3e-170, 2.0, 1e-151], 1.0),
    ([7.679754087604107e158, 1e155, 3e158, 5e157, 1.0], 1.2131161818920183e158),
    ([1e200, 1e160, 2.0, 1e-200, 1e300], 1.0),
    ([1e300, 1e305, 1e150, 1e-10], 1e-10),
], ids=["tiny", "huge", "far", "levy"])
def test_inverse_gaussian_float_draws_are_the_array_draws(size, means,
                                                          shape):
    # a list of means is drawn in Python floats: the same gen calls and
    # the same bits as an array of them, at means 1e-200 and 1e200, in
    # both extreme branches (the other root scaled by 2^600 or 2^-600,
    # and the Levy limit where mean/shape passes 1e147), at the size
    # cut of update_tau2's float path and one past it, with no warning
    means = [means[k % len(means)] for k in range(size)]
    as_floats, as_array = RngStream(102, 11), RngStream(102, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(100):
            got = sample_inverse_gaussian(means, shape, as_floats)
            want = sample_inverse_gaussian(np.array(means), shape, as_array)
            assert type(got) is np.ndarray
            assert got.tobytes() == want.tobytes()
    assert (as_floats.gen.bit_generator.state
            == as_array.gen.bit_generator.state)


def test_inverse_gaussian_float_draws_refuse_by_name():
    # a nan mean is refused before any draw, as from an array: a float
    # min or max would step over it
    for means in ([1.0, math.nan], [math.nan, 1.0], [1.0, math.inf]):
        rng = RngStream(102, 12)
        before = rng.gen.bit_generator.state
        with pytest.raises(ValueError, match="mean must be finite"):
            sample_inverse_gaussian(means, 1.0, rng)
        assert rng.gen.bit_generator.state == before
    with pytest.raises(ValueError, match="shape must be finite"):
        sample_inverse_gaussian([1.0, 2.0], math.nan, RngStream(102, 12))
    with pytest.raises(ValueError, match="must be positive"):
        sample_inverse_gaussian([1.0, -2.0], 1.0, RngStream(102, 12))


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


def _gig_two_closures(lam, psi, chi, rng, mode=None):
    """sample_gig's fresh interior draw with log_f and dlog_f each
    computing omega e^s and omega e^-s for themselves, on
    s = log x - log(chi/psi)/2."""
    exp = distributions._exp
    lw = 0.5 * (math.log(psi) + math.log(chi))
    omega = math.sqrt(psi) * math.sqrt(chi)
    target = distributions.LogDensityTarget(
        lambda s: lam * s - 0.5 * (exp(lw + s) + exp(lw - s)),
        lambda s: lam - 0.5 * (exp(lw + s) - exp(lw - s)),
        support_lower=-math.inf,
        mode=math.asinh(lam / omega) if mode is None else mode,
        curvature=-math.hypot(lam, omega))
    env = distributions.build_envelope(target, K=3)
    s = distributions.sample_from_envelope(target, env, rng)
    return math.exp(s + 0.5 * (math.log(chi) - math.log(psi)))


def test_gig_shares_each_knots_exponentials_without_moving_a_draw():
    # log_f and dlog_f share the pair (omega e^s, omega e^-s) of the
    # last s; the draws must be those of two closures that compute it
    # apart, modes near both ends of the double range included
    cases = [(2.5, 3.0, 1.7), (-0.5, 2.0, 4.0), (0.7, 2.0, 3.0),
             (-3.5, 5.0, 0.4), (40.0, 1e-3, 1e-3), (-0.01, 1e-250, 1e250),
             (1e3, 1e-300, 1e-300), (-1e3, 1e-300, 1e-300)]
    fast, ref = RngStream(103, 15), RngStream(103, 15)
    for _ in range(200):
        for case in cases:
            x = sample_gig(*case, fast)
            assert 0.0 < x < math.inf
            assert x == _gig_two_closures(*case, ref)
    # lam / omega overflows, and omega e^s at the mode is about 1 though
    # e^s is not finite: the mode is log(2 |lam| / omega)
    for lam, psi, chi in ((1.0, 1e-300, 1e-320), (-1.0, 1e-320, 1e-300)):
        mode = math.copysign(math.log(2.0) - 0.5 * (math.log(psi)
                                                    + math.log(chi)), lam)
        for _ in range(200):
            x = sample_gig(lam, psi, chi, fast)
            assert 0.0 < x < math.inf
            assert x == _gig_two_closures(lam, psi, chi, ref, mode)


@pytest.mark.parametrize("lam", [-42.0, -8.0, 2.5])
def test_gig_hull_is_kept_across_omega_and_dominates(monkeypatch, lam):
    # one hull drawn at omega from 1e-3 to 1e4 and back, in random order.
    # It keeps its knots while the mode stays in (knots[1], knots[-2])
    # and that span stays 2 to 8 widths, and rebuilds otherwise, each
    # rebuild one call of build_envelope; it lies above
    # lam s - omega cosh s on both sides of the mode, with each segment
    # weighed by its mass
    builds = [0]
    real = distributions.build_envelope

    def counted(target, K):
        builds[0] += 1
        return real(target, K)

    monkeypatch.setattr(distributions, "build_envelope", counted)
    rng = RngStream(103, 20)
    gen = rng.gen
    hull = GigHull(lam)
    omegas = np.exp(gen.uniform(math.log(1e-3), math.log(1e4), 300))
    kept = mode_rebuilds = width_rebuilds = 0
    for omega in np.concatenate([np.sort(omegas), omegas]):
        # psi = chi puts s at log x
        omega = float(omega)
        w = math.sqrt(omega) * math.sqrt(omega)
        mode = math.asinh(lam / w)
        width = 1.0 / math.sqrt(math.hypot(lam, w))
        before = hull.knots
        inside = len(before) > 2 and before[1] < mode < before[-2]
        fits = inside and 2.0 <= (before[-2] - before[1]) / width <= 8.0
        sample_gig(lam, omega, omega, rng, hull)
        assert (hull.knots is before) == fits
        kept += fits
        mode_rebuilds += not inside
        width_rebuilds += inside and not fits
        assert hull.knots[1] < mode < hull.knots[-2]
        for s in mode + 4.0 * width * gen.standard_normal(40):
            s = float(s)
            log_f = lam * s - w * math.cosh(s)
            assert hull_log_value(hull, s) >= log_f - 1e-9 * (1.0 + abs(log_f))
        np.testing.assert_allclose(hull._cum, reference_weights(hull),
                                   rtol=1e-9, atol=1e-15)
    assert kept > 100 and mode_rebuilds > 1 and width_rebuilds > 1
    assert builds[0] == mode_rebuilds + width_rebuilds


def test_gig_hull_for_another_order_is_refused():
    rng = RngStream(103, 21)
    hull = GigHull(-8.0)
    sample_gig(-8.0, 0.57, 159.0, rng, hull)
    with pytest.raises(ValueError, match="hull is for lam = -8.0, not 2.5"):
        sample_gig(2.5, 0.57, 159.0, rng, hull)


def test_gig_hull_keeps_no_knots_past_the_sinh_range():
    # the mode asinh(1e305) = 703.3 puts knots where s sinh s nears
    # overflow: the hull keeps none, and each draw builds its own, the
    # draws of a fresh hull
    hull = GigHull(1e5)
    kept, fresh = RngStream(103, 22), RngStream(103, 22)
    for _ in range(20):
        x = sample_gig(1e5, 1e-300, 1e-300, kept, hull)
        assert hull.knots == []
        assert x == sample_gig(1e5, 1e-300, 1e-300, fresh)


def test_gig_validates():
    rng = RngStream(103, 12)
    with pytest.raises(ValueError):
        sample_gig(1.0, -1.0, 1.0, rng)
    # chi = 0, the gamma limit, is refused by name at either sign of the
    # order: no sweep draws it
    for lam in (2.0, -1.0):
        with pytest.raises(ValueError, match="chi must be positive, got 0.0"):
            sample_gig(lam, 3.0, 0.0, rng)
    # psi = 0, the inverse-gamma limit, is refused by name at either
    # sign of the order
    for lam in (1.0, -1.0):
        with pytest.raises(ValueError, match="psi must be positive, got 0.0"):
            sample_gig(lam, 0.0, 1.0, rng)
    # non-finite input fails early, naming the argument: it used to fail
    # inside the hull, or come back as an infinite draw
    good = {"lam": 1.0, "psi": 2.0, "chi": 3.0}
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            args = dict(good, **{name: bad})
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                sample_gig(args["lam"], args["psi"], args["chi"], rng)
    with pytest.raises(ValueError, match="chi must be finite"):
        sample_gig(-1.0, 0.0, math.inf, rng)
    # a draw near 2e310 cannot be returned, and a hull whose mass is not
    # finite is refused before it proposes
    with pytest.raises(ValueError, match="out of floating-point range"):
        sample_gig(1.0, 1e-320, 1e-300, rng)
    with pytest.raises(EnvelopeError, match="hull mass is not finite"):
        sample_gig(1e-300, 5e-324, 5e-324, rng)


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


def test_mhn_validates():
    rng = RngStream(104, 20)
    # alpha <= 1 is refused by name: no sweep draws it
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match=f"alpha must exceed 1, got "
                                             f"{alpha}"):
            sample_mhn(alpha, 1.0, 0.0, rng)
    with pytest.raises(ValueError, match="beta must be positive, got 0.0"):
        sample_mhn(2.0, 0.0, 0.0, rng)
    # non-finite input fails early, naming the argument: a nan would
    # make every proposal fail the acceptance test
    good = {"alpha": 3.0, "beta": 2.0, "gamma": 1.0}
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            args = dict(good, **{name: bad})
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                sample_mhn(args["alpha"], args["beta"], args["gamma"], rng)
    # gamma^2 overflows, the mode rounds to 0, and every draw would be 0
    with pytest.raises(ValueError, match="out of floating-point range"):
        sample_mhn(3.0, 1.0, 1e200, rng)


# (alpha, beta, gamma) from 1 + 1e-6 to 1e4 in alpha, 1e-4 to 1e5 in
# beta, gamma of both signs: the cubic's roots range from nearly double
# (alpha -> 1, gamma >> 0) to 1e-5 on either side of the mode
RECTANGLE_CASES = [(alpha, beta, gamma)
                   for alpha in (1.0 + 1e-6, 1.5, 11.0, 140.0, 1e4)
                   for beta in (1e-4, 0.54, 294.0, 1e5)
                   for gamma in (-1e3, -2.0, -1e-3, 0.0, 1.4, 1e3)]


@pytest.mark.parametrize("alpha,beta,gamma", RECTANGLE_CASES)
def test_mhn_rectangle_brackets_mode_and_bounds_every_point(alpha, beta,
                                                            gamma):
    am1 = alpha - 1.0
    m = _mhn_mode(am1, beta, gamma)
    d_lo, v_lo, d_hi, v_hi = _mhn_rectangle(am1, 2.0 * beta * m * m)
    # t = x/mode = 1 + d: the roots lie on either side of the mode, t > 0
    assert -1.0 < d_lo < 0.0 < d_hi
    assert v_lo < 0.0 < v_hi
    # (t - 1) exp(h(t)/2) with h(t) = log f(m t) - log f(m) written from
    # the density's own coefficients, in d so nothing cancels to rounding
    d = np.concatenate([
        np.linspace(-1.0, 0.0, 4001)[1:-1],
        d_lo * np.linspace(0.5, 1.5, 4001),
        d_hi * np.linspace(0.0, 4.0, 8001)[1:],
        d_hi * np.geomspace(4.0, 1e6, 2001)])
    d = d[d > -1.0]
    h = (am1 * np.log1p(d)
         - d * (beta * m * m * (2.0 + d) + gamma * m))
    v = d * np.exp(0.5 * h)
    assert v.max() <= v_hi * (1.0 + 1e-9)
    assert v.min() >= v_lo * (1.0 + 1e-9)
    # the rectangle is the smallest one: the curve reaches both edges
    assert v.max() >= v_hi * (1.0 - 1e-4)
    assert v.min() <= v_lo * (1.0 - 1e-4)


@pytest.mark.parametrize("i,alpha,beta,gamma", [
    (0, 28.0, 294.0, 233.0), (1, 140.0, 33157.0, 1.4),
    (2, 11.0, 0.54, 0.0014), (3, 140.0, 33157.0, 0.0)])
def test_mhn_sweep_range_parameters(i, alpha, beta, gamma):
    # the parameter range the u2 and 1/sigma draws of the rs sweeps reach
    rng = RngStream(104, 30 + i)
    draws = [sample_mhn(alpha, beta, gamma, rng) for _ in range(N)]
    m = _mhn_mode(alpha - 1.0, beta, gamma)
    sd = 1.0 / math.sqrt((alpha - 1.0) / (m * m) + 2.0 * beta)
    lo, hi = max(m - 12.0 * sd, 1e-12 * m), m + 12.0 * sd
    assert lo < min(draws) and max(draws) < hi
    assert _ks_ok(draws, _mhn_logpdf(alpha, beta, gamma), lo, hi)


def test_mhn_above_one_builds_no_hull(monkeypatch):
    def no_hull(*args, **kwargs):
        raise AssertionError("build_envelope called")

    monkeypatch.setattr(distributions, "build_envelope", no_hull)
    rng = RngStream(104, 40)
    # at the float next to 1 the rectangle's lower root rounds to -1
    for alpha, beta, gamma in ((3.0, 2.0, 2.0), (140.0, 33157.0, 1.4),
                               (1.0 + 1e-6, 1.0, -2.0),
                               (math.nextafter(1.0, 2.0), 1.0, -2.0)):
        assert sample_mhn(alpha, beta, gamma, rng) > 0.0
    # gig is drawn from a hull, so the patch is live
    with pytest.raises(AssertionError, match="build_envelope called"):
        sample_gig(2.5, 3.0, 1.7, rng)


class _StuckStream:
    """Every proposal is (u, v) = (1e-9, ~v_hi), far outside the
    acceptance region."""

    def uniform(self):
        return 1.0 - 1e-9


def test_mhn_gives_up_after_the_proposal_cap(monkeypatch):
    monkeypatch.setattr(distributions, "_MHN_MAX_PROPOSALS", 50)
    with pytest.raises(RuntimeError, match=r"50 proposals \(alpha=3.0"):
        sample_mhn(3.0, 2.0, 2.0, _StuckStream())


def _hgamma_log_density(w, a, c, q, t):
    """hgamma's log density in w = log x."""
    z = t * math.exp(-0.5 * w)
    return a * w - c * math.exp(w) + q * (0.5 * w + math.log(mills_ratio(z)))


@pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
@mp.workdps(30)
def test_hazard_term_is_convex_in_log_x_and_concave_in_x(t):
    # L(w) = w/2 + log h(z), z = t e^(-w/2): its slope lies in (0, 1/2)
    # and rises with w (L convex in w, which the squeeze needs), and z^2
    # times it rises with z (L'' <= L', L concave in e^w, which the
    # gamma envelope needs)
    zs = np.geomspace(1e-4, 100.0, 4001)[::-1]
    ws = 2.0 * np.log(t / zs)
    slopes = np.array([_hazard_term(w, math.log(t))[1] for w in ws])
    assert np.all((slopes > 0.0) & (slopes < 0.5))
    assert np.all(np.diff(slopes) > 0.0)
    assert np.all(np.diff(zs * zs * slopes) < 0.0)
    for w, z in zip(ws[::400], zs[::400]):
        value, slope = _hazard_term(w, math.log(t))
        h = mp.npdf(z) / mp.ncdf(-z)
        assert value == pytest.approx(float(w / 2 + mp.log(h)),
                                      rel=1e-12, abs=1e-12)
        assert slope == pytest.approx(float(0.5 - 0.5 * z * (h - z)),
                                      rel=1e-9, abs=1e-15)


# (a, c, q, t) at the extremes of the lambda2 conditional's parameters:
# shape R, rate nu2/2 + b'b/(2 sigma2), power p and lambda1
HGAMMA_EXTREMES = [(a, c, q, t)
                   for a in (0.05, 1.0, 20.0)
                   for c in (1e-6, 1.0, 1e6)
                   for q in (1, 40, 400)
                   for t in (1e-3, 1.0, 1e3)]


def test_hgamma_envelope_covers_the_density_tails_included():
    # the gamma envelope touches the log density at m and lies above it
    # everywhere, from where t e^(-w/2) is 1e7 to where c e^w is 1e4
    # (the density there is below exp(-1e4))
    for a, c, q, t in HGAMMA_EXTREMES:
        m, value, slope, rate = _hgamma_envelope(a, c, q, t)
        assert rate > 0.0
        top = _hgamma_log_density(m, a, c, q, t)
        lift = top - (a * m - rate * math.exp(m))
        assert lift == pytest.approx(q * (value - slope), rel=1e-9,
                                     abs=1e-9 * abs(top))
        lo = 2.0 * math.log(t / 1e7)
        hi = math.log(1e4 / c)
        for w in np.linspace(lo, hi, 3001):
            ell = _hgamma_log_density(w, a, c, q, t)
            bound = a * w - rate * math.exp(w) + lift
            assert bound >= ell - 1e-9 * (1.0 + abs(ell)), (a, c, q, t, w)


def test_hgamma_draws_at_the_extremes():
    # no overflow, no loop: finite positive draws everywhere
    rng = RngStream(107, 0)
    for a, c, q, t in HGAMMA_EXTREMES:
        for _ in range(20):
            x = sample_hazard_gamma(a, c, q, t, rng)
            assert 0.0 < x < math.inf, (a, c, q, t)


@pytest.mark.parametrize("a, c, q, t", [
    (1.0, 1.5, 8, 1.3),      # design 1, weak prior: z near 1
    (2.0, 2.8, 40, 5.3),     # design 3, strong prior: z near 5.5
    (0.5, 2.8, 40, 1.0),     # shape below 1: about 6 proposals per draw
])
def test_hazard_gamma_matches_quadrature(a, c, q, t):
    rng = RngStream(108, 0)
    draws = np.log([sample_hazard_gamma(a, c, q, t, rng) for _ in range(N)])
    assert _ks_ok(draws, lambda w: _hgamma_log_density(w, a, c, q, t),
                  draws.min() - 5.0, draws.max() + 2.0)


def test_hazard_gamma_validates():
    rng = RngStream(109, 0)
    for bad in (math.nan, math.inf, -math.inf):
        for i, name in enumerate("acqt"):
            args = [1.0, 1.0, 4.0, 1.0]
            args[i] = bad
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                sample_hazard_gamma(*args, rng)
    for args in ((0.0, 1.0, 4.0, 1.0), (1.0, -1.0, 4.0, 1.0),
                 (1.0, 1.0, 0.0, 1.0), (1.0, 1.0, 4.0, 0.0)):
        with pytest.raises(ValueError, match="must be positive"):
            sample_hazard_gamma(*args, rng)


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
