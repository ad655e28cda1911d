"""Hull construction, masses, and adaptive rejection sampling."""

import math

import mpmath as mp
import numpy as np
import pytest

from bayenet import envelope
from bayenet.distributions import GigHull, sample_gig
from bayenet.envelope import (
    EnvelopeError,
    LogDensityTarget,
    PiecewiseExpEnvelope,
    TangentHull,
    _segment_inverse_cdf,
    ars_sample,
    build_envelope,
    sample_from_envelope,
)
from bayenet.rng import RngStream
from bayenet.tilted import (TiltedParams, d2log_density, dlog_density,
                            find_mode, log_density)

from helpers import (cdf_table, hull_log_value, ks_statistic, ks_threshold,
                     segment_log_mass)


def _mhn_322_target():
    a, b, c = 3.0, 2.0, 2.0

    def log_f(x):
        return (a - 1.0) * math.log(x) - b * x * x - c * x

    def dlog_f(x):
        return (a - 1.0) / x - 2.0 * b * x - c

    # mode 0.5, curvature -(a-1)/mode^2 - 2b = -12
    return LogDensityTarget(log_f, dlog_f, 0.0, mode=0.5, curvature=-12.0)


def _gig_log_target(lam, psi, chi):
    """gig(lam, psi, chi) on s = log x - log(chi/psi)/2, where its log
    density is lam s - omega cosh s, as sample_gig builds it."""
    omega = math.sqrt(psi * chi)
    return LogDensityTarget(
        lambda s: lam * s - omega * math.cosh(s),
        lambda s: lam - omega * math.sinh(s),
        support_lower=-math.inf, mode=math.asinh(lam / omega),
        curvature=-math.hypot(lam, omega))


def _tilted_target(p):
    mode = find_mode(p)
    return LogDensityTarget(
        lambda x: log_density(p, x), lambda x: dlog_density(p, x),
        support_lower=0.0, mode=mode, curvature=d2log_density(p, mode))


@mp.workdps(30)
def test_segment_log_mass_against_mpmath():
    cases = [
        (0.0, 2.0, -1.5, 0.3),
        (1.0, math.inf, -0.7, -2.0),
        (-math.inf, 0.5, 1.2, 0.0),
        (0.2, 0.9, 0.0, 1.0),
        (0.1, 4.0, 3.0, -1.0),
    ]
    for lo, hi, m, b in cases:
        want = float(mp.log(mp.quad(
            lambda t: mp.e ** (b + m * t),
            [mp.mpf(lo) if math.isfinite(lo) else mp.ninf,
             mp.mpf(hi) if math.isfinite(hi) else mp.inf])))
        got = segment_log_mass(lo, hi, m, b)
        assert got == pytest.approx(want, abs=1e-10)


def test_hull_rejects_divergent_segments():
    # a rising tangent on a right-unbounded segment, a falling one on a
    # left-unbounded segment, and a flat one on an unbounded segment
    for knots, slopes, bounds in (([1.0], [0.5], [0.0, math.inf]),
                                  ([0.0], [-0.5], [-math.inf, 1.0]),
                                  ([0.0], [0.0], [-math.inf, math.inf])):
        with pytest.raises(EnvelopeError, match="hull mass is not finite"):
            PiecewiseExpEnvelope(knots, slopes, [0.0], bounds)


def test_segment_inverse_cdf_roundtrip():
    for lo, hi, m in [(0.0, 3.0, -2.0), (1.0, math.inf, -0.5),
                      (-math.inf, 2.0, 1.5), (0.5, 4.5, 0.0),
                      (0.0, 1.0, 2.0)]:
        for v in [1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-9]:
            x = _segment_inverse_cdf(lo, hi, m, v)
            assert (lo <= x <= hi) or math.isclose(x, lo) or math.isclose(x, hi)
            # forward CDF of the exponential segment at x recovers v
            num = segment_log_mass(lo, x, m, 0.0) if x > lo else -math.inf
            den = segment_log_mass(lo, hi, m, 0.0)
            got = math.exp(num - den) if num > -math.inf else 0.0
            assert got == pytest.approx(v, abs=1e-9)


def test_segment_inverse_cdf_one_ulp_slope():
    # the tangent at a numerically located mode has slope of order one
    # ulp, either sign; the quantile map must stay essentially uniform
    lo, hi = 0.571683454564243, 0.7234650413979169
    for m in (4.440892098500626e-16, -4.440892098500626e-16, 1e-300):
        for v in [1e-6, 0.2, 0.5, 0.8, 1.0 - 1e-9]:
            x = _segment_inverse_cdf(lo, hi, m, v)
            assert abs(x - (lo + v * (hi - lo))) < 1e-9


def test_knot_rule_frozen():
    env = build_envelope(_mhn_322_target(), K=2)
    s = 1.0 / math.sqrt(12.0)
    want = sorted([0.5 - s / 2, 0.5 + s / 2, 0.5 - s, 0.5 + s, 0.5, 0.5 + 2 * s])
    # the 0.5 - 2s knot is negative and must have been dropped
    assert len(env.knots) == 6
    assert np.allclose(env.knots, want, atol=1e-12)


def test_halfmode_knot_added_when_all_left_knots_trimmed():
    # curvature scale s = 1 with mode 0.4: every below-mode knot is
    # nonpositive and gets trimmed, so a knot at mode/2 must appear
    env = build_envelope(LogDensityTarget(
        lambda x: math.log(x) - x, lambda x: 1.0 / x - 1.0,
        0.0, mode=0.4, curvature=-1.0), K=2)
    assert any(np.isclose(env.knots, 0.2))


def test_hull_dominates_target():
    t = _mhn_322_target()
    env = build_envelope(t, K=2)
    for x in np.linspace(1e-6, 10.0, 4001):
        assert hull_log_value(env, x) >= t.log_f(x) - 1e-9


@pytest.mark.parametrize("target,K", [
    (_gig_log_target(0.7, 2.0, 3.0), 3),
    (_gig_log_target(-4.5, 0.01, 80.0), 3),
    (_mhn_322_target(), 2),
    (_tilted_target(TiltedParams(40, 3.0, 25.0, 4.0)), 2),
    (_tilted_target(TiltedParams(0, 2.0, 1.0, 1.0)), 2),
], ids=["gig", "gig-negative-order", "mhn", "tilted-q40", "tilted-q0"])
def test_hull_invariants(target, K):
    env = build_envelope(target, K=K)
    n = len(env.knots)
    assert len(env.slopes) == len(env.intercepts) == len(env._cum) == n
    assert len(env.bounds) == n + 1
    assert all(a <= b for a, b in zip(env._cum, env._cum[1:]))
    assert abs(env._cum[-1] - 1.0) <= 1e-15
    for i in range(n):
        assert env.bounds[i] <= env.knots[i] <= env.bounds[i + 1]
    rng = RngStream(31, n)
    for _ in range(2000):
        x, ux = env.propose(rng)
        assert env.bounds[0] <= x <= env.bounds[-1]
        assert ux == pytest.approx(hull_log_value(env, x),
                                   rel=1e-12, abs=1e-12)


@mp.workdps(30)
def test_hull_acceptance_matches_mass_ratio():
    # target mass / hull mass, the exact acceptance probability
    t = _mhn_322_target()
    env = build_envelope(t, K=2)
    target_mass = float(mp.quad(
        lambda x: x ** 2 * mp.e ** (-2 * x ** 2 - 2 * x), [0, mp.inf]))
    hull_mass = sum(
        math.exp(segment_log_mass(lo, hi, m, b)) for lo, hi, m, b in zip(
            env.bounds, env.bounds[1:], env.slopes, env.intercepts))
    ratio = target_mass / hull_mass
    assert ratio == pytest.approx(0.9541, abs=0.002)


def test_hull_empirical_acceptance():
    t = _mhn_322_target()
    env = build_envelope(t, K=2)
    rng = RngStream(20260814, 1)
    n, acc = 30000, 0
    for _ in range(n):
        x, ux = env.propose(rng)
        if math.log(1.0 - rng.gen.random()) <= t.log_f(x) - ux:
            acc += 1
    assert acc / n == pytest.approx(0.9541, abs=0.01)


def test_envelope_sample_distribution():
    t = _mhn_322_target()
    env = build_envelope(t, K=2)
    rng = RngStream(7, 2)
    draws = [sample_from_envelope(t, env, rng) for _ in range(20000)]
    xs, c = cdf_table(t.log_f, 1e-9, 6.0)
    assert ks_statistic(draws, xs, c) < ks_threshold(len(draws))


def test_build_envelope_validates_inputs():
    t = _mhn_322_target()
    with pytest.raises(EnvelopeError):
        build_envelope(LogDensityTarget(t.log_f, t.dlog_f, 0.0,
                                        mode=math.nan, curvature=-1.0))
    with pytest.raises(EnvelopeError):
        build_envelope(LogDensityTarget(t.log_f, t.dlog_f, 0.0,
                                        mode=0.5, curvature=0.0))
    with pytest.raises(EnvelopeError):
        build_envelope(LogDensityTarget(t.log_f, t.dlog_f, 0.0,
                                        mode=0.5, curvature=None))


def test_rejection_failures_name_the_target(monkeypatch):
    # a gig hull that kept no knots past |s| = 700 still proposes from
    # the 9 segments of the hull it adopted
    hull = GigHull(1e5)
    sample_gig(1e5, 1e-300, 1e-300, RngStream(3, 2), hull)
    assert hull.knots == []
    monkeypatch.setattr(envelope, "_ENVELOPE_MAX_PROPOSALS", 0)
    monkeypatch.setattr(envelope, "_ARS_MAX_PROPOSALS", 0)
    t = _mhn_322_target()
    env = build_envelope(t, K=2)
    with pytest.raises(RuntimeError) as err:
        sample_from_envelope(t, env, RngStream(3, 0))
    msg = str(err.value)
    for part in ("in 0 proposals", "mode=0.5", "curvature=-12.0",
                 "support=(0.0, inf)", "segments=6"):
        assert part in msg
    # no proposal is made, so the target's log density is never read
    far = LogDensityTarget(None, None, -math.inf, mode=703.3,
                           curvature=-1e5)
    with pytest.raises(RuntimeError) as err:
        sample_from_envelope(far, hull, RngStream(3, 3))
    assert "segments=9" in str(err.value)
    gamma = _kept_hull(lambda x: 2.0 * math.log(x), lambda x: 2.0 / x,
                       (0.5, 4.0))
    with pytest.raises(RuntimeError) as err:
        ars_sample(gamma, 1.0, RngStream(3, 1))
    msg = str(err.value)
    for part in ("adaptive", "in 0 proposals", "at rate 1.0", "mode=None",
                 "support=(0.0, inf)", "segments=2"):
        assert part in msg


def _kept_hull(log_g, dlog_g, knots, support_lower=0.0):
    """A TangentHull of g that opens at the same knots at every rate."""
    return TangentHull(LogDensityTarget(log_g, dlog_g, support_lower),
                       lambda c: knots)


def test_tangent_hull_needs_a_support_bounded_below():
    # theta's hull lives on (0, inf): a kept hull steps out only its
    # right tail, so a whole-line target is refused by name
    for lower in (-math.inf, math.nan):
        with pytest.raises(EnvelopeError,
                           match="TangentHull needs a support bounded below"):
            _kept_hull(lambda x: -0.5 * x * x, lambda x: -x, (-1.0, 2.0),
                       support_lower=lower)


def test_ars_gamma_positive_support():
    # g = 2 log x at rate 1: the gamma(3, 1) density
    hull = _kept_hull(lambda x: 2.0 * math.log(x), lambda x: 2.0 / x,
                      (0.5, 4.0))
    rng = RngStream(11, 1)
    draws = [ars_sample(hull, 1.0, rng) for _ in range(20000)]
    xs, c = cdf_table(lambda x: 2.0 * math.log(x) - x, 1e-9, 40.0)
    assert ks_statistic(draws, xs, c) < ks_threshold(len(draws))


def test_ars_steps_out_from_one_sided_knots():
    # both initial knots sit left of the mode (slopes above the rate), so
    # the right tail steps out before the first proposal
    hull = _kept_hull(lambda x: 5.0 * math.log(x), lambda x: 5.0 / x,
                      (0.2, 0.4))
    rng = RngStream(11, 2)
    draws = [ars_sample(hull, 1.0, rng) for _ in range(5000)]
    assert hull.g_slopes[-1] < 1.0
    xs, c = cdf_table(lambda x: 5.0 * math.log(x) - x, 1e-9, 60.0)
    assert ks_statistic(draws, xs, c) < ks_threshold(len(draws))


def test_ars_rejects_nonintegrable_target():
    hull = _kept_hull(lambda x: x, lambda x: 1.0, (1.0,))
    with pytest.raises(EnvelopeError):
        ars_sample(hull, 0.0, RngStream(11, 3))
    # a kept hull of an integrable draw is refused at a rate its right
    # tail cannot reach
    hull = _kept_hull(lambda x: 5.0 * math.log(x), lambda x: 5.0 / x,
                      (2.0, 8.0))
    ars_sample(hull, 1.0, RngStream(11, 4))
    with pytest.raises(EnvelopeError):
        ars_sample(hull, 0.0, RngStream(11, 4))
