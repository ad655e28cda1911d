"""Piecewise-exponential upper hulls for log-concave densities.

Two entry points:

* build_envelope: a fixed hull from tangents at knots placed around a
  known mode using the local curvature scale s = |c''(mode)|^{-1/2}
  (knots at mode, mode +- s/2 and mode +- k*s for k = 1..K).  Sampling
  then loops propose/accept against the unchanged hull.
* ars_sample: adaptive rejection sampling for targets where only a
  rough bracket of the mode is known; the hull is refined with a tangent
  at every rejected point, with a chordal squeeze to avoid most target
  evaluations.

Both work on a support of (0, inf) or the whole line.  A caller may
also open a hull with a rising segment of its own on (-inf, bounds[1]]
and pass its log mass: on the log scale, a power law in x.  Hull masses
and segment inverse CDFs are computed in log space so far-out tangents
never overflow.

A hull has 7-9 knots and usually serves a single draw, so it is kept in
plain Python floats and lists: at that size the per-call overhead of
numpy arrays costs more than the arithmetic.  Segments are found with
bisect.bisect_right on the bounds or the cumulative weights.
"""

import math
from bisect import bisect_right

from .rng import log_uniform


class EnvelopeError(ValueError):
    """A valid finite-mass hull cannot be built from the given inputs."""


class LogDensityTarget:
    """An unnormalized log density with derivative on (support_lower, inf)."""

    def __init__(self, log_f, dlog_f, support_lower=0.0, mode=None,
                 curvature=None):
        self.log_f = log_f
        self.dlog_f = dlog_f
        self.support_lower = float(support_lower)
        self.mode = mode
        self.curvature = curvature


def _segment_log_mass(lo, hi, slope, intercept):
    """log integral of exp(intercept + slope*x) over (lo, hi)."""
    if slope == 0.0:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise EnvelopeError("flat tangent on an unbounded segment")
        return intercept + math.log(hi - lo) if hi > lo else -math.inf
    if slope > 0.0:
        if not math.isfinite(hi):
            raise EnvelopeError("rising tangent on a right-unbounded segment")
        d = slope * (lo - hi)
        tail = math.log(-math.expm1(d)) if d < 0.0 else -math.inf
        return intercept + slope * hi + tail - math.log(slope)
    if not math.isfinite(lo):
        raise EnvelopeError("falling tangent on a left-unbounded segment")
    d = slope * (hi - lo)
    tail = math.log(-math.expm1(d)) if d < 0.0 else -math.inf
    return intercept + slope * lo + tail - math.log(-slope)


def _segment_inverse_cdf(lo, hi, slope, v):
    """Quantile v in (0, 1) of the normalized exponential on (lo, hi)."""
    if slope == 0.0:
        return lo + v * (hi - lo)
    d = slope * (hi - lo)
    if d > 1.0:
        # right-anchored form; exp(-d) < 1/e so no absorption into 1.0
        return hi + math.log(v + (1.0 - v) * math.exp(-d)) / slope
    # exact down to one-ulp slopes, where the tangent at the mode lands
    return lo + math.log1p(v * math.expm1(d)) / slope


class PiecewiseExpEnvelope:
    """Piecewise-exponential hull: segment i carries
    exp(intercepts[i] + slopes[i]*x) on (bounds[i], bounds[i+1]), and
    log_masses[i] is the log of its integral there."""

    # built once per draw; slots spare each instance a __dict__
    __slots__ = ("knots", "slopes", "intercepts", "bounds", "log_masses",
                 "_cum")

    def __init__(self, knots, slopes, intercepts, bounds, log_masses):
        self.knots = knots
        self.slopes = slopes
        self.intercepts = intercepts
        self.bounds = bounds
        self.log_masses = log_masses
        m = max(log_masses)
        cum = []
        tot = 0.0
        for lm in log_masses:
            tot += math.exp(lm - m)
            cum.append(tot)
        # the last weight is tot / tot == 1.0 exactly, so a uniform in
        # [0, 1) always lands on a segment
        self._cum = [c / tot for c in cum]

    def propose(self, rng):
        """One draw from the normalized hull; returns (x, hull log value)."""
        gen = rng.gen
        i = bisect_right(self._cum, gen.random())
        v = gen.random()
        while v <= 0.0:
            v = gen.random()
        m = self.slopes[i]
        x = _segment_inverse_cdf(self.bounds[i], self.bounds[i + 1], m, v)
        return x, self.intercepts[i] + m * x


def _hull_from_points(points, support_lower):
    """Assemble the hull from (x, log_f(x), dlog_f(x)) triples."""
    isfinite = math.isfinite
    xs, ms, bs = [], [], []
    for x, h, dh in sorted(points):
        if not (isfinite(x) and isfinite(h) and isfinite(dh)):
            continue
        if ms and dh >= ms[-1] - 1e-12 * (1.0 + abs(ms[-1])):
            # log-concavity makes slopes nonincreasing; merge numerical ties
            continue
        xs.append(x)
        ms.append(dh)
        bs.append(h - dh * x)
    if not xs:
        raise EnvelopeError("no usable knots")
    if ms[-1] >= 0.0:
        raise EnvelopeError("rightmost tangent slope must be negative")
    if not isfinite(support_lower) and ms[0] <= 0.0:
        raise EnvelopeError(
            "leftmost tangent slope must be positive on an unbounded support")
    # segment i runs from the tangent crossing with segment i-1 to the one
    # with segment i+1, clipped to its neighbouring knots
    bounds = [support_lower]
    masses = []
    lo = support_lower
    for i in range(len(xs) - 1):
        z = (bs[i + 1] - bs[i]) / (ms[i] - ms[i + 1])
        hi = min(max(z, xs[i]), xs[i + 1])
        bounds.append(hi)
        masses.append(_segment_log_mass(lo, hi, ms[i], bs[i]))
        lo = hi
    bounds.append(math.inf)
    masses.append(_segment_log_mass(lo, math.inf, ms[-1], bs[-1]))
    return PiecewiseExpEnvelope(xs, ms, bs, bounds, masses)


def build_envelope(target, K=2):
    """Fixed hull with knots placed from the mode and curvature.

    Needs target.mode finite and target.curvature < 0.  On a positive
    support, nonpositive knots are dropped and a knot at mode/2 is added
    if none remains below the mode.
    """
    x0 = target.mode
    c2 = target.curvature
    if x0 is None or not math.isfinite(x0):
        raise EnvelopeError("mode must be finite")
    if c2 is None or not c2 < 0.0:
        raise EnvelopeError("curvature at the mode must be negative")
    s = 1.0 / math.sqrt(-c2)
    knots = [x0, x0 - 0.5 * s, x0 + 0.5 * s]
    for k in range(1, K + 1):
        knots += [x0 - k * s, x0 + k * s]
    if math.isfinite(target.support_lower):
        knots = [k for k in knots if k > target.support_lower]
        if not any(k < x0 for k in knots):
            knots.append(target.support_lower + 0.5 * (x0 - target.support_lower))
    log_f, dlog_f = target.log_f, target.dlog_f
    pts = [(x, log_f(x), dlog_f(x)) for x in sorted(set(knots))]
    return _hull_from_points(pts, target.support_lower)


def _describe(target, n_knots):
    """The target's parameters, for a rejection-failure message."""
    return (f"mode={target.mode}, curvature={target.curvature}, "
            f"support=({target.support_lower}, inf), knots={n_knots}")


def sample_from_envelope(target, env, rng, max_iter=100000):
    """Rejection-sample the target under a fixed dominating hull."""
    for _ in range(max_iter):
        x, ux = env.propose(rng)
        if not x > target.support_lower:
            continue
        if log_uniform(rng) <= target.log_f(x) - ux:
            return x
    raise RuntimeError(
        f"envelope sampler failed to accept in {max_iter} proposals "
        f"({_describe(target, len(env.knots))})")


def _squeeze(xs, hs, x):
    """Chordal lower bound of the log density; -inf outside the knot span."""
    if x <= xs[0] or x >= xs[-1]:
        return -math.inf
    i = bisect_right(xs, x) - 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return hs[i] + t * (hs[i + 1] - hs[i])


def _step_out(points, target, max_steps=60):
    """Extend the knot set until the hull has integrable tails."""
    def add(x):
        h = target.log_f(x)
        dh = target.dlog_f(x)
        if math.isfinite(h) and math.isfinite(dh):
            points.append((x, h, dh))
            points.sort()
            return True
        return False

    for _ in range(max_steps):
        if points and points[-1][2] < 0.0:
            break
        x = points[-1][0]
        step = 1.0 + abs(x)
        if not add(x + step):
            break
    if not math.isfinite(target.support_lower):
        for _ in range(max_steps):
            if points and points[0][2] > 0.0:
                break
            x = points[0][0]
            if not add(x - (1.0 + abs(x))):
                break
    return points


def ars_sample(target, init_knots, rng, max_knots=64, max_iter=10000):
    """Adaptive rejection sampling (tangent hull with chordal squeeze)."""
    sl = target.support_lower
    points = []
    for x in sorted(set(float(k) for k in init_knots)):
        if not x > sl:
            continue
        h = target.log_f(x)
        dh = target.dlog_f(x)
        if math.isfinite(h) and math.isfinite(dh):
            points.append((x, h, dh))
    if not points:
        raise EnvelopeError("no usable initial knots")
    points = _step_out(points, target)

    env = None
    for _ in range(max_iter):
        if env is None:
            env = _hull_from_points(points, sl)
            xs = [p[0] for p in points]
            hs = [p[1] for p in points]
        x, ux = env.propose(rng)
        if not x > sl:
            continue
        logw = log_uniform(rng)
        if logw <= _squeeze(xs, hs, x) - ux:
            return x
        hx = target.log_f(x)
        if logw <= hx - ux:
            return x
        if len(points) < max_knots and math.isfinite(hx):
            dhx = target.dlog_f(x)
            if math.isfinite(dhx):
                points.append((x, hx, dhx))
                points.sort()
                env = None
    raise RuntimeError(
        f"adaptive rejection sampler failed to accept in {max_iter} "
        f"proposals ({_describe(target, len(points))})")
