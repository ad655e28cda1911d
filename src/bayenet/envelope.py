"""Piecewise-exponential upper hulls for log-concave densities.

Two entry points:

* build_envelope: a fixed hull from tangents at knots placed around a
  known mode using the local curvature scale s = |c''(mode)|^{-1/2}
  (knots at mode, mode +- s/2 and mode +- k*s for k = 1..K).  Sampling
  then loops propose/accept against the unchanged hull.  A kept hull
  may adopt one and later reset its tangents in place: gig's, whose
  keep-or-rebuild rule is distributions.GigHull.fit.
* ars_sample: adaptive rejection sampling of exp(g(x) - c x) through a
  TangentHull of the concave g, which persists across draws: the
  tangents of g do not depend on the rate c, so a caller drawing the
  same g at a moving c (theta's conditional, once per sweep of a chain)
  keeps one hull and pays each draw only for reweighing its segments at
  the new c.  The hull gains a tangent at every rejected point, and a
  chordal squeeze avoids most evaluations of g.  The draws stay exact:
  each is a rejection draw under a hull that dominates its target and
  depends only on earlier draws.

build_envelope works on a support of (0, inf) or the whole line; a
TangentHull needs a support bounded below.  A caller may also open a
fixed hull with a rising segment of its own on (-inf, bounds[1]]: on
the log scale, a power law in x.  Every hull, fixed or kept, weighs
its segments one way (PiecewiseExpEnvelope.reweigh), relative to its
highest point, so far-out tangents never overflow.  A proposal's two
uniforms, and log_uniform's, come from the stream's buffered block
(rng.RngStream.uniform).

A hull has at most 9 knots, so it is kept in plain Python floats and
lists: at that size the per-call overhead of numpy arrays costs more
than the arithmetic.  Segments are found with bisect.bisect_right on
the bounds or the cumulative weights.
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
    _cum[i] is the share of the hull's mass on segments 0..i."""

    # built once per draw unless kept; slots spare each instance a __dict__
    __slots__ = ("knots", "slopes", "intercepts", "bounds", "_cum")

    def __init__(self, knots, slopes, intercepts, bounds):
        self.knots = knots
        self.slopes = slopes
        self.intercepts = intercepts
        self.bounds = bounds
        self.reweigh()

    def reweigh(self):
        """Weigh the segments from the tangents and bounds, as a kept hull
        does again after moving its tangents.  A hull of infinite or nan
        mass, as from a tangent that does not fall toward an unbounded
        end of its segment, is refused."""
        expm1 = math.expm1
        bounds = self.bounds
        # each segment's highest log value (at its left end if it falls,
        # its right end if it rises) and its mass over e^(that value)
        tops, spans = [], []
        lo = bounds[0]
        for hi, m, b in zip(bounds[1:], self.slopes, self.intercepts):
            if m < 0.0:
                tops.append(b + m * lo)
                spans.append(expm1(m * (hi - lo)) / m)
            elif m > 0.0:
                tops.append(b + m * hi)
                spans.append(-expm1(m * (lo - hi)) / m)
            else:
                tops.append(b)
                spans.append(hi - lo)
            lo = hi
        top = max(tops)
        cum = []
        tot = 0.0
        for t, w in zip(tops, spans):
            tot += math.exp(t - top) * w
            cum.append(tot)
        if not 0.0 < tot < math.inf:
            raise EnvelopeError("hull mass is not finite")
        # the last weight is tot / tot == 1.0 exactly, so a uniform in
        # [0, 1) always lands on a segment
        self._cum = [v / tot for v in cum]

    def propose(self, rng):
        """One draw from the normalized hull; returns (x, hull log value)."""
        uniform = rng.uniform
        i = bisect_right(self._cum, uniform())
        v = uniform()
        while v <= 0.0:
            v = uniform()
        m = self.slopes[i]
        x = _segment_inverse_cdf(self.bounds[i], self.bounds[i + 1], m, v)
        return x, self.intercepts[i] + m * x


def _tied(left, right):
    """Whether the slope right of a knot fails to fall below the slope
    left of it by more than rounding: log-concavity makes slopes fall,
    so such a pair is a numerical tie, merged into one tangent.  The
    tolerance scales with the slopes alone: near the mode of
    exp(g(x) - c x) the slopes of g are about c, and at c far below
    1e-12 an absolute floor would merge them all."""
    return right >= left - 1e-12 * (abs(left) + abs(right))


def _hull_from_points(points, support_lower):
    """Assemble the hull from (x, log_f(x), dlog_f(x)) triples."""
    isfinite = math.isfinite
    xs, ms, bs = [], [], []
    for x, h, dh in sorted(points):
        if not (isfinite(x) and isfinite(h) and isfinite(dh)):
            continue
        if ms and _tied(ms[-1], dh):
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
    return PiecewiseExpEnvelope(xs, ms, bs,
                                _tangent_bounds(xs, ms, bs, support_lower))


def _tangent_bounds(xs, ms, bs, support_lower):
    """Segment bounds of the tangents b_i + m_i x at knots xs: segment i
    runs from the tangent crossing with segment i-1 to the one with
    segment i+1, clipped to its neighbouring knots."""
    bounds = [support_lower]
    for i in range(len(xs) - 1):
        z = (bs[i + 1] - bs[i]) / (ms[i] - ms[i + 1])
        bounds.append(min(max(z, xs[i]), xs[i + 1]))
    bounds.append(math.inf)
    return bounds


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


def _describe(target, env):
    """The target's parameters and the hull's size, for a
    rejection-failure message."""
    return (f"mode={target.mode}, curvature={target.curvature}, "
            f"support=({target.support_lower}, inf), "
            f"segments={len(env.slopes)}")


# Proposals a rejection loop makes before it gives up on its target
_ENVELOPE_MAX_PROPOSALS = 100000
_ARS_MAX_PROPOSALS = 10000


def sample_from_envelope(target, env, rng):
    """Rejection-sample the target under a fixed dominating hull."""
    for _ in range(_ENVELOPE_MAX_PROPOSALS):
        x, ux = env.propose(rng)
        if not x > target.support_lower:
            continue
        if log_uniform(rng) <= target.log_f(x) - ux:
            return x
    raise RuntimeError(
        f"envelope sampler failed to accept in {_ENVELOPE_MAX_PROPOSALS} "
        f"proposals ({_describe(target, env)})")


def _squeeze(xs, hs, x):
    """Chordal lower bound of the log density; -inf outside the knot span."""
    if x <= xs[0] or x >= xs[-1]:
        return -math.inf
    i = bisect_right(xs, x) - 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return hs[i] + t * (hs[i + 1] - hs[i])


# Most knots a TangentHull keeps.  Replaying theta's conditionals from
# the rs chains of the fit-small and fit-wide workloads, a draw cost
# least at 8 (of 4-10 tried): fewer knots miss the modes of the
# differential form's widely moving rates, more cost reweighing.
MAX_KNOTS = 8

# steps the right tail may take outward before the target is declared
# nonintegrable at the rate asked for
_MAX_STEPS = 60


class TangentHull(PiecewiseExpEnvelope):
    """Tangents of a concave log density g, kept across draws from the
    targets exp(g(x) - c x) at any rate c.

    target holds g, g' and a support bounded below; seed(c) gives
    knots near the mode of g - c x, where an empty hull opens and the
    right tail steps out to.
    Adding -c x to every tangent moves none of their crossings, so the
    knots, crossings, squeeze and accept tests are those of g alone, and
    at_rate(c) only tilts each segment to slope g'(x_i) - c and
    reweighs it; the hull is then the PiecewiseExpEnvelope of the rate c
    target.  Knots come from the seed, from tail steps and from rejected
    proposals; at MAX_KNOTS the knot farthest from a new one goes, never
    the rightmost, so the right tail stays integrable at the rate being
    drawn.

    Every draw is exact: the hull depends only on earlier draws, and
    given any dominating hull, rejection returns an exact draw from the
    current target, so a chain drawing through a kept hull has the same
    transition kernel as one building a hull per draw.
    """

    __slots__ = ("target", "seed", "key", "g_values", "g_slopes")

    def __init__(self, target, seed, key=None):
        if not -math.inf < target.support_lower < math.inf:
            raise EnvelopeError(
                "TangentHull needs a support bounded below, got "
                f"support_lower={target.support_lower}")
        self.target = target
        self.seed = seed
        # names the family g belongs to, for a caller to check
        self.key = key
        self.knots, self.g_values, self.g_slopes = [], [], []
        self.intercepts, self.bounds = [], []

    def add(self, x, h, dh):
        """Add the tangent (h, dh) of g at x; False if it is not kept (a
        nonfinite value, or a slope tied with a neighbour's)."""
        if not (math.isfinite(h) and math.isfinite(dh)):
            return False
        xs, ms = self.knots, self.g_slopes
        i = bisect_right(xs, x)
        if i and _tied(ms[i - 1], dh) or i < len(xs) and _tied(dh, ms[i]):
            return False
        columns = (xs, self.g_values, ms, self.intercepts)
        for col, v in zip(columns, (x, h, dh, h - dh * x)):
            col.insert(i, v)
        if len(xs) > MAX_KNOTS:
            hi = len(xs) - 2
            j = 0 if x - xs[0] > xs[hi] - x else hi
            for col in columns:
                del col[j]
        self.bounds = _tangent_bounds(xs, ms, self.intercepts,
                                      self.target.support_lower)
        return True

    def _add_at(self, x):
        t = self.target
        return x > t.support_lower and self.add(x, t.log_f(x), t.dlog_f(x))

    def cover(self, c):
        """Open an empty hull at the seed knots, then step the right tail
        out until its slope at rate c is integrable."""
        if not self.knots:
            for x in self.seed(c):
                self._add_at(x)
            if not self.knots:
                raise EnvelopeError("no usable initial knots")
        xs, ms = self.knots, self.g_slopes
        for _ in range(_MAX_STEPS):
            if ms[-1] < c:
                break
            x = xs[-1]
            far = max(self.seed(c))
            if not (far > x and self._add_at(far)):
                self._add_at(x + 1.0 + abs(x))
        else:
            raise EnvelopeError(
                f"rightmost tangent slope must fall below the rate {c}")

    def at_rate(self, c):
        """Tilt every tangent by -c x and reweigh the segments."""
        self.slopes = [m - c for m in self.g_slopes]
        self.reweigh()


def ars_sample(hull, c, rng):
    """One exact draw from exp(g(x) - c x), by adaptive rejection
    sampling (Gilks & Wild 1992) through the kept TangentHull of g: a
    tangent is added at every rejected point, and a chordal squeeze
    spares most evaluations of g."""
    hull.cover(c)
    hull.at_rate(c)
    target = hull.target
    sl = target.support_lower
    for _ in range(_ARS_MAX_PROPOSALS):
        x, ux = hull.propose(rng)
        if not x > sl:
            continue
        # log w against g minus g's hull at x, which is ux + c x
        gap = log_uniform(rng) + ux + c * x
        if gap <= _squeeze(hull.knots, hull.g_values, x):
            return x
        hx = target.log_f(x)
        if gap <= hx:
            return x
        if math.isfinite(hx) and hull.add(x, hx, target.dlog_f(x)):
            hull.at_rate(c)
    raise RuntimeError(
        f"adaptive rejection sampler failed to accept in "
        f"{_ARS_MAX_PROPOSALS} proposals at rate {c} "
        f"({_describe(target, hull)})")
