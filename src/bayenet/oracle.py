"""Brute-force adjudicators that sit in judgment over every sampler.

Nothing here feeds the fitting paths.  The module provides quadrature
CDF tables with self-certification (mass must stabilize under grid
doubling and the truncated tails must be provably negligible), a
Kolmogorov-Smirnov test against such tables, a certified two-coefficient
posterior grid (the oracle for the block update of beta, and for the
shape of the direct posterior), hierarchical-versus-closed-form prior
equivalence checks, a named validation suite for the command line, and
a demonstration that a published inverse-gamma proposal scheme for the
variance accepts every proposal while drawing from the wrong
distribution.  The coordinate update of beta and the scale kernels are
judged on one-dimensional slices of the joint posterior.
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    sample_gig,
    sample_inverse_gaussian,
    sample_mhn,
    sample_truncated_normal,
)
from .kernels import (
    update_beta_block,
    update_beta_coordinate,
    update_sigma2_differential_rs,
    update_tau2,
    update_theta_common,
    update_theta_differential,
    update_u1_common,
    update_u2_common,
    update_u2_differential,
)
from .model import (
    ModelState,
    RegressionData,
    coefficient_sums,
    from_transformed,
    log_posterior_unnorm,
    log_prior_da,
    make_prior,
    tau2_conditional_var,
    to_transformed,
)
from .rng import RngStream
from .special import (
    log_std_normal_cdf,
    log_upper_incomplete_gamma_half,
    mills_ratio,
)
from .tilted import (
    TiltedParams,
    find_mode,
    is_logconcave,
    log_density as tilted_log_density,
    mode_bounds,
    sample_tilted,
)

KS_COEFF = 1.63
MASS_TOL = 1e-6
TAIL_TOL = 1e-8
# log drop below the mode at which a tail is certainly negligible
_DROP = 46.0
_LOG_ROOT_PI = 0.5 * math.log(math.pi)
# grid doublings a table may take before it gives up; a plane stops at
# three (a 1601-node axis pair is already 2.6 million points)
_LINE_DOUBLINGS = 7
_PLANE_DOUBLINGS = 3
# a planar grid reaches this many standard deviations past its center
_SPAN = 9.0


class OracleError(ValueError):
    """A quadrature table could not certify its own accuracy."""


@dataclass(frozen=True)
class QuadratureGrid:
    lower: float
    upper: float
    nodes: int = 20001

    def __post_init__(self):
        if not self.upper > self.lower:
            raise ValueError("upper must exceed lower")
        if self.nodes < 101:
            raise ValueError("need at least 101 nodes")


@dataclass
class CdfTable:
    xs: np.ndarray
    cdf: np.ndarray
    log_mass: float

    def interp(self, x):
        return np.interp(x, self.xs, self.cdf, left=0.0, right=1.0)

    def inverse(self, u):
        return np.interp(u, self.cdf, self.xs)


def _eval_log(log_density, xs):
    try:
        with np.errstate(all="ignore"):
            vals = np.asarray(log_density(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except Exception:
        vals = np.array([float(log_density(float(x))) for x in xs])
    if np.isnan(vals).any() or np.isposinf(vals).any():
        raise OracleError("log density is NaN or +inf on the grid")
    return vals


def _probe(log_density, x):
    """Log density just outside the grid; -inf when out of support."""
    try:
        with np.errstate(all="ignore"):
            v = float(log_density(float(x)))
    except (ValueError, OverflowError, ZeroDivisionError):
        return -math.inf
    return -math.inf if math.isnan(v) else v


def _cum_trapz(w, xs):
    inc = 0.5 * (w[1:] + w[:-1]) * np.diff(xs)
    return np.concatenate([[0.0], np.cumsum(inc)])


def _settle(mass_at, nodes, doublings):
    """Double the resolution from nodes until two successive log masses
    agree to MASS_TOL and return the finer one's mass_at(n), a tuple
    that starts with its log mass."""
    coarse = mass_at(nodes)
    delta = math.inf
    for _ in range(doublings):
        nodes = 2 * (nodes - 1) + 1
        fine = mass_at(nodes)
        delta = abs(fine[0] - coarse[0])
        if delta <= MASS_TOL:
            return fine
        coarse = fine
    raise OracleError(
        f"mass did not stabilize under grid doubling (last change "
        f"{delta:.2e} in log mass)")


def _log_mass(log_density, xs):
    logf = _eval_log(log_density, xs)
    m = float(logf.max())
    if not math.isfinite(m):
        raise OracleError("log density has no finite value on the grid")
    w = np.exp(logf - m)
    c = _cum_trapz(w, xs)
    if not c[-1] > 0.0:
        raise OracleError("zero mass on the grid")
    return m + math.log(float(c[-1])), xs, logf, w, c


def _check_tails(log_density, xs, logf, w, mass):
    tails = 0.0
    for end, nbr, outside in ((0, 1, xs[0] - (xs[1] - xs[0])),
                              (-1, -2, xs[-1] + (xs[-1] - xs[-2]))):
        if w[end] == 0.0:
            continue
        h = abs(xs[end] - xs[nbr])
        decay = (logf[end] - _probe(log_density, outside)) / h
        if not decay > 0.0:
            raise OracleError(
                "density does not decrease beyond the grid edge at "
                f"x={xs[end]:g}; tail mass cannot be bounded")
        tails += w[end] / decay
    if tails > TAIL_TOL * mass:
        raise OracleError(
            f"estimated truncated tail mass {tails / mass:.2e} exceeds "
            f"{TAIL_TOL:g} of the total")


def _certified_table(log_density, builder, nodes):
    lm, xs, logf, w, c = _settle(
        lambda n: _log_mass(log_density, builder(n)), nodes, _LINE_DOUBLINGS)
    _check_tails(log_density, xs, logf, w, float(c[-1]))
    return CdfTable(xs, c / c[-1], lm)


def quadrature_cdf(log_density, grid):
    """Normalized CDF table on the grid, doubled until its mass settles,
    or OracleError if the table cannot vouch for itself (unstable mass
    or non-negligible tails)."""
    builder = lambda n: np.linspace(grid.lower, grid.upper, n)
    return _certified_table(log_density, builder, grid.nodes)


def _golden_max(f, a, b):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _probe(f, c), _probe(f, d)
    for _ in range(180):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _probe(f, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _probe(f, d)
        if b - a <= 1e-13 * max(1.0, abs(a) + abs(b)):
            break
    return 0.5 * (a + b)


def _scan_mode(log_density, lo, hi):
    spacing = np.geomspace if lo > 0.0 and hi / lo >= 1e3 else np.linspace
    xs = spacing(lo, hi, 1501)
    vals = np.array([_probe(log_density, x) for x in xs])
    i = int(np.argmax(vals))
    if not math.isfinite(vals[i]):
        raise OracleError("no finite density value in the search bracket")
    return _golden_max(log_density, xs[max(i - 1, 0)], xs[min(i + 1, 1500)])


def _taylor_sd(log_density, mode, lo, hi):
    h = 1e-4 * max(abs(mode), 1e-3)
    # one-sided fallbacks cover modes pinned to a support edge
    for shift in (0.0, h, -h):
        x = mode + shift
        v = (_probe(log_density, x - h), _probe(log_density, x),
             _probe(log_density, x + h))
        if all(math.isfinite(t) for t in v):
            c2 = (v[0] - 2.0 * v[1] + v[2]) / (h * h)
            if c2 < 0.0:
                return 1.0 / math.sqrt(-c2)
    span = hi - lo
    return 0.05 * span if math.isfinite(span) else max(abs(mode), 1.0)


def auto_cdf(log_density, bracket=(1e-10, 1e6)):
    """CDF table on a range picked from the target's own geometry.

    The range starts at the mode plus/minus twelve curvature-implied
    standard deviations and is pushed outward until the log density has
    dropped far below the mode.  If the table still cannot certify
    itself the range is rebuilt as [1e-8, mode * 1e3] on geometrically
    spaced nodes, which handles inverse-scale targets whose right tail
    decays only polynomially.
    """
    lo_b, hi_b = bracket
    mode = _scan_mode(log_density, lo_b, hi_b)
    lm = _probe(log_density, mode)
    sd = _taylor_sd(log_density, mode, lo_b, hi_b)

    hi = min(mode + 12.0 * sd, hi_b)
    for _ in range(120):
        if hi >= hi_b or _probe(log_density, hi) - lm <= -_DROP:
            break
        hi = min(hi_b, hi + max(4.0 * sd, 0.25 * (hi - mode)))
    lo = max(mode - 12.0 * sd, lo_b)
    for _ in range(120):
        if lo <= lo_b or _probe(log_density, lo) - lm <= -_DROP:
            break
        step = max(4.0 * sd, 0.25 * (mode - lo))
        nxt = lo - step
        if lo_b >= 0.0 and nxt <= 0.0:
            nxt = lo / 2.0
        lo = max(nxt, lo_b)

    try:
        return quadrature_cdf(log_density, QuadratureGrid(lo, hi))
    except OracleError:
        if not (lo_b >= 0.0 and mode > 1e-8):
            raise
        builder = lambda n: np.geomspace(1e-8, mode * 1e3, n)
        return _certified_table(log_density, builder, 200001)


def ks_threshold(n):
    return KS_COEFF / math.sqrt(n)


def ks_test(draws, table):
    """Two-sided Kolmogorov-Smirnov D and the 1%-level verdict."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    if n < 1000:
        raise ValueError("need at least 1000 draws for the asymptotic "
                         "1% threshold")
    f = table.interp(x)
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    return d, d < ks_threshold(n)


# ---------------------------------------------------------------------------
# two-coefficient posterior grid

def beta_pair_log_unnorm(data, sigma2, lambda1, lambda2, form):
    """Unnormalized log posterior of (beta_1, beta_2) at fixed scales."""
    if data.p != 2:
        raise ValueError("the planar oracle needs exactly two predictors")
    if form not in ("common", "differential"):
        raise ValueError(f"unknown form {form!r}")
    if lambda1 < 0.0 or lambda2 <= 0.0 or sigma2 <= 0.0:
        raise ValueError("scales must be positive (lambda1 may be zero)")
    sigma = math.sqrt(sigma2)

    def log_unnorm(b1, b2):
        quad = _pair_rss(data, b1, b2)
        val = -0.5 * (quad + lambda2 * (b1 * b1 + b2 * b2)) / sigma2
        l1 = np.abs(b1) + np.abs(b2)
        if form == "common":
            return val - 0.5 * lambda1 * l1 / sigma2
        return val - lambda1 * l1 / sigma

    return log_unnorm


def _pair_rss(data, b1, b2):
    """Residual sum of squares at (b1, b2), elementwise over arrays."""
    a11, a12, a22 = data.xtx[0, 0], data.xtx[0, 1], data.xtx[1, 1]
    g1, g2 = data.xty[0], data.xty[1]
    return (data.yty - 2.0 * (b1 * g1 + b2 * g2)
            + a11 * b1 * b1 + 2.0 * a12 * b1 * b2 + a22 * b2 * b2)


def _axis_nodes(lo, hi, nodes):
    """Uniform nodes covering [lo, hi] on a lattice anchored at zero.

    A spliced-in zero node would break the uniform spacing and leave an
    O(h^3) quadrature error at the splice, so the axis is laid out as
    exact multiples of the step instead.
    """
    h = (hi - lo) / (nodes - 1)
    if lo < 0.0 < hi:
        below = math.ceil(-lo / h)
        above = math.ceil(hi / h)
        return h * np.arange(-below, above + 1)
    return np.linspace(lo, hi, nodes)


@dataclass
class BetaGrid2d:
    axis1: np.ndarray
    axis2: np.ndarray
    weight: np.ndarray
    mass: float
    log_unnorm: object

    def marginal(self, axis):
        if axis == 0:
            pdf = np.trapezoid(self.weight, self.axis2, axis=1) / self.mass
            return self.axis1, pdf
        pdf = np.trapezoid(self.weight, self.axis1, axis=0) / self.mass
        return self.axis2, pdf

    def mean(self):
        x1, p1 = self.marginal(0)
        x2, p2 = self.marginal(1)
        return np.array([np.trapezoid(x1 * p1, x1), np.trapezoid(x2 * p2, x2)])

    def argmax(self):
        i, j = np.unravel_index(int(np.argmax(self.weight)),
                                self.weight.shape)
        return np.array([self.axis1[i], self.axis2[j]])


def _plane(log_unnorm, axis, n):
    """log_unnorm evaluated at once over the product of axis(0, n) and
    axis(1, n), as (log mass, grid)."""
    g1, g2 = axis(0, n), axis(1, n)
    logw = log_unnorm(g1[:, None], g2[None, :])
    top = float(logw.max())
    w = np.exp(logw - top)
    mass = float(np.trapezoid(np.trapezoid(w, g2, axis=1), g1))
    return top + math.log(mass), BetaGrid2d(g1, g2, w, mass, log_unnorm)


def _planar_grid(log_unnorm, axis, nodes, certify):
    """(log mass, grid) of a planar grid with nodes per axis (the
    zero-anchored lattice may add one), certified by comparing its mass
    with the grid of half the resolution and doubling until the two
    agree, and by requiring both marginals to vanish at the edges.  With
    certify=False the grid is returned as built; only readouts that
    depend on node placement alone (such as argmax) should be trusted
    from it."""
    if not certify:
        return _plane(log_unnorm, axis, nodes)
    lm, grid = _settle(lambda n: _plane(log_unnorm, axis, n),
                       nodes // 2 + 1, _PLANE_DOUBLINGS)
    for j in (0, 1):
        _, marg = grid.marginal(j)
        if max(marg[0], marg[-1]) > TAIL_TOL * marg.max():
            raise OracleError("planar grid does not cover the tails")
    return lm, grid


def grid2d_beta_posterior(data, sigma2, lambda1, lambda2, form,
                          certify=True):
    """Normalized two-coefficient posterior on a plane grid.

    The grid is centered on the ridge solution, stretched to nine
    standard deviations per side, always straddles both axes, and
    carries an exact node on each axis so the non-differentiable ridge
    of the density lies on grid lines.  certify=False skips the
    certificate of _planar_grid.
    """
    lu = beta_pair_log_unnorm(data, sigma2, lambda1, lambda2, form)
    prec = data.xtx + lambda2 * np.eye(2)
    center = np.linalg.solve(prec, data.xty)
    sds = np.sqrt(sigma2 * np.diag(np.linalg.inv(prec)))
    lo = np.minimum(center - _SPAN * sds, -2.0 * sds)
    hi = np.maximum(center + _SPAN * sds, 2.0 * sds)
    axis = lambda j, n: _axis_nodes(lo[j], hi[j], n)
    return _planar_grid(lu, axis, 401, certify)[1]


def ridge_mean(data, lambda2):
    return np.linalg.solve(data.xtx + lambda2 * np.eye(data.p), data.xty)


def axis_continuity_gap(grid, eps=1e-12, points=17):
    """Largest relative density gap between the two sides of an axis.

    The offset is tiny so the smooth part of the density moves by far
    less than the tolerance; any remaining gap above ~eps*gradient is a
    genuine discontinuity.
    """
    worst = 0.0
    for xs, flip in ((grid.axis1, False), (grid.axis2, True)):
        probes = np.linspace(xs[2], xs[-3], points)
        for t in probes:
            args = (eps, t) if flip else (t, eps)
            argm = (-eps, t) if flip else (t, -eps)
            gap = abs(math.expm1(grid.log_unnorm(*args)
                                 - grid.log_unnorm(*argm)))
            worst = max(worst, gap)
    return worst


def axis_slope_jump(grid, at, eps=1e-6):
    """Drop in the cross-axis log-density slope at (at, 0)."""
    mid = grid.log_unnorm(at, 0.0)
    left = (mid - grid.log_unnorm(at, -eps)) / eps
    right = (grid.log_unnorm(at, eps) - mid) / eps
    return left - right


# ---------------------------------------------------------------------------
# hierarchical versus closed-form prior

def sample_hierarchical_beta(form, sigma2, lambda1, lambda2, size, rng):
    """Coefficient draws produced through the latent-scale mixture."""
    tau2 = np.empty(size)
    got = 0
    if form == "common":
        # latent precision is a unit-lower-truncated gamma variate
        rate = lambda1 ** 2 / (8.0 * sigma2 * lambda2)
        while got < size:
            m = 8 * (size - got) + 1000
            g = rng.gen.gamma(0.5, 1.0 / rate, size=m)
            g = g[g > 1.0][:size - got]
            tau2[got:got + g.size] = 1.0 / g
            got += g.size
    elif form == "differential":
        rate = 0.5 * lambda1 ** 2
        while got < size:
            m = 2 * (size - got) + 1000
            t = rng.gen.exponential(1.0 / rate, size=m)
            t = t[rng.gen.random(m) * np.sqrt(1.0 + lambda2 * t) <= 1.0]
            t = t[:size - got]
            tau2[got:got + t.size] = t
            got += t.size
    else:
        raise ValueError(f"unknown form {form!r}")
    var = tau2_conditional_var(form, tau2, sigma2, lambda2)
    return np.sqrt(var) * rng.gen.standard_normal(size)


def direct_beta_cdf(form, sigma2, lambda1, lambda2):
    """Quadrature CDF of the closed-form single-coefficient prior."""
    sigma = math.sqrt(sigma2)
    if form == "common":
        ld = lambda x: -(lambda2 * x * x + lambda1 * np.abs(x)) / (2.0 * sigma2)
    else:
        ld = (lambda x: -lambda2 * x * x / (2.0 * sigma2)
              - lambda1 * np.abs(x) / sigma)
    half = 16.0 * math.sqrt(sigma2 / lambda2)
    return quadrature_cdf(ld, QuadratureGrid(-half, half, 80001))


def prior_equivalence_check(form, sigma2, lambda1, lambda2, size, rng):
    draws = sample_hierarchical_beta(form, sigma2, lambda1, lambda2,
                                     size, rng)
    return ks_test(draws, direct_beta_cdf(form, sigma2, lambda1, lambda2))


# ---------------------------------------------------------------------------
# the published always-accept variance sampler

@dataclass
class AppendixAReport:
    a: float
    b: float
    lambda1: float
    lambda2: float
    p: int
    n_draws: int
    acceptance_fraction: float
    sigma2_grid: np.ndarray
    log_ratio: np.ndarray
    ratio_increasing: bool
    ks_d: float
    ks_threshold: float
    ks_rejects_target: bool

    def ratios(self):
        return np.array([math.exp(v) if v < 709.0 else math.inf
                         for v in self.log_ratio])

    def text(self):
        lines = [
            "always-accept variance sampler demonstration",
            f"  proposal: inverse-gamma(shape={self.a:g}, scale={self.b:g})"
            f" with p={self.p}, lambda1={self.lambda1:g},"
            f" lambda2={self.lambda2:g}",
            f"  proposals: {self.n_draws}"
            f"  accepted: {round(self.acceptance_fraction * self.n_draws)}"
            f"  acceptance fraction: {self.acceptance_fraction:.6f}",
            "  target/proposal density ratio as the variance shrinks:",
        ]
        for s, r in zip(self.sigma2_grid, self.ratios()):
            lines.append(f"    sigma2={s:.4e}  ratio={r:.6e}")
        verdict = "yes" if self.ratio_increasing else "NO"
        lines.append(
            f"  ratio strictly increasing as sigma2 decreases: {verdict}")
        lines.append(
            "  the ratio is unbounded, so no rejection constant can make"
            " the proposal dominate the target.")
        ks = "FAIL" if self.ks_rejects_target else "pass"
        lines.append(
            "  KS of accepted draws against the quadrature-normalized"
            " target:")
        lines.append(
            f"    D={self.ks_d:.4f}  threshold={self.ks_threshold:.4f}"
            f"  verdict: {ks}"
            + (" (the accepted draws do not follow the target)"
               if self.ks_rejects_target else " (unexpected)"))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sigma2", "ratio"])
            for s, r in zip(self.sigma2_grid, self.ratios()):
                w.writerow([f"{s:.17g}", f"{r:.17g}"])


def appendix_a_demonstration(a, b, lambda1, lambda2, p,
                             n_draws=100000, seed=0, sigma2_grid=None):
    """Reproduce the three findings about the always-accept sampler.

    (i) every inverse-gamma proposal passes the published acceptance
    test, (ii) the target-to-proposal density ratio grows without bound
    as the variance shrinks, and (iii) the accepted draws fail a KS
    test against the actual target, so the scheme samples the wrong
    law.  Quarantined here: nothing in the fitting paths calls it.
    """
    if not (a > 0 and b > 0 and lambda1 > 0 and lambda2 > 0 and p >= 1):
        raise ValueError("all parameters must be positive")
    p = int(p)
    # near zero the nominal target behaves like
    # z^-(a+1+p/2) * exp(-(b - p*lambda1^2/(8*lambda2))/z)
    if b <= p * lambda1 ** 2 / (8.0 * lambda2):
        raise ValueError(
            "the nominal variance target is improper here: need "
            "b > p*lambda1^2/(8*lambda2)")
    rng = RngStream(seed, 97)
    z = b / rng.gen.gamma(a, 1.0, size=n_draws)
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.gen.random(n_draws))
    arg = lambda1 ** 2 / (8.0 * z * lambda2)
    bound = np.array([p * (_LOG_ROOT_PI - log_upper_incomplete_gamma_half(v))
                      for v in arg])
    accepted = log_u <= bound
    fraction = float(accepted.mean())

    def target(x):
        if np.ndim(x) == 0:
            if x <= 0.0:
                return -math.inf
            return (-(a + 1.0) * math.log(x) - b / x
                    - p * log_upper_incomplete_gamma_half(
                        lambda1 ** 2 / (8.0 * x * lambda2)))
        return np.array([target(float(v)) for v in x])

    table = auto_cdf(target, bracket=(1e-12, 1e8))
    d, ok = ks_test(z[accepted], table)

    if sigma2_grid is None:
        sigma2_grid = np.logspace(-1, -6, 11)
    sigma2_grid = np.asarray(sigma2_grid, dtype=float)
    log_ratio = np.array([
        -a * math.log(b) + math.lgamma(a)
        - p * log_upper_incomplete_gamma_half(
            lambda1 ** 2 / (8.0 * s * lambda2))
        for s in sigma2_grid])
    increasing = bool(np.all(np.diff(log_ratio) > 0.0))

    return AppendixAReport(
        a=a, b=b, lambda1=lambda1, lambda2=lambda2, p=p, n_draws=n_draws,
        acceptance_fraction=fraction, sigma2_grid=sigma2_grid,
        log_ratio=log_ratio, ratio_increasing=increasing,
        ks_d=d, ks_threshold=ks_threshold(int(accepted.sum())),
        ks_rejects_target=not ok)


# ---------------------------------------------------------------------------
# named validation checks

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _ks_result(name, draws, table):
    """The KS verdict of draws against a certified table, as a check."""
    d, ok = ks_test(draws, table)
    n = len(draws)
    return CheckResult(
        name, ok, f"D={d:.4f} threshold={ks_threshold(n):.4f} N={n}")


def _ks_check(name, draw, log_density, bracket, n, rng):
    draws = np.array([draw(rng) for _ in range(n)])
    return _ks_result(name, draws, auto_cdf(log_density, bracket))


def _fixed_check_data():
    # small fixed two-predictor problem shared by the planar checks
    gen = RngStream(20210, 0).gen
    X = gen.standard_normal((12, 2))
    X[:, 1] = 0.6 * X[:, 0] + 0.8 * X[:, 1]
    y = 1.4 * X[:, 0] - 0.8 * X[:, 1] + 0.9 * gen.standard_normal(12)
    return RegressionData(y, X)


def broken_coordinate_update(data, prior, state, j, rng):
    """Copy of the coordinate update with a deliberate sign error.

    The negative-side conditional mean uses the penalty shift with the
    wrong sign.  Exists purely to demonstrate that the coordinate
    kernel check has the power to catch such a mistake; nothing in the
    fitting paths may call it.
    """
    beta = state.beta
    lam1, lam2, s2 = state.lambda1, state.lambda2, state.sigma2
    t = 0.5 * lam1 if prior.form == "common" else math.sqrt(s2) * lam1
    xtx_jj = data.col_sq_norms[j]
    prec = xtx_jj + lam2
    sj2 = s2 / prec
    sj = math.sqrt(sj2)
    r = data.xty.item(j) - (float(data.xtx_rows[j].dot(beta))
                            - xtx_jj * beta.item(j))
    mu_pos = (r - t) / prec
    mu_neg = (r - t) / prec  # the bug: should be (r + t) / prec
    lw_pos = log_std_normal_cdf(mu_pos / sj) + 0.5 * mu_pos * mu_pos / sj2
    lw_neg = log_std_normal_cdf(-mu_neg / sj) + 0.5 * mu_neg * mu_neg / sj2
    gap = min(lw_neg - lw_pos, 700.0)
    if rng.gen.random() < 1.0 / (1.0 + math.exp(gap)):
        beta[j] = sample_truncated_normal(mu_pos, sj2, "nonnegative", rng)
    else:
        beta[j] = sample_truncated_normal(mu_neg, sj2, "negative", rng)


def beta_kernel_ks_check(n=5000, seed=0, updater=None, form="common"):
    """Repeated refreshes of one coordinate from a frozen state are
    independent draws from its full conditional; compare them to
    quadrature of the joint log posterior restricted to that slice.

    The frozen state is tuned so the conditional straddles zero with
    meaningful mass on both sides, which is what gives the check power
    against orthant-weight and orthant-mean mistakes.  The updater
    argument exists so a deliberately broken update can be slotted in
    to confirm that power.
    """
    if updater is None:
        updater = update_beta_coordinate
    data = _fixed_check_data()
    prior = make_prior(form, "direct", preset="weak")
    state = ModelState(beta=np.array([0.6, 1.2]), sigma2=1.3,
                       lambda1=2.0, lambda2=0.9)
    draws = _kernel_refresh_draws(
        lambda d, pr, st, r: updater(d, pr, st, 0, r), data, prior, state,
        n, RngStream(seed, 61), lambda st: st.beta[0])
    lu = beta_pair_log_unnorm(data, state.sigma2, state.lambda1,
                              state.lambda2, form)
    table = auto_cdf(lambda x: lu(x, state.beta[1]), bracket=(-25.0, 25.0))
    return _ks_result("coefficient-kernel-ks", draws, table)


def sweep_coordinates(form, sigma2, lambda1, lambda2):
    """The rejection sweeps' scale parametrization, restated here so the
    adjudication does not lean on the implementation's own transform."""
    if form == "common":
        u2 = math.sqrt(lambda2 / sigma2)
        return sigma2, u2, lambda1 / (2.0 * math.sqrt(sigma2 * lambda2))
    if form == "differential":
        u2 = math.sqrt(lambda2)
        return sigma2, u2, lambda1 / u2
    raise ValueError(f"unknown form {form!r}")


def kernel_check_setup(form, representation):
    """A frozen (data, prior, state) under which every scale and latent
    conditional is well spread and cheap to integrate."""
    data = _fixed_check_data()
    prior = make_prior(form, representation, preset="strong")
    tau2 = None
    if representation == "da":
        tau2 = (np.array([0.4, 0.7]) if form == "common"
                else np.array([0.8, 1.6]))
    state = ModelState(beta=np.array([0.6, 1.2]), sigma2=1.3,
                       lambda1=2.0, lambda2=0.9, tau2=tau2)
    return data, prior, state


def scale_slice_log_density(data, prior, state, which):
    """Log joint posterior as a function of one scale coordinate.

    The free coordinate is one of the sweep's transformed scales ("u1",
    "u2", "theta") or the natural "sigma2" (differential form, where
    the variance is not coupled to the rates).  Everything else stays
    frozen.  For the transformed coordinates the change of variables
    from (sigma2, lambda1, lambda2) contributes 4 u1^2 u2^2 under the
    common scaling and 2 u2^2 under the differential one.  The sums of
    the frozen beta and tau2 are reduced once, not at every point.
    """
    form = prior.form
    base = sweep_coordinates(form, state.sigma2, state.lambda1,
                             state.lambda2)
    beta = state.beta.copy()
    tau2 = None if state.tau2 is None else state.tau2.copy()
    sums = coefficient_sums(data, prior, state)

    def lp(x):
        if not x > 0.0:
            return -math.inf
        u1, u2, theta = base
        if which in ("u1", "sigma2"):
            u1 = x
        elif which == "u2":
            u2 = x
        elif which == "theta":
            theta = x
        else:
            raise ValueError(f"unknown coordinate {which!r}")
        if form == "common":
            lam1 = 2.0 * theta * u2 * u1
            lam2 = u1 * u2 * u2
            log_jac = 2.0 * (math.log(u1) + math.log(u2))
        else:
            lam1 = theta * u2
            lam2 = u2 * u2
            log_jac = 2.0 * math.log(u2)
        if which == "sigma2":
            log_jac = 0.0
        st = ModelState(beta=beta, sigma2=u1, lambda1=lam1, lambda2=lam2,
                        tau2=tau2)
        return log_posterior_unnorm(data, prior, st, sums) + log_jac

    return lp


def _clone_state(state):
    return replace(state, beta=state.beta.copy(),
                   tau2=None if state.tau2 is None else state.tau2.copy())


def _kernel_refresh_draws(kernel, data, prior, state, n, rng, read):
    out = np.empty(n)
    for i in range(n):
        st = _clone_state(state)
        kernel(data, prior, st, rng)
        out[i] = read(st)
    return out


def tau2_kernel_ks(data, prior, state, n, rng):
    """The latent-scale update for coordinate 0 against quadrature of
    the augmented prior's slice (the likelihood carries no tau2)."""
    frozen = state.tau2.copy()
    draws = _kernel_refresh_draws(update_tau2, data, prior, state, n, rng,
                                  lambda st: st.tau2[0])
    beta = state.beta.copy()
    s2, l1, l2 = state.sigma2, state.lambda1, state.lambda2
    form = prior.form

    def lp(t):
        if not t > 0.0:
            return -math.inf
        return log_prior_da(form, beta, np.array([t, frozen[1]]),
                            s2, l1, l2)

    hi = 1.0 - 1e-12 if form == "common" else 1e6
    return _ks_result(f"kernel-{form}-da-tau2", draws,
                      auto_cdf(lp, (1e-10, hi)))


def da_beta_marginal_cdf(data, prior, state, nodes=321):
    """CDF table for the first coefficient of the augmented conditional,
    marginalized over the second by planar quadrature of the joint.

    Given tau2 the log joint is the quadratic -rss/(2 sigma2) -
    sum_j b_j^2/(2 v_j) with v = tau2_conditional_var.  The
    Gaussian-solve center and spread fix node placement only; the mass
    is certified like the direct-representation planar grid.
    """
    if data.p != 2:
        raise OracleError("the block-update oracle needs p = 2")
    s2 = state.sigma2
    v = tau2_conditional_var(prior.form, state.tau2, s2, state.lambda2)
    prec = data.xtx / s2 + np.diag(1.0 / v)
    cov = np.linalg.inv(prec)
    center = cov @ (data.xty / s2)
    sds = np.sqrt(np.diag(cov))

    def log_joint(b1, b2):
        return -0.5 * (_pair_rss(data, b1, b2) / s2
                       + b1 * b1 / v[0] + b2 * b2 / v[1])

    def axis(j, n):
        return np.linspace(center[j] - _SPAN * sds[j],
                           center[j] + _SPAN * sds[j], n)

    lm, grid = _planar_grid(log_joint, axis, nodes, True)
    xs, pdf = grid.marginal(0)
    cdf = _cum_trapz(pdf, xs)
    return CdfTable(xs, cdf / cdf[-1], lm)


def beta_block_ks(data, prior, state, n, rng, nodes=321):
    draws = _kernel_refresh_draws(update_beta_block, data, prior, state,
                                  n, rng, lambda st: st.beta[0])
    return _ks_result(f"kernel-{prior.form}-da-beta-block", draws,
                      da_beta_marginal_cdf(data, prior, state, nodes=nodes))


_SCALE_CASES = {
    "common": (("u1", update_u1_common),
               ("u2", update_u2_common),
               ("theta", update_theta_common)),
    "differential": (("sigma2", update_sigma2_differential_rs),
                     ("u2", update_u2_differential),
                     ("theta", update_theta_differential)),
}

_COORD_INDEX = {"u1": 0, "sigma2": 0, "u2": 1, "theta": 2}


def full_conditional_checks(n=10000, seed=0, grid_nodes=321):
    """KS of every scale and latent kernel the four rejection sweeps
    use, each against quadrature of the matching joint-posterior slice.
    The coordinate update of beta has its own check
    (beta_kernel_ks_check); the block update is covered here.
    """
    checks = []
    # a private substream per check keeps each verdict independent of
    # the others and of the order the checks run in
    root = RngStream(seed, 71)
    for fi, form in enumerate(("common", "differential")):
        for ri, representation in enumerate(("direct", "da")):
            data, prior, state = kernel_check_setup(form, representation)
            label = f"{form}-{representation}"
            sums = coefficient_sums(data, prior, state)
            for ci, (which, kernel) in enumerate(_SCALE_CASES[form]):
                idx = _COORD_INDEX[which]

                def draw(d, pr, st, r):
                    kernel(d, pr, st, sums, r)

                def read(st, f=form, i=idx):
                    return sweep_coordinates(
                        f, st.sigma2, st.lambda1, st.lambda2)[i]

                draws = _kernel_refresh_draws(draw, data, prior, state,
                                              n, root.substream(fi, ri, ci),
                                              read)
                lp = scale_slice_log_density(data, prior, state, which)
                checks.append(_ks_result(f"kernel-{label}-{which}", draws,
                                         auto_cdf(lp, (1e-10, 1e6))))
            if representation == "da":
                checks.append(tau2_kernel_ks(
                    data, prior, state, n, root.substream(fi, ri, 7)))
                checks.append(beta_block_ks(
                    data, prior, state, n, root.substream(fi, ri, 8),
                    nodes=grid_nodes))
    return checks


def distribution_ks_checks(n, rng):
    checks = []

    table = quadrature_cdf(lambda x: -0.5 * x * x,
                           QuadratureGrid(-10.0, 10.0))
    checks.append(_ks_result("quadrature-self-test",
                             table.inverse(rng.gen.random(n)), table))

    tn = lambda x: np.where(x >= 0.0, -(x + 0.3) ** 2 / 3.4, -np.inf)
    checks.append(_ks_check(
        "ks-truncated-normal-nonnegative",
        lambda r: sample_truncated_normal(-0.3, 1.7, "nonnegative", r),
        tn, (0.0, 60.0), n, rng))
    checks.append(_ks_check(
        "ks-truncated-normal-negative",
        lambda r: -sample_truncated_normal(0.3, 1.7, "negative", r),
        tn, (0.0, 60.0), n, rng))

    ig = lambda x: -1.5 * np.log(x) - 1.3 * (x - 2.0) ** 2 / (8.0 * x)
    checks.append(_ks_check(
        "ks-inverse-gaussian",
        lambda r: sample_inverse_gaussian(2.0, 1.3, r),
        ig, (1e-8, 1e3), n, rng))

    gg = lambda x: -1.7 * np.log(x) - 0.5 * (1.1 * x + 2.3 / x)
    checks.append(_ks_check(
        "ks-gig", lambda r: sample_gig(-0.7, 1.1, 2.3, r),
        gg, (1e-8, 1e3), n, rng))
    gl = lambda x: 1.1 * np.log(x) - 0.85 * x
    checks.append(_ks_check(
        "ks-gig-gamma-limit", lambda r: sample_gig(2.1, 1.7, 0.0, r),
        gl, (1e-8, 1e4), n, rng))
    il = lambda x: -7.0 * np.log(x) - 3.5 / x
    checks.append(_ks_check(
        "ks-gig-inverse-gamma-limit",
        lambda r: sample_gig(-6.0, 0.0, 7.0, r),
        il, (1e-10, 1e5), n, rng))

    mh = lambda x: np.where(x > 0.0, 2.0 * np.log(np.maximum(x, 1e-300))
                            - 2.0 * x * x - 2.0 * x, -np.inf)
    checks.append(_ks_check(
        "ks-modified-half-normal-concave",
        lambda r: sample_mhn(3.0, 2.0, 2.0, r),
        mh, (1e-8, 1e3), n, rng))
    m1 = lambda x: np.where(x >= 0.0, -1.2 * x * x - 0.7 * x, -np.inf)
    checks.append(_ks_check(
        "ks-modified-half-normal-linear",
        lambda r: sample_mhn(1.0, 1.2, 0.7, r),
        m1, (0.0, 1e3), n, rng))

    for q in (1, 2, 4):
        p = TiltedParams(q, 3.5, 0.5 * q + 1.0, 1.1)

        def ld(x, p=p):
            if np.ndim(x) == 0:
                return tilted_log_density(p, x)
            return np.array([tilted_log_density(p, float(v)) for v in x])

        checks.append(_ks_check(
            f"ks-tilted-q{q}", lambda r, p=p: sample_tilted(p, r),
            ld, (1e-8, 1e3), n, rng))
    return checks


def _prior_equivalence_check(form, n, rng):
    details = []
    ok = True
    for sigma2, lam1, lam2 in ((1.0, 1.0, 1.0), (2.0, 3.0, 0.5)):
        d, passed = prior_equivalence_check(form, sigma2, lam1, lam2, n, rng)
        ok = ok and passed
        details.append(f"D={d:.4f}@({sigma2:g},{lam1:g},{lam2:g})")
    details.append(f"threshold={ks_threshold(n):.4f} N={n}")
    return CheckResult(f"prior-equivalence-{form}", ok, " ".join(details))


def _concave_on_grid(p, tol=1e-9):
    mode = find_mode(p)
    sd = 1.0 / math.sqrt(max(-_tilted_curv(p, max(mode, 0.1)), 1e-6))
    lo = max(mode - 8.0 * sd, 1e-4 * max(mode, sd))
    hi = mode + 8.0 * sd
    xs = np.linspace(lo, hi, 400)
    vals = np.array([tilted_log_density(p, float(x)) for x in xs])
    slopes = np.diff(vals) / np.diff(xs)
    scale = max(1.0, float(np.abs(slopes).max()))
    return bool(np.all(np.diff(slopes) <= tol * scale))


def _tilted_curv(p, x):
    h = 1e-5 * max(x, 1e-3)
    return (tilted_log_density(p, x - h) - 2.0 * tilted_log_density(p, x)
            + tilted_log_density(p, x + h)) / (h * h)


def _tilted_property_check(n_sets, rng):
    gen = rng.gen
    bad = []
    for regime in ("plain", "hazard-slack", "hazard-boundary"):
        for k in range(n_sets):
            if regime == "plain":
                p = TiltedParams(0, 1.0 + 11.0 * gen.random(),
                                 0.1 + 4.0 * gen.random(),
                                 -2.0 + 7.0 * gen.random(),
                                 2.0 * gen.random() if gen.random() < 0.5
                                 else 0.0)
            elif regime == "hazard-slack":
                q = int(gen.choice([1, 2, 4]))
                p = TiltedParams(q, 1.0 + 11.0 * gen.random(),
                                 0.5 * q + 0.05 + 4.0 * gen.random(),
                                 0.05 + 5.0 * gen.random())
            else:
                q = int(gen.choice([1, 2, 4]))
                p = TiltedParams(q, 1.0 + 11.0 * gen.random(), 0.5 * q,
                                 0.05 + 5.0 * gen.random())
            if not is_logconcave(p):
                bad.append((regime, k, "not flagged log-concave"))
                continue
            if not _concave_on_grid(p):
                bad.append((regime, k, "second differences"))
            if p.q >= 1:
                lo, hi = mode_bounds(p)
                mode = find_mode(p)
                if not (lo - 1e-9 <= mode <= hi + 1e-9):
                    bad.append((regime, k, "mode outside bounds"))
    detail = (f"{3 * n_sets} parameter sets" if not bad
              else f"failed: {bad[:3]}")
    return CheckResult("tilted-property-suite", not bad, detail)


def _gordon_check(n, rng):
    xs = np.exp(rng.gen.uniform(math.log(1e-2), math.log(40.0), size=n))
    bad = [float(x) for x in xs
           if not (x < mills_ratio(x) < x + 1.0 / x)]
    return CheckResult(
        "mills-gordon-sandwich", not bad,
        f"{n} points in [0.01, 40]" if not bad else f"failed at {bad[:3]}")


def _transform_check(n, rng):
    worst = 0.0
    for _ in range(n):
        s2, l1, l2 = np.exp(rng.gen.uniform(-7.0, 7.0, size=3))
        for form in ("common", "differential"):
            u1, u2, th = to_transformed(form, s2, l1, l2)
            back = from_transformed(form, u1, u2, th)
            for a, b in zip((s2, l1, l2), back):
                worst = max(worst, abs(a - b) / abs(a))
    return CheckResult(
        "transform-round-trip", worst <= 1e-12,
        f"max relative error {worst:.2e} over {n} parameter sets")


def _grid2d_checks():
    data = _fixed_check_data()
    checks = []

    g0 = grid2d_beta_posterior(data, 1.2, 0.0, 2.3, "common")
    err = float(np.abs(g0.mean() - ridge_mean(data, 2.3)).max())
    checks.append(CheckResult(
        "grid2d-ridge-reduction", err <= 1e-6,
        f"max |grid mean - ridge solution| = {err:.2e}"))

    # continuity and slope probes read the density pointwise, so the
    # integral certificate (which a kinked integrand cannot meet at this
    # resolution) is not required
    gaps = []
    for form in ("common", "differential"):
        g = grid2d_beta_posterior(data, 1.2, 1.7, 0.8, form, certify=False)
        gaps.append(axis_continuity_gap(g))
    worst = max(gaps)
    checks.append(CheckResult(
        "grid2d-axis-continuity", worst <= 1e-8,
        f"max relative side gap {worst:.2e}"))

    # a penalty this sharp cannot pass the mass certificate at default
    # resolution, and argmax only needs node placement
    lam_big = 4.0 * float(np.abs(data.xty).max())
    g1 = grid2d_beta_posterior(data, 1.2, lam_big, 0.8, "common",
                               certify=False)
    am = g1.argmax()
    on_axis = float(np.abs(am).min()) == 0.0
    checks.append(CheckResult(
        "grid2d-axis-mode", on_axis,
        f"argmax at ({am[0]:.3f}, {am[1]:.3f}) with lambda1={lam_big:.2f}"))
    return checks


def run_validation_suite(seed=0, quick=False, beta_updater=None):
    """Every named check, in a stable order, as CheckResult rows."""
    n_ks = 5000 if quick else 20000
    n_eq = 20000 if quick else 100000
    n_sets = 25 if quick else 100
    n_beta = 2000 if quick else 5000
    n_kern = 2000 if quick else 10000
    g_nodes = 161 if quick else 321

    checks = distribution_ks_checks(n_ks, RngStream(seed, 201))
    checks.append(_prior_equivalence_check(
        "common", n_eq, RngStream(seed, 202)))
    checks.append(_prior_equivalence_check(
        "differential", n_eq, RngStream(seed, 203)))
    checks.append(_tilted_property_check(n_sets, RngStream(seed, 204)))
    checks.append(_gordon_check(4 * n_sets, RngStream(seed, 205)))
    checks.append(_transform_check(4 * n_sets, RngStream(seed, 206)))
    checks.append(beta_kernel_ks_check(
        n=n_beta, seed=seed, updater=beta_updater))
    checks.extend(full_conditional_checks(
        n=n_kern, seed=seed, grid_nodes=g_nodes))
    checks.extend(_grid2d_checks())
    return checks
