"""Brute-force adjudicators that sit in judgment over every sampler.

Nothing here feeds the fitting paths.  The module provides quadrature
CDF tables with self-certification (mass must stabilize under grid
doubling and the truncated tails must be provably negligible), a
Kolmogorov-Smirnov test against such tables, a certified two-coefficient
posterior grid (the oracle for the block update of beta, and for the
shape of the direct posterior), hierarchical-versus-closed-form prior
equivalence checks, and a named validation suite for the command
line.  The coordinate update of beta and the scale kernels are judged
on one-dimensional slices of the joint posterior.

Every table target takes an array of nodes and returns one log density
per node, -inf outside its support; the slice targets restate the joint
posterior over such arrays from frozen coefficient sums.
"""

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
    update_lambda2_differential,
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
    make_prior,
    sample_beta_prior_da,
    tau2_conditional_var,
    to_transformed,
)
from .rng import RngStream
from .special import log_std_normal_cdf, mills_ratio
from .tilted import (
    TiltedParams,
    d2log_density,
    find_mode,
    is_logconcave,
    mode_bounds,
    sample_tilted,
)

KS_COEFF = 1.63
MASS_TOL = 1e-6
TAIL_TOL = 1e-8
# log drop below the mode at which a tail is certainly negligible
_DROP = 46.0
# grid doublings a table may take before it gives up; a plane stops at
# three (a 1601-node axis pair is already 2.6 million points)
_LINE_DOUBLINGS = 7
_PLANE_DOUBLINGS = 3
# a planar grid reaches this many standard deviations past its center
_SPAN = 9.0
# log Phi over a node array
_log_phi = np.vectorize(log_std_normal_cdf, otypes=[float])


def _log_phi_distinct(x):
    """_log_phi(x), evaluated once per distinct value of x.  On the
    frozen-theta slices the argument is theta at every node, up to a few
    rounding variants, so this is a handful of calls instead of one per
    node, with the same values."""
    values, where = np.unique(x, return_inverse=True)
    return _log_phi(values)[where].reshape(np.shape(x))


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
    """The target at every node of xs, one log density per node."""
    with np.errstate(all="ignore"):
        vals = np.asarray(log_density(xs), dtype=float)
    if vals.shape != xs.shape:
        raise OracleError(f"log density returned shape {vals.shape} for "
                          f"nodes of shape {xs.shape}, not one per node")
    return vals


def _within(f, x, upper=math.inf):
    """f at the nodes of x inside (0, upper), -inf at the others."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    inside = (x > 0.0) & (x < upper)
    out[inside] = f(x[inside])
    return out


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
    if np.isnan(logf).any() or np.isposinf(logf).any():
        raise OracleError("log density is NaN or +inf on the grid")
    m = float(logf.max())
    if not math.isfinite(m):
        raise OracleError("log density has no finite value on the grid")
    w = np.exp(logf - m)
    c = _cum_trapz(w, xs)
    if not c[-1] > 0.0:
        raise OracleError("zero mass on the grid")
    return m + math.log(float(c[-1])), xs, logf, w, c


def _check_tails(log_density, xs, logf, w, mass):
    steps = (xs[1] - xs[0], xs[-1] - xs[-2])
    # fmax drops NaN: a probe beyond the edge reads it as -inf
    outside = np.fmax(_eval_log(log_density, np.array(
        [xs[0] - steps[0], xs[-1] + steps[1]])), -np.inf)
    tails = 0.0
    for end, h, out in zip((0, -1), steps, outside):
        if w[end] == 0.0:
            continue
        decay = (logf[end] - out) / h
        if not decay > 0.0:
            raise OracleError(
                "density does not decrease beyond the grid edge at "
                f"x={xs[end]:g}; tail mass cannot be bounded")
        tails += w[end] / decay
    if tails > TAIL_TOL * mass:
        raise OracleError(
            f"estimated truncated tail mass {tails / mass:.2e} exceeds "
            f"{TAIL_TOL:g} of the total")


def quadrature_cdf(log_density, grid):
    """Normalized CDF table on the grid, doubled until its mass settles,
    or OracleError if the table cannot vouch for itself (unstable mass
    or non-negligible tails)."""
    nodes = lambda n: np.linspace(grid.lower, grid.upper, n)
    lm, xs, logf, w, c = _settle(lambda n: _log_mass(log_density, nodes(n)),
                                 grid.nodes, _LINE_DOUBLINGS)
    _check_tails(log_density, xs, logf, w, float(c[-1]))
    return CdfTable(xs, c / c[-1], lm)


def auto_cdf(log_density, bracket):
    """CDF table on the part of the bracket where the target lives.

    One scan of 1501 nodes, spaced geometrically when the bracket spans
    three decades of positive values, finds the largest log density.
    The table spans the scan nodes within _DROP of it plus one node on
    each side, clipped to the bracket, so an edge inside the bracket
    lies more than _DROP below the mode; the table's own certificate
    vouches for the rest.
    """
    lo, hi = bracket
    spacing = np.geomspace if lo > 0.0 and hi / lo >= 1e3 else np.linspace
    xs = spacing(lo, hi, 1501)
    # fmax drops NaN: the scan reads it as -inf
    vals = np.fmax(_eval_log(log_density, xs), -np.inf)
    top = vals.max()
    if not math.isfinite(top):
        raise OracleError("no finite density value in the search bracket")
    keep = np.flatnonzero(vals >= top - _DROP)
    return quadrature_cdf(log_density, QuadratureGrid(
        xs[max(keep[0] - 1, 0)], xs[min(keep[-1] + 1, xs.size - 1)]))


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
    """Uniform nodes covering [lo, hi], lo < 0 < hi, on a lattice
    anchored at zero.

    A spliced-in zero node would break the uniform spacing and leave an
    O(h^3) quadrature error at the splice, so the axis is laid out as
    exact multiples of the step instead.
    """
    h = (hi - lo) / (nodes - 1)
    below = math.ceil(-lo / h)
    above = math.ceil(hi / h)
    return h * np.arange(-below, above + 1)


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
        t = np.linspace(xs[2], xs[-3], points)
        above, below = ((eps, t), (-eps, t)) if flip else ((t, eps), (t, -eps))
        gap = np.abs(np.expm1(grid.log_unnorm(*above)
                              - grid.log_unnorm(*below)))
        worst = max(worst, float(gap.max()))
    return worst


# ---------------------------------------------------------------------------
# hierarchical versus closed-form prior

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
    draws = sample_beta_prior_da(form, size, sigma2, lambda1, lambda2,
                                 rng)
    return ks_test(draws, direct_beta_cdf(form, sigma2, lambda1, lambda2))


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


def _fixed_check_data():
    # small fixed two-predictor problem shared by the planar checks
    gen = RngStream(20210, 0).gen
    X = gen.standard_normal((12, 2))
    X[:, 1] = 0.6 * X[:, 0] + 0.8 * X[:, 1]
    y = 1.4 * X[:, 0] - 0.8 * X[:, 1] + 0.9 * gen.standard_normal(12)
    return RegressionData(y, X)


def broken_coordinate_update(data, prior, state, j, rng):
    """The coordinate update run with lambda1 negated, a deliberate sign
    error: the l1 shift enters both orthant means, and so both side
    weights, with the wrong sign.

    Exists purely to demonstrate that the coordinate kernel check has the
    power to catch such a mistake; nothing in the fitting paths may call
    it.  ModelState checks positivity only when it is built, so the kernel
    accepts the negated rate; lambda1 is restored even if it raises.
    """
    lambda1 = state.lambda1
    state.lambda1 = -lambda1
    try:
        update_beta_coordinate(data, prior, state, j, rng)
    finally:
        state.lambda1 = lambda1


def beta_kernel_ks_check(n=5000, seed=0, updater=None, form="common"):
    """Repeated refreshes of one coordinate from a frozen state are
    independent draws from its full conditional; compare them to
    quadrature of the joint log posterior restricted to that slice.

    The frozen state is tuned so the conditional straddles zero with
    meaningful mass on both sides, which is what gives the check power
    against orthant-weight and orthant-mean mistakes.  The updater
    argument exists so a deliberately broken update can be slotted in
    to confirm that power.  The common form's line is named
    coefficient-kernel-ks, any other form's coefficient-kernel-ks-<form>.
    """
    if updater is None:
        updater = update_beta_coordinate
    data, prior, state = kernel_check_setup(form, "direct")
    draws = _kernel_refresh_draws(
        lambda d, pr, st, r: updater(d, pr, st, 0, r), data, prior, state,
        n, RngStream(seed, 61), lambda st: st.beta[0])
    lu = beta_pair_log_unnorm(data, state.sigma2, state.lambda1,
                              state.lambda2, form)
    table = auto_cdf(lambda x: lu(x, state.beta[1]), bracket=(-25.0, 25.0))
    name = "coefficient-kernel-ks"
    return _ks_result(name if form == "common" else f"{name}-{form}",
                      draws, table)


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


def _log_joint_scales(data, prior, sums, s2, l1, l2):
    """log_posterior_unnorm over arrays of (sigma2, lambda1, lambda2) at
    frozen coefficient sums, restated without the terms that depend on
    no scale."""
    p = sums.p
    log_s2, log_l2 = np.log(s2), np.log(l2)
    val = (-(0.5 * (data.n - 1 + prior.nu_a) + 1.0) * log_s2
           - 0.5 * (sums.rss + prior.nu_b) / s2
           + (prior.L - 1.0) * np.log(l1) - 0.5 * prior.nu1 * l1
           + (prior.R - 1.0) * log_l2 - 0.5 * prior.nu2 * l2
           - 0.5 * p * (log_s2 - log_l2))
    if prior.form == "common":
        r = l1 / (2.0 * np.sqrt(s2 * l2))
        val = (val - 0.5 * (l2 * sums.bb + l1 * sums.b1) / s2
               - 0.5 * r * r * p)
    else:
        r = l1 / np.sqrt(l2)
        val = (val - 0.5 * l2 * sums.bb / s2
               - l1 * sums.b1 / np.sqrt(s2) - 0.5 * p * r * r)
    return val - p * _log_phi_distinct(-r)


def scale_slice_log_density(data, prior, state, which):
    """Log joint posterior as a function of one scale coordinate.

    The free coordinate is one of the sweep's transformed scales ("u1",
    "u2", "theta"), the natural "sigma2" (differential form, where the
    variance is not coupled to the rates) or the natural "lambda2"
    (differential form, at fixed lambda1).  Everything else stays
    frozen.  For the transformed coordinates the change of variables
    from (sigma2, lambda1, lambda2) contributes 4 u1^2 u2^2 under the
    common scaling and 2 u2^2 under the differential one.

    The target restates the joint over the node array
    (_log_joint_scales).  Its change between the frozen coordinate and
    twice it must match log_posterior_unnorm's to 1e-9, or OracleError.
    """
    if which not in _COORD_INDEX:
        raise ValueError(f"unknown coordinate {which!r}")
    form, idx = prior.form, _COORD_INDEX[which]
    base = sweep_coordinates(form, state.sigma2, state.lambda1,
                             state.lambda2)
    sums = coefficient_sums(data, state)

    def scales(x):
        # (sigma2, lambda1, lambda2) with the free coordinate at x, and
        # the log Jacobian of the change of variables
        if which == "lambda2":
            return (state.sigma2, state.lambda1, x), 0.0
        u1, u2, theta = (x if i == idx else v for i, v in enumerate(base))
        if form == "common":
            nat = (u1, 2.0 * theta * u2 * u1, u1 * u2 * u2)
            log_jac = 2.0 * (np.log(u1) + np.log(u2))
        else:
            nat, log_jac = (u1, theta * u2, u2 * u2), 2.0 * np.log(u2)
        return nat, 0.0 if which == "sigma2" else log_jac

    ends, _ = scales(np.array([1.0, 2.0])
                     * slice_coordinate(form, which, state))
    restated = _log_joint_scales(data, prior, sums, *ends)
    ref = [log_posterior_unnorm(data, prior, replace(
        state, sigma2=s2, lambda1=l1, lambda2=l2), sums)
        for s2, l1, l2 in zip(*np.broadcast_arrays(*ends))]
    gap = abs(restated[1] - restated[0] - (ref[1] - ref[0]))
    if not gap <= 1e-9:
        raise OracleError(
            f"the {which} slice disagrees with log_posterior_unnorm by "
            f"{gap:.2e} between two nodes")

    def lp(x):
        nat, log_jac = scales(x)
        return _log_joint_scales(data, prior, sums, *nat) + log_jac

    return lambda x: _within(lp, x)


def tau2_slice_log_density(prior, state):
    """Log joint prior of (beta, tau2) as a function of the first latent
    scale, the rest frozen, over a node array; the terms free of it are
    dropped.  The likelihood carries no tau2."""
    b2 = state.beta[0] ** 2
    s2, l1, l2 = state.sigma2, state.lambda1, state.lambda2
    if prior.form == "common":
        r2 = l1 * l1 / (4.0 * s2 * l2)
        return lambda x: _within(
            lambda t: (-0.5 * np.log1p(-t) - 0.5 * l2 * b2 / (s2 * (1.0 - t))
                       - 1.5 * np.log(t) - 0.5 * r2 / t), x, upper=1.0)
    return lambda x: _within(
        lambda t: -0.5 * np.log(t) - 0.5 * b2 / (s2 * t) - 0.5 * l1 * l1 * t,
        x)


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
    draws = _kernel_refresh_draws(update_tau2, data, prior, state, n, rng,
                                  lambda st: st.tau2[0])
    hi = 1.0 - 1e-12 if prior.form == "common" else 1e6
    return _ks_result(f"kernel-{prior.form}-da-tau2", draws,
                      auto_cdf(tau2_slice_log_density(prior, state),
                               (1e-10, hi)))


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
                     ("theta", update_theta_differential),
                     ("lambda2", update_lambda2_differential)),
}

# the sweep coordinate each slice frees; None for the natural lambda2
_COORD_INDEX = {"u1": 0, "sigma2": 0, "u2": 1, "theta": 2, "lambda2": None}


def slice_coordinate(form, which, state):
    """The value in state of the coordinate a scale slice frees."""
    if which == "lambda2":
        return state.lambda2
    return sweep_coordinates(form, state.sigma2, state.lambda1,
                             state.lambda2)[_COORD_INDEX[which]]


def full_conditional_checks(n=10000, seed=0, grid_nodes=321):
    """KS of every scale and latent kernel the four rejection sweeps
    use, each against quadrature of the matching joint-posterior slice.
    The scale blocks read beta alone, through its sums, in both
    representations, so the direct check state covers them; the
    augmented one checks the tau2 and block beta updates.  The
    coordinate update of beta has its own check (beta_kernel_ks_check).
    """
    checks = []
    # a private substream per check keeps each verdict independent of
    # the others and of the order the checks run in
    root = RngStream(seed, 71)
    for fi, form in enumerate(("common", "differential")):
        data, prior, state = kernel_check_setup(form, "direct")
        sums = coefficient_sums(data, state)
        for ci, (which, kernel) in enumerate(_SCALE_CASES[form]):
            draws = _kernel_refresh_draws(
                lambda d, pr, st, r: kernel(d, pr, st, sums, r),
                data, prior, state, n, root.substream(fi, 0, ci),
                lambda st: slice_coordinate(form, which, st))
            lp = scale_slice_log_density(data, prior, state, which)
            checks.append(_ks_result(f"kernel-{form}-direct-{which}", draws,
                                     auto_cdf(lp, (1e-10, 1e6))))
        data, prior, state = kernel_check_setup(form, "da")
        checks.append(tau2_kernel_ks(
            data, prior, state, n, root.substream(fi, 1, 7)))
        checks.append(beta_block_ks(
            data, prior, state, n, root.substream(fi, 1, 8),
            nodes=grid_nodes))
    return checks


def distribution_ks_checks(n, rng):
    """KS of each scalar sampler against quadrature of its log density,
    drawn in a fixed order from one stream."""
    table = quadrature_cdf(lambda x: -0.5 * x * x,
                           QuadratureGrid(-10.0, 10.0))
    checks = [_ks_result("quadrature-self-test",
                         table.inverse(rng.gen.random(n)), table)]
    tn = lambda x: np.where(x >= 0.0, -(x + 0.3) ** 2 / 3.4, -np.inf)
    # (name, log density, bracket, one draw)
    cases = [
        ("truncated-normal-nonnegative", tn, (0.0, 60.0),
         lambda r: sample_truncated_normal(-0.3, 1.7, "nonnegative", r)),
        ("truncated-normal-negative", tn, (0.0, 60.0),
         lambda r: -sample_truncated_normal(0.3, 1.7, "negative", r)),
        ("inverse-gaussian",
         lambda x: -1.5 * np.log(x) - 1.3 * (x - 2.0) ** 2 / (8.0 * x),
         (1e-8, 1e3), lambda r: sample_inverse_gaussian(2.0, 1.3, r)),
        ("gig", lambda x: -1.7 * np.log(x) - 0.5 * (1.1 * x + 2.3 / x),
         (1e-8, 1e3), lambda r: sample_gig(-0.7, 1.1, 2.3, r)),
        ("gig-gamma-limit", lambda x: 1.1 * np.log(x) - 0.85 * x,
         (1e-8, 1e4), lambda r: sample_gig(2.1, 1.7, 0.0, r)),
        ("gig-inverse-gamma-limit", lambda x: -7.0 * np.log(x) - 3.5 / x,
         (1e-10, 1e5), lambda r: sample_gig(-6.0, 0.0, 7.0, r)),
        ("modified-half-normal-concave",
         lambda x: np.where(x > 0.0, 2.0 * np.log(np.maximum(x, 1e-300))
                            - 2.0 * x * x - 2.0 * x, -np.inf),
         (1e-8, 1e3), lambda r: sample_mhn(3.0, 2.0, 2.0, r)),
        ("modified-half-normal-linear",
         lambda x: np.where(x >= 0.0, -1.2 * x * x - 0.7 * x, -np.inf),
         (0.0, 1e3), lambda r: sample_mhn(1.0, 1.2, 0.7, r)),
    ]
    for q in (1, 2, 4):
        p = TiltedParams(q, 3.5, 0.5 * q + 1.0, 1.1)
        cases.append((f"tilted-q{q}", lambda x, p=p: _tilted_log_density(p, x),
                      (1e-8, 1e3), lambda r, p=p: sample_tilted(p, r)))
    # a < 1 is unbounded at 0, so this line tests log x, whose density
    # x f(x) is bounded; the KS distance is the same on either scale
    small = TiltedParams(4, 0.4, 2.0, 0.9)
    cases.append(("tilted-small-shape",
                  lambda y: y + _tilted_log_density(small, np.exp(y)),
                  (-200.0, 8.0),
                  lambda r: math.log(sample_tilted(small, r))))
    return checks + [_ks_result(f"ks-{name}",
                                np.array([draw(rng) for _ in range(n)]),
                                auto_cdf(ld, bracket))
                     for name, ld, bracket, draw in cases]


def _tilted_log_density(p, x):
    """tilted.log_density over a node array."""
    return _within(lambda x: (p.a - 1.0) * np.log(x) - p.b * x * x - p.c * x
                   - p.q * _log_phi(-x), x)


def _prior_equivalence_check(form, n, rng):
    details = []
    ok = True
    for sigma2, lam1, lam2 in ((1.0, 1.0, 1.0), (2.0, 3.0, 0.5)):
        d, passed = prior_equivalence_check(form, sigma2, lam1, lam2, n, rng)
        ok = ok and passed
        details.append(f"D={d:.4f}@({sigma2:g},{lam1:g},{lam2:g})")
    details.append(f"threshold={ks_threshold(n):.4f} N={n}")
    return CheckResult(f"prior-equivalence-{form}", ok, " ".join(details))


def _concave_on_grid(p):
    mode = find_mode(p)
    sd = 1.0 / math.sqrt(max(-d2log_density(p, max(mode, 0.1)), 1e-6))
    lo = max(mode - 8.0 * sd, 1e-4 * max(mode, sd))
    hi = mode + 8.0 * sd
    xs = np.linspace(lo, hi, 400)
    vals = _tilted_log_density(p, xs)
    slopes = np.diff(vals) / np.diff(xs)
    scale = max(1.0, float(np.abs(slopes).max()))
    return bool(np.all(np.diff(slopes) <= 1e-9 * scale))


def _tilted_property_check(n_sets, rng):
    gen = rng.gen
    bad = []
    for regime in ("plain", "hazard-slack", "hazard-boundary"):
        for k in range(n_sets):
            if regime == "plain":
                p = TiltedParams(0, 1.0 + 11.0 * gen.random(),
                                 0.1 + 4.0 * gen.random(),
                                 -2.0 + 7.0 * gen.random())
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
    for form in ("common", "differential"):
        checks.append(beta_kernel_ks_check(
            n=n_beta, seed=seed, updater=beta_updater, form=form))
    checks.extend(full_conditional_checks(
        n=n_kern, seed=seed, grid_nodes=g_nodes))
    checks.extend(_grid2d_checks())
    return checks
