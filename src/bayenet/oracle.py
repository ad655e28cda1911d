"""Brute-force adjudicators that sit in judgment over every sampler.

Nothing here feeds the fitting paths.  The module provides quadrature
CDF tables with self-certification (mass must stabilize under grid
doubling and the truncated tails must be provably negligible), a
Kolmogorov-Smirnov test against such tables, hierarchical-versus-
closed-form prior equivalence checks, and a named validation suite for
the command line.  Every table is one-dimensional.  The coordinate
update of beta and the scale kernels are judged on one-dimensional
slices of the joint posterior; the block update of beta on its first
coefficient's closed-form Gaussian marginal.  Every KS line of the
suite is one _ks_line: n values of a draw(rng) function, drawn in
order from the line's stream, against a certified table; a kernel's
draw (_refresh) runs it on a fresh copy of a frozen state.  A line
whose draws or table raise is reported as a failed line naming the
exception (_guarded), and the suite goes on.

Every table target takes an array of nodes and returns one log density
per node, -inf outside its support; the slice targets restate the joint
posterior over such arrays from frozen coefficient sums.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    GigHull,
    sample_gig,
    sample_inverse_gaussian,
    sample_mhn,
    sample_truncated_normal,
)
from .kernels import (
    update_beta_block,
    update_beta_coordinate,
    update_lambda2,
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
    log_posterior_unnorm,
    make_prior,
    sample_beta_prior_da,
)
from .rng import RngStream
from .special import (
    _LOG_SQRT_2PI,
    _TAIL_CUT,
    log_std_normal_cdf,
    mills_ratio,
)
from .tilted import (
    TiltedParams,
    d2log_density,
    find_mode,
    is_logconcave,
    mode_bounds,
    sample_tilted,
    tangent_hull,
)

KS_COEFF = 1.63
MASS_TOL = 1e-6
TAIL_TOL = 1e-8
# log drop below the mode at which a tail is certainly negligible
_DROP = 46.0
# grid doublings a table may take before it gives up
_DOUBLINGS = 7
# log Phi and the normal hazard over a node array
_log_phi = np.vectorize(log_std_normal_cdf, otypes=[float])
_hazard = np.vectorize(mills_ratio, otypes=[float])


def _log_phi_distinct(x):
    """_log_phi(x), evaluated once per distinct value of x.  On the
    frozen-theta slices the argument is theta at every node, up to a few
    rounding variants, so this is a handful of calls instead of one per
    node, with the same values."""
    values, where = np.unique(x, return_inverse=True)
    return _log_phi(values)[where].reshape(np.shape(x))


class OracleError(ValueError):
    """A quadrature table could not vouch for its own accuracy."""


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


def _within(f, x):
    """f at the positive nodes of x, -inf at the others."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    inside = x > 0.0
    out[inside] = f(x[inside])
    return out


def _log_mass(log_density, xs):
    logf = _eval_log(log_density, xs)
    if np.isnan(logf).any() or np.isposinf(logf).any():
        raise OracleError("log density is NaN or +inf on the grid")
    m = float(logf.max())
    if not math.isfinite(m):
        raise OracleError("log density has no finite value on the grid")
    w = np.exp(logf - m)
    c = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1])
                                         * np.diff(xs))])
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
    n = grid.nodes
    coarse = _log_mass(log_density, np.linspace(grid.lower, grid.upper, n))[0]
    for _ in range(_DOUBLINGS):
        n = 2 * (n - 1) + 1
        lm, xs, logf, w, c = _log_mass(
            log_density, np.linspace(grid.lower, grid.upper, n))
        delta = abs(lm - coarse)
        if delta <= MASS_TOL:
            _check_tails(log_density, xs, logf, w, float(c[-1]))
            return CdfTable(xs, c / c[-1], lm)
        coarse = lm
    raise OracleError(
        f"mass did not stabilize under grid doubling (last change "
        f"{delta:.2e} in log mass)")


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
# hierarchical versus closed-form prior

def prior_equivalence_check(form, sigma2, lambda1, lambda2, size, rng):
    """KS of one coefficient drawn through the latent scales against
    quadrature of the closed-form prior."""
    sigma = math.sqrt(sigma2)
    if form == "common":
        ld = lambda x: -(lambda2 * x * x + lambda1 * np.abs(x)) / (2.0 * sigma2)
    else:
        ld = (lambda x: -lambda2 * x * x / (2.0 * sigma2)
              - lambda1 * np.abs(x) / sigma)
    half = 16.0 * math.sqrt(sigma2 / lambda2)
    return ks_test(
        sample_beta_prior_da(form, size, sigma2, lambda1, lambda2, rng),
        quadrature_cdf(ld, QuadratureGrid(-half, half, 80001)))


# ---------------------------------------------------------------------------
# named validation checks

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _guarded(name, check, *args):
    """check(*args), or a failed check named name that names the
    exception check raised."""
    try:
        return check(*args)
    except Exception as exc:
        return CheckResult(name, False,
                           f"raised {type(exc).__name__}: {exc}")


def _ks_line(name, n, rng, draw, table):
    """The KS verdict of n values of draw(rng) against the certified
    table that table() builds, as a check (_guarded)."""
    def check():
        d, ok = ks_test([draw(rng) for _ in range(n)], table())
        return CheckResult(
            name, ok, f"D={d:.4f} threshold={ks_threshold(n):.4f} N={n}")
    return _guarded(name, check)


def _refresh(kernel, data, prior, state, read):
    """A draw(rng) that reads one value off a fresh copy of the frozen
    state after kernel(data, prior, copy, rng): a draw of its conditional."""
    def draw(rng):
        st = replace(state, beta=state.beta.copy(),
                     tau2=None if state.tau2 is None else state.tau2.copy())
        kernel(data, prior, st, rng)
        return read(st)
    return draw


def _fixed_check_data():
    # small fixed two-predictor problem shared by the kernel checks
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
    lp = coefficient_slice_log_density(data, prior, state)
    name = "coefficient-kernel-ks" + ("" if form == "common" else f"-{form}")
    return _ks_line(name, n, RngStream(seed, 61), _refresh(
        lambda d, pr, st, r: updater(d, pr, st, 0, r), data, prior, state,
        lambda st: st.beta[0]),
        lambda: auto_cdf(lp, bracket=(-25.0, 25.0)))


def sweep_coordinates(form, sigma2, lambda1, lambda2):
    """The rejection sweeps' scale parametrization, restated here so the
    adjudication does not lean on the kernels' own arithmetic."""
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
        t = np.array([0.4, 0.7] if form == "common" else [0.8, 1.6])
        tau2 = t / (1.0 - t) if form == "common" else 1.0 / t
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


def coefficient_slice_log_density(data, prior, state):
    """Log joint posterior as a function of the first coefficient b1 of
    the two-predictor check problem (kernel_check_setup), the second
    coefficient and the scales frozen, over a node array.  It keeps the
    terms free of b1: the residual sum of squares of the pair, its ridge
    and its l1 penalty."""
    s2, l1, l2 = state.sigma2, state.lambda1, state.lambda2
    if l1 < 0.0 or l2 <= 0.0 or s2 <= 0.0:
        raise ValueError("scales must be positive (lambda1 may be zero)")
    a11, a12, a22 = data.xtx[0, 0], data.xtx[0, 1], data.xtx[1, 1]
    g1, g2 = data.xty[0], data.xty[1]
    b2 = state.beta[1]

    def lp(b1):
        rss = (data.yty - 2.0 * (b1 * g1 + b2 * g2)
               + a11 * b1 * b1 + 2.0 * a12 * b1 * b2 + a22 * b2 * b2)
        val = -0.5 * (rss + l2 * (b1 * b1 + b2 * b2)) / s2
        norm1 = np.abs(b1) + np.abs(b2)
        if prior.form == "common":
            return val - 0.5 * l1 * norm1 / s2
        return val - l1 * norm1 / math.sqrt(s2)

    return lp


def scale_slice_log_density(data, prior, state, which):
    """Log joint posterior as a function of one scale coordinate.

    The free coordinate is one of the sweep's transformed scales ("u1",
    "u2", "theta"), the natural "sigma2" (differential form, where the
    variance is not coupled to the rates) or the natural "lambda2" (both
    forms, at fixed sigma2 and lambda1).  Everything else stays
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
    """Log joint prior of (beta, z) as a function of the first latent
    z = tau2[0], the rest frozen, over a node array; the terms free of
    it are dropped.  The likelihood carries no latent.  From the density
    of tau = 1 + 1/z (common form), propto tau^(-1/2) exp(-B tau) above
    1, or of t = 1/z, propto exp(-B t) (1 + lambda2 t)^(-1/2), times the
    Jacobian 1/z^2 and beta_1's normal density given z, both forms give
    z^(-3/2) exp(-A z - B/z), with A and B below."""
    b2 = state.beta[0] ** 2
    s2, l1, l2 = state.sigma2, state.lambda1, state.lambda2
    if prior.form == "common":
        a, b = l2 * b2 / (2.0 * s2), l1 * l1 / (8.0 * s2 * l2)
    else:
        a, b = b2 / (2.0 * s2), 0.5 * l1 * l1
    return lambda x: _within(
        lambda z: -1.5 * np.log(z) - a * z - b / z, x)


def da_beta_marginal_cdf(data, prior, state):
    """CDF table for the first coefficient of the augmented conditional.

    Given the latents z, beta is exactly normal with precision
    X'X/sigma2 + diag(1/v), v = sigma2/(lambda2 (1 + z)) (common) or
    sigma2/(z + lambda2), restated apart from model.latent_precision,
    and mean the inverse of the precision times X'y/sigma2.  The first
    coefficient is N(m, sd^2), sd^2 the inverse's [0, 0] entry.  The
    table is auto_cdf's certified quadrature of that log density, so it
    shares no normal-tail code with the kernels.
    """
    s2, z, l2 = state.sigma2, state.tau2, state.lambda2
    v = s2 / (l2 * (1.0 + z) if prior.form == "common" else z + l2)
    cov = np.linalg.inv(data.xtx / s2 + np.diag(1.0 / v))
    m, var = (cov @ (data.xty / s2))[0], cov[0, 0]
    sd = math.sqrt(var)
    return auto_cdf(lambda x: -(x - m) ** 2 / (2.0 * var),
                    (m - 20.0 * sd, m + 20.0 * sd))


def beta_block_ks(data, prior, state, n, rng):
    """The block update's first coefficient against its exact Gaussian
    marginal under the augmented conditional (da_beta_marginal_cdf)."""
    return _ks_line(f"kernel-{prior.form}-da-beta-block", n, rng,
                    _refresh(update_beta_block, data, prior, state,
                             lambda st: st.beta[0]),
                    lambda: da_beta_marginal_cdf(data, prior, state))


# each form's scale blocks; a line's substream is its index here, so a
# block added at the end leaves every other line's draws unchanged
_SCALE_CASES = {
    "common": (("u1", update_u1_common),
               ("u2", update_u2_common),
               ("theta", update_theta_common),
               ("lambda2", update_lambda2)),
    "differential": (("sigma2", update_sigma2_differential_rs),
                     ("u2", update_u2_differential),
                     ("theta", update_theta_differential),
                     ("lambda2", update_lambda2)),
}

# the sweep coordinate each slice frees; None for the natural lambda2
_COORD_INDEX = {"u1": 0, "sigma2": 0, "u2": 1, "theta": 2, "lambda2": None}


def slice_coordinate(form, which, state):
    """The value in state of the coordinate a scale slice frees."""
    if which == "lambda2":
        return state.lambda2
    return sweep_coordinates(form, state.sigma2, state.lambda1,
                             state.lambda2)[_COORD_INDEX[which]]


def full_conditional_checks(n=10000, seed=0):
    """KS of every scale and latent kernel the four rejection sweeps
    use, each against quadrature of the matching joint-posterior slice.
    The scale blocks read beta alone, through its sums, in both
    representations, so the direct check state covers them; the
    augmented one checks tau2 (against the prior's slice: the likelihood
    carries no tau2) and the block update of beta.  The coordinate
    update of beta has its own check (beta_kernel_ks_check).
    """
    checks = []
    # a private substream per check keeps each verdict independent of
    # the others and of the order the checks run in
    root = RngStream(seed, 71)
    for fi, form in enumerate(("common", "differential")):
        data, prior, state = kernel_check_setup(form, "direct")
        sums = coefficient_sums(data, state)
        for ci, (which, kernel) in enumerate(_SCALE_CASES[form]):
            lp = scale_slice_log_density(data, prior, state, which)
            checks.append(_ks_line(
                f"kernel-{form}-direct-{which}", n, root.substream(fi, 0, ci),
                _refresh(lambda d, pr, st, r: kernel(d, pr, st, sums, r),
                         data, prior, state,
                         lambda st: slice_coordinate(form, which, st)),
                lambda: auto_cdf(lp, (1e-10, 1e6))))
        data, prior, state = kernel_check_setup(form, "da")
        checks.append(_ks_line(
            f"kernel-{form}-da-tau2", n, root.substream(fi, 1, 7),
            _refresh(update_tau2, data, prior, state, lambda st: st.tau2[0]),
            lambda: auto_cdf(tau2_slice_log_density(prior, state),
                             (1e-10, 1e6))))
        checks.append(beta_block_ks(data, prior, state, n,
                                    root.substream(fi, 1, 8)))
    return checks


def distribution_ks_checks(n, rng):
    """KS of each scalar sampler against quadrature of its log density,
    drawn in a fixed order from one stream."""
    table = quadrature_cdf(lambda x: -0.5 * x * x,
                           QuadratureGrid(-10.0, 10.0))
    checks = [_ks_line("quadrature-self-test", n, rng,
                       lambda r: table.inverse(r.gen.random()),
                       lambda: table)]
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
        ("modified-half-normal-concave",
         lambda x: np.where(x > 0.0, 2.0 * np.log(np.maximum(x, 1e-300))
                            - 2.0 * x * x - 2.0 * x, -np.inf),
         (1e-8, 1e3), lambda r: sample_mhn(3.0, 2.0, 2.0, r)),
    ]
    for q in (1, 2, 4):
        p = TiltedParams(q, 3.5, 1.1)
        cases.append((f"tilted-q{q}", lambda x, p=p: _tilted_log_density(p, x),
                      (1e-8, 1e3), lambda r, p=p: sample_tilted(p, r)))
    # a < 1 is unbounded at 0, so this line tests log x, whose density
    # x f(x) is bounded; the KS distance is the same on either scale
    small = TiltedParams(4, 0.4, 0.9)
    cases.append(("tilted-small-shape",
                  lambda y: y + _tilted_log_density(small, np.exp(y)),
                  (-200.0, 8.0),
                  lambda r: math.log(sample_tilted(small, r))))
    return checks + [_ks_line(f"ks-{name}", n, rng, draw,
                              lambda: auto_cdf(ld, bracket))
                     for name, ld, bracket, draw in cases]


def kept_hull_ks_checks(n, seed):
    """KS of two members each drawn through one kept hull, as a chain's
    draws share it, each draw after one at a rate up to spread times
    higher or lower: the a = 1 tilted member (8, 1, 2) at scaled c, and
    the design-1 u1 member gig(-8, 0.57, 159) at scaled psi."""
    p = TiltedParams(8, 1.0, 2.0)
    theta_kept = tangent_hull(p.q, p.a)
    lam, psi, chi = -8.0, 0.57, 159.0
    u1_kept = GigHull(lam)
    # (name, stream, log spread, sample(scale, rng), log density, bracket)
    cases = (
        ("ks-tilted-kept-hull", 207, math.log(10.0),
         lambda k, r: sample_tilted(replace(p, c=p.c * k), r, theta_kept),
         lambda x: _tilted_log_density(p, x), (1e-8, 1e3)),
        ("ks-gig-kept-hull", 208, math.log(3.0),
         lambda k, r: sample_gig(lam, psi * k, chi, r, u1_kept),
         lambda x: (lam - 1.0) * np.log(x) - 0.5 * (psi * x + chi / x),
         (1e-8, 1e4)),
    )
    checks = []
    for name, stream, spread, sample, ld, bracket in cases:
        def draw(r):
            # a draw at a scaled rate, then the one the line keeps
            sample(math.exp(r.gen.uniform(-spread, spread)), r)
            return sample(1.0, r)

        checks.append(_ks_line(name, n, RngStream(seed, stream), draw,
                               lambda: auto_cdf(ld, bracket)))
    return checks


def _tilted_log_density(p, x):
    """tilted.log_density over a node array.  Past the tail cut,
    -q x^2/2 - q log Phi(-x) is read as q log(sqrt(2 pi) h(x)), h the
    normal hazard: formed apart, the two terms cancel to an error of
    about 1e-10 by x = 1e3."""
    def log_f(x):
        out = (p.a - 1.0) * np.log(x) - 0.5 * p.q * x * x - p.c * x
        near = x <= _TAIL_CUT
        out[near] -= p.q * _log_phi(-x[near])
        far = x[~near]
        out[~near] = ((p.a - 1.0) * np.log(far) - p.c * far
                      + p.q * (np.log(_hazard(far)) + _LOG_SQRT_2PI))
        return out

    return _within(log_f, x)


def _prior_equivalence_check(form, n, rng):
    details = []
    ok = True
    for sigma2, lam1, lam2 in ((1.0, 1.0, 1.0), (2.0, 3.0, 0.5)):
        d, passed = prior_equivalence_check(form, sigma2, lam1, lam2, n, rng)
        ok = ok and passed
        details.append(f"D={d:.4f}@({sigma2:g},{lam1:g},{lam2:g})")
    details.append(f"threshold={ks_threshold(n):.4f} N={n}")
    return CheckResult(f"prior-equivalence-{form}", ok, " ".join(details))


def _concave_on_grid(p, mode):
    sd = 1.0 / math.sqrt(max(-d2log_density(p, max(mode, 0.1)), 1e-6))
    lo = max(mode - 8.0 * sd, 1e-4 * max(mode, sd))
    hi = mode + 8.0 * sd
    xs = np.linspace(lo, hi, 400)
    vals = _tilted_log_density(p, xs)
    slopes = np.diff(vals) / np.diff(xs)
    scale = max(1.0, float(np.abs(slopes).max()))
    return bool(np.all(np.diff(slopes) <= 1e-9 * scale))


def _tilted_property_check(n_sets, rng):
    """3 n_sets members with a in [1, 12], c in [0.05, 5.05] and q in
    {1, 2, 4}: each certified log-concave, concave on a grid around its
    mode, and with its mode inside mode_bounds."""
    gen = rng.gen
    bad = []
    for k in range(3 * n_sets):
        q = int(gen.choice([1, 2, 4]))
        p = TiltedParams(q, 1.0 + 11.0 * gen.random(),
                         0.05 + 5.0 * gen.random())
        if not is_logconcave(p):
            bad.append((k, "not flagged log-concave"))
            continue
        mode = find_mode(p)
        if not _concave_on_grid(p, mode):
            bad.append((k, "second differences"))
        lo, hi = mode_bounds(p)
        if not (lo - 1e-9 <= mode <= hi + 1e-9):
            bad.append((k, "mode outside bounds"))
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


def run_validation_suite(seed=0, quick=False, beta_updater=None):
    """Every named check, in a stable order, as CheckResult rows."""
    n_ks = 5000 if quick else 20000
    n_eq = 20000 if quick else 100000
    n_sets = 25 if quick else 100
    n_beta = 2000 if quick else 5000
    n_kern = 2000 if quick else 10000

    checks = distribution_ks_checks(n_ks, RngStream(seed, 201))
    checks.extend(kept_hull_ks_checks(n_ks, seed))
    for stream, form in ((202, "common"), (203, "differential")):
        checks.append(_guarded(f"prior-equivalence-{form}",
                               _prior_equivalence_check, form, n_eq,
                               RngStream(seed, stream)))
    checks.append(_guarded("tilted-property-suite", _tilted_property_check,
                           n_sets, RngStream(seed, 204)))
    checks.append(_guarded("mills-gordon-sandwich", _gordon_check,
                           4 * n_sets, RngStream(seed, 205)))
    for form in ("common", "differential"):
        checks.append(beta_kernel_ks_check(
            n=n_beta, seed=seed, updater=beta_updater, form=form))
    checks.extend(full_conditional_checks(n=n_kern, seed=seed))
    return checks
