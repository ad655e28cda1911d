"""Shared oracle helpers for the test suite.

The CDF tables here are built directly from explicit log-density
formulas by dense trapezoid integration (error far below the KS
resolution used), independently of the package's own quadrature module.
segment_log_mass is the exact mass of one hull segment, from which
reference_weights gives the segment weights a hull should hold.
to_transformed and from_transformed map the natural scales to the
rejection sweeps' coordinates (u1, u2, theta) and back, which the
kernels never do as a whole; log_posterior_transformed is the slice
target the kernel checks compare the rejection blocks against.
log_likelihood_from_rss, log_prior_from_sums and log_hyperprior are
the log posterior's three terms, each written out apart, with its
constants formed at every call: reference_log_posterior sums them, the
reference model.log_posterior_unnorm's flat body is pinned to, and
log_integrated_likelihood and log_prior_beta reach them from beta, which
is how the tests pin those pieces to closed forms;
log_prior_da writes the augmented prior out here, independently of the
package, which reads it only with the latents integrated out: over the
stored latents z, through their old coordinate t (latent_t_coordinate),
in which latent_t_slice is the oracle's former tau2 slice.  reference_scan_beta
is the direct coefficient scan written plainly, through
log_std_normal_cdf and sample_truncated_normal, which the package's scan
inlines; reference_coefficient_sums reduces beta with the matmul
operator, where the package calls ndarray.dot above its float cut, and
reference_float_coefficient_sums restates, term by term, the Python-float
pass it takes at or below the cut.
"""

import csv
import io
import math
from bisect import bisect_right

import numpy as np

from bayenet.distributions import require_finite, sample_truncated_normal
from bayenet.model import (CoefficientSums, coefficient_sums,
                           log_posterior_unnorm, rss)
from bayenet.simulate import format_cell, write_csv
from bayenet.special import log_std_normal_cdf


def cdf_table(logpdf, lo, hi, n=20001):
    """Normalized CDF of exp(logpdf) tabulated on [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    ls = np.array([float(logpdf(x)) for x in xs])
    ps = np.exp(ls - ls.max())
    c = np.concatenate(
        [[0.0], np.cumsum(0.5 * (ps[1:] + ps[:-1]) * np.diff(xs))])
    c /= c[-1]
    return xs, c


def ks_statistic(draws, xs, c):
    """Kolmogorov-Smirnov distance of draws from the tabulated CDF."""
    s = np.sort(np.asarray(draws, dtype=float))
    F = np.interp(s, xs, c, left=0.0, right=1.0)
    n = len(s)
    i = np.arange(1, n + 1)
    return max((i / n - F).max(), (F - (i - 1) / n).max())


def ks_threshold(n):
    """Asymptotic 1% critical value."""
    return 1.63 / np.sqrt(n)


def write_dataset_csv(path, y, X):
    """A dataset file `bayenet fit --data` reads: y, then x1..xp."""
    X = np.asarray(X, dtype=float)
    header = ["y"] + [f"x{j + 1}" for j in range(X.shape[1])]
    write_csv(path, header, np.column_stack([y, X]))


def csv_cell_by_cell(header, rows):
    """The bytes of a CSV file rendered one cell at a time: csv.writer
    over format_cell's cells, the reference for write_csv."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([format_cell(v) for v in row] for row in rows)
    return buf.getvalue().encode()


def to_transformed(form, sigma2, lambda1, lambda2):
    """(u1, u2, theta): u1 = sigma2 in both forms, u2 = sqrt(lam2)/sigma
    and theta = lam1/(2 sigma sqrt(lam2)) in the common one, u2 =
    sqrt(lam2) and theta = lam1/sqrt(lam2) in the differential one."""
    if form == "common":
        u2 = math.sqrt(lambda2 / sigma2)
        return sigma2, u2, lambda1 / (2.0 * sigma2 * u2)
    u2 = math.sqrt(lambda2)
    return sigma2, u2, lambda1 / u2


def from_transformed(form, u1, u2, theta):
    """(sigma2, lambda1, lambda2) of the sweep coordinates (u1, u2,
    theta): to_transformed's inverse."""
    if form == "common":
        return u1, 2.0 * theta * u2 * u1, u1 * u2 * u2
    return u1, theta * u2, u2 * u2


def log_posterior_transformed(data, prior, state):
    """Log posterior in (u1, u2, theta) coordinates, Jacobian included.

    This is the target the rejection kernels sample; the change of
    variables contributes 4 u1^2 u2^2 (common) or 2 u2^2 (differential).
    """
    val = log_posterior_unnorm(data, prior, state,
                               coefficient_sums(data, state))
    u1, u2, _ = to_transformed(prior.form, state.sigma2, state.lambda1,
                               state.lambda2)
    if prior.form == "common":
        return val + math.log(4.0) + 2.0 * (math.log(u1) + math.log(u2))
    return val + math.log(2.0) + 2.0 * math.log(u2)


def log_likelihood_from_rss(n, rss_value, sigma2):
    """Log likelihood with the flat intercept integrated out, from the
    residual sum of squares."""
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    return (-0.5 * (n - 1) * (math.log(2.0 * math.pi) + math.log(sigma2))
            - 0.5 * math.log(n)
            - 0.5 * rss_value / sigma2)


def log_prior_from_sums(form, sums, sigma2, lambda1, lambda2):
    """Normalized joint log prior of beta from its sums: two-piece
    truncated normals, whatever the representation (the augmented
    prior with tau2 integrated out)."""
    p = sums.p
    sigma = math.sqrt(sigma2)
    if form == "common":
        r = lambda1 / (2.0 * sigma * math.sqrt(lambda2))
        rest = -(lambda2 * sums.bb + lambda1 * sums.b1) / (2.0 * sigma2)
    elif form == "differential":
        r = lambda1 / math.sqrt(lambda2)
        rest = (-lambda2 * sums.bb / (2.0 * sigma2)
                - lambda1 * sums.b1 / sigma)
    else:
        raise ValueError(f"unknown form {form!r}")
    return (-p * math.log(2.0)
            - 0.5 * p * (math.log(2.0 * math.pi) + math.log(sigma2 / lambda2))
            - 0.5 * p * r * r
            - p * log_std_normal_cdf(-r)
            + rest)


def log_hyperprior(prior, sigma2, lambda1, lambda2):
    """Normalized joint log density of the gamma(L, nu1/2) and
    gamma(R, nu2/2) rates and the inverse-gamma(nu_a/2, nu_b/2) sigma2,
    without the last's normalizer when it is improper."""
    if not (sigma2 > 0.0 and lambda1 > 0.0 and lambda2 > 0.0):
        raise ValueError("hyperparameters must be positive")
    val = (prior.L * math.log(0.5 * prior.nu1) - math.lgamma(prior.L)
           + (prior.L - 1.0) * math.log(lambda1) - 0.5 * prior.nu1 * lambda1)
    val += (prior.R * math.log(0.5 * prior.nu2) - math.lgamma(prior.R)
            + (prior.R - 1.0) * math.log(lambda2) - 0.5 * prior.nu2 * lambda2)
    a, b = 0.5 * prior.nu_a, 0.5 * prior.nu_b
    val += -(a + 1.0) * math.log(sigma2) - b / sigma2
    if a > 0.0 and b > 0.0:
        val += a * math.log(b) - math.lgamma(a)
    return val


def reference_log_posterior(data, prior, state, sums):
    """model.log_posterior_unnorm as the sum of its three terms."""
    args = (state.sigma2, state.lambda1, state.lambda2)
    return (log_likelihood_from_rss(data.n, sums.rss, state.sigma2)
            + log_prior_from_sums(prior.form, sums, *args)
            + log_hyperprior(prior, *args))


def log_integrated_likelihood(data, beta, sigma2):
    """Likelihood with the flat intercept integrated out."""
    return log_likelihood_from_rss(data.n, rss(data, beta), sigma2)


def log_prior_beta(form, beta, sigma2, lambda1, lambda2):
    """Normalized log density of beta under either prior form."""
    beta = np.asarray(beta, dtype=float)
    # the prior reads no rss
    sums = CoefficientSums(beta.size, math.nan, float(beta @ beta),
                           float(np.abs(beta).sum()))
    return log_prior_from_sums(form, sums, sigma2, lambda1, lambda2)


def latent_t_coordinate(form, tau2):
    """(t, log |dt/dz|) of the latents z = tau2: t = z/(1 + z) = 1/tau
    in the common form and t = 1/z in the differential one, the
    coordinate the augmented prior is written in below."""
    z = np.asarray(tau2, dtype=float)
    if form == "common":
        return z / (1.0 + z), -2.0 * np.log1p(z)
    return 1.0 / z, -2.0 * np.log(z)


def log_prior_da(form, beta, tau2, sigma2, lambda1, lambda2):
    """Joint log density of (beta, z) in the augmented representation:
    beta_j given z_j is normal with variance (sigma2/lambda2)(1 - t)
    (common) or sigma2 t/(1 + lambda2 t) (differential), t as in
    latent_t_coordinate, times the latents' prior; -inf outside their
    support."""
    tau = log_prior_tau2(form, tau2, sigma2, lambda1, lambda2)
    if tau == -math.inf:
        return tau
    beta = np.asarray(beta, dtype=float)
    z = np.asarray(tau2, dtype=float)
    if form == "common":
        # 1 - t = 1/(1 + z), which 1 - z/(1 + z) loses once z is large
        v = (sigma2 / lambda2) / (1.0 + z)
    else:
        t = 1.0 / z
        v = sigma2 * t / (1.0 + lambda2 * t)
    return tau + float(np.sum(-0.5 * np.log(2.0 * math.pi * v)
                              - 0.5 * beta * beta / v))


def latent_t_slice(form, b, sigma2, lambda1, lambda2):
    """log of the joint density of (beta_1 = b, t) as a function of t
    over a node array, the terms free of t dropped: the latent's slice
    in the coordinate t of latent_t_coordinate, where it carries no
    Jacobian."""
    b2, s2, l1, l2 = b * b, sigma2, lambda1, lambda2
    if form == "common":
        r2 = l1 * l1 / (4.0 * s2 * l2)
        return lambda t: (-0.5 * np.log1p(-t)
                          - 0.5 * l2 * b2 / (s2 * (1.0 - t))
                          - 1.5 * np.log(t) - 0.5 * r2 / t)
    return lambda t: (-0.5 * np.log(t) - 0.5 * b2 / (s2 * t)
                      - 0.5 * l1 * l1 * t)


def latent_scale_norm(form, sigma2, lambda1, lambda2):
    """(r, const) of the latent scales' prior: const is the log
    normalizer per coordinate, r the common form's rate
    lambda1 / (2 sigma sqrt(lambda2)) or the differential form's
    lambda1 / sqrt(lambda2)."""
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)
    if form == "common":
        r = lambda1 / (2.0 * math.sqrt(sigma2) * math.sqrt(lambda2))
        return r, (-math.log(2.0) - half_log_2pi - log_std_normal_cdf(-r)
                   + math.log(r))
    th = lambda1 / math.sqrt(lambda2)
    return th, (-math.log(2.0) - half_log_2pi - log_std_normal_cdf(-th)
                + math.log(lambda1) + 0.5 * math.log(lambda2)
                - 0.5 * th * th)


def log_prior_tau2(form, tau2, sigma2, lambda1, lambda2):
    """Normalized log density of the latents z, summed over j: their
    density in t (latent_t_coordinate) plus the log Jacobian."""
    z = np.asarray(tau2, dtype=float)
    p = z.size
    if not np.all((z > 0.0) & (z < math.inf)):
        return -math.inf
    t, log_jac = latent_t_coordinate(form, z)
    if form == "common":
        r, const = latent_scale_norm(form, sigma2, lambda1, lambda2)
        return float(p * const + np.sum(log_jac)
                     + np.sum(-1.5 * np.log(t) - 0.5 * r * r / t))
    _, const = latent_scale_norm(form, sigma2, lambda1, lambda2)
    return float(p * const + np.sum(log_jac)
                 + np.sum(-0.5 * np.log1p(lambda2 * t)
                          - 0.5 * lambda1 * lambda1 * t))


def segment_log_mass(lo, hi, slope, intercept):
    """log integral of exp(intercept + slope*x) over (lo, hi), inf where
    it diverges: the reference for the hulls' segment weights, itself
    checked against mpmath."""
    if slope == 0.0:
        return intercept + math.log(hi - lo) if hi > lo else -math.inf
    if slope > 0.0:
        d = slope * (lo - hi)
        tail = math.log(-math.expm1(d)) if d < 0.0 else -math.inf
        return intercept + slope * hi + tail - math.log(slope)
    d = slope * (hi - lo)
    tail = math.log(-math.expm1(d)) if d < 0.0 else -math.inf
    return intercept + slope * lo + tail - math.log(-slope)


def reference_weights(env):
    """The cumulative segment weights a hull should hold as its _cum,
    from the segment_log_mass of each of its segments."""
    masses = np.array([segment_log_mass(lo, hi, m, b) for lo, hi, m, b in zip(
        env.bounds, env.bounds[1:], env.slopes, env.intercepts)])
    cum = np.cumsum(np.exp(masses - masses.max()))
    return cum / cum[-1]


def hull_log_value(env, x):
    """Log of a PiecewiseExpEnvelope at x: the tangent of the segment
    holding x, the first or last one outside the bounds."""
    i = bisect_right(env.bounds, x) - 1
    i = min(max(i, 0), len(env.slopes) - 1)
    return env.intercepts[i] + env.slopes[i] * x


def reference_scan_beta(data, prior, state, rng):
    """The direct coefficient scan over j = 0..p-1, each coordinate drawn
    by calling log_std_normal_cdf for its side weights and
    sample_truncated_normal for its draw."""
    beta = state.beta
    lam2, s2 = state.lambda2, state.sigma2
    if not lam2 < math.inf:
        require_finite(lambda2=lam2)
    t = (0.5 * state.lambda1 if prior.form == "common"
         else math.sqrt(s2) * state.lambda1)
    for j in range(data.p):
        xtx_jj = data.col_sq_norms[j]
        prec = xtx_jj + lam2
        sj2 = s2 / prec
        sj = math.sqrt(sj2)
        r = data.xty.item(j) - (float(data.xtx_rows[j].dot(beta))
                                - xtx_jj * beta.item(j))
        mu_pos = (r - t) / prec
        mu_neg = (r + t) / prec
        lw_pos = log_std_normal_cdf(mu_pos / sj) + 0.5 * mu_pos * mu_pos / sj2
        lw_neg = (log_std_normal_cdf(-mu_neg / sj)
                  + 0.5 * mu_neg * mu_neg / sj2)
        gap = min(lw_neg - lw_pos, 700.0)
        if rng.uniform() < 1.0 / (1.0 + math.exp(gap)):
            beta[j] = sample_truncated_normal(mu_pos, sj2, "nonnegative", rng)
        else:
            beta[j] = sample_truncated_normal(mu_neg, sj2, "negative", rng)


def reference_coefficient_sums(data, beta):
    """model.coefficient_sums of beta through the matmul operator."""
    return CoefficientSums(
        beta.size,
        float(data.yty - 2.0 * beta @ data.xty + beta @ data.xtx @ beta),
        float(beta @ beta), float(np.abs(beta).sum()))


def reference_float_coefficient_sums(data, beta):
    """model.coefficient_sums of beta at p <= model.LATENT_FLOAT_MAX:
    each sum accumulated in Python floats in coefficient order, with
    X'X beta the one numpy product."""
    q = data.xtx.dot(beta)
    b = [float(v) for v in beta]
    bxy = bqb = bb = b1 = 0.0
    for j in range(len(b)):
        bxy = bxy + b[j] * float(data.xty[j])
        bqb = bqb + b[j] * float(q[j])
        bb = bb + b[j] * b[j]
        b1 = b1 + math.fabs(b[j])
    return CoefficientSums(len(b), data.yty - 2.0 * bxy + bqb, bb, b1)
