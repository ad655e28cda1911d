"""Full-conditional updates and sweep drivers.

A sampler is an algorithm plus a prior.  The prior (PriorSpec) carries
the form (common or differential) and the representation (direct or
data-augmented); the algorithm is one of

* "rs": every block is drawn exactly by rejection sampling.
  The scale parameters are updated in the transformed coordinates
  (u1, u2, theta), whose full conditionals are generalized inverse
  Gaussian, modified half normal, and tail-tilted respectively.
* "mh": beta (and tau2 in the augmented representation) keep
  their exact updates; sigma2, lambda1, lambda2 move by random-walk
  Metropolis on the log scale, with a unit step and the Jacobian
  correction.

A sampler's label is "algorithm-form-representation", e.g.
"rs-differential-da"; SAMPLERS lists all eight in a fixed order.

The coefficient blocks avoid per-element numpy work: the direct scan
does each coordinate's arithmetic in Python floats, and the augmented
representation draws beta with one Cholesky factor and one solve with
the precision, and all p latent scales with one vectorized
inverse-Gaussian call.

Update order within a sweep: beta, then tau2 where present, then the
scales.  beta and tau2 do not move while the scales do, so run_sweep
reduces them once to a model.CoefficientSums, and every scale block,
rejection or Metropolis, reads them only through those sums.  The state
holds only the natural parameters; each rejection scale kernel derives
the transformed coordinates it conditions on and maps its draw back to
(sigma2, lambda1, lambda2).
"""

import math
import time

import numpy as np

from .diagnostics import ChainOutput, DERIVED_NAMES, derived_penalty_columns
from .distributions import (
    sample_gig,
    sample_inverse_gamma,
    sample_inverse_gaussian,
    sample_mhn,
    sample_truncated_normal,
)
from .model import (
    FORMS,
    REPRESENTATIONS,
    coefficient_sums,
    from_transformed,
    initial_state,
    log_posterior_unnorm,
    to_transformed,
)
from .rng import log_uniform
from .special import log_std_normal_cdf
from .tilted import TiltedParams, sample_tilted

ALGORITHMS = ("rs", "mh")

SAMPLERS = tuple(f"{algorithm}-{form}-{representation}"
                 for algorithm in ALGORITHMS
                 for form in FORMS
                 for representation in REPRESENTATIONS)


def parse_sampler(text):
    """(algorithm, form, representation) of a label in SAMPLERS."""
    label = text.strip().lower()
    if label not in SAMPLERS:
        raise ValueError(f"sampler must be one of {', '.join(SAMPLERS)}; "
                         f"got {text!r}")
    return tuple(label.split("-"))


def sampler_label(algorithm, prior):
    """The label, as in SAMPLERS, of `algorithm` run on `prior`."""
    return f"{algorithm}-{prior.form}-{prior.representation}"


def check_sweep_supported(algorithm, prior):
    """Reject combinations whose conditionals fall outside the certified
    log-concave family."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if (algorithm == "rs" and prior.representation == "direct"
            and prior.L < 1.0):
        raise ValueError(
            "rejection sweeps in the direct representation need L >= 1 "
            "(the rate conditional is not certified log-concave); "
            "use the augmented representation instead")


def update_beta_coordinate(data, prior, state, j, rng):
    """Exact draw of beta_j from its two-piece truncated-normal conditional.

    The side weights are formed entirely in log space
    (log Phi(mu/s) + mu^2/(2 s^2)); the shared Gaussian constant cancels.
    The arithmetic is on Python floats; the one array operation is the
    dot product with row j of X'X.
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
    mu_neg = (r + t) / prec
    lw_pos = log_std_normal_cdf(mu_pos / sj) + 0.5 * mu_pos * mu_pos / sj2
    lw_neg = log_std_normal_cdf(-mu_neg / sj) + 0.5 * mu_neg * mu_neg / sj2
    gap = min(lw_neg - lw_pos, 700.0)
    prob_pos = 1.0 / (1.0 + math.exp(gap))
    if rng.gen.random() < prob_pos:
        beta[j] = sample_truncated_normal(mu_pos, sj2, "nonnegative", rng)
    else:
        beta[j] = sample_truncated_normal(mu_neg, sj2, "negative", rng)


def update_beta_direct(data, prior, state, rng):
    """Coordinate scan of the two-piece conditional over all of beta."""
    for j in range(data.p):
        update_beta_coordinate(data, prior, state, j, rng)


def update_beta_block(data, prior, state, rng):
    """Joint Gaussian update of beta given the latent scales: with the
    precision Q = L L', beta = Q^-1 (X'y + sigma L z) is distributed
    N(Q^-1 X'y, sigma^2 Q^-1)."""
    if prior.form == "common":
        om = np.maximum(1.0 - state.tau2, 1e-14)
        extra = state.lambda2 / om
    else:
        extra = 1.0 / state.tau2 + state.lambda2
    prec = data.xtx + np.diag(extra)
    chol = np.linalg.cholesky(prec)
    z = rng.gen.standard_normal(data.p)
    state.beta = np.linalg.solve(
        prec, data.xty + math.sqrt(state.sigma2) * (chol @ z))


def update_tau2(data, prior, state, rng):
    """Exact update of the latent scales: one vectorized inverse-Gaussian
    draw of all p of them, written into state.tau2.

    |beta_j| is clamped below at 1e-12 sigma so the inverse-Gaussian mean
    stays finite when a coefficient collapses onto zero.
    """
    lam1, lam2, s2 = state.lambda1, state.lambda2, state.sigma2
    sigma = math.sqrt(s2)
    mag = np.maximum(np.abs(state.beta), 1e-12 * sigma)
    if prior.form == "common":
        z = sample_inverse_gaussian((lam1 / (2.0 * lam2)) / mag,
                                    lam1 * lam1 / (4.0 * lam2 * s2), rng)
        np.minimum(z / (1.0 + z), 1.0 - 1e-15, out=state.tau2)
    else:
        z = sample_inverse_gaussian((sigma * lam1) / mag, lam1 * lam1, rng)
        np.divide(1.0, z, out=state.tau2)


def update_u1_common(data, prior, state, sums, rng):
    """u1 = sigma^2 under the common scaling: generalized inverse Gaussian.

    Identical in both representations (the augmented beta and tau2 priors
    carry no u1 once written in the transformed coordinates).
    """
    _, u2, theta = to_transformed(
        "common", state.sigma2, state.lambda1, state.lambda2)
    order = prior.R + prior.L - 0.5 * (prior.nu_a + data.n - 1.0)
    psi = u2 ** 2 * prior.nu2 + 2.0 * u2 * theta * prior.nu1
    u1 = sample_gig(order, psi, sums.rss + prior.nu_b, rng)
    state.sigma2, state.lambda1, state.lambda2 = from_transformed(
        "common", u1, u2, theta)


def update_u2_common(data, prior, state, sums, rng):
    """u2 = sqrt(lam2)/sigma: modified half normal."""
    u1, _, theta = to_transformed(
        "common", state.sigma2, state.lambda1, state.lambda2)
    alpha = 2.0 * prior.R + prior.L + data.p
    if prior.representation == "direct":
        quad = 0.5 * (u1 * prior.nu2 + sums.bb)
        lin = theta * (u1 * prior.nu1 + sums.b1)
    else:
        quad = 0.5 * (u1 * prior.nu2 + sums.beta2_w)
        lin = u1 * theta * prior.nu1
    u2 = sample_mhn(alpha, quad, lin, rng)
    state.sigma2, state.lambda1, state.lambda2 = from_transformed(
        "common", u1, u2, theta)


def update_theta_common(data, prior, state, sums, rng):
    """theta = lam1/(2 sigma sqrt(lam2)): tail-tilted conditional."""
    p = data.p
    u1, u2, _ = to_transformed(
        "common", state.sigma2, state.lambda1, state.lambda2)
    if prior.representation == "direct":
        tp = TiltedParams(p, prior.L, 0.5 * p,
                          u2 * (u1 * prior.nu1 + sums.b1))
    else:
        tp = TiltedParams(p, p + prior.L, 0.5 * sums.inv_tau2,
                          u1 * u2 * prior.nu1)
    theta = sample_tilted(tp, rng)
    state.sigma2, state.lambda1, state.lambda2 = from_transformed(
        "common", u1, u2, theta)


def update_sigma2_differential_rs(data, prior, state, sums, rng):
    """Exact sigma2 update for the differential scaling.

    Direct representation: 1/sigma has a modified-half-normal conditional
    with power n + p + nu_a - 1 (the change of variables from sigma2 to
    1/sigma contributes the extra cubic factor).  Augmented
    representation: inverse gamma.
    """
    p, n = data.p, data.n
    if prior.representation == "direct":
        quad = 0.5 * (sums.rss + state.lambda2 * sums.bb + prior.nu_b)
        lin = state.lambda1 * sums.b1
        x = sample_mhn(n + p + prior.nu_a - 1.0, quad, lin, rng)
        state.sigma2 = 1.0 / (x * x)
    else:
        shape = 0.5 * (p + prior.nu_a + n - 1.0)
        scale = 0.5 * (prior.nu_b + sums.rss + sums.beta2_w
                       + state.lambda2 * sums.bb)
        state.sigma2 = sample_inverse_gamma(shape, scale, rng)


def update_u2_differential(data, prior, state, sums, rng):
    """u2 = sqrt(lam2) under the differential scaling: modified half normal."""
    p = data.p
    _, _, theta = to_transformed(
        "differential", state.sigma2, state.lambda1, state.lambda2)
    if prior.representation == "direct":
        alpha = 2.0 * prior.R + prior.L + p
        quad = 0.5 * (sums.bb / state.sigma2 + prior.nu2)
        lin = theta * (sums.b1 / math.sqrt(state.sigma2) + 0.5 * prior.nu1)
    else:
        alpha = 2.0 * p + 2.0 * prior.R + prior.L
        quad = 0.5 * (sums.bb / state.sigma2 + prior.nu2
                      + theta ** 2 * sums.tau2)
        lin = 0.5 * theta * prior.nu1
    u2 = sample_mhn(alpha, quad, lin, rng)
    state.sigma2, state.lambda1, state.lambda2 = from_transformed(
        "differential", state.sigma2, u2, theta)


def update_theta_differential(data, prior, state, sums, rng):
    """theta = lam1/sqrt(lam2): tail-tilted conditional."""
    p = data.p
    _, u2, _ = to_transformed(
        "differential", state.sigma2, state.lambda1, state.lambda2)
    if prior.representation == "direct":
        tp = TiltedParams(
            p, prior.L, 0.5 * p,
            u2 * (sums.b1 / math.sqrt(state.sigma2) + 0.5 * prior.nu1))
    else:
        tp = TiltedParams(p, p + prior.L, 0.5 * (p + u2 ** 2 * sums.tau2),
                          0.5 * u2 * prior.nu1)
    theta = sample_tilted(tp, rng)
    state.sigma2, state.lambda1, state.lambda2 = from_transformed(
        "differential", state.sigma2, u2, theta)


# the scales Metropolis moves, in update order
MH_SCALES = ("sigma2", "lambda1", "lambda2")


def mh_update_scales(data, prior, state, sums, rng, counts):
    """Random-walk Metropolis on log sigma2, log lambda1, log lambda2,
    each with a unit step.

    sums must equal coefficient_sums(data, prior, state); each of the
    four log posteriors is then O(1) scalar arithmetic.
    """
    cur_lp = log_posterior_unnorm(data, prior, state, sums)
    for name in MH_SCALES:
        cur = getattr(state, name)
        prop = cur * math.exp(rng.gen.standard_normal())
        setattr(state, name, prop)
        trial_lp = log_posterior_unnorm(data, prior, state, sums)
        counts[name][1] += 1
        if log_uniform(rng) < (trial_lp - cur_lp
                               + math.log(prop) - math.log(cur)):
            cur_lp = trial_lp
            counts[name][0] += 1
        else:
            setattr(state, name, cur)


def run_sweep(algorithm, data, prior, state, rng, counts=None):
    """One full scan over all blocks; mutates and returns the state."""
    if prior.representation == "direct":
        update_beta_direct(data, prior, state, rng)
    else:
        update_beta_block(data, prior, state, rng)
        update_tau2(data, prior, state, rng)
    # beta and tau2 stay put while the scales move
    sums = coefficient_sums(data, prior, state)
    if algorithm == "rs":
        if prior.form == "common":
            update_u1_common(data, prior, state, sums, rng)
            update_u2_common(data, prior, state, sums, rng)
            update_theta_common(data, prior, state, sums, rng)
        else:
            update_sigma2_differential_rs(data, prior, state, sums, rng)
            update_u2_differential(data, prior, state, sums, rng)
            update_theta_differential(data, prior, state, sums, rng)
    else:
        if counts is None:
            counts = {name: [0, 0] for name in MH_SCALES}
        mh_update_scales(data, prior, state, sums, rng, counts)
    return state


def run_chain(algorithm, data, prior, rng, iters=10000, burnin=100, thin=1):
    """Run burnin + iters*thin sweeps and keep iters draws.

    Stored columns: beta_1..beta_p, sigma2, lambda1, lambda2, plus the
    derived penalty columns from the diagnostics module.
    """
    check_sweep_supported(algorithm, prior)
    if iters < 1 or burnin < 0 or thin < 1:
        raise ValueError("iters >= 1, burnin >= 0, thin >= 1 required")
    state = initial_state(data, prior)
    # [accepted, proposed] per Metropolis scale
    counts = ({name: [0, 0] for name in MH_SCALES} if algorithm == "mh"
              else {})
    p = data.p
    kept = np.empty((iters, p + 3))
    k = 0
    t0 = time.perf_counter()
    for it in range(burnin + iters * thin):
        run_sweep(algorithm, data, prior, state, rng, counts)
        if it >= burnin and (it - burnin) % thin == 0 and k < iters:
            kept[k, :p] = state.beta
            kept[k, p] = state.sigma2
            kept[k, p + 1] = state.lambda1
            kept[k, p + 2] = state.lambda2
            k += 1
    wall_ms = 1e3 * (time.perf_counter() - t0)
    names = ([f"beta_{j + 1}" for j in range(p)]
             + ["sigma2", "lambda1", "lambda2"] + list(DERIVED_NAMES))
    derived = derived_penalty_columns(kept[:, p + 1], kept[:, p + 2])
    draws = np.column_stack([kept] + derived)
    return ChainOutput(
        draws=draws,
        parameter_names=names,
        kind_label=sampler_label(algorithm, prior),
        acceptance={name: tuple(v) for name, v in counts.items()},
        wall_ms=wall_ms,
    )
