"""Full-conditional updates and sweep drivers.

A sampler is an algorithm plus a prior.  The prior (PriorSpec) carries
the form (common or differential) and the representation (direct or
data-augmented); the algorithm is one of

* "rs": every block is drawn exactly by rejection sampling.
  The scale parameters are updated in the transformed coordinates
  (u1, u2, theta), whose full conditionals are generalized inverse
  Gaussian, modified half normal, and tail-tilted respectively (the
  differential form draws 1/sigma, modified half normal, for u1).
  The differential form then draws lambda2 once more, at fixed
  lambda1: hazard-tilted gamma, not log-concave, proposed from a
  gamma envelope.  u2 and theta are correlated so strongly on a wide
  design that their two blocks alone move lambda2 slowly.
* "mh": beta (and tau2 in the augmented representation) keep
  their exact updates; sigma2, lambda1, lambda2 move by random-walk
  Metropolis on the log scale, with the Jacobian correction.  Each
  scale's step is tuned during burn-in toward acceptance MH_TARGET and
  then frozen, so the kept draws form a time-homogeneous Markov chain.

A sampler's label is "algorithm-form-representation", e.g.
"rs-differential-da"; SAMPLERS lists all eight in a fixed order.

The coefficient blocks avoid per-element numpy work: the direct scan
does each coordinate's arithmetic in Python floats and takes its scalar
draws from the stream's buffered blocks (rng.RngStream); the augmented
representation draws beta with one Cholesky factor and one solve with
the precision, and all p latent scales with one vectorized
inverse-Gaussian call.

Update order within a sweep: beta, then the scales, then tau2 where
present.  Every sweep draws the scales from the conditionals of the
posterior of (beta, sigma2, lambda1, lambda2), which read beta alone;
in the augmented representation tau2 is integrated out of them, and
update_tau2 then draws tau2 at the new scales.  This is partially
collapsed Gibbs (van Dyk & Park 2008, JASA 103): each step leaves the
posterior invariant.  Drawn given tau2, lambda1 would mix like a
data-augmentation scale: in chains of 1000 kept draws on designs 1 and
3, integrating tau2 out raised its ESS in the four augmented samplers
2.4-13 fold, to about the level of their direct twins.  So the
representation decides only the coefficient block and update_tau2.
beta does not move while the scales do, so run_sweep reduces it once to
a model.CoefficientSums, and every scale block, rejection or
Metropolis, reads it only through those sums.  The state holds only the
natural parameters; each rejection scale kernel derives the transformed
coordinates it conditions on and maps its draw back to (sigma2,
lambda1, lambda2).
"""

import math
import time

import numpy as np

from .diagnostics import ChainOutput, DERIVED_NAMES, derived_penalty_columns
from .distributions import (
    sample_gig,
    sample_hazard_gamma,
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


def sampler_label(algorithm, form, representation):
    """The label "algorithm-form-representation", as in SAMPLERS."""
    return f"{algorithm}-{form}-{representation}"


SAMPLERS = tuple(sampler_label(algorithm, form, representation)
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


def update_beta_coordinate(data, prior, state, j, rng):
    """Exact draw of beta_j from its two-piece truncated-normal
    conditional: update_beta_direct's scan over the one coordinate j."""
    _scan_beta(data, prior, state, (j,), rng)


def update_beta_direct(data, prior, state, rng):
    """Coordinate scan of the two-piece conditional over all of beta."""
    _scan_beta(data, prior, state, range(data.p), rng)


def _scan_beta(data, prior, state, coords, rng):
    """Draw beta_j for each j in coords, in order.

    The side weights are formed entirely in log space
    (log Phi(mu/s) + mu^2/(2 s^2)); the shared Gaussian constant cancels.
    The arithmetic is on Python floats, with the scales and data read
    once per call; the one array operation per coordinate is the dot
    product with row j of X'X.
    """
    beta = state.beta
    lam2, s2 = state.lambda2, state.sigma2
    t = (0.5 * state.lambda1 if prior.form == "common"
         else math.sqrt(s2) * state.lambda1)
    col_sq_norms, xtx_rows, xty = data.col_sq_norms, data.xtx_rows, data.xty
    uniform = rng.uniform
    for j in coords:
        xtx_jj = col_sq_norms[j]
        prec = xtx_jj + lam2
        sj2 = s2 / prec
        sj = math.sqrt(sj2)
        r = xty.item(j) - (float(xtx_rows[j].dot(beta))
                           - xtx_jj * beta.item(j))
        mu_pos = (r - t) / prec
        mu_neg = (r + t) / prec
        lw_pos = log_std_normal_cdf(mu_pos / sj) + 0.5 * mu_pos * mu_pos / sj2
        lw_neg = (log_std_normal_cdf(-mu_neg / sj)
                  + 0.5 * mu_neg * mu_neg / sj2)
        gap = min(lw_neg - lw_pos, 700.0)
        if uniform() < 1.0 / (1.0 + math.exp(gap)):
            beta[j] = sample_truncated_normal(mu_pos, sj2, "nonnegative", rng)
        else:
            beta[j] = sample_truncated_normal(mu_neg, sj2, "negative", rng)


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
    """u1 = sigma^2 under the common scaling: generalized inverse Gaussian."""
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
    u2 = sample_mhn(2.0 * prior.R + prior.L + data.p,
                    0.5 * (u1 * prior.nu2 + sums.bb),
                    theta * (u1 * prior.nu1 + sums.b1), rng)
    state.sigma2, state.lambda1, state.lambda2 = from_transformed(
        "common", u1, u2, theta)


def update_theta_common(data, prior, state, sums, rng):
    """theta = lam1/(2 sigma sqrt(lam2)): tail-tilted conditional, not
    log-concave for L < 1."""
    u1, u2, _ = to_transformed(
        "common", state.sigma2, state.lambda1, state.lambda2)
    theta = sample_tilted(TiltedParams(
        data.p, prior.L, 0.5 * data.p, u2 * (u1 * prior.nu1 + sums.b1)),
        rng)
    state.sigma2, state.lambda1, state.lambda2 = from_transformed(
        "common", u1, u2, theta)


def update_sigma2_differential_rs(data, prior, state, sums, rng):
    """Exact sigma2 update for the differential scaling: 1/sigma is
    modified half normal with power n + p + nu_a - 1 (the change of
    variables from sigma2 contributes the extra cubic factor)."""
    x = sample_mhn(
        data.n + data.p + prior.nu_a - 1.0,
        0.5 * (sums.rss + state.lambda2 * sums.bb + prior.nu_b),
        state.lambda1 * sums.b1, rng)
    state.sigma2 = 1.0 / (x * x)


def update_u2_differential(data, prior, state, sums, rng):
    """u2 = sqrt(lam2) under the differential scaling: modified half normal."""
    _, _, theta = to_transformed(
        "differential", state.sigma2, state.lambda1, state.lambda2)
    u2 = sample_mhn(
        2.0 * prior.R + prior.L + data.p,
        0.5 * (sums.bb / state.sigma2 + prior.nu2),
        theta * (sums.b1 / math.sqrt(state.sigma2) + 0.5 * prior.nu1), rng)
    state.sigma2, state.lambda1, state.lambda2 = from_transformed(
        "differential", state.sigma2, u2, theta)


def update_theta_differential(data, prior, state, sums, rng):
    """theta = lam1/sqrt(lam2): tail-tilted conditional, not log-concave
    for L < 1."""
    _, u2, _ = to_transformed(
        "differential", state.sigma2, state.lambda1, state.lambda2)
    theta = sample_tilted(TiltedParams(
        data.p, prior.L, 0.5 * data.p,
        u2 * (sums.b1 / math.sqrt(state.sigma2) + 0.5 * prior.nu1)), rng)
    state.sigma2, state.lambda1, state.lambda2 = from_transformed(
        "differential", state.sigma2, u2, theta)


def update_lambda2_differential(data, prior, state, sums, rng):
    """lambda2 with lambda1 held fixed: hazard-tilted gamma.

    The u2 and theta blocks move lambda2 only through u2 = sqrt(lambda2)
    at fixed theta = lambda1/sqrt(lambda2); this draw moves it at fixed
    lambda1, the other parameterization (an interweaving step, Yu & Meng
    2011).
    """
    state.lambda2 = sample_hazard_gamma(
        prior.R, 0.5 * (prior.nu2 + sums.bb / state.sigma2), data.p,
        state.lambda1, rng)


# the scales Metropolis moves, in update order
MH_SCALES = ("sigma2", "lambda1", "lambda2")

# Burn-in tunes each scale's log step toward this acceptance, the usual
# one-dimensional random-walk target (Roberts & Rosenthal 2001), with
# the Robbins-Monro gain (t + 1)^-1/2 at burn-in sweep t.
MH_TARGET = 0.44


def mh_update_scales(data, prior, state, sums, steps, rng, counts):
    """Random-walk Metropolis on log sigma2, log lambda1, log lambda2;
    steps holds each one's log-scale step, in MH_SCALES order.

    sums must equal coefficient_sums(data, state); each of the
    four log posteriors is then O(1) scalar arithmetic.
    """
    cur_lp = log_posterior_unnorm(data, prior, state, sums)
    for name, step in zip(MH_SCALES, steps):
        cur = getattr(state, name)
        prop = cur * math.exp(step * rng.gen.standard_normal())
        setattr(state, name, prop)
        trial_lp = log_posterior_unnorm(data, prior, state, sums)
        counts[name][1] += 1
        if log_uniform(rng) < (trial_lp - cur_lp
                               + math.log(prop) - math.log(cur)):
            cur_lp = trial_lp
            counts[name][0] += 1
        else:
            setattr(state, name, cur)


def new_counts(algorithm):
    """[accepted, proposed] per Metropolis scale; none for "rs"."""
    return ({name: [0, 0] for name in MH_SCALES} if algorithm == "mh"
            else {})


def run_sweep(algorithm, data, prior, state, rng, counts=None,
              steps=(1.0,) * len(MH_SCALES)):
    """One full scan over all blocks; mutates and returns the state.
    steps are the Metropolis log-scale steps, in MH_SCALES order."""
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"algorithm must be one of {ALGORITHMS}, not {algorithm!r}")
    if prior.representation == "direct":
        update_beta_direct(data, prior, state, rng)
        _update_scales(algorithm, data, prior, state, rng, counts, steps)
    else:
        # partially collapsed Gibbs: the scales given beta alone, with
        # tau2 integrated out, then tau2
        update_beta_block(data, prior, state, rng)
        _update_scales(algorithm, data, prior, state, rng, counts, steps)
        update_tau2(data, prior, state, rng)
    return state


def _update_scales(algorithm, data, prior, state, rng, counts, steps):
    # beta stays put while the scales move
    sums = coefficient_sums(data, state)
    if algorithm == "rs":
        if prior.form == "common":
            update_u1_common(data, prior, state, sums, rng)
            update_u2_common(data, prior, state, sums, rng)
            update_theta_common(data, prior, state, sums, rng)
        else:
            update_sigma2_differential_rs(data, prior, state, sums, rng)
            update_u2_differential(data, prior, state, sums, rng)
            update_theta_differential(data, prior, state, sums, rng)
            update_lambda2_differential(data, prior, state, sums, rng)
    else:
        if counts is None:
            counts = new_counts(algorithm)
        mh_update_scales(data, prior, state, sums, steps, rng, counts)


def run_chain(algorithm, data, prior, rng, iters=10000, burnin=100, thin=1):
    """Run burnin + iters*thin sweeps and keep iters draws.

    Burn-in sweep t of a Metropolis chain moves each scale's log step by
    (t + 1)^-1/2 (accepted - MH_TARGET); the kept sweeps run at the
    steps burn-in ends with, and only they count towards the acceptance.
    The tuning draws no random numbers.

    Stored columns: beta_1..beta_p, sigma2, lambda1, lambda2, plus the
    derived penalty columns from the diagnostics module.
    """
    if iters < 1 or burnin < 0 or thin < 1:
        raise ValueError("iters >= 1, burnin >= 0, thin >= 1 required")
    state = initial_state(data, prior)
    log_steps = [0.0] * len(MH_SCALES)
    steps = [1.0] * len(MH_SCALES)
    p = data.p
    kept = np.empty((iters, p + 3))
    t0 = time.perf_counter()
    for t in range(burnin):
        counts = new_counts(algorithm)
        run_sweep(algorithm, data, prior, state, rng, counts, steps)
        if counts:
            gain = (t + 1.0) ** -0.5
            for i, name in enumerate(MH_SCALES):
                log_steps[i] += gain * (counts[name][0] - MH_TARGET)
                steps[i] = math.exp(log_steps[i])
    counts = new_counts(algorithm)
    for it in range(iters * thin):
        run_sweep(algorithm, data, prior, state, rng, counts, steps)
        if it % thin == 0:
            k = it // thin
            kept[k, :p] = state.beta
            kept[k, p] = state.sigma2
            kept[k, p + 1] = state.lambda1
            kept[k, p + 2] = state.lambda2
    wall_ms = 1e3 * (time.perf_counter() - t0)
    names = ([f"beta_{j + 1}" for j in range(p)]
             + ["sigma2", "lambda1", "lambda2"] + list(DERIVED_NAMES))
    derived = derived_penalty_columns(kept[:, p + 1], kept[:, p + 2])
    draws = np.column_stack([kept] + derived)
    return ChainOutput(
        draws=draws,
        parameter_names=names,
        kind_label=sampler_label(algorithm, prior.form,
                                 prior.representation),
        acceptance={name: tuple(v) for name, v in counts.items()},
        mh_steps=dict(zip(counts, steps)),
        wall_ms=wall_ms,
    )
