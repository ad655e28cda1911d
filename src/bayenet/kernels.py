"""Full-conditional updates and sweep drivers.

A sampler is an algorithm plus a prior.  The prior (PriorSpec) carries
the form (common or differential) and the representation (direct or
data-augmented); the algorithm is one of

* "rs": every block is drawn exactly by rejection sampling.
  The scale parameters are updated in the transformed coordinates
  (u1, u2, theta), whose full conditionals are generalized inverse
  Gaussian, modified half normal, and tail-tilted respectively (the
  differential form draws 1/sigma, modified half normal, for u1).
  Both forms also draw lambda2 at fixed sigma2 and lambda1:
  hazard-tilted gamma, not log-concave, proposed from a gamma
  envelope.  The common sweep draws it between u2 and theta, the
  differential one last.  u2 and theta are correlated so strongly
  that their two blocks alone move lambda2 slowly.
  Two blocks keep their hull across sweeps.  theta's conditional
  changes from sweep to sweep only in its rate c, which moves none of
  the tangents of its adaptive rejection hull, so each chain keeps one
  hull for all its theta draws (theta_hull) and a draw reweighs it at
  the new c instead of building one.  theta_hull checks the family
  (p, L) once per chain, so each draw passes sample_tilted the
  rate c alone and checks only that c is finite and positive.  At
  L < 1 the draws are small-shape ones and keep no hull.  u1's gig
  conditional keeps its order, and on its centred log scale only
  omega = sqrt(psi chi) moves, which moves none of the crossings of its
  hull's tangents, so each chain also keeps one gig hull (u1_hull, a
  distributions.GigHull).  Its fit at each draw resets its tangents and
  reweighs them, and rebuilds it only when the mode or width has moved
  too far from its knots.  The draws stay exact: each is a rejection draw
  under a hull that dominates its target and depends only on earlier
  draws.
* "mh": beta (and tau2 in the augmented representation) keep
  their exact updates; sigma2, lambda1, lambda2 move by random-walk
  Metropolis on the log scale, with the Jacobian correction.  Each
  scale's step is tuned during burn-in toward acceptance MH_TARGET and
  then frozen, so the kept draws form a time-homogeneous Markov chain.

A sampler's label is "algorithm-form-representation", e.g.
"rs-differential-da"; SAMPLERS lists all eight in a fixed order.

The coefficient blocks avoid per-element numpy work: the direct scan
does each coordinate's arithmetic in Python floats, inlines log Phi's
erfc branches and the truncated normal's a <= 0.5 regime (the far tail
and Robert's regime still call special and distributions), and takes
its scalar draws from the stream's buffered blocks (rng.RngStream); the
augmented representation draws beta with one solve with the precision
and no factor of it, and all p latents with one inverse-Gaussian call,
whose draws the state keeps as they are.  That call's arithmetic runs in
Python floats up to p = model.LATENT_FLOAT_MAX, where numpy's fixed cost
per call outweighs its work, and in numpy above it, with the same draws
bit for bit; model.coefficient_sums takes the same cut.  A Metropolis
sweep draws its three step normals and three acceptance uniforms with
one generator call each, and the rejection scale blocks draw every
scalar variate from the stream's buffered blocks.

Update order: run_sweep, one body for all eight samplers, draws beta
by the representation's block, reduces it once to a
model.CoefficientSums (beta does not move while the scales do, and
every scale block, rejection or Metropolis, reads it only through those
sums), draws the scale blocks the algorithm and form choose, and in the
augmented representation ends with update_tau2.  The scales are drawn
from the conditionals of the posterior of (beta, sigma2, lambda1,
lambda2), which read beta alone, with tau2 integrated out.  This is
partially collapsed Gibbs (van Dyk & Park 2008, JASA 103): each step
leaves the posterior invariant.  Drawn given tau2, lambda1 would mix like a
data-augmentation scale: in chains of 1000 kept draws on designs 1 and
3, integrating tau2 out raised its ESS in the four augmented samplers
2.4-13 fold, to about the level of their direct twins.  So the
representation decides only the coefficient block and update_tau2.
The state holds only the natural parameters.  Each rejection scale
block computes the one or two sweep coordinates its conditional holds
fixed and assigns only the natural parameters its draw moves: u1 all
three, u2 lambda1 and lambda2, theta lambda1 alone.
"""

import math
import time

import numpy as np

from .diagnostics import ChainOutput, DERIVED_NAMES, derived_penalty_columns
from .distributions import (
    GigHull,
    require_finite,
    sample_gig,
    sample_hazard_gamma,
    sample_inverse_gaussian,
    sample_mhn,
    sample_truncated_normal,
)
from .model import (
    FORMS,
    LATENT_FLOAT_MAX,
    REPRESENTATIONS,
    coefficient_sums,
    initial_state,
    latent_precision,
    log_posterior_unnorm,
)
from .special import _SQRT2, _TAIL_CUT, log_std_normal_cdf
from .tilted import TiltedParams, sample_tilted, tangent_hull

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
    product with row j of X'X.  log Phi's two erfc branches and the
    truncated normal's a <= 0.5 regime run inline, with the operations
    of special.log_std_normal_cdf and
    distributions.sample_truncated_normal in their order, so the draws
    are theirs bit for bit; the far tail x < -5, Robert's regime
    a > 0.5 and a non-finite mean or variance still call them.  The
    uniforms and normals are popped from the stream's blocks in place,
    through rng.uniform() and rng.normal() only to refill them.

    A conditional standard deviation that underflows to 0 (sigma2 tiny
    against X'X + lambda2, as a response in units far too small puts
    it) is refused with a ValueError that names the response's scale.
    """
    beta = state.beta
    lam2, s2 = state.lambda2, state.sigma2
    if not lam2 < math.inf:
        # every conditional variance would be 0, and mu / s divide by it
        require_finite(lambda2=lam2)
    t = (0.5 * state.lambda1 if prior.form == "common"
         else math.sqrt(s2) * state.lambda1)
    col_sq_norms, xtx_rows = data.col_sq_norms, data.xtx_rows
    xty = data.xty.tolist()
    uniform, normal = rng.uniform, rng.normal
    us, zs = rng.uniforms, rng.normals
    erfc, log, log1p, exp, sqrt = (math.erfc, math.log, math.log1p,
                                   math.exp, math.sqrt)
    sqrt2, tail, inf = _SQRT2, -_TAIL_CUT, math.inf
    try:
        for j in coords:
            xtx_jj = col_sq_norms[j]
            prec = xtx_jj + lam2
            sj2 = s2 / prec
            sj = sqrt(sj2)
            r = xty[j] - (float(xtx_rows[j].dot(beta))
                          - xtx_jj * beta.item(j))
            mu_pos = (r - t) / prec
            mu_neg = (r + t) / prec
            x_pos = mu_pos / sj
            x_neg = -mu_neg / sj
            if x_pos > 0.0:
                lw_pos = log1p(-0.5 * erfc(x_pos / sqrt2))
            elif x_pos >= tail:
                lw_pos = log(0.5 * erfc(-x_pos / sqrt2))
            else:
                lw_pos = log_std_normal_cdf(x_pos)
            if x_neg > 0.0:
                lw_neg = log1p(-0.5 * erfc(x_neg / sqrt2))
            elif x_neg >= tail:
                lw_neg = log(0.5 * erfc(-x_neg / sqrt2))
            else:
                lw_neg = log_std_normal_cdf(x_neg)
            gap = ((lw_neg + 0.5 * mu_neg * mu_neg / sj2)
                   - (lw_pos + 0.5 * mu_pos * mu_pos / sj2))
            if gap > 700.0:
                gap = 700.0
            # -x is the truncation point a, as (-m)/s == -(m/s) exactly
            if (us.pop() if us else uniform()) < 1.0 / (1.0 + exp(gap)):
                if x_pos >= -0.5 and -inf < mu_pos < inf and sj2 < inf:
                    a = -x_pos
                    z = zs.pop() if zs else normal()
                    while z < a:
                        z = zs.pop() if zs else normal()
                    b = mu_pos + sj * z
                    beta[j] = 0.0 if b < 0.0 else b
                else:
                    beta[j] = sample_truncated_normal(mu_pos, sj2,
                                                      "nonnegative", rng)
            elif x_neg >= -0.5 and -inf < mu_neg < inf and sj2 < inf:
                # an exact 0 is redrawn: the negative side is x < 0
                a = -x_neg
                while True:
                    z = zs.pop() if zs else normal()
                    if z >= a:
                        b = -mu_neg + sj * z
                        if b > 0.0:
                            break
                beta[j] = -b
            else:
                beta[j] = sample_truncated_normal(mu_neg, sj2, "negative",
                                                  rng)
    except ZeroDivisionError:
        raise ValueError(
            f"beta_{j + 1}'s conditional standard deviation underflows to "
            f"0 at sigma2 = {s2:.3g}, lambda2 = {lam2:.3g}: the response's "
            f"scale (centred sum of squares {data.yty:.3g}) is too small "
            "for the sampler in doubles; rescale y") from None


def update_beta_block(data, prior, state, rng):
    """Joint Gaussian update of beta given the latents, with one solve and
    no factor of the precision Q = X'X + diag(latent_precision) = X'X + D:
    with the data's fixed root R'R = X'X (k x p) and z, e standard normal
    of sizes p and k, D^1/2 z + R'e has covariance Q, so
    beta = Q^-1 (X'y + sigma (D^1/2 z + R'e)) is distributed
    N(Q^-1 X'y, sigma^2 Q^-1) (Bhattacharya, Chakraborty & Mallick 2016).
    """
    extra = latent_precision(prior.form, state.tau2, state.lambda2)
    prec = data.xtx.copy()
    prec.ravel()[::data.p + 1] += extra
    root = data.xtx_root
    ze = rng.gen.standard_normal(data.p + root.shape[0])
    noise = np.sqrt(extra) * ze[:data.p] + ze[data.p:].dot(root)
    state.beta = np.linalg.solve(
        prec, data.xty + math.sqrt(state.sigma2) * noise)


def update_tau2(data, prior, state, rng):
    """Exact update of the latents: one inverse-Gaussian call for all p
    of them, stored in state.tau2 as drawn (model's z).  At p up to
    LATENT_FLOAT_MAX the means are a list of floats and the draw runs in
    floats, above it in numpy; the draws are the same bits either way.

    |beta_j| is clamped below at 1e-12 sigma so the inverse-Gaussian mean
    stays finite when a coefficient collapses onto zero; a nan |beta_j|
    stays nan, as through np.maximum, and the draw refuses it by name.
    A shape that underflows to 0, as lambda1 near 1e-200 under a prior
    with L << 1 makes it, is refused with a ValueError naming lambda1
    and L.
    """
    lam1, lam2, s2 = state.lambda1, state.lambda2, state.sigma2
    sigma = math.sqrt(s2)
    # the inverse-Gaussian mean is numer / |beta_j|
    if prior.form == "common":
        numer, shape = lam1 / (2.0 * lam2), lam1 * lam1 / (4.0 * lam2 * s2)
    else:
        numer, shape = sigma * lam1, lam1 * lam1
    if shape == 0.0:
        raise ValueError(
            f"lambda1 = {lam1:.3g} is too small for the latent scales' "
            "draw: their inverse-Gaussian shape underflows to 0 (the "
            f"prior's L = {prior.L:g} puts lambda1's mass near 0)")
    floor = 1e-12 * sigma
    if data.p <= LATENT_FLOAT_MAX:
        # b < floor is False for a nan b, which stays
        mean = [numer / (floor if b < floor else b)
                for b in map(abs, state.beta.tolist())]
    else:
        mag = np.abs(state.beta)
        np.maximum(mag, floor, out=mag)
        mean = numer / mag
    state.tau2 = sample_inverse_gaussian(mean, shape, rng)


def _u1_order(data, prior):
    """The order of u1's gig conditional, fixed for a chain."""
    return prior.R + prior.L - 0.5 * (prior.nu_a + data.n - 1.0)


def update_u1_common(data, prior, state, sums, rng, hull=None):
    """u1 = sigma^2 under the common scaling: generalized inverse
    Gaussian; hull is u1_hull's, or None for a fresh one."""
    u2 = math.sqrt(state.lambda2 / state.sigma2)
    theta = state.lambda1 / (2.0 * state.sigma2 * u2)
    psi = u2 ** 2 * prior.nu2 + 2.0 * u2 * theta * prior.nu1
    u1 = sample_gig(_u1_order(data, prior), psi, sums.rss + prior.nu_b, rng,
                    hull)
    state.sigma2 = u1
    state.lambda1, state.lambda2 = 2.0 * theta * u2 * u1, u1 * u2 * u2


def update_u2_common(data, prior, state, sums, rng):
    """u2 = sqrt(lam2)/sigma: modified half normal."""
    u1 = state.sigma2
    theta = state.lambda1 / (2.0 * u1 * math.sqrt(state.lambda2 / u1))
    u2 = sample_mhn(2.0 * prior.R + prior.L + data.p,
                    0.5 * (u1 * prior.nu2 + sums.bb),
                    theta * (u1 * prior.nu1 + sums.b1), rng)
    state.lambda1, state.lambda2 = 2.0 * theta * u2 * u1, u1 * u2 * u2


def update_theta_common(data, prior, state, sums, rng, hull=None):
    """theta = lam1/(2 sigma sqrt(lam2)): tail-tilted conditional, not
    log-concave for L < 1; hull is theta_hull's, whose family the chain
    checked once, so the draw passes the rate alone, or None for the
    member (p, L, c) in full."""
    u1 = state.sigma2
    u2 = math.sqrt(state.lambda2 / u1)
    c = u2 * (u1 * prior.nu1 + sums.b1)
    theta = sample_tilted(
        TiltedParams(data.p, prior.L, c) if hull is None else c, rng, hull)
    state.lambda1 = 2.0 * theta * u2 * u1


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
    theta = state.lambda1 / math.sqrt(state.lambda2)
    u2 = sample_mhn(
        2.0 * prior.R + prior.L + data.p,
        0.5 * (sums.bb / state.sigma2 + prior.nu2),
        theta * (sums.b1 / math.sqrt(state.sigma2) + 0.5 * prior.nu1), rng)
    state.lambda1, state.lambda2 = theta * u2, u2 * u2


def update_theta_differential(data, prior, state, sums, rng, hull=None):
    """theta = lam1/sqrt(lam2): tail-tilted conditional, not log-concave
    for L < 1; hull as in update_theta_common."""
    u2 = math.sqrt(state.lambda2)
    c = u2 * (sums.b1 / math.sqrt(state.sigma2) + 0.5 * prior.nu1)
    theta = sample_tilted(
        TiltedParams(data.p, prior.L, c) if hull is None else c, rng, hull)
    state.lambda1 = theta * u2


def update_lambda2(data, prior, state, sums, rng):
    """lambda2 with sigma2 and lambda1 held fixed: hazard-tilted gamma
    hgamma(R, (nu2 + b'b/sigma2)/2, p, t), the same in both forms but
    for t, lambda1/(2 sigma) in the common form and lambda1 in the
    differential one.

    The u2 and theta blocks move lambda2 only at fixed theta; this draw
    moves it at fixed lambda1, the other parameterization (an
    interweaving step, Yu & Meng 2011).
    """
    s2 = state.sigma2
    t = (0.5 * state.lambda1 / math.sqrt(s2) if prior.form == "common"
         else state.lambda1)
    state.lambda2 = sample_hazard_gamma(
        prior.R, 0.5 * (prior.nu2 + sums.bb / s2), data.p, t, rng)


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
    four log posteriors is then O(1) scalar arithmetic.  The sweep's
    three step normals and three acceptance uniforms come from one
    gen.standard_normal(3) and one gen.random(3) call, in that order; a
    uniform of exactly 0 is redrawn with gen.random() when its scale's
    turn comes.
    """
    gen = rng.gen
    normals = gen.standard_normal(len(MH_SCALES)).tolist()
    uniforms = gen.random(len(MH_SCALES)).tolist()
    cur_lp = log_posterior_unnorm(data, prior, state, sums)
    for name, step, z, u in zip(MH_SCALES, steps, normals, uniforms):
        cur = getattr(state, name)
        prop = cur * math.exp(step * z)
        setattr(state, name, prop)
        trial_lp = log_posterior_unnorm(data, prior, state, sums)
        counts[name][1] += 1
        while u <= 0.0:
            u = gen.random()
        if math.log(u) < (trial_lp - cur_lp
                          + math.log(prop) - math.log(cur)):
            cur_lp = trial_lp
            counts[name][0] += 1
        else:
            setattr(state, name, cur)


def new_counts(algorithm):
    """[accepted, proposed] per Metropolis scale; none for "rs"."""
    return ({name: [0, 0] for name in MH_SCALES} if algorithm == "mh"
            else {})


def theta_hull(data, prior):
    """An empty hull for theta's draws in one chain, or None at L < 1,
    whose small-shape draws keep none.  In both forms theta's
    conditional is the tilted member (p, L, c), and only c moves from
    sweep to sweep, so the tangents one draw adds serve the next.
    tangent_hull checks the family (p, L) here, once per chain; each
    draw checks only its rate c."""
    return tangent_hull(data.p, prior.L)


def u1_hull(data, prior):
    """An empty hull for u1's draws in one common-form chain: u1's gig
    conditional keeps its order from sweep to sweep, and the tangents of
    the gig on its centred log scale cross where no (psi, chi) moves
    them."""
    return GigHull(_u1_order(data, prior))


def run_sweep(algorithm, data, prior, state, rng, counts=None,
              steps=(1.0,) * len(MH_SCALES), hulls=None):
    """One full scan over all blocks; mutates and returns the state.
    steps are the Metropolis log-scale steps, in MH_SCALES order; hulls
    is the chain's (theta_hull, u1_hull) pair, or None for fresh ones
    per draw."""
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"algorithm must be one of {ALGORITHMS}, not {algorithm!r}")
    direct = prior.representation == "direct"
    if direct:
        update_beta_direct(data, prior, state, rng)
    else:
        update_beta_block(data, prior, state, rng)
    # beta stays put while the scales move
    sums = coefficient_sums(data, state)
    if algorithm == "rs":
        theta_kept, u1_kept = hulls or (None, None)
        if prior.form == "common":
            update_u1_common(data, prior, state, sums, rng, u1_kept)
            update_u2_common(data, prior, state, sums, rng)
            update_lambda2(data, prior, state, sums, rng)
            update_theta_common(data, prior, state, sums, rng, theta_kept)
        else:
            update_sigma2_differential_rs(data, prior, state, sums, rng)
            update_u2_differential(data, prior, state, sums, rng)
            update_theta_differential(data, prior, state, sums, rng,
                                      theta_kept)
            update_lambda2(data, prior, state, sums, rng)
    else:
        if counts is None:
            counts = new_counts(algorithm)
        mh_update_scales(data, prior, state, sums, steps, rng, counts)
    if not direct:
        # partially collapsed Gibbs: tau2 last, at the new scales
        update_tau2(data, prior, state, rng)
    return state


def run_chain(algorithm, data, prior, rng, iters=10000, burnin=100, thin=1):
    """Run burnin + iters*thin sweeps and keep iters draws.

    Burn-in sweep t of a Metropolis chain moves each scale's log step by
    (t + 1)^-1/2 (accepted - MH_TARGET); the kept sweeps run at the
    steps burn-in ends with, and only they count towards the acceptance.
    The tuning draws no random numbers.  The kept hulls of theta's and
    u1's draws are the chain's own (theta_hull, u1_hull), made here and
    dropped with the chain.  wall_ms and cpu_ms time the whole chain,
    burn-in included; cpu_ms is the calling thread's CPU time.

    Stored columns: beta_1..beta_p, sigma2, lambda1, lambda2, plus the
    derived penalty columns from the diagnostics module.
    """
    if iters < 1 or burnin < 0 or thin < 1:
        raise ValueError("iters >= 1, burnin >= 0, thin >= 1 required")
    state = initial_state(data, prior)
    hulls = (theta_hull(data, prior), u1_hull(data, prior))
    log_steps = [0.0] * len(MH_SCALES)
    steps = [1.0] * len(MH_SCALES)
    p = data.p
    kept = np.empty((iters, p + 3))
    # one row write per kept draw: the scales go in once, at the end
    scales = []
    t0, cpu0 = time.perf_counter(), time.thread_time()
    for t in range(burnin):
        counts = new_counts(algorithm)
        run_sweep(algorithm, data, prior, state, rng, counts, steps, hulls)
        if counts:
            gain = (t + 1.0) ** -0.5
            for i, name in enumerate(MH_SCALES):
                log_steps[i] += gain * (counts[name][0] - MH_TARGET)
                steps[i] = math.exp(log_steps[i])
    counts = new_counts(algorithm)
    for it in range(iters * thin):
        run_sweep(algorithm, data, prior, state, rng, counts, steps, hulls)
        if it % thin == 0:
            kept[it // thin, :p] = state.beta
            scales.append((state.sigma2, state.lambda1, state.lambda2))
    kept[:, p:] = scales
    wall_ms = 1e3 * (time.perf_counter() - t0)
    cpu_ms = 1e3 * (time.thread_time() - cpu0)
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
        cpu_ms=cpu_ms,
    )
