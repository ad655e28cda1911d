"""Model state, priors and log densities for the Bayesian elastic net.

Two prior forms are supported, differing in how the l1 penalty scales
with the noise variance:

* "common":       pi(beta) propto exp(-(lam2 b'b + lam1 |b|_1) / (2 sigma^2))
* "differential": pi(beta) propto exp(-lam2 b'b / (2 sigma^2) - lam1 |b|_1 / sigma)

Each form has a direct representation (independent two-piece truncated
normals per coordinate) and a data-augmented one (a normal scale mixture
with one latent z_j per coordinate, held in ModelState.tau2 as the
inverse-Gaussian draw that updates it: 1/(tau_j - 1) in the common form
(Li & Lin 2010), 1/t_j in the differential one, as sample_tau2_prior
draws them; beta_j given z_j is N(0, sigma2 / latent_precision)).  The
representation decides only how beta is drawn, and whether the latents
are: the log posterior and the scale conditionals are those of (beta,
sigma2, lambda1, lambda2) with the latents integrated out, the same in
both.  The response and predictors are
mean-centered, and the intercept is integrated out of the likelihood,
which contributes an extra factor n^(-1/2) and reduces the exponent to
(n-1)/2.

The sampler state stores only the natural parameters (sigma2, lambda1,
lambda2).  The rejection kernels draw in the sweep coordinates
(u1, u2, theta); each block computes from the state the coordinates its
conditional holds fixed and assigns the natural parameters its draw
moves:

* common:       u1 = sigma^2, u2 = sqrt(lam2)/sigma, theta = lam1/(2 sigma sqrt(lam2))
* differential: u1 = sigma^2, u2 = sqrt(lam2),       theta = lam1/sqrt(lam2)

Hyperpriors: lam1 ~ gamma(L, rate nu1/2), lam2 ~ gamma(R, rate nu2/2),
sigma^2 ~ inverse-gamma(nu_a/2, nu_b/2), with the improper limit
nu_a = nu_b = 0 allowed.

log_posterior_unnorm is one flat body, the Metropolis sweeps' inner
loop: it takes one logarithm of each scale and forms the coefficient
prior's normalizer from log sigma2 - log lambda2, which stays finite
where the quotient sigma2/lambda2 underflows.  Its constants are
computed once: the likelihood's (1/2) log n per dataset
(RegressionData.half_log_n), and per prior the hyperpriors' summed log
normalizers and coefficients L - 1, nu1/2, R - 1, nu2/2, nu_a/2 + 1 and
nu_b/2 (PriorSpec.hyper_terms).  The sums of beta it reads
(coefficient_sums) are reduced once per sweep: in one Python-float pass
at p up to LATENT_FLOAT_MAX, the cut kernels.update_tau2 shares, and by
numpy above it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import require_finite, sample_truncated_normal
from .special import log_std_normal_cdf

FORMS = ("common", "differential")
REPRESENTATIONS = ("direct", "da")

PRIOR_PRESETS = {
    "weak": dict(L=1.0, nu1=1.0, R=1.0, nu2=1.0),
    "strong": dict(L=6.0, nu1=4.0, R=2.0, nu2=4.0),
}

_LOG_2PI = math.log(2.0 * math.pi)
# log 2 sqrt(2 pi): the two-piece normal prior's constant per coordinate
_LOG_2_SQRT_2PI = math.log(2.0) + 0.5 * _LOG_2PI


def check_finite_cells(y, X):
    """Raise ValueError naming the first nan or infinite cell.

    Rows are scanned in order, y before the predictors within a row;
    rows and predictor columns are counted from 1.
    """
    ok = np.isfinite(y) & np.isfinite(X).all(axis=1)
    if ok.all():
        return
    i = int(np.argmin(ok))
    if not math.isfinite(y[i]):
        where, value = "y", y[i]
    else:
        j = int(np.argmin(np.isfinite(X[i])))
        where, value = f"predictor column {j + 1}", X[i, j]
    raise ValueError(f"non-finite value {value} in row {i + 1}, {where}")


class RegressionData:
    """Centered response/predictors with the cross products kernels reuse."""

    def __init__(self, y, X):
        y = np.asarray(y, dtype=float)
        X = np.asarray(X, dtype=float)
        if y.ndim != 1 or X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("y must be (n,), X must be (n, p)")
        if X.shape[1] == 0:
            raise ValueError("X has no predictor columns")
        if y.shape[0] < 3:
            raise ValueError("need at least 3 observations")
        check_finite_cells(y, X)
        self.n, self.p = X.shape
        # the samplers divide by these sums and scale by them, so a
        # response or predictor that overflows them, or a response with
        # nothing to fit, is refused below rather than deep in a kernel
        with np.errstate(over="ignore", invalid="ignore"):
            self.y = y - y.mean()
            X = X - X.mean(axis=0)
            self.xtx = X.T @ X
            self.xty = X.T @ self.y
            self.yty = float(self.y @ self.y)
        if not math.isfinite(self.yty):
            raise ValueError("y is too large: its centred sum of squares "
                             "overflows")
        if self.yty == 0.0:
            raise ValueError("y does not vary: its centred sum of squares "
                             "is 0 (constant, or too small to square)")
        # a column's own square first: its overflow spills into the cross
        # products of every other column
        bad = ~np.isfinite(self.xtx.diagonal())
        if not bad.any():
            bad = ~(np.isfinite(self.xtx).all(axis=0)
                    & np.isfinite(self.xty))
        if bad.any():
            raise ValueError(f"predictor column {int(np.argmax(bad)) + 1} "
                             "is too large: its cross products overflow")
        # a k x p root of X'X, R'R = X'X with k = min(n, p), so the block
        # draw's noise costs k * p per sweep whatever n is
        self.xtx_root = np.linalg.qr(X, mode="r")
        # floats and row views for the coordinate scan's scalar arithmetic
        self.col_sq_norms = self.xtx.diagonal().tolist()
        self.xtx_rows = list(self.xtx)
        # the likelihood's constant n^(-1/2), once per dataset
        self.half_log_n = 0.5 * math.log(self.n)


@dataclass(frozen=True)
class PriorSpec:
    form: str
    representation: str
    L: float
    nu1: float
    R: float
    nu2: float
    nu_a: float = 1.0
    nu_b: float = 1.0

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(
                f"representation must be one of {REPRESENTATIONS}")
        require_finite(L=self.L, nu1=self.nu1, R=self.R, nu2=self.nu2,
                       nu_a=self.nu_a, nu_b=self.nu_b)
        for name in ("L", "nu1", "R", "nu2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.nu_a < 0.0 or self.nu_b < 0.0:
            raise ValueError("nu_a and nu_b must be nonnegative")
        # the hyperpriors' joint log density is log_norm + (L - 1) log
        # lambda1 - nu1/2 lambda1 + (R - 1) log lambda2 - nu2/2 lambda2
        # - (nu_a/2 + 1) log sigma2 - nu_b/2 / sigma2: log_norm (no sigma2
        # term for an improper sigma2 prior) and the six coefficients,
        # once per prior, for every log_posterior_unnorm
        a, b = 0.5 * self.nu_a, 0.5 * self.nu_b
        log_norm = (self.L * math.log(0.5 * self.nu1) - math.lgamma(self.L)
                    + self.R * math.log(0.5 * self.nu2)
                    - math.lgamma(self.R))
        if a > 0.0 and b > 0.0:
            log_norm += a * math.log(b) - math.lgamma(a)
        object.__setattr__(self, "hyper_terms", (
            log_norm, self.L - 1.0, 0.5 * self.nu1, self.R - 1.0,
            0.5 * self.nu2, a + 1.0, b))


def make_prior(form, representation, preset=None, **params):
    """PriorSpec from a named preset ('weak'/'strong') or explicit values."""
    if preset is not None:
        if preset not in PRIOR_PRESETS:
            raise ValueError(f"unknown preset {preset!r}")
        merged = dict(PRIOR_PRESETS[preset])
        merged.update(params)
        return PriorSpec(form, representation, **merged)
    return PriorSpec(form, representation, **params)


@dataclass
class ModelState:
    beta: np.ndarray
    sigma2: float
    lambda1: float
    lambda2: float
    tau2: np.ndarray = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        for name in ("sigma2", "lambda1", "lambda2"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")


def initial_state(data, prior):
    """Published warm start: beta = 0, sigma2 = var(y), rates at 1."""
    state = ModelState(
        beta=np.zeros(data.p),
        sigma2=float(np.var(data.y, ddof=1)),
        lambda1=1.0,
        lambda2=1.0,
    )
    if prior.representation == "da":
        state.tau2 = np.ones(data.p)
    return state


def rss(data, beta):
    # ndarray.dot skips the matmul operator's dispatch; doubling the
    # product instead of beta is exact, so the sum is the same bits, and
    # reducing in Python floats skips numpy's scalar arithmetic
    return (data.yty - 2.0 * float(beta.dot(data.xty))
            + float(beta.dot(data.xtx).dot(beta)))


class CoefficientSums(NamedTuple):
    """What the joint log density and the scale full conditionals read
    from beta, reduced once per sweep: p, rss, bb = b'b and
    b1 = |b|_1."""
    p: int
    rss: float
    bb: float
    b1: float


# At or below this p, numpy's fixed cost per call outweighs its work on
# beta: coefficient_sums reduces it in Python floats, and
# kernels.update_tau2 forms the inverse-Gaussian means in Python floats
# and passes them as a list, which sample_inverse_gaussian draws in
# floats, bit for bit as from an array.  us per call in numpy against
# floats (best of 21 timeit runs, 2-core Xeon, Python 3.11, numpy 2.4),
# at p = 8, 16, 24, 32, 40: update_tau2 17.3 / 7.9, 18.5 / 12.9,
# 19.7 / 16.7, 20.3 / 21.2, 22.9 / 24.4; coefficient_sums 8.4 / 5.4,
# 8.6 / 7.5, 8.5 / 9.7, 8.4 / 11.6, 8.8 / 13.8.  The cut sits below both
# crossovers, near p = 20 for the sums and p = 30 for update_tau2.
LATENT_FLOAT_MAX = 16


def coefficient_sums(data, state):
    """The sums of the state's beta that log_posterior_unnorm and the
    scale kernels read.  Up to p = LATENT_FLOAT_MAX they are formed in
    one Python-float pass over beta, X'y and the one numpy product
    X'X beta; above it by numpy's reductions (rss)."""
    beta = state.beta
    p = beta.size
    if p > LATENT_FLOAT_MAX:
        return CoefficientSums(p, rss(data, beta), float(beta.dot(beta)),
                               float(np.add.reduce(np.abs(beta))))
    bxy = bqb = bb = b1 = 0.0
    for b, xy, qb in zip(beta.tolist(), data.xty.tolist(),
                         data.xtx.dot(beta).tolist()):
        bxy += b * xy
        bqb += b * qb
        bb += b * b
        b1 += abs(b)
    return CoefficientSums(p, data.yty - 2.0 * bxy + bqb, bb, b1)


def latent_precision(form, tau2, lambda2):
    """sigma2 times the prior precision of beta_j given its latent
    z_j = tau2[j]: lambda2 (1 + z) (common form) or z + lambda2."""
    return lambda2 * (1.0 + tau2) if form == "common" else tau2 + lambda2


def log_posterior_unnorm(data, prior, state, sums):
    """Joint log posterior of (beta, sigma2, lambda1, lambda2) up to a
    constant, with tau2 integrated out in the augmented representation:
    the likelihood with the intercept integrated out, beta's prior as p
    two-piece truncated normals, and the hyperpriors, in one flat body
    whose constants come from data and prior (module docstring).

    sums must equal coefficient_sums(data, state): beta is reduced once
    by the caller, which holds it fixed across many calls, and each
    call is then O(1) scalar arithmetic, with one logarithm per scale.
    """
    sigma2, lambda1, lambda2 = state.sigma2, state.lambda1, state.lambda2
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    if not (lambda1 > 0.0 and lambda2 > 0.0):
        raise ValueError("hyperparameters must be positive")
    log_s2, log_l2 = math.log(sigma2), math.log(lambda2)
    sigma = math.sqrt(sigma2)
    p, bb, b1 = sums.p, sums.bb, sums.b1
    if prior.form == "common":
        r = lambda1 / (2.0 * sigma * math.sqrt(lambda2))
        penalty = -(lambda2 * bb + lambda1 * b1) / (2.0 * sigma2)
    else:
        r = lambda1 / math.sqrt(lambda2)
        penalty = -lambda2 * bb / (2.0 * sigma2) - lambda1 * b1 / sigma
    log_norm, l1_power, l1_rate, l2_power, l2_rate, s2_power, s2_rate = (
        prior.hyper_terms)
    return (-0.5 * (data.n - 1) * (_LOG_2PI + log_s2) - data.half_log_n
            - 0.5 * sums.rss / sigma2
            - p * (_LOG_2_SQRT_2PI + 0.5 * (log_s2 - log_l2 + r * r)
                   + log_std_normal_cdf(-r))
            + penalty
            + log_norm + l1_power * math.log(lambda1) - l1_rate * lambda1
            + l2_power * log_l2 - l2_rate * lambda2
            - s2_power * log_s2 - s2_rate / sigma2)


def sample_tau2_prior(form, p, sigma2, lambda1, lambda2, rng):
    """p draws of the latents z from their prior."""
    tau2 = np.empty(p)
    got = 0
    if form == "common":
        # tau_j = g is gamma(1/2, rate) truncated to (1, inf)
        rate = lambda1 ** 2 / (8.0 * sigma2 * lambda2)
        while got < p:
            m = 8 * (p - got) + 1000
            g = rng.gen.gamma(0.5, 1.0 / rate, size=m)
            g = g[g > 1.0][:p - got]
            tau2[got:got + g.size] = 1.0 / (g - 1.0)
            got += g.size
    elif form == "differential":
        rate = 0.5 * lambda1 ** 2
        while got < p:
            m = 2 * (p - got) + 1000
            t = rng.gen.exponential(1.0 / rate, size=m)
            t = t[rng.gen.random(m) * np.sqrt(1.0 + lambda2 * t) <= 1.0]
            t = t[:p - got]
            tau2[got:got + t.size] = 1.0 / t
            got += t.size
    else:
        raise ValueError(f"unknown form {form!r}")
    return tau2


def sample_beta_prior_direct(form, p, sigma2, lambda1, lambda2, rng):
    """p draws of beta from the prior via the two-piece representation."""
    if form == "common":
        m = lambda1 / (2.0 * lambda2)
    else:
        m = math.sqrt(sigma2) * lambda1 / lambda2
    out = np.empty(p)
    for j in range(p):
        mag = sample_truncated_normal(-m, sigma2 / lambda2, "nonnegative", rng)
        out[j] = mag if rng.gen.random() < 0.5 else -mag
    return out


def sample_beta_prior_da(form, p, sigma2, lambda1, lambda2, rng):
    """p draws of beta from the prior via the scale-mixture route."""
    tau2 = sample_tau2_prior(form, p, sigma2, lambda1, lambda2, rng)
    v = sigma2 / latent_precision(form, tau2, lambda2)
    return np.sqrt(v) * rng.gen.standard_normal(p)
