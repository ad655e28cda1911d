"""Model state, priors and log densities for the Bayesian elastic net.

Two prior forms are supported, differing in how the l1 penalty scales
with the noise variance:

* "common":       pi(beta) propto exp(-(lam2 b'b + lam1 |b|_1) / (2 sigma^2))
* "differential": pi(beta) propto exp(-lam2 b'b / (2 sigma^2) - lam1 |b|_1 / sigma)

Each form has a direct representation (independent two-piece truncated
normals per coordinate) and a data-augmented one (a normal scale mixture
with one latent tau_j^2 per coordinate).  The response and predictors
are mean-centered, and the intercept is integrated out of the
likelihood, which contributes an extra factor n^(-1/2) and reduces the
exponent to (n-1)/2.

The sampler state stores only the natural parameters (sigma2, lambda1,
lambda2).  The rejection kernels draw in the transformed coordinates
(u1, u2, theta), derived with to_transformed where a kernel needs them
and mapped back with from_transformed after the draw:

* common:       u1 = sigma^2, u2 = sqrt(lam2)/sigma, theta = lam1/(2 sigma sqrt(lam2))
* differential: u1 = sigma^2, u2 = sqrt(lam2),       theta = lam1/sqrt(lam2)

Hyperpriors: lam1 ~ gamma(L, rate nu1/2), lam2 ~ gamma(R, rate nu2/2),
sigma^2 ~ inverse-gamma(nu_a/2, nu_b/2), with the improper limit
nu_a = nu_b = 0 allowed.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import sample_truncated_normal
from .special import log_std_normal_cdf

FORMS = ("common", "differential")
REPRESENTATIONS = ("direct", "da")

PRIOR_PRESETS = {
    "weak": dict(L=1.0, nu1=1.0, R=1.0, nu2=1.0),
    "strong": dict(L=6.0, nu1=4.0, R=2.0, nu2=4.0),
}

_LOG_2PI = math.log(2.0 * math.pi)


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
        if y.shape[0] < 3:
            raise ValueError("need at least 3 observations")
        check_finite_cells(y, X)
        self.y = y - y.mean()
        self.X = X - X.mean(axis=0)
        self.n, self.p = X.shape
        self.xtx = self.X.T @ self.X
        self.xty = self.X.T @ self.y
        self.yty = float(self.y @ self.y)
        # floats and row views for the coordinate scan's scalar arithmetic
        self.col_sq_norms = self.xtx.diagonal().tolist()
        self.xtx_rows = list(self.xtx)


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
        for name in ("L", "nu1", "R", "nu2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.nu_a < 0.0 or self.nu_b < 0.0:
            raise ValueError("nu_a and nu_b must be nonnegative")
        # log normalizers of the lambda1, lambda2 and sigma2 hyperpriors
        # (0 for an improper sigma2 prior), read by every log_hyperprior
        a, b = 0.5 * self.nu_a, 0.5 * self.nu_b
        object.__setattr__(self, "log_norms", (
            self.L * math.log(0.5 * self.nu1) - math.lgamma(self.L),
            self.R * math.log(0.5 * self.nu2) - math.lgamma(self.R),
            a * math.log(b) - math.lgamma(a) if a > 0.0 and b > 0.0 else 0.0))


def make_prior(form, representation, preset=None, **params):
    """PriorSpec from a named preset ('weak'/'strong') or explicit values."""
    if preset is not None:
        if preset not in PRIOR_PRESETS:
            raise ValueError(f"unknown preset {preset!r}")
        merged = dict(PRIOR_PRESETS[preset])
        merged.update(params)
        return PriorSpec(form, representation, **merged)
    return PriorSpec(form, representation, **params)


def to_transformed(form, sigma2, lambda1, lambda2):
    if form == "common":
        u2 = math.sqrt(lambda2 / sigma2)
        return sigma2, u2, lambda1 / (2.0 * sigma2 * u2)
    u2 = math.sqrt(lambda2)
    return sigma2, u2, lambda1 / u2


def from_transformed(form, u1, u2, theta):
    if form == "common":
        return u1, 2.0 * theta * u2 * u1, u1 * u2 * u2
    return u1, theta * u2, u2 * u2


@dataclass
class ModelState:
    beta: np.ndarray
    sigma2: float
    lambda1: float
    lambda2: float
    tau2: np.ndarray = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if not (self.sigma2 > 0 and self.lambda1 > 0 and self.lambda2 > 0):
            raise ValueError("sigma2, lambda1, lambda2 must be positive")


def initial_state(data, prior):
    """Published warm start: beta = 0, sigma2 = var(y), rates at 1."""
    state = ModelState(
        beta=np.zeros(data.p),
        sigma2=float(np.var(data.y, ddof=1)),
        lambda1=1.0,
        lambda2=1.0,
    )
    if prior.representation == "da":
        state.tau2 = np.full(data.p, 0.5 if prior.form == "common" else 1.0)
    return state


def rss(data, beta):
    return float(data.yty - 2.0 * beta @ data.xty + beta @ data.xtx @ beta)


class CoefficientSums(NamedTuple):
    """What the joint log density and the scale full conditionals read
    from (beta, tau2), reduced once per sweep.

    Only the fields of the prior's form and representation are set; the
    others keep their zero defaults.

    * always: rss (nan where no likelihood is evaluated) and p;
    * direct: bb = b'b, b1 = |b|_1;
    * augmented, common: log_tau2 = sum log tau2, inv_tau2 = sum 1/tau2,
      log_w = sum log(1 - tau2), beta2_w = sum beta^2/(1 - tau2);
    * augmented, differential: log_tau2, bb, tau2 = sum tau2,
      beta2_w = sum beta^2/tau2.

    in_support is False when some tau2 lies outside its prior's support,
    (0, 1) for the common form and (0, inf) for the differential one;
    the sums of the augmented representation are then left unset.
    """
    p: int
    rss: float = math.nan
    bb: float = 0.0
    b1: float = 0.0
    log_tau2: float = 0.0
    inv_tau2: float = 0.0
    tau2: float = 0.0
    log_w: float = 0.0
    beta2_w: float = 0.0
    in_support: bool = True


def _sums(form, representation, beta, tau2, rss_value=math.nan):
    beta = np.asarray(beta, dtype=float)
    p = beta.size
    if representation == "direct":
        return CoefficientSums(p, rss_value, bb=float(beta @ beta),
                               b1=float(np.abs(beta).sum()))
    if tau2 is None:
        raise ValueError("augmented state requires tau2")
    tau2 = np.asarray(tau2, dtype=float)
    b2 = beta * beta
    if form == "common":
        if not np.all((tau2 > 0.0) & (tau2 < 1.0)):
            return CoefficientSums(p, rss_value, in_support=False)
        w = 1.0 - tau2
        return CoefficientSums(
            p, rss_value, log_tau2=float(np.log(tau2).sum()),
            inv_tau2=float((1.0 / tau2).sum()),
            log_w=float(np.log(w).sum()), beta2_w=float((b2 / w).sum()))
    if not np.all(tau2 > 0.0):
        return CoefficientSums(p, rss_value, in_support=False)
    return CoefficientSums(
        p, rss_value, bb=float(b2.sum()), log_tau2=float(np.log(tau2).sum()),
        tau2=float(tau2.sum()), beta2_w=float((b2 / tau2).sum()))


def coefficient_sums(data, prior, state):
    """The sums of the state's beta and tau2 that log_posterior_unnorm
    and the scale kernels read."""
    return _sums(prior.form, prior.representation, state.beta, state.tau2,
                 rss(data, state.beta))


def _log_likelihood(n, rss_value, sigma2):
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    return (-0.5 * (n - 1) * (_LOG_2PI + math.log(sigma2))
            - 0.5 * math.log(n)
            - 0.5 * rss_value / sigma2)


def log_integrated_likelihood(data, beta, sigma2):
    """Likelihood with the flat intercept integrated out."""
    return _log_likelihood(data.n, rss(data, beta), sigma2)


def _log_prior(form, representation, sums, sigma2, lambda1, lambda2):
    """Normalized joint log prior of beta (and tau2) from their sums.

    Direct: two-piece truncated normals.  Augmented: beta_j | tau_j^2 is
    normal with variance tau2_conditional_var, times the latent scales'
    prior (log_prior_tau2).  In the differential form the
    log(1 + lam2 tau_j^2) terms of the two factors cancel.
    """
    p = sums.p
    if representation == "direct":
        sigma = math.sqrt(sigma2)
        if form == "common":
            r = lambda1 / (2.0 * sigma * math.sqrt(lambda2))
            penalty = -(lambda2 * sums.bb + lambda1 * sums.b1) / (2.0 * sigma2)
        elif form == "differential":
            r = lambda1 / math.sqrt(lambda2)
            penalty = (-lambda2 * sums.bb / (2.0 * sigma2)
                       - lambda1 * sums.b1 / sigma)
        else:
            raise ValueError(f"unknown form {form!r}")
        return (-p * math.log(2.0)
                - 0.5 * p * (_LOG_2PI + math.log(sigma2 / lambda2))
                - 0.5 * p * r * r
                - p * log_std_normal_cdf(-r)
                + penalty)
    if not sums.in_support:
        return -math.inf
    if form == "common":
        r = lambda1 / (2.0 * math.sqrt(sigma2) * math.sqrt(lambda2))
        const = (-math.log(2.0) - 0.5 * _LOG_2PI - log_std_normal_cdf(-r)
                 + math.log(r))
        log_beta = (-0.5 * p * (_LOG_2PI + math.log(sigma2 / lambda2))
                    - 0.5 * sums.log_w
                    - 0.5 * lambda2 * sums.beta2_w / sigma2)
        return (log_beta + p * const
                - 1.5 * sums.log_tau2 - 0.5 * r * r * sums.inv_tau2)
    th = lambda1 / math.sqrt(lambda2)
    const = (-math.log(2.0) - 0.5 * _LOG_2PI - log_std_normal_cdf(-th)
             + math.log(lambda1) + 0.5 * math.log(lambda2)
             - 0.5 * th * th)
    log_beta = (-0.5 * p * (_LOG_2PI + math.log(sigma2))
                - 0.5 * sums.log_tau2
                - 0.5 * (sums.beta2_w + lambda2 * sums.bb) / sigma2)
    return log_beta + p * const - 0.5 * lambda1 * lambda1 * sums.tau2


def log_prior_beta(form, beta, sigma2, lambda1, lambda2):
    """Normalized log density of beta under either prior form."""
    return _log_prior(form, "direct", _sums(form, "direct", beta, None),
                      sigma2, lambda1, lambda2)


def tau2_conditional_var(form, tau2, sigma2, lambda2):
    """Var(beta_j | tau_j^2) for the scale-mixture representation."""
    tau2 = np.asarray(tau2, dtype=float)
    if form == "common":
        return (sigma2 / lambda2) * (1.0 - tau2)
    return sigma2 * tau2 / (1.0 + lambda2 * tau2)


def log_prior_tau2(form, tau2, sigma2, lambda1, lambda2):
    """Normalized log density of the latent scales, summed over j."""
    tau2 = np.asarray(tau2, dtype=float)
    p = tau2.size
    if form == "common":
        if np.any(tau2 <= 0.0) or np.any(tau2 >= 1.0):
            return -math.inf
        r = lambda1 / (2.0 * math.sqrt(sigma2) * math.sqrt(lambda2))
        const = (-math.log(2.0) - 0.5 * _LOG_2PI - log_std_normal_cdf(-r)
                 + math.log(r))
        return float(p * const
                     + np.sum(-1.5 * np.log(tau2) - 0.5 * r * r / tau2))
    if np.any(tau2 <= 0.0):
        return -math.inf
    th = lambda1 / math.sqrt(lambda2)
    const = (-math.log(2.0) - 0.5 * _LOG_2PI - log_std_normal_cdf(-th)
             + math.log(lambda1) + 0.5 * math.log(lambda2)
             - 0.5 * th * th)
    return float(p * const
                 + np.sum(-0.5 * np.log1p(lambda2 * tau2)
                          - 0.5 * lambda1 * lambda1 * tau2))


def log_prior_da(form, beta, tau2, sigma2, lambda1, lambda2):
    """Joint log density of (beta, tau2) in the augmented representation."""
    return _log_prior(form, "da", _sums(form, "da", beta, tau2),
                      sigma2, lambda1, lambda2)


def log_hyperprior(prior, sigma2, lambda1, lambda2):
    if not (sigma2 > 0.0 and lambda1 > 0.0 and lambda2 > 0.0):
        raise ValueError("hyperparameters must be positive")
    norm1, norm2, norm_s2 = prior.log_norms
    val = (norm1 + (prior.L - 1.0) * math.log(lambda1)
           - 0.5 * prior.nu1 * lambda1)
    val += (norm2 + (prior.R - 1.0) * math.log(lambda2)
            - 0.5 * prior.nu2 * lambda2)
    a, b = 0.5 * prior.nu_a, 0.5 * prior.nu_b
    val += -(a + 1.0) * math.log(sigma2) - b / sigma2
    return val + norm_s2


def log_posterior_unnorm(data, prior, state, sums=None):
    """Joint log posterior up to a constant, in the state's representation.

    sums, when given, must equal coefficient_sums(data, prior, state);
    callers that hold beta and tau2 fixed across many calls pass it, and
    each call is then O(1) scalar arithmetic.
    """
    if sums is None:
        sums = coefficient_sums(data, prior, state)
    val = _log_likelihood(data.n, sums.rss, state.sigma2)
    val += _log_prior(prior.form, prior.representation, sums,
                      state.sigma2, state.lambda1, state.lambda2)
    val += log_hyperprior(prior, state.sigma2, state.lambda1, state.lambda2)
    return val


def log_posterior_transformed(data, prior, state):
    """Log posterior in (u1, u2, theta) coordinates, Jacobian included.

    This is the target the rejection kernels sample; the change of
    variables contributes 4 u1^2 u2^2 (common) or 2 u2^2 (differential).
    """
    val = log_posterior_unnorm(data, prior, state)
    u1, u2, _ = to_transformed(prior.form, state.sigma2, state.lambda1,
                               state.lambda2)
    if prior.form == "common":
        return val + math.log(4.0) + 2.0 * (math.log(u1) + math.log(u2))
    return val + math.log(2.0) + 2.0 * math.log(u2)


def sample_tau2_prior(form, p, sigma2, lambda1, lambda2, rng):
    """p draws of the latent scales from their prior."""
    out = np.empty(p)
    if form == "common":
        r = lambda1 / (2.0 * math.sqrt(sigma2) * math.sqrt(lambda2))
        for j in range(p):
            while True:
                z = r + sample_truncated_normal(-r, 1.0, "nonnegative", rng)
                v = (r / z) ** 2
                if 0.0 < v < 1.0:
                    out[j] = v
                    break
        return out
    rate = 0.5 * lambda1 * lambda1
    for j in range(p):
        while True:
            v = rng.gen.standard_exponential() / rate
            if v <= 0.0:
                continue
            if rng.gen.random() <= math.exp(-0.5 * math.log1p(lambda2 * v)):
                out[j] = v
                break
    return out


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
    v = tau2_conditional_var(form, tau2, sigma2, lambda2)
    return np.sqrt(v) * rng.gen.standard_normal(p)
