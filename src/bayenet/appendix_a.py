"""The always-accept variance sampler of a published Gibbs scheme.

A proposal scheme for the variance draws from an inverse gamma and
accepts by a test that every proposal passes.  appendix_a_demonstration
shows that it accepts everything, that the target-to-proposal density
ratio is unbounded as the variance shrinks, and that its draws fail a
KS test against the true conditional, built with the oracle's
quadrature tables.  Only the appendix-a subcommand runs it, so the
command line imports this module there and nowhere else.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import require_finite
from .oracle import _within, auto_cdf, ks_test, ks_threshold
from .rng import RngStream
from .special import log_upper_incomplete_gamma_half

_LOG_ROOT_PI = 0.5 * math.log(math.pi)
# log Gamma(1/2, x) over an array
_log_gamma_half = np.vectorize(log_upper_incomplete_gamma_half,
                               otypes=[float])


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


def appendix_a_demonstration(a, b, lambda1, lambda2, p,
                             n_draws=100000, seed=0):
    """Reproduce the three findings about the always-accept sampler.

    (i) every inverse-gamma proposal passes the published acceptance
    test, (ii) the target-to-proposal density ratio grows without bound
    as the variance shrinks, and (iii) the accepted draws fail a KS
    test against the actual target, so the scheme samples the wrong
    law.  Quarantined here: nothing in the fitting paths calls it.
    """
    require_finite(a=a, b=b, lambda1=lambda1, lambda2=lambda2, p=p)
    if p != int(p):
        raise ValueError(f"p must be an integer, got {p}")
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

    def log_gamma_half(x):
        # log Gamma(1/2, lambda1^2 / (8 x lambda2)) over an array of x
        return _log_gamma_half(lambda1 ** 2 / (8.0 * x * lambda2))

    accepted = log_u <= p * (_LOG_ROOT_PI - log_gamma_half(z))
    fraction = float(accepted.mean())

    def target(x):
        return _within(lambda t: -(a + 1.0) * np.log(t) - b / t
                       - p * log_gamma_half(t), x)

    table = auto_cdf(target, bracket=(1e-12, 1e8))
    d, ok = ks_test(z[accepted], table)

    sigma2_grid = np.logspace(-1, -6, 11)
    log_ratio = (-a * math.log(b) + math.lgamma(a)
                 - p * log_gamma_half(sigma2_grid))
    increasing = bool(np.all(np.diff(log_ratio) > 0.0))

    return AppendixAReport(
        a=a, b=b, lambda1=lambda1, lambda2=lambda2, p=p, n_draws=n_draws,
        acceptance_fraction=fraction, sigma2_grid=sigma2_grid,
        log_ratio=log_ratio, ratio_increasing=increasing,
        ks_d=d, ks_threshold=ks_threshold(int(accepted.sum())),
        ks_rejects_target=not ok)
