"""Chain output container and effective-sample-size diagnostics.

ESS uses the batch-means estimator with batch size floor(sqrt(N)):
ESS = N * s^2 / sigma2_bm, where s^2 is the sample variance and
sigma2_bm = b / (a - 1) * sum_k (mean_k - grand_mean)^2 over the a
complete trailing batches.  The estimate is clipped to [1, N].

Besides the raw parameters, chains carry two derived penalty
parameterizations, labeled by formula:

* lambda_total = lambda1 + sqrt(lambda2),
  alpha_share = lambda1 / (lambda1 + sqrt(lambda2))
* lambda_sum = lambda1 + lambda2,
  alpha_ridge_share = lambda2 / (lambda1 + lambda2)
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

DERIVED_NAMES = ("lambda_total", "alpha_share", "lambda_sum",
                 "alpha_ridge_share")

QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)


def derived_penalty_columns(lambda1, lambda2):
    """The four derived penalty columns, in DERIVED_NAMES order."""
    lambda1 = np.asarray(lambda1, dtype=float)
    lambda2 = np.asarray(lambda2, dtype=float)
    root = np.sqrt(lambda2)
    return [lambda1 + root,
            lambda1 / (lambda1 + root),
            lambda1 + lambda2,
            lambda2 / (lambda1 + lambda2)]


@dataclass
class ChainOutput:
    draws: np.ndarray
    parameter_names: list
    kind_label: str
    # scale -> (accepted, proposed) over the kept sweeps, and the frozen
    # log-scale step of each Metropolis scale
    acceptance: dict = field(default_factory=dict)
    mh_steps: dict = field(default_factory=dict)
    wall_ms: float = 0.0

    def column(self, name):
        try:
            idx = self.parameter_names.index(name)
        except ValueError:
            raise KeyError(f"no parameter named {name!r}") from None
        return self.draws[:, idx]

    def acceptance_rate(self, name):
        """Metropolis acceptance fraction for a scale kernel, else None."""
        if name in self.acceptance:
            acc, tot = self.acceptance[name]
            return acc / tot if tot else None
        return None


def ess_batch_means(series):
    """Effective sample size of a series, N for a constant one (with a
    warning).  A 2-D array holds one series per column and gets one ESS
    per column, each exactly what its column alone would get."""
    x = np.asarray(series, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("need a series or a 2-D array of series")
    n = x.shape[0]
    if n < 100:
        raise ValueError("need at least 100 draws for a batch-means ESS")
    # one contiguous row per series, so each reduction runs along a row
    # in the order it does on a 1-D array
    rows = np.ascontiguousarray(x.T if x.ndim == 2 else x[None, :])
    with np.errstate(invalid="ignore"):
        s2 = rows.var(axis=1, ddof=1)
    if not np.all(np.isfinite(s2)):
        raise ValueError("series contains non-finite values")
    b = math.isqrt(n)
    a = n // b
    tail = rows[:, n - a * b:]
    means = tail.reshape(-1, a, b).mean(axis=2)
    var_bm = (b * np.sum((means - tail.mean(axis=1)[:, None]) ** 2, axis=1)
              / (a - 1))
    ess = np.full(len(rows), float(n))
    constant = rows.min(axis=1) == rows.max(axis=1)
    for j in range(len(rows)):
        if constant[j]:
            warnings.warn("constant series: returning ESS = N",
                          RuntimeWarning)
        elif var_bm[j] <= 0.0:
            warnings.warn("degenerate batch variance: returning ESS = N",
                          RuntimeWarning)
        else:
            ess[j] = min(max(n * s2[j] / var_bm[j], 1.0), float(n))
    return float(ess[0]) if x.ndim == 1 else ess


def percent_improvement(candidate_ess, baseline_ess):
    """(candidate - baseline) / baseline, in percent."""
    if not baseline_ess > 0.0:
        raise ValueError("baseline ESS must be positive")
    return 100.0 * (candidate_ess - baseline_ess) / baseline_ess


def summarize(chain):
    """Per-parameter rows: moments, quantiles, ESS, and the Metropolis
    acceptance and step (None for a parameter drawn exactly).
    Every column is reduced in one pass over the transposed draws."""
    cols = np.ascontiguousarray(chain.draws.T)
    means = cols.mean(axis=1).tolist()
    sds = cols.std(axis=1, ddof=1).tolist()
    qs = np.quantile(cols, QUANTILES, axis=1).T.tolist()
    ess = ess_batch_means(cols.T).tolist()
    return [{
        "parameter": name,
        "mean": means[j],
        "sd": sds[j],
        **{f"q{int(1000 * q)}": v for q, v in zip(QUANTILES, qs[j])},
        "ess": ess[j],
        "acceptance_rate": chain.acceptance_rate(name),
        "mh_step": chain.mh_steps.get(name),
    } for j, name in enumerate(chain.parameter_names)]
