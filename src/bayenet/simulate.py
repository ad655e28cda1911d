"""Benchmark data generators and the experiment grid driver.

Four fixed regression designs cover the usual shrinkage stress cases:
a sparse signal with autoregressive predictor correlation (1), the same
geometry with a dense weak signal (2), a wider grouped signal with
uniform correlation and large noise (3), and a blockwise nearly
collinear design (4).  The grid driver runs sampler x prior x replicate
cells, computes per-parameter effective sample sizes, and reports each
rejection sweep's percent improvement over its Metropolis counterpart
on the identical dataset.
"""

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagnostics import ess_batch_means, percent_improvement
from .kernels import SAMPLERS, parse_sampler, run_chain, sampler_label
from .model import (PRIOR_PRESETS, RegressionData, check_finite_cells,
                    make_prior)
from .rng import RngStream

RESULT_COLUMNS = ("design", "sampler", "prior", "replicate", "parameter",
                  "ess", "pct_improvement", "acceptance_rate", "wall_ms")


@dataclass(frozen=True)
class SimDesign:
    n: int
    p: int
    beta_true: np.ndarray
    sigma_true: float
    covariance: np.ndarray


def _ar1_cov(p, rho):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _design_1():
    return SimDesign(20, 8,
                     np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]),
                     3.0, _ar1_cov(8, 0.5))


def _design_2():
    return SimDesign(20, 8, np.full(8, 0.85), 3.0, _ar1_cov(8, 0.5))


def _design_3():
    beta = np.zeros(40)
    beta[0:10] = 2.0
    beta[20:30] = 2.0
    V = np.full((40, 40), 0.5)
    np.fill_diagonal(V, 1.0)
    return SimDesign(100, 40, beta, 15.0, V)


def _design_4():
    beta = np.zeros(40)
    beta[:15] = 3.0
    V = np.eye(40)
    block = np.full((5, 5), 1.0)
    np.fill_diagonal(block, 1.01)
    for k in range(3):
        V[5 * k:5 * k + 5, 5 * k:5 * k + 5] = block
    return SimDesign(100, 40, beta, 15.0, V)


_DESIGNS = {1: _design_1, 2: _design_2, 3: _design_3, 4: _design_4}


def design(design_id):
    """One of the four benchmark designs."""
    if design_id not in _DESIGNS:
        raise ValueError(f"design id must be in 1..4, got {design_id!r}")
    return _DESIGNS[design_id]()


def _cov_factor(V):
    # eigenfactorization tolerates the nearly singular blocks of design 4
    w, U = np.linalg.eigh(V)
    w = np.clip(w, 0.0, None)
    return U * np.sqrt(w)


def generate_dataset(dsg, rng):
    """Raw (y, X): rows of X correlated Gaussians, y = X beta + noise."""
    F = _cov_factor(dsg.covariance)
    X = rng.gen.standard_normal((dsg.n, dsg.p)) @ F.T
    y = X @ dsg.beta_true + dsg.sigma_true * rng.gen.standard_normal(dsg.n)
    return y, X


def format_cell(value):
    """A CSV cell: empty for None, a string as is, a number at 17
    significant digits, which parse back to the same float."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


def write_csv(path, header, rows):
    """The one CSV writer: a header row, then each row's cells through
    format_cell.  Python floats (an array's .tolist()) format faster than
    numpy scalars."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format_cell(v) for v in row] for row in rows)


def read_dataset_csv(path):
    """(y, X) from a delimited file whose header names the response 'y'."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or "y" not in rows[0]:
        raise ValueError(f"{path}: need a header row with a 'y' column")
    header = rows[0]
    yi = header.index("y")
    body = [r for r in rows[1:] if r]
    try:
        vals = np.array([[float(v) for v in r] for r in body])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric cell ({exc})") from None
    if vals.ndim != 2 or vals.shape[1] != len(header) or vals.shape[1] < 2:
        raise ValueError(f"{path}: ragged rows or no predictor columns")
    y = vals[:, yi]
    X = np.delete(vals, yi, axis=1)
    try:
        check_finite_cells(y, X)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return y, X


def data_stream(seed, design_id, replicate):
    """The stream a replicate's dataset is drawn from; `bayenet fit --sim`
    fits replicate 0."""
    return RngStream(seed, (0, design_id, replicate))


def _chain_stream(seed, design_id, replicate, kind_label, prior_name):
    return RngStream(seed, (1, design_id, replicate, _KIND_IDS[kind_label],
                            _PRIOR_IDS[prior_name]))


# stream ids: reordering SAMPLERS or PRIOR_PRESETS changes every chain
_KIND_IDS = {label: i for i, label in enumerate(SAMPLERS)}
_PRIOR_IDS = {name: i for i, name in enumerate(PRIOR_PRESETS)}

# the algorithm every rejection sweep's ESS is compared against
BASELINE = "mh"


@dataclass
class CellResult:
    design_id: int
    sampler: str
    prior_name: str
    replicate: int
    ess: dict = None
    acceptance: dict = None
    wall_ms: float = 0.0
    error: str = None


def run_cell(design_id, kind_label, prior_name, replicate,
             iters=10000, burnin=100, seed=0):
    """One grid cell: fresh dataset (shared across samplers by seeding),
    one chain, per-parameter ESS."""
    try:
        dsg = design(design_id)
        y, X = generate_dataset(dsg, data_stream(seed, design_id, replicate))
        data = RegressionData(y, X)
        algorithm, form, representation = parse_sampler(kind_label)
        prior = make_prior(form, representation, preset=prior_name)
        rng = _chain_stream(seed, design_id, replicate,
                            sampler_label(algorithm, prior), prior_name)
        out = run_chain(algorithm, data, prior, rng, iters=iters,
                        burnin=burnin)
        ess = {name: ess_batch_means(out.column(name))
               for name in out.parameter_names}
        acc = {name: out.acceptance_rate(name) for name in out.acceptance}
        return CellResult(design_id, out.kind_label, prior_name, replicate,
                          ess=ess, acceptance=acc, wall_ms=out.wall_ms)
    except Exception as exc:
        return CellResult(design_id, kind_label, prior_name, replicate,
                          error=f"{type(exc).__name__}: {exc}")


def _run_cell_args(args):
    return run_cell(*args)


def run_experiment(design_ids, sampler_labels, prior_names, replicates,
                   iters=10000, burnin=100, seed=0, workers=None):
    """Run the full grid; returns (result rows, failed cells).

    A rejection sweep's pct_improvement is measured against the BASELINE
    algorithm with the same form, representation, prior, design, and
    replicate (hence the same dataset); it is None when that cell is
    absent or failed.
    """
    jobs = [(d, s, pr, r, iters, burnin, seed)
            for d in design_ids
            for s in sampler_labels
            for pr in prior_names
            for r in range(replicates)]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell_args, jobs))
    else:
        cells = [run_cell(*j) for j in jobs]

    failures = [c for c in cells if c.error is not None]
    good = [c for c in cells if c.error is None]
    by_key = {(c.design_id, c.sampler, c.prior_name, c.replicate): c
              for c in good}

    rows = []
    for c in good:
        alg, form, rep = c.sampler.split("-")
        base = None
        if alg != BASELINE:
            base = by_key.get((c.design_id, f"{BASELINE}-{form}-{rep}",
                               c.prior_name, c.replicate))
        for name, ess in c.ess.items():
            pct = None
            if base is not None and name in base.ess:
                pct = percent_improvement(ess, base.ess[name])
            rows.append({
                "design": c.design_id,
                "sampler": c.sampler,
                "prior": c.prior_name,
                "replicate": c.replicate,
                "parameter": name,
                "ess": ess,
                "pct_improvement": pct,
                "acceptance_rate": c.acceptance.get(name),
                "wall_ms": c.wall_ms,
            })
    return rows, failures

