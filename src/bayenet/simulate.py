"""Benchmark data generators and the experiment grid driver.

Four fixed regression designs cover the usual shrinkage stress cases:
a sparse signal with autoregressive predictor correlation (1), the same
geometry with a dense weak signal (2), a wider grouped signal with
uniform correlation and large noise (3), and a blockwise nearly
collinear design (4).  The grid driver runs one sampler on one prior
preset over design x replicate cells, summarizes each chain, and
reports each rejection sweep's percent improvement in effective sample
size over its Metropolis twin on the identical dataset.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .diagnostics import percent_improvement, summarize
from .kernels import SAMPLERS, parse_sampler, run_chain, sampler_label
from .model import (PRIOR_PRESETS, RegressionData, check_finite_cells,
                    make_prior)
from .rng import RngStream

RESULT_COLUMNS = ("design", "sampler", "prior", "replicate", "parameter",
                  "ess", "pct_improvement", "acceptance_rate", "mh_step",
                  "wall_ms")


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
    """The one CSV writer: a header row, then the rows.  A 2-D float
    array is written one row template at a time ("%.17g" % v is
    format_cell's f"{v:.17g}" byte for byte, and a number never needs
    quoting); any other rows go cell by cell through format_cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if (isinstance(rows, np.ndarray) and rows.ndim == 2
                and rows.dtype.kind == "f"):
            template = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
            fh.write("".join([template % tuple(row)
                              for row in rows.tolist()]))
        else:
            w.writerows([format_cell(v) for v in row] for row in rows)


def read_dataset_csv(path):
    """(y, X) from a delimited file whose header names the response 'y'.

    Blank lines are skipped.  A refusal names the first bad row (from 1
    after the header) and cell as check_finite_cells does.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or "y" not in rows[0]:
        raise ValueError(f"{path}: need a header row with a 'y' column")
    header = rows[0]
    if len(header) < 2:
        raise ValueError(f"{path}: no predictor columns besides 'y'")
    body = [r for r in rows[1:] if r]
    if not body:
        raise ValueError(f"{path}: no data rows")
    width, yi = len(header), header.index("y")
    vals = np.empty((len(body), width))
    for i, row in enumerate(body):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} cells, "
                             f"the header {width}")
        for j, cell in enumerate(row):
            try:
                vals[i, j] = float(cell)
            except ValueError:
                where = ("y" if j == yi
                         else f"predictor column {j + (j < yi)}")
                raise ValueError(f"{path}: non-numeric cell {cell!r} in "
                                 f"row {i + 1}, {where}") from None
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


@dataclass
class CellResult:
    design_id: int
    sampler: str
    prior_name: str
    replicate: int
    # diagnostics.summarize's row per parameter
    summary: list = None
    wall_ms: float = 0.0
    error: str = None


def run_cell(design_id, kind_label, prior_name, replicate,
             iters=10000, burnin=100, seed=0):
    """One grid cell: fresh dataset (shared across samplers by seeding),
    one chain of the SAMPLERS label `kind_label`, summarize's rows."""
    try:
        dsg = design(design_id)
        y, X = generate_dataset(dsg, data_stream(seed, design_id, replicate))
        data = RegressionData(y, X)
        algorithm, form, representation = parse_sampler(kind_label)
        prior = make_prior(form, representation, preset=prior_name)
        rng = _chain_stream(seed, design_id, replicate, kind_label,
                            prior_name)
        out = run_chain(algorithm, data, prior, rng, iters=iters,
                        burnin=burnin)
        return CellResult(design_id, kind_label, prior_name, replicate,
                          summary=summarize(out), wall_ms=out.wall_ms)
    except Exception as exc:
        return CellResult(design_id, kind_label, prior_name, replicate,
                          error=f"{type(exc).__name__}: {exc}")


def _run_cell_args(args):
    return run_cell(*args)


def run_experiment(design_ids, sampler, prior_name, replicates,
                   iters=10000, burnin=100, seed=0, workers=None):
    """Run one sampler on one prior preset over designs x replicates;
    returns (result rows, failed cells).  An unknown label raises.

    A rejection sweep also runs its Metropolis twin, "mh" with the same
    form and representation.  A rejection row's pct_improvement is
    measured against the twin on the same design and replicate (hence
    the same dataset); it is None for an "mh" row or a failed twin.
    """
    algorithm, form, representation = parse_sampler(sampler)
    labels = [sampler_label(algorithm, form, representation)]
    twin = sampler_label("mh", form, representation)
    if algorithm == "rs":
        labels.append(twin)
    jobs = [(d, s, prior_name, r, iters, burnin, seed)
            for d in design_ids
            for s in labels
            for r in range(replicates)]
    # a pool forks all its workers at once, so it gets no more than cells
    size = min(workers or 1, len(jobs))
    if size > 1:
        # imported here, so a one-worker run does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=size) as pool:
            cells = list(pool.map(_run_cell_args, jobs))
    else:
        cells = [run_cell(*j) for j in jobs]

    failures = [c for c in cells if c.error is not None]
    good = [c for c in cells if c.error is None]
    twin_ess = {(c.design_id, c.replicate):
                {row["parameter"]: row["ess"] for row in c.summary}
                for c in good if c.sampler == twin}

    rows = []
    for c in good:
        base = None if c.sampler == twin else twin_ess.get(
            (c.design_id, c.replicate))
        for row in c.summary:
            pct = None
            if base is not None:
                pct = percent_improvement(row["ess"], base[row["parameter"]])
            rows.append({
                "design": c.design_id,
                "sampler": c.sampler,
                "prior": c.prior_name,
                "replicate": c.replicate,
                "parameter": row["parameter"],
                "ess": row["ess"],
                "pct_improvement": pct,
                "acceptance_rate": row["acceptance_rate"],
                "mh_step": row["mh_step"],
                "wall_ms": c.wall_ms,
            })
    return rows, failures
