"""Frozen draws: a short chain of every sampler must reproduce the
committed fixture.

Refactors that claim to keep behaviour are checked against this file.
The chains are short on purpose: rounding differences between two
algebraically equal formulas are amplified along a chain, so long
chains drift apart without either being wrong.  An intended change in
the draws regenerates the fixture with

    PYTHONPATH=src python tests/test_golden_draws.py

and says why in CHANGES.md.
"""

import csv
import os

import numpy as np
import pytest

from bayenet.kernels import SAMPLERS, parse_sampler, run_chain
from bayenet.model import RegressionData, make_prior
from bayenet.rng import RngStream
from bayenet.simulate import design, generate_dataset

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_draws.csv")
SEED = 20250101
SWEEPS = 25
RTOL = 1e-9


def golden_chain(kind_index):
    """Draws (beta, sigma2, lambda1, lambda2) of one sampler on design 1."""
    algorithm, form, representation = parse_sampler(SAMPLERS[kind_index])
    y, X = generate_dataset(design(1), RngStream(SEED, 0))
    data = RegressionData(y, X)
    prior = make_prior(form, representation, preset="weak")
    out = run_chain(algorithm, data, prior, RngStream(SEED, (1, kind_index)),
                    iters=SWEEPS, burnin=0)
    return out.draws[:, :data.p + 3], out.parameter_names[:data.p + 3]


def read_fixture():
    with open(FIXTURE, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    table = {}
    for row in body:
        table.setdefault(row[0], []).append([float(v) for v in row[2:]])
    return header[2:], {k: np.array(v) for k, v in table.items()}


def write_fixture():
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", newline="") as fh:
        w = csv.writer(fh)
        for i, label in enumerate(SAMPLERS):
            draws, names = golden_chain(i)
            if i == 0:
                w.writerow(["sampler", "sweep"] + names)
            for t, row in enumerate(draws):
                w.writerow([label, t + 1]
                           + [f"{v:.17g}" for v in row])


@pytest.mark.parametrize("kind_index", range(len(SAMPLERS)), ids=SAMPLERS)
def test_golden_draws(kind_index):
    names, table = read_fixture()
    draws, got_names = golden_chain(kind_index)
    assert got_names == names
    want = table[SAMPLERS[kind_index]]
    assert want.shape == draws.shape
    np.testing.assert_allclose(draws, want, rtol=RTOL, atol=0.0)


if __name__ == "__main__":
    write_fixture()
