"""Frozen draws: a short chain of every sampler must reproduce the
committed fixture.

Refactors that claim to keep behaviour are checked against this file.
The chains are short on purpose: rounding differences between two
algebraically equal formulas are amplified along a chain, so long
chains drift apart without either being wrong.  An intended change in
the draws regenerates the fixture with

    PYTHONPATH=src python tests/test_golden_draws.py

which first prints, for each sampler, whether its rows differ from the
committed file, and says why in CHANGES.md.
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


def fixture_rows():
    """The fixture's rows as written: a header, then each sampler's."""
    rows = []
    for i, label in enumerate(SAMPLERS):
        draws, names = golden_chain(i)
        if i == 0:
            rows.append(["sampler", "sweep"] + names)
        rows.extend([label, str(t + 1)] + [f"{v:.17g}" for v in row]
                    for t, row in enumerate(draws))
    return rows


def moved_rows(old, new):
    """sampler -> how many of its rows differ between two fixtures' rows
    (a row only one of them has counts too)."""
    def by_sampler(rows):
        table = {}
        for row in rows[1:]:
            table.setdefault(row[0], []).append(row)
        return table

    old, new = by_sampler(old), by_sampler(new)
    moved = {}
    for label in SAMPLERS:
        a, b = old.get(label, []), new.get(label, [])
        moved[label] = (sum(x != y for x, y in zip(a, b))
                        + abs(len(a) - len(b)))
    return moved


def write_fixture():
    """Rewrite the fixture, first printing which samplers' rows move."""
    rows = fixture_rows()
    old = []
    if os.path.exists(FIXTURE):
        with open(FIXTURE, newline="") as fh:
            old = list(csv.reader(fh))
    for label, n in moved_rows(old, rows).items():
        print(f"{label}: {f'{n} rows differ' if n else 'unchanged'}")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_moved_rows_counts_each_samplers_differing_rows():
    head = ["sampler", "sweep", "x"]
    old = [head, [SAMPLERS[0], "1", "1.5"], [SAMPLERS[0], "2", "2.5"],
           [SAMPLERS[1], "1", "3"]]
    new = [head, [SAMPLERS[0], "1", "1.5"], [SAMPLERS[0], "2", "2.25"],
           [SAMPLERS[1], "1", "3"], [SAMPLERS[1], "2", "4"]]
    moved = moved_rows(old, new)
    assert moved[SAMPLERS[0]] == moved[SAMPLERS[1]] == 1
    assert sum(moved.values()) == 2


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
