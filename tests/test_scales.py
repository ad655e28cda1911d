"""Scale battery: every sampler fits a response or a predictor column in
very small and very large units, and data under small prior shapes, to
finite draws or a refusal that names its cause, and none hangs.

The warm start puts lambda1 at 1 whatever the data's units, so in small
units the coordinate scan meets truncation points hundreds of millions
of standard deviations out in its first sweeps.  At y x 1e-100 a
Metropolis chain may also wander to a state whose coordinate standard
deviations underflow; it must then refuse by naming the response's
scale.
"""

import signal

import numpy as np
import pytest

from bayenet.kernels import SAMPLERS, parse_sampler, run_chain
from bayenet.model import RegressionData, make_prior
from bayenet.rng import RngStream

# a fit here samples for about 0.05 s; a hang fails after this long
TIME_LIMIT_S = 10


@pytest.fixture
def time_limit():
    def expire(signum, frame):
        raise TimeoutError(f"the fit ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def battery_data(scale, column=0, column_scale=1.0):
    """The battery's data with y in scale's units and one predictor
    column in column_scale's: the same fit, in other units."""
    gen = RngStream(2026).gen
    X = gen.standard_normal((20, 8))
    y = X[:, 0] + gen.standard_normal(20)
    X[:, column] *= column_scale
    return RegressionData(scale * y, X)


# what a refusal names: a predictor's units, the response's scale, or
# a lambda1 too small for the latent draw
REFUSALS = ("is too large", "the response's scale",
            "too small for the latent scales' draw")


def fit_or_refuse(label, data, prior, rng):
    """Fit 100 + 300 sweeps; the draws must be finite, or the fit must
    raise a named refusal."""
    try:
        out = run_chain(parse_sampler(label)[0], data, prior, rng,
                        iters=300, burnin=100)
    except ValueError as err:
        assert any(cause in str(err) for cause in REFUSALS), err
    else:
        assert np.isfinite(out.draws).all()


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
@pytest.mark.parametrize("label", SAMPLERS)
def test_every_sampler_fits_a_response_in_extreme_units(label, scale,
                                                        time_limit):
    algorithm, form, representation = parse_sampler(label)
    out = run_chain(algorithm, battery_data(scale),
                    make_prior(form, representation, preset="weak"),
                    RngStream(2026, SAMPLERS.index(label)),
                    iters=300, burnin=100)
    assert np.isfinite(out.draws).all()


@pytest.mark.parametrize("label", [s for s in SAMPLERS if s.startswith("mh")])
def test_metropolis_fits_a_response_in_tiny_units_or_names_its_scale(
        label, time_limit):
    algorithm, form, representation = parse_sampler(label)
    try:
        out = run_chain(algorithm, battery_data(1e-100),
                        make_prior(form, representation, preset="weak"),
                        RngStream(2026, SAMPLERS.index(label)),
                        iters=300, burnin=100)
    except ValueError as err:
        assert "the response's scale" in str(err)
    else:
        assert np.isfinite(out.draws).all()


@pytest.mark.parametrize("column_scale", [1e-9, 1e9])
@pytest.mark.parametrize("column", [0, 3], ids=["signal", "noise"])
@pytest.mark.parametrize("label", SAMPLERS)
def test_every_sampler_fits_a_predictor_in_extreme_units(
        label, column, column_scale, time_limit):
    _, form, representation = parse_sampler(label)
    fit_or_refuse(label, battery_data(1.0, column, column_scale),
                  make_prior(form, representation, preset="weak"),
                  RngStream(2026, SAMPLERS.index(label)))


@pytest.mark.parametrize("seed", [2026, 0, 1, 2])
@pytest.mark.parametrize("label", SAMPLERS)
def test_every_sampler_fits_under_small_prior_shapes(label, seed,
                                                     time_limit):
    _, form, representation = parse_sampler(label)
    fit_or_refuse(label, battery_data(1.0),
                  make_prior(form, representation, L=0.02, nu1=1.0,
                             R=0.02, nu2=1.0),
                  RngStream(seed, SAMPLERS.index(label)))
