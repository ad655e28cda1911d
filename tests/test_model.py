"""Priors, transforms and posterior pieces against quadrature oracles."""

import math
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayenet.model import (
    ModelState,
    PriorSpec,
    RegressionData,
    coefficient_sums,
    from_transformed,
    initial_state,
    log_hyperprior,
    log_integrated_likelihood,
    log_posterior_unnorm,
    log_prior_beta,
    log_prior_da,
    log_prior_tau2,
    make_prior,
    rss,
    sample_beta_prior_da,
    sample_beta_prior_direct,
    sample_tau2_prior,
    tau2_conditional_var,
    to_transformed,
)
from bayenet.rng import RngStream

from helpers import cdf_table, ks_statistic, ks_threshold

mp.mp.dps = 30

pos = st.floats(min_value=0.05, max_value=50.0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["common", "differential"]), pos, pos, pos)
def test_transform_round_trip(form, sigma2, lambda1, lambda2):
    u1, u2, theta = to_transformed(form, sigma2, lambda1, lambda2)
    s2, l1, l2 = from_transformed(form, u1, u2, theta)
    assert s2 == pytest.approx(sigma2, rel=1e-12)
    assert l1 == pytest.approx(lambda1, rel=1e-12)
    assert l2 == pytest.approx(lambda2, rel=1e-12)


def test_transform_known_values():
    # common: u2 = sqrt(lam2)/sigma, theta = lam1/(2 sigma sqrt(lam2))
    u1, u2, theta = to_transformed("common", 4.0, 3.0, 9.0)
    assert u1 == 4.0
    assert u2 == pytest.approx(1.5)
    assert theta == pytest.approx(3.0 / (2.0 * 2.0 * 3.0))
    # differential: u2 = sqrt(lam2), theta = lam1/sqrt(lam2)
    u1, u2, theta = to_transformed("differential", 4.0, 3.0, 9.0)
    assert (u1, u2) == (4.0, 3.0)
    assert theta == pytest.approx(1.0)


def test_prior_beta_is_normalized():
    for form in ("common", "differential"):
        for (s2, l1, l2) in [(1.0, 1.0, 1.0), (4.0, 0.5, 2.0), (0.25, 3.0, 0.7)]:
            total = mp.quad(
                lambda b: mp.e ** log_prior_beta(form, [float(b)], s2, l1, l2),
                [-mp.inf, 0, mp.inf])
            assert float(total) == pytest.approx(1.0, rel=1e-8), (form, s2, l1, l2)


def test_tau2_prior_is_normalized():
    for (s2, l1, l2) in [(1.0, 1.0, 1.0), (2.0, 0.8, 3.0)]:
        tc = mp.quad(
            lambda v: mp.e ** log_prior_tau2("common", [float(v)], s2, l1, l2),
            [0, 1])
        assert float(tc) == pytest.approx(1.0, rel=1e-8)
        td = mp.quad(
            lambda v: mp.e ** log_prior_tau2(
                "differential", [float(v)], s2, l1, l2),
            [0, mp.inf])
        assert float(td) == pytest.approx(1.0, rel=1e-8)


def test_scale_mixture_marginalizes_to_direct_prior():
    # integrating the latent scale out of the augmented prior recovers the
    # direct prior density pointwise
    for form in ("common", "differential"):
        s2, l1, l2 = 1.3, 0.9, 1.7
        hi = 1 if form == "common" else mp.inf
        for b in [0.0, 0.2, -0.7, 1.5, -3.0]:
            got = mp.quad(
                lambda v: mp.e ** log_prior_da(
                    form, [b], [float(v)], s2, l1, l2),
                [0, hi])
            want = mp.e ** log_prior_beta(form, [b], s2, l1, l2)
            assert float(got) == pytest.approx(float(want), rel=1e-7), (form, b)


def test_tau2_prior_sampler_matches_density():
    rng = RngStream(301, 0)
    s2, l1, l2 = 1.5, 1.2, 0.8
    draws = [sample_tau2_prior("common", 1, s2, l1, l2, rng)[0]
             for _ in range(20000)]
    assert 0.0 < min(draws) and max(draws) < 1.0
    xs, c = cdf_table(
        lambda v: log_prior_tau2("common", [v], s2, l1, l2), 1e-6, 1.0 - 1e-9)
    assert ks_statistic(draws, xs, c) < ks_threshold(len(draws))

    rng = RngStream(301, 1)
    draws = [sample_tau2_prior("differential", 1, s2, l1, l2, rng)[0]
             for _ in range(20000)]
    xs, c = cdf_table(
        lambda v: log_prior_tau2("differential", [v], s2, l1, l2), 1e-9, 25.0)
    assert ks_statistic(draws, xs, c) < ks_threshold(len(draws))


def test_beta_prior_routes_agree():
    # direct two-piece draws and scale-mixture draws of beta must match
    for form, seed in (("common", 2), ("differential", 3)):
        s2, l1, l2 = 2.0, 1.5, 1.1
        rng = RngStream(301, seed)
        direct = sample_beta_prior_direct(form, 20000, s2, l1, l2, rng)
        mixed = sample_beta_prior_da(form, 20000, s2, l1, l2, rng)
        xs, c = cdf_table(
            lambda b: log_prior_beta(form, [b], s2, l1, l2), -15.0, 15.0)
        assert ks_statistic(direct, xs, c) < ks_threshold(20000), form
        assert ks_statistic(mixed, xs, c) < ks_threshold(20000), form


def test_integrated_likelihood_value():
    rng = RngStream(302, 0)
    X = rng.gen.standard_normal((12, 3))
    y = rng.gen.standard_normal(12)
    data = RegressionData(y, X)
    beta = np.array([0.3, -1.2, 0.5])
    s2 = 1.7
    resid = data.y - data.X @ beta
    want = (-0.5 * (data.n - 1) * math.log(2 * math.pi * s2)
            - 0.5 * math.log(data.n)
            - 0.5 * float(resid @ resid) / s2)
    assert log_integrated_likelihood(data, beta, s2) == pytest.approx(
        want, rel=1e-12)
    assert rss(data, beta) == pytest.approx(float(resid @ resid), rel=1e-12)


def test_data_centering_and_flags():
    X = np.array([[1.0, 2.0, 5.0]] * 4 + [[2.0, 4.0, 5.0]] * 4)
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    data = RegressionData(y, X)
    assert np.allclose(data.X.mean(axis=0), 0.0)
    assert abs(data.y.mean()) < 1e-12
    with pytest.raises(ValueError):
        RegressionData(y[:2], X[:2])


@pytest.mark.parametrize("row,col,value,needle", [
    (2, None, math.nan, "row 3, y"),
    (0, 1, math.inf, "row 1, predictor column 2"),
    (5, 0, -math.inf, "row 6, predictor column 1"),
])
def test_data_rejects_nonfinite_cells(row, col, value, needle):
    X = np.arange(24.0).reshape(8, 3) ** 1.5
    y = np.arange(8.0)
    if col is None:
        y[row] = value
        X[row, 0] = math.nan  # y is named before the predictors
    else:
        X[row, col] = value
    X[7, 2] = math.nan  # a later bad cell; the first one is named
    with pytest.raises(ValueError, match="non-finite value") as err:
        RegressionData(y, X)
    assert str(err.value).endswith(needle)


def test_initial_state_published_start():
    rng = RngStream(302, 1)
    X = rng.gen.standard_normal((30, 4))
    y = rng.gen.standard_normal(30)
    data = RegressionData(y, X)
    prior = make_prior("common", "da", preset="weak")
    st0 = initial_state(data, prior)
    assert np.all(st0.beta == 0.0)
    assert st0.lambda1 == 1.0 and st0.lambda2 == 1.0
    assert st0.sigma2 == pytest.approx(float(np.var(data.y, ddof=1)))
    assert st0.tau2 is not None and st0.tau2.shape == (4,)
    direct = initial_state(data, make_prior("common", "direct", preset="weak"))
    assert direct.tau2 is None


def test_state_stores_natural_scales_only():
    # the transformed scales are derived where a kernel draws them
    assert [f.name for f in fields(ModelState)] == [
        "beta", "sigma2", "lambda1", "lambda2", "tau2"]


def test_prior_presets_published_values():
    weak = make_prior("common", "direct", preset="weak")
    strong = make_prior("common", "direct", preset="strong")
    assert (weak.L, weak.nu1, weak.R, weak.nu2) == (1.0, 1.0, 1.0, 1.0)
    assert (strong.L, strong.nu1, strong.R, strong.nu2) == (6.0, 4.0, 2.0, 4.0)
    assert weak.nu_a == 1.0 and weak.nu_b == 1.0
    with pytest.raises(ValueError):
        make_prior("common", "direct", preset="flat")
    with pytest.raises(ValueError):
        PriorSpec("ridge", "direct", 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PriorSpec("common", "direct", 0.0, 1.0, 1.0, 1.0)


def test_log_posterior_finite_and_guards():
    rng = RngStream(302, 2)
    X = rng.gen.standard_normal((25, 5))
    y = X @ np.array([1.0, 0.0, -2.0, 0.5, 0.0]) + rng.gen.standard_normal(25)
    data = RegressionData(y, X)
    for form in ("common", "differential"):
        for repre in ("direct", "da"):
            prior = make_prior(form, repre, preset="weak")
            state = initial_state(data, prior)
            assert math.isfinite(log_posterior_unnorm(data, prior, state))
    prior = make_prior("common", "da", preset="weak")
    state = initial_state(data, prior)
    state.tau2 = None
    with pytest.raises(ValueError):
        log_posterior_unnorm(data, prior, state)
    with pytest.raises(ValueError):
        ModelState(np.zeros(5), -1.0, 1.0, 1.0)


def test_hyperprior_improper_limit():
    prior = make_prior("common", "direct", preset="weak", nu_a=0.0, nu_b=0.0)
    # flat-in-log-sigma2 limit: density propto 1/sigma2
    v1 = log_hyperprior(prior, 1.0, 1.0, 1.0)
    v2 = log_hyperprior(prior, 4.0, 1.0, 1.0)
    assert v1 - v2 == pytest.approx(math.log(4.0), rel=1e-12)


def test_da_prior_rejects_out_of_range_scales():
    assert log_prior_da("common", [0.1], [1.2], 1.0, 1.0, 1.0) == -math.inf
    assert log_prior_da("differential", [0.1], [-0.5], 1.0, 1.0, 1.0) == -math.inf
    v = tau2_conditional_var("common", np.array([0.25]), 2.0, 4.0)
    assert v[0] == pytest.approx(0.375)
    v = tau2_conditional_var("differential", np.array([0.25]), 2.0, 4.0)
    assert v[0] == pytest.approx(2.0 * 0.25 / 2.0)


def _reference_log_prior(form, representation, beta, tau2, s2, l1, l2):
    """The joint log prior written out over the arrays beta and tau2."""
    p = beta.size
    if representation == "direct":
        bb, b1 = float(beta @ beta), float(np.abs(beta).sum())
        if form == "common":
            r = l1 / (2.0 * math.sqrt(s2) * math.sqrt(l2))
            penalty = -(l2 * bb + l1 * b1) / (2.0 * s2)
        else:
            r = l1 / math.sqrt(l2)
            penalty = -l2 * bb / (2.0 * s2) - l1 * b1 / math.sqrt(s2)
        return (-p * math.log(2.0)
                - 0.5 * p * math.log(2.0 * math.pi * s2 / l2)
                - 0.5 * p * r * r - p * float(mp.log(mp.ncdf(-r)))
                + penalty)
    if form == "common":
        v = (s2 / l2) * (1.0 - tau2)
        r = l1 / (2.0 * math.sqrt(s2) * math.sqrt(l2))
        const = (-math.log(2.0 * math.sqrt(2.0 * math.pi))
                 - float(mp.log(mp.ncdf(-r))) + math.log(r))
        log_tau2 = p * const + float(np.sum(-1.5 * np.log(tau2)
                                            - 0.5 * r * r / tau2))
    else:
        v = s2 * tau2 / (1.0 + l2 * tau2)
        th = l1 / math.sqrt(l2)
        const = (-math.log(2.0 * math.sqrt(2.0 * math.pi))
                 - float(mp.log(mp.ncdf(-th))) + math.log(l1)
                 + 0.5 * math.log(l2) - 0.5 * th * th)
        log_tau2 = p * const + float(np.sum(-0.5 * np.log1p(l2 * tau2)
                                            - 0.5 * l1 * l1 * tau2))
    log_beta = float(np.sum(-0.5 * np.log(2.0 * math.pi * v)
                            - 0.5 * beta * beta / v))
    return log_beta + log_tau2


def _random_state(gen, form, representation, p):
    tau2 = None
    if representation == "da":
        tau2 = (gen.uniform(0.02, 0.98, p) if form == "common"
                else np.exp(gen.normal(0.0, 1.0, p)))
    s2, l1, l2 = np.exp(gen.uniform(-1.5, 1.5, 3))
    return ModelState(gen.normal(0.0, 1.5, p), s2, l1, l2, tau2)


@pytest.mark.parametrize("form", ["common", "differential"])
@pytest.mark.parametrize("representation", ["direct", "da"])
def test_log_posterior_matches_array_reference(form, representation):
    gen = RngStream(303, 0).gen
    X = gen.standard_normal((25, 5))
    y = X @ np.array([1.0, 0.0, -2.0, 0.5, 0.0]) + gen.standard_normal(25)
    data = RegressionData(y, X)
    prior = make_prior(form, representation, preset="strong")
    for _ in range(25):
        st = _random_state(gen, form, representation, data.p)
        args = (st.sigma2, st.lambda1, st.lambda2)
        resid = data.y - data.X @ st.beta
        want_prior = _reference_log_prior(form, representation, st.beta,
                                          st.tau2, *args)
        want = (-0.5 * (data.n - 1) * math.log(2.0 * math.pi * st.sigma2)
                - 0.5 * math.log(data.n)
                - 0.5 * float(resid @ resid) / st.sigma2
                + want_prior + log_hyperprior(prior, *args))
        got = log_posterior_unnorm(data, prior, st)
        assert got == pytest.approx(want, rel=1e-12)
        sums = coefficient_sums(data, prior, st)
        assert log_posterior_unnorm(data, prior, st, sums) == got
        if representation == "direct":
            got_prior = log_prior_beta(form, st.beta, *args)
        else:
            got_prior = log_prior_da(form, st.beta, st.tau2, *args)
        assert got_prior == pytest.approx(want_prior, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("form,bad", [
    ("common", 1.0), ("common", 1.3), ("common", 0.0),
    ("differential", 0.0), ("differential", -0.2)])
def test_log_posterior_outside_tau2_support(form, bad):
    data = RegressionData(np.arange(6.0), np.arange(12.0).reshape(6, 2) ** 1.5)
    prior = make_prior(form, "da", preset="weak")
    st = initial_state(data, prior)
    st.tau2[1] = bad
    assert log_posterior_unnorm(data, prior, st) == -math.inf


def test_log_posterior_rejects_nonpositive_scales():
    data = RegressionData(np.arange(6.0), np.arange(12.0).reshape(6, 2) ** 1.5)
    for form in ("common", "differential"):
        for representation in ("direct", "da"):
            prior = make_prior(form, representation, preset="weak")
            st = initial_state(data, prior)
            sums = coefficient_sums(data, prior, st)
            st.sigma2 = 0.0
            with pytest.raises(ValueError, match="sigma2 must be positive"):
                log_posterior_unnorm(data, prior, st, sums)
    for args in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(ValueError, match="must be positive"):
            log_hyperprior(prior, *args)
