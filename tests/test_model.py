"""Priors and posterior pieces against quadrature oracles."""

import math
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest

from bayenet.model import (
    ModelState,
    PriorSpec,
    RegressionData,
    coefficient_sums,
    initial_state,
    latent_precision,
    log_posterior_unnorm,
    make_prior,
    rss,
    sample_beta_prior_da,
    sample_beta_prior_direct,
    sample_tau2_prior,
)
from bayenet.rng import RngStream

from helpers import (cdf_table, ks_statistic, ks_threshold,
                     log_hyperprior, log_integrated_likelihood,
                     log_prior_beta, log_prior_da, log_prior_tau2,
                     reference_log_posterior)


@mp.workdps(30)
def test_prior_beta_is_normalized():
    for form in ("common", "differential"):
        for (s2, l1, l2) in [(1.0, 1.0, 1.0), (4.0, 0.5, 2.0), (0.25, 3.0, 0.7)]:
            total = mp.quad(
                lambda b: mp.e ** log_prior_beta(form, [float(b)], s2, l1, l2),
                [-mp.inf, 0, mp.inf])
            assert float(total) == pytest.approx(1.0, rel=1e-8), (form, s2, l1, l2)


@mp.workdps(30)
def test_tau2_prior_is_normalized():
    for (s2, l1, l2) in [(1.0, 1.0, 1.0), (2.0, 0.8, 3.0)]:
        tc = mp.quad(
            lambda v: mp.e ** log_prior_tau2("common", [float(v)], s2, l1, l2),
            [0, 1, mp.inf])
        assert float(tc) == pytest.approx(1.0, rel=1e-8)
        td = mp.quad(
            lambda v: mp.e ** log_prior_tau2(
                "differential", [float(v)], s2, l1, l2),
            [0, 1, mp.inf])
        assert float(td) == pytest.approx(1.0, rel=1e-8)


@mp.workdps(30)
def test_scale_mixture_marginalizes_to_direct_prior():
    # integrating the latent scale out of the augmented prior recovers the
    # direct prior density pointwise
    for form in ("common", "differential"):
        s2, l1, l2 = 1.3, 0.9, 1.7
        for b in [0.0, 0.2, -0.7, 1.5, -3.0]:
            got = mp.quad(
                lambda v: mp.e ** log_prior_da(
                    form, [b], [float(v)], s2, l1, l2),
                [0, 1, mp.inf])
            want = mp.e ** log_prior_beta(form, [b], s2, l1, l2)
            assert float(got) == pytest.approx(float(want), rel=1e-7), (form, b)


def test_tau2_prior_sampler_matches_density():
    # z has a tail like 1/z^2 in both forms, so the table is on log z
    rng = RngStream(301, 0)
    s2, l1, l2 = 1.5, 1.2, 0.8
    draws = sample_tau2_prior("common", 20000, s2, l1, l2, rng)
    assert 0.0 < min(draws) and max(draws) < math.inf
    xs, c = cdf_table(lambda u: u + log_prior_tau2(
        "common", [math.exp(u)], s2, l1, l2), -20.0, 35.0)
    assert ks_statistic(np.log(draws), xs, c) < ks_threshold(len(draws))

    rng = RngStream(301, 1)
    draws = sample_tau2_prior("differential", 20000, s2, l1, l2, rng)
    assert 0.0 < min(draws) and max(draws) < math.inf
    xs, c = cdf_table(lambda u: u + log_prior_tau2(
        "differential", [math.exp(u)], s2, l1, l2), -20.0, 35.0)
    assert ks_statistic(np.log(draws), xs, c) < ks_threshold(len(draws))


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
    resid = data.y - (X - X.mean(axis=0)) @ beta
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
    centred = X - X.mean(axis=0)
    np.testing.assert_allclose(data.xtx, centred.T @ centred)
    np.testing.assert_allclose(data.xty, centred.T @ data.y)
    assert abs(data.y.mean()) < 1e-12
    with pytest.raises(ValueError):
        RegressionData(y[:2], X[:2])
    # p >= 1 is what the theta blocks' tilted draws (q = p) rely on
    with pytest.raises(ValueError, match="^X has no predictor columns$"):
        RegressionData(y, X[:, :0])


@pytest.mark.parametrize("n,p", [(20, 8), (6, 10)])
def test_data_root_of_cross_products(n, p):
    # the block draw's noise R'e has covariance X'X only if R'R = X'X,
    # with k = min(n, p) rows also when n < p or a column is constant
    X = np.random.default_rng(n).standard_normal((n, p))
    X[:, 1] = 3.0
    data = RegressionData(X[:, 0] + np.arange(n), X)
    assert data.xtx_root.shape == (min(n, p), p)
    assert np.allclose(data.xtx_root.T @ data.xtx_root, data.xtx,
                       rtol=0.0, atol=1e-12 * np.abs(data.xtx).max())


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


@pytest.mark.parametrize("name, value", [
    ("nu_a", math.nan), ("nu_b", math.inf), ("L", math.inf),
    ("nu2", math.inf), ("nu1", -math.inf), ("R", math.nan),
])
def test_prior_refuses_nonfinite_hyperparameters(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        make_prior("differential", "da", preset="weak", **{name: value})


def test_log_posterior_finite_and_guards():
    rng = RngStream(302, 2)
    X = rng.gen.standard_normal((25, 5))
    y = X @ np.array([1.0, 0.0, -2.0, 0.5, 0.0]) + rng.gen.standard_normal(25)
    data = RegressionData(y, X)
    for form in ("common", "differential"):
        for repre in ("direct", "da"):
            prior = make_prior(form, repre, preset="weak")
            state = initial_state(data, prior)
            assert math.isfinite(log_posterior_unnorm(
                data, prior, state, coefficient_sums(data, state)))
    # the augmented prior's log posterior has tau2 integrated out
    prior = make_prior("common", "da", preset="weak")
    state = initial_state(data, prior)
    sums = coefficient_sums(data, state)
    with_tau2 = log_posterior_unnorm(data, prior, state, sums)
    state.tau2 = None
    assert log_posterior_unnorm(data, prior, state, sums) == with_tau2


@pytest.mark.parametrize("name", ["sigma2", "lambda1", "lambda2"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_state_refuses_scales_not_finite_and_positive(name, bad):
    scales = dict(sigma2=1.0, lambda1=1.0, lambda2=1.0)
    scales[name] = bad
    with pytest.raises(ValueError, match=(
            f"^{name} must be finite and positive, got {bad}$")):
        ModelState(np.zeros(5), **scales)


def test_hyperprior_improper_limit():
    prior = make_prior("common", "direct", preset="weak", nu_a=0.0, nu_b=0.0)
    # flat-in-log-sigma2 limit: density propto 1/sigma2
    v1 = log_hyperprior(prior, 1.0, 1.0, 1.0)
    v2 = log_hyperprior(prior, 4.0, 1.0, 1.0)
    assert v1 - v2 == pytest.approx(math.log(4.0), rel=1e-12)


def test_da_prior_rejects_out_of_range_scales():
    # z > 0 in both forms; t = 0.25 is z = 1/3 (common) and z = 4
    # (differential), where beta_j's variance is 0.375 and 0.25
    assert log_prior_da("common", [0.1], [-1.2], 1.0, 1.0, 1.0) == -math.inf
    assert log_prior_da("differential", [0.1], [-0.5], 1.0, 1.0, 1.0) == -math.inf
    v = 2.0 / latent_precision("common", np.array([1.0 / 3.0]), 4.0)
    assert v[0] == pytest.approx(0.375)
    v = 2.0 / latent_precision("differential", np.array([4.0]), 4.0)
    assert v[0] == pytest.approx(2.0 * 0.25 / 2.0)


@mp.workdps(50)
def test_latent_precision_is_the_old_coordinates_precision():
    # lambda2 / (1 - t) with t = z/(1 + z), and 1/t + lambda2 with
    # t = 1/z: the two forms' precisions in their former coordinates,
    # in 50 digits, since 1 - t cancels in doubles once z is large
    for lambda2 in (1e-3, 0.7, 40.0):
        l2 = mp.mpf(lambda2)
        for z in np.geomspace(1e-12, 1e12, 241).tolist():
            zm = mp.mpf(z)
            common = float(l2 / (1 - zm / (1 + zm)))
            differential = float(1 / (1 / zm) + l2)
            got = (float(latent_precision("common", z, lambda2)),
                   float(latent_precision("differential", z, lambda2)))
            assert got == pytest.approx((common, differential), rel=1e-12,
                                        abs=0.0), (z, lambda2)


@mp.workdps(30)
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
    # written directly in the stored latents z
    z = tau2
    if form == "common":
        v = s2 / (l2 * (1.0 + z))
        r = l1 / (2.0 * math.sqrt(s2) * math.sqrt(l2))
        const = (-math.log(2.0 * math.sqrt(2.0 * math.pi))
                 - float(mp.log(mp.ncdf(-r))) + math.log(r))
        log_tau2 = p * const + float(np.sum(
            -1.5 * np.log(z) - 0.5 * np.log1p(z)
            - 0.5 * r * r * (1.0 + 1.0 / z)))
    else:
        v = s2 / (z + l2)
        th = l1 / math.sqrt(l2)
        const = (-math.log(2.0 * math.sqrt(2.0 * math.pi))
                 - float(mp.log(mp.ncdf(-th))) + math.log(l1)
                 + 0.5 * math.log(l2) - 0.5 * th * th)
        log_tau2 = p * const + float(np.sum(
            -0.5 * np.log1p(l2 / z) - 0.5 * l1 * l1 / z - 2.0 * np.log(z)))
    log_beta = float(np.sum(-0.5 * np.log(2.0 * math.pi * v)
                            - 0.5 * beta * beta / v))
    return log_beta + log_tau2


def _random_state(gen, form, representation, p):
    tau2 = None
    if representation == "da":
        if form == "common":
            t = gen.uniform(0.02, 0.98, p)
            tau2 = t / (1.0 - t)
        else:
            tau2 = np.exp(gen.normal(0.0, 1.0, p))
    s2, l1, l2 = np.exp(gen.uniform(-1.5, 1.5, 3))
    return ModelState(gen.normal(0.0, 1.5, p), s2, l1, l2, tau2)


@pytest.mark.parametrize("form", ["common", "differential"])
@pytest.mark.parametrize("representation", ["direct", "da"])
def test_log_posterior_matches_array_reference(form, representation):
    # in both representations the log posterior is that of beta and the
    # scales, the augmented prior's with tau2 integrated out: the direct
    # prior
    gen = RngStream(303, 0).gen
    X = gen.standard_normal((25, 5))
    y = X @ np.array([1.0, 0.0, -2.0, 0.5, 0.0]) + gen.standard_normal(25)
    data = RegressionData(y, X)
    prior = make_prior(form, representation, preset="strong")
    for _ in range(25):
        st = _random_state(gen, form, representation, data.p)
        args = (st.sigma2, st.lambda1, st.lambda2)
        resid = data.y - (X - X.mean(axis=0)) @ st.beta
        want_prior = _reference_log_prior(form, "direct", st.beta, None,
                                          *args)
        want = (-0.5 * (data.n - 1) * math.log(2.0 * math.pi * st.sigma2)
                - 0.5 * math.log(data.n)
                - 0.5 * float(resid @ resid) / st.sigma2
                + want_prior + log_hyperprior(prior, *args))
        got = log_posterior_unnorm(data, prior, st,
                                   coefficient_sums(data, st))
        assert got == pytest.approx(want, rel=1e-12)
        assert log_prior_beta(form, st.beta, *args) == pytest.approx(
            want_prior, rel=1e-12, abs=1e-12)
        if representation == "da":
            # the tests' augmented prior against its own array reference
            assert log_prior_da(form, st.beta, st.tau2, *args) == (
                pytest.approx(_reference_log_prior(
                    form, "da", st.beta, st.tau2, *args), rel=1e-12))


PINNED_PRIORS = {
    "weak": dict(preset="weak"),
    "strong": dict(preset="strong"),
    "explicit": dict(L=0.4, nu1=1.0, R=1.0, nu2=1.0, nu_a=3.0, nu_b=0.5),
    "improper": dict(preset="weak", nu_a=0.0, nu_b=0.0),
}


@pytest.mark.parametrize("prior_name", sorted(PINNED_PRIORS))
@pytest.mark.parametrize("form", ["common", "differential"])
@pytest.mark.parametrize("representation", ["direct", "da"])
def test_flat_log_posterior_matches_termwise_reference(form, representation,
                                                       prior_name):
    # the flat body against its three terms written out apart, with r
    # = lambda1 / (2 sigma sqrt(lambda2)) (common) or lambda1 /
    # sqrt(lambda2) on both sides of the tail cut, where log Phi(-r)
    # leaves erfc for its continued fraction
    gen = RngStream(304, 0).gen
    X = gen.standard_normal((30, 6))
    y = X @ np.array([2.0, 0.0, -1.0, 0.0, 0.5, 0.0]) + gen.standard_normal(30)
    data = RegressionData(y, X)
    prior = make_prior(form, representation, **PINNED_PRIORS[prior_name])
    tail = 0
    for k in range(40):
        st = _random_state(gen, form, representation, data.p)
        r = (gen.uniform(0.01, 4.9) if k % 2 else gen.uniform(5.1, 40.0))
        root = math.sqrt(st.lambda2)
        st.lambda1 = r * root * (2.0 * math.sqrt(st.sigma2)
                                 if form == "common" else 1.0)
        tail += r > 5.0
        sums = coefficient_sums(data, st)
        assert log_posterior_unnorm(data, prior, st, sums) == pytest.approx(
            reference_log_posterior(data, prior, st, sums), rel=1e-12)
    assert tail == 20


def test_rss_is_its_numpy_scalar_form_bit_for_bit():
    # reduced in Python floats, the same operations in the same order
    # as numpy's scalars
    gen = RngStream(305, 0).gen
    for n, p in ((20, 8), (100, 40), (6, 12)):
        X = gen.standard_normal((n, p))
        data = RegressionData(X[:, 0] + gen.standard_normal(n), X)
        for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
            beta = scale * gen.standard_normal(p)
            want = float(data.yty - 2.0 * beta.dot(data.xty)
                         + beta.dot(data.xtx).dot(beta))
            got = rss(data, beta)
            assert type(got) is float
            assert float.hex(got) == float.hex(want)


@pytest.mark.parametrize("form,bad", [
    ("common", 1.0), ("common", 1.3), ("common", 0.0),
    ("differential", 0.0), ("differential", -0.2)])
def test_log_posterior_outside_tau2_support(form, bad):
    # the latents are integrated out of the log posterior, so no value
    # of one reaches it, outside its support z > 0 (log_prior_da, which
    # keeps them, is -inf there: test_da_prior_rejects_out_of_range_scales)
    # or in it
    data = RegressionData(np.arange(6.0), np.arange(12.0).reshape(6, 2) ** 1.5)
    prior = make_prior(form, "da", preset="weak")
    st = initial_state(data, prior)
    sums = coefficient_sums(data, st)
    want = log_posterior_unnorm(data, make_prior(form, "direct",
                                                 preset="weak"), st, sums)
    st.tau2[1] = bad
    assert math.isfinite(want)
    assert log_posterior_unnorm(data, prior, st, sums) == want


def test_log_posterior_rejects_nonpositive_scales():
    data = RegressionData(np.arange(6.0), np.arange(12.0).reshape(6, 2) ** 1.5)
    for form in ("common", "differential"):
        for representation in ("direct", "da"):
            prior = make_prior(form, representation, preset="weak")
            st = initial_state(data, prior)
            sums = coefficient_sums(data, st)
            st.sigma2 = 0.0
            with pytest.raises(ValueError, match="sigma2 must be positive"):
                log_posterior_unnorm(data, prior, st, sums)
            for name, bad in (("lambda1", -1.0), ("lambda2", 0.0),
                              ("lambda2", math.nan)):
                st = initial_state(data, prior)
                setattr(st, name, bad)
                with pytest.raises(ValueError,
                                   match="hyperparameters must be positive"):
                    log_posterior_unnorm(data, prior, st, sums)
