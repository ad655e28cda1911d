"""Quadrature tables, KS testing, planar grids, and the named checks."""

import math

import numpy as np
import pytest

from bayenet import oracle
from bayenet.model import (ModelState, RegressionData, from_transformed,
                           log_posterior_transformed, tau2_conditional_var)
from bayenet.oracle import (
    OracleError,
    QuadratureGrid,
    appendix_a_demonstration,
    auto_cdf,
    axis_continuity_gap,
    axis_slope_jump,
    beta_block_ks,
    beta_kernel_ks_check,
    beta_pair_log_unnorm,
    broken_coordinate_update,
    da_beta_marginal_cdf,
    grid2d_beta_posterior,
    kernel_check_setup,
    ks_test,
    prior_equivalence_check,
    quadrature_cdf,
    ridge_mean,
    sample_hierarchical_beta,
    scale_slice_log_density,
    sweep_coordinates,
)
from bayenet.rng import RngStream


def test_quadrature_standard_normal_cdf():
    table = quadrature_cdf(lambda x: -0.5 * x * x,
                           QuadratureGrid(-10.0, 10.0))
    assert table.interp(0.0) == pytest.approx(0.5, abs=1e-8)
    assert table.interp(1.0) == pytest.approx(0.8413447460685429, abs=1e-7)
    assert table.log_mass == pytest.approx(0.5 * math.log(2 * math.pi),
                                           abs=1e-9)


def test_quadrature_gamma_cdf():
    # shape 2, rate 1: F(2) = 1 - 3 exp(-2)
    ld = lambda x: np.where(np.asarray(x) > 0,
                            np.log(np.maximum(x, 1e-300)) - x, -np.inf)
    table = quadrature_cdf(ld, QuadratureGrid(0.0, 40.0, nodes=80001))
    assert table.interp(2.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0),
                                              abs=1e-7)


def test_quadrature_grid_validation():
    with pytest.raises(ValueError, match="upper"):
        QuadratureGrid(1.0, 1.0)
    with pytest.raises(ValueError, match="nodes"):
        QuadratureGrid(0.0, 1.0, nodes=10)


def test_quadrature_rejects_unresolved_spike():
    # seven doublings from 101 nodes leave a step of 1.6e-3, far wider
    # than this spike, so its mass never settles
    narrow = lambda x: -0.5 * (x / 1e-4) ** 2
    with pytest.raises(OracleError, match="stabilize"):
        quadrature_cdf(narrow, QuadratureGrid(-10.0, 10.0, nodes=101))
    # a spike a hundred times wider is resolved by the doubling
    spike = lambda x: -0.5 * (x / 1e-2) ** 2
    table = quadrature_cdf(spike, QuadratureGrid(-10.0, 10.0, nodes=101))
    assert table.interp(0.0) == pytest.approx(0.5, abs=1e-6)


def test_quadrature_rejects_truncated_tail():
    with pytest.raises(OracleError, match="tail"):
        quadrature_cdf(lambda x: -x / 50.0, QuadratureGrid(0.0, 20.0))


def test_quadrature_rejects_growing_edge():
    with pytest.raises(OracleError, match="decrease"):
        quadrature_cdf(lambda x: np.log(np.maximum(x, 1e-300)),
                       QuadratureGrid(0.0, 1.0))


def test_quadrature_rejects_nan_density():
    with pytest.raises(OracleError):
        quadrature_cdf(lambda x: np.full_like(np.asarray(x, float), np.nan),
                       QuadratureGrid(0.0, 1.0))


def test_auto_cdf_places_range_from_target():
    table = auto_cdf(lambda x: 2.0 * np.log(x) - 2.0 * x,
                     bracket=(1e-10, 1e6))
    # gamma(3, rate 2): F at the mean 1.5 is P(3, 3)
    assert table.interp(1.5) == pytest.approx(0.5768099188731564, abs=1e-6)
    assert table.xs[0] > 0.0
    assert table.xs[-1] < 40.0


def test_auto_cdf_geometric_fallback():
    # an exp(-1e-6/x) rise near zero defeats any feasible linear grid,
    # while the right tail dies inside mode*1e3; the geometric fallback
    # grid certifies it
    ld = lambda x: -1e-6 / x - x * x
    table = auto_cdf(ld, bracket=(1e-10, 1e6))
    assert table.xs[0] == pytest.approx(1e-8)
    # the perturbation moves ~1e-5 of mass, so half-normal values hold
    assert table.interp(1.0) == pytest.approx(math.erf(1.0), abs=1e-3)
    assert table.interp(0.5) == pytest.approx(math.erf(0.5), abs=1e-3)


def test_auto_cdf_honest_failure_for_uncoverable_tail():
    # inverse-gamma-like with power -2.5: the fallback range mode*1e3
    # holds far more than 1e-8 tail mass, so no certificate is possible
    with pytest.raises(OracleError):
        auto_cdf(lambda x: -2.5 * np.log(x) - 1.0 / x, bracket=(1e-10, 1e6))


def test_ks_null_and_alternatives():
    table = quadrature_cdf(lambda x: -0.5 * x * x,
                           QuadratureGrid(-10.0, 10.0))
    gen = RngStream(7, 3).gen
    d, ok = ks_test(gen.standard_normal(10000), table)
    assert ok and d < 0.0163
    d, ok = ks_test(gen.standard_normal(10000) + 0.5, table)
    assert not ok and d > 0.15
    d, ok = ks_test(np.full(2000, 0.37), table)
    assert not ok
    with pytest.raises(ValueError, match="1000"):
        ks_test(gen.standard_normal(999), table)


def test_beta_pair_log_unnorm_validation():
    gen = RngStream(11, 0).gen
    data3 = RegressionData(gen.standard_normal(9), gen.standard_normal((9, 3)))
    with pytest.raises(ValueError, match="two predictors"):
        beta_pair_log_unnorm(data3, 1.0, 1.0, 1.0, "common")
    data2 = RegressionData(gen.standard_normal(9), gen.standard_normal((9, 2)))
    with pytest.raises(ValueError, match="form"):
        beta_pair_log_unnorm(data2, 1.0, 1.0, 1.0, "ridge")
    with pytest.raises(ValueError, match="positive"):
        beta_pair_log_unnorm(data2, 1.0, -0.5, 1.0, "common")


def _pair_data(seed=20210):
    gen = RngStream(seed, 0).gen
    X = gen.standard_normal((12, 2))
    X[:, 1] = 0.6 * X[:, 0] + 0.8 * X[:, 1]
    y = 1.4 * X[:, 0] - 0.8 * X[:, 1] + 0.9 * gen.standard_normal(12)
    return RegressionData(y, X)


def test_grid2d_ridge_reduction():
    data = _pair_data()
    grid = grid2d_beta_posterior(data, 1.2, 0.0, 2.3, "common")
    assert np.abs(grid.mean() - ridge_mean(data, 2.3)).max() < 1e-6
    x1, p1 = grid.marginal(0)
    assert np.trapezoid(p1, x1) == pytest.approx(1.0, abs=1e-9)


def test_grid2d_axis_continuity_and_slope_jump():
    data = _pair_data()
    for form, jump in (("common", 1.7 / 1.2),
                       ("differential", 2.0 * 1.7 / math.sqrt(1.2))):
        grid = grid2d_beta_posterior(data, 1.2, 1.7, 0.8, form,
                                     certify=False)
        assert axis_continuity_gap(grid) < 1e-8
        got = axis_slope_jump(grid, at=0.9)
        assert got == pytest.approx(jump, rel=1e-4)


def test_grid2d_mode_moves_onto_axes_for_heavy_penalty():
    data = _pair_data()
    lam = 4.0 * float(np.abs(data.xty).max())
    grid = grid2d_beta_posterior(data, 1.2, lam, 0.8, "common",
                                 certify=False)
    assert grid.argmax() == pytest.approx((0.0, 0.0))
    # and the same grid refuses the integral certificate, because the
    # spike is far below the resolvable scale
    with pytest.raises(OracleError, match="stabilize"):
        grid2d_beta_posterior(data, 1.2, lam, 0.8, "common")


def test_grid2d_penalty_pulls_mean_toward_zero():
    data = _pair_data()
    g0 = grid2d_beta_posterior(data, 1.2, 0.0, 0.8, "common")
    g1 = grid2d_beta_posterior(data, 1.2, 1.5, 0.8, "common",
                               certify=False)
    assert np.abs(g1.mean()).sum() < np.abs(g0.mean()).sum()


@pytest.mark.parametrize("form", ["common", "differential"])
@pytest.mark.parametrize("setting", [(1.0, 1.0, 1.0), (2.0, 3.0, 0.5)])
def test_prior_equivalence(form, setting):
    sigma2, lam1, lam2 = setting
    d, ok = prior_equivalence_check(form, sigma2, lam1, lam2, 30000,
                                    RngStream(42, 9))
    assert ok, (form, setting, d)


def test_hierarchical_beta_moments():
    # common form at lambda2=1: Var(beta) = sigma2 b- E tau^2 scaled;
    # check symmetry and a sane second moment instead of closed forms
    draws = sample_hierarchical_beta("differential", 2.0, 3.0, 0.5, 40000,
                                     RngStream(3, 3))
    assert abs(draws.mean()) < 0.02
    assert 0.0 < draws.std() < 2.0


def test_hierarchical_beta_rejects_unknown_form():
    with pytest.raises(ValueError, match="form"):
        sample_hierarchical_beta("shared", 1.0, 1.0, 1.0, 10,
                                 RngStream(0, 0))


def test_beta_kernel_check_passes_and_catches_mutation():
    good = beta_kernel_ks_check(n=4000, seed=1)
    assert good.passed, good.detail
    bad = beta_kernel_ks_check(n=4000, seed=1,
                               updater=broken_coordinate_update)
    assert not bad.passed, bad.detail


def _block_update_without_lambda2(data, prior, state, rng):
    """The block update of beta with lambda2 dropped from its precision:
    the common form's prior term vanishes, the differential form keeps
    only 1/tau2."""
    if prior.form == "common":
        extra = np.zeros(data.p)
    else:
        extra = 1.0 / state.tau2
    chol = np.linalg.cholesky(data.xtx + np.diag(extra))
    mean = np.linalg.solve(chol.T, np.linalg.solve(chol, data.xty))
    pert = np.linalg.solve(chol.T, rng.gen.standard_normal(data.p))
    state.beta = mean + math.sqrt(state.sigma2) * pert


def test_beta_block_check_passes_and_catches_dropped_lambda2():
    for form in ("common", "differential"):
        data, prior, state = kernel_check_setup(form, "da")
        good = beta_block_ks(data, prior, state, 2000, RngStream(0, 8))
        assert good.passed, (form, good.detail)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "update_beta_block",
                       _block_update_without_lambda2)
            bad = beta_block_ks(data, prior, state, 2000, RngStream(0, 8))
        assert not bad.passed, (form, bad.detail)


def test_appendix_a_headline_findings():
    rep = appendix_a_demonstration(14, 3, 1.0, 1.0, 8, n_draws=20000,
                                   seed=0)
    assert rep.acceptance_fraction == 1.0
    assert rep.ratio_increasing
    assert rep.ks_rejects_target
    assert rep.ks_d > 10.0 * rep.ks_threshold
    grid = rep.sigma2_grid
    for want in (1e-2, 1e-4, 1e-6):
        assert np.isclose(grid, want).any()
    ratios = rep.ratios()
    finite = np.isfinite(ratios)
    assert np.all(np.diff(ratios[finite]) > 0.0)
    assert math.isinf(ratios[-1])


def test_appendix_a_report_text_and_csv(tmp_path):
    rep = appendix_a_demonstration(14, 3, 1.0, 1.0, 8, n_draws=5000, seed=2)
    text = rep.text()
    assert "acceptance fraction: 1.000000" in text
    assert "no rejection constant" in text
    assert "verdict: FAIL" in text
    out = tmp_path / "ratios.csv"
    rep.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sigma2,ratio"
    assert len(lines) == 1 + rep.sigma2_grid.size
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.1)
    assert float(first[1]) > 1.0


def test_appendix_a_random_sets_always_accept():
    gen = RngStream(5, 11).gen
    for k in range(10):
        a = 2.0 + 18.0 * gen.random()
        lam1 = 0.3 + 2.7 * gen.random()
        lam2 = 0.3 + 2.7 * gen.random()
        p = int(gen.integers(1, 13))
        b = p * lam1 ** 2 / (8.0 * lam2) * (1.2 + 3.0 * gen.random())
        rep = appendix_a_demonstration(a, b, lam1, lam2, p, n_draws=3000,
                                       seed=k)
        assert rep.acceptance_fraction == 1.0
        assert rep.ratio_increasing
        assert rep.ks_rejects_target


def test_appendix_a_rejects_improper_target():
    with pytest.raises(ValueError, match="improper"):
        appendix_a_demonstration(14, 0.9, 3.0, 1.0, 8)
    with pytest.raises(ValueError, match="positive"):
        appendix_a_demonstration(-1.0, 3.0, 1.0, 1.0, 8)


def test_validation_suite_quick_all_pass(validate_quick):
    assert validate_quick.suite_kwargs == dict(seed=0, quick=True,
                                               beta_updater=None)
    checks = validate_quick.checks
    names = [c.name for c in checks]
    assert len(names) == len(set(names))
    for expect in ("quadrature-self-test", "ks-gig", "ks-tilted-q4",
                   "prior-equivalence-common", "tilted-property-suite",
                   "mills-gordon-sandwich", "transform-round-trip",
                   "coefficient-kernel-ks", "kernel-common-direct-u1",
                   "kernel-common-da-tau2", "kernel-differential-da-sigma2",
                   "kernel-differential-da-beta-block",
                   "grid2d-ridge-reduction", "grid2d-axis-mode"):
        assert expect in names
    failed = [c.name for c in checks if not c.passed]
    assert not failed, failed


def test_validation_suite_reports_injected_mutation(validate_quick_mutant):
    assert validate_quick_mutant.suite_kwargs == dict(
        seed=0, quick=True, beta_updater=broken_coordinate_update)
    checks = validate_quick_mutant.checks
    by_name = {c.name: c for c in checks}
    assert not by_name["coefficient-kernel-ks"].passed
    others = [c for c in checks if c.name != "coefficient-kernel-ks"]
    assert all(c.passed for c in others)


SLICE_CASES = [("common", rep, w)
               for rep in ("direct", "da") for w in ("u1", "u2", "theta")]
SLICE_CASES += [("differential", rep, w)
                for rep in ("direct", "da")
                for w in ("sigma2", "u2", "theta")]


@pytest.mark.parametrize("form, representation, which", SLICE_CASES)
def test_scale_slice_matches_transformed_posterior(form, representation,
                                                   which):
    """Differences of the slice target equal differences of the model's
    own transformed-coordinate posterior: two independent derivations of
    the same change of variables."""
    data, prior, state = kernel_check_setup(form, representation)
    lp = scale_slice_log_density(data, prior, state, which)
    base = sweep_coordinates(form, state.sigma2, state.lambda1,
                             state.lambda2)
    idx = {"u1": 0, "sigma2": 0, "u2": 1, "theta": 2}[which]

    def reference(x):
        coords = list(base)
        coords[idx] = x
        s2, l1, l2 = from_transformed(form, *coords)
        st = ModelState(beta=state.beta.copy(), sigma2=s2, lambda1=l1,
                        lambda2=l2, tau2=None if state.tau2 is None
                        else state.tau2.copy())
        return log_posterior_transformed(data, prior, st)

    xs = (0.3, 0.8, 1.7, 3.1)
    gaps = [lp(x) - reference(x) for x in xs]
    for g in gaps[1:]:
        assert abs(g - gaps[0]) < 1e-9


def test_da_beta_marginal_is_the_gaussian_it_should_be():
    # given the latent scales the conditional is exactly Gaussian, so the
    # certified planar marginal must hit its symmetric quantiles
    for form in ("common", "differential"):
        data, prior, state = kernel_check_setup(form, "da")
        table = da_beta_marginal_cdf(data, prior, state, nodes=241)
        v = tau2_conditional_var(form, state.tau2, state.sigma2,
                                 state.lambda2)
        prec = data.xtx / state.sigma2 + np.diag(1.0 / np.asarray(v))
        cov = np.linalg.inv(prec)
        center = cov @ (data.xty / state.sigma2)
        sd = math.sqrt(cov[0, 0])
        assert abs(table.interp(center[0]) - 0.5) < 1e-6
        # trapezoid error at 241 nodes is a few 1e-4; a variance off by
        # even 1 percent would move Phi(-1) by ~2.4e-3, so 1e-3 still
        # discriminates
        for z, phi in ((-1.0, 0.15865525393145707),
                       (2.0, 0.9772498680518208)):
            assert abs(table.interp(center[0] + z * sd) - phi) < 1e-3


def test_da_beta_marginal_needs_two_coefficients():
    gen = RngStream(7, 0).gen
    X = gen.standard_normal((15, 3))
    y = X @ np.array([1.0, 0.0, -1.0]) + gen.standard_normal(15)
    data = RegressionData(y, X)
    _, prior, state = kernel_check_setup("common", "da")
    state.beta = np.zeros(3)
    state.tau2 = np.full(3, 0.5)
    with pytest.raises(OracleError, match="p = 2"):
        da_beta_marginal_cdf(data, prior, state)
