"""Quadrature tables, KS testing, planar grids, and the named checks."""

import copy
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bayenet import kernels, oracle
from bayenet.appendix_a import appendix_a_demonstration
from bayenet.model import (ModelState, RegressionData, coefficient_sums,
                           latent_precision, log_posterior_unnorm,
                           sample_beta_prior_da)
from bayenet.oracle import (
    OracleError,
    QuadratureGrid,
    auto_cdf,
    beta_block_ks,
    beta_kernel_ks_check,
    beta_pair_log_unnorm,
    broken_coordinate_update,
    da_beta_marginal_cdf,
    kernel_check_setup,
    ks_test,
    prior_equivalence_check,
    quadrature_cdf,
    scale_slice_log_density,
    slice_coordinate,
    sweep_coordinates,
)
from bayenet.rng import RngStream
from bayenet.simulate import write_csv
from bayenet.tilted import TiltedParams, log_density as tilted_log_density

from helpers import (axis_continuity_gap, axis_slope_jump,
                     from_transformed, latent_t_coordinate, latent_t_slice,
                     log_posterior_transformed, log_prior_da)


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


def _gamma400_cdf(x):
    # gamma(400, rate 1) CDF at x is P(N >= 400) for N ~ Poisson(x)
    return 1.0 - sum(math.exp(i * math.log(x) - x - math.lgamma(i + 1.0))
                     for i in range(400))


def _scan_top(ld, bracket):
    # the largest log density on auto_cdf's own 1501-node scan
    lo, hi = bracket
    spacing = np.geomspace if lo > 0.0 and hi / lo >= 1e3 else np.linspace
    return float(ld(spacing(lo, hi, 1501)).max())


@pytest.mark.parametrize("ld, bracket, cdf, points, pinned", [
    # a narrow peak far from 1, on a geometric scan
    (lambda x: 399.0 * np.log(x) - x, (1e-10, 1e6), _gamma400_cdf,
     (360.0, 400.0, 430.0), False),
    # the mode sits on the bracket edge; -inf outside the support
    (lambda x: np.where(x >= 0.0, -2.0 * x, -np.inf), (0.0, 60.0),
     lambda x: 1.0 - math.exp(-2.0 * x), (0.1, 0.5, 2.0), True),
    # a two-sided peak on a linear scan
    (lambda x: -2.0 * (x - 3.0) ** 2, (-25.0, 25.0),
     lambda x: 0.5 * (1.0 + math.erf(2.0 * (x - 3.0) / math.sqrt(2.0))),
     (2.5, 3.0, 3.7), False),
], ids=["gamma-400", "edge-mode", "normal"])
def test_auto_cdf_spans_scan_nodes_within_drop(ld, bracket, cdf, points,
                                               pinned):
    table = auto_cdf(ld, bracket)
    for x in points:
        assert table.interp(x) == pytest.approx(cdf(x), abs=1e-6)
    # only a lower edge pinned to the bracket is exempt from lying at
    # least _DROP below the scanned maximum
    top = _scan_top(ld, bracket)
    assert (table.xs[0] == bracket[0]) == pinned
    edges = [table.xs[-1]] if pinned else [table.xs[0], table.xs[-1]]
    for edge in ld(np.array(edges)):
        assert edge <= top - oracle._DROP


def test_auto_cdf_honest_failure_for_uncoverable_tail():
    # inverse-gamma-like with power -2.5: the right tail is still within
    # _DROP of the mode at the bracket's end, so the table must span six
    # decades on a linear grid and its mass cannot settle
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


def _lattice(data, sigma2, lambda2):
    """axis(j, n): about n uniform nodes on coefficient j's axis of the
    two-coefficient plane, centered on the ridge solution, stretched to
    nine standard deviations per side and always straddling zero.  The
    nodes are exact multiples of the step, so the density's kinks on the
    coordinate axes lie on grid lines."""
    prec = data.xtx + lambda2 * np.eye(2)
    center = np.linalg.solve(prec, data.xty)
    sds = np.sqrt(sigma2 * np.diag(np.linalg.inv(prec)))
    lo = np.minimum(center - 9.0 * sds, -2.0 * sds)
    hi = np.maximum(center + 9.0 * sds, 2.0 * sds)

    def axis(j, n):
        h = (hi[j] - lo[j]) / (n - 1)
        return h * np.arange(-math.ceil(-lo[j] / h), math.ceil(hi[j] / h) + 1)

    return axis


def _planar_mean(marginals):
    return np.array([np.trapezoid(x * p, x) for x, p in marginals])


def test_grid2d_ridge_reduction():
    data = _pair_data()
    lu = beta_pair_log_unnorm(data, 1.2, 0.0, 2.3, "common")
    _, marginals = oracle._planar_grid(lu, _lattice(data, 1.2, 2.3), 401)
    ridge = np.linalg.solve(data.xtx + 2.3 * np.eye(2), data.xty)
    assert np.abs(_planar_mean(marginals) - ridge).max() < 1e-6
    x1, p1 = marginals[0]
    assert np.trapezoid(p1, x1) == pytest.approx(1.0, abs=1e-9)


def test_grid2d_axis_continuity_and_slope_jump():
    data = _pair_data()
    axis = _lattice(data, 1.2, 0.8)
    for form, jump in (("common", 1.7 / 1.2),
                       ("differential", 2.0 * 1.7 / math.sqrt(1.2))):
        lu = beta_pair_log_unnorm(data, 1.2, 1.7, 0.8, form)
        assert axis_continuity_gap(lu, axis(0, 401), axis(1, 401)) < 1e-8
        assert axis_slope_jump(lu, at=0.9) == pytest.approx(jump, rel=1e-4)


def test_grid2d_mode_moves_onto_axes_for_heavy_penalty():
    data = _pair_data()
    lam = 4.0 * float(np.abs(data.xty).max())
    lu = beta_pair_log_unnorm(data, 1.2, lam, 0.8, "common")
    axis = _lattice(data, 1.2, 0.8)
    g1, g2 = axis(0, 401), axis(1, 401)
    logw = lu(g1[:, None], g2[None, :])
    i, j = np.unravel_index(int(np.argmax(logw)), logw.shape)
    assert (g1[i], g2[j]) == pytest.approx((0.0, 0.0))
    # and the certified grid refuses the same density, because the
    # spike is far below the resolvable scale
    with pytest.raises(OracleError, match="stabilize"):
        oracle._planar_grid(lu, axis, 401)


def test_grid2d_penalty_pulls_mean_toward_zero():
    data = _pair_data()
    axis = _lattice(data, 1.2, 0.8)
    _, g0 = oracle._planar_grid(
        beta_pair_log_unnorm(data, 1.2, 0.0, 0.8, "common"), axis, 401)
    # the kinked density at lambda1 = 1.5 cannot pass the certificate at
    # this resolution: one plane of the same lattice
    _, g1 = oracle._plane(beta_pair_log_unnorm(data, 1.2, 1.5, 0.8, "common"),
                          axis, 401)
    assert np.abs(_planar_mean(g1)).sum() < np.abs(_planar_mean(g0)).sum()


def test_planar_grid_refuses_a_plane_that_cuts_its_tails():
    def std_normal(b1, b2):
        return -0.5 * (b1 * b1 + b2 * b2)

    with pytest.raises(OracleError, match="does not cover the tails"):
        oracle._planar_grid(std_normal,
                            lambda j, n: np.linspace(-3.0, 3.0, n), 401)
    lm, _ = oracle._planar_grid(std_normal,
                                lambda j, n: np.linspace(-9.0, 9.0, n), 401)
    assert lm == pytest.approx(math.log(2.0 * math.pi), abs=1e-12)


@pytest.mark.parametrize("form", ["common", "differential"])
@pytest.mark.parametrize("setting", [(1.0, 1.0, 1.0), (2.0, 3.0, 0.5)])
def test_prior_equivalence(form, setting):
    sigma2, lam1, lam2 = setting
    d, ok = prior_equivalence_check(form, sigma2, lam1, lam2, 30000,
                                    RngStream(42, 9))
    assert ok, (form, setting, d)


def test_hierarchical_beta_moments():
    # symmetry and a sane second moment instead of closed forms
    draws = sample_beta_prior_da("differential", 40000, 2.0, 3.0, 0.5,
                                 RngStream(3, 3))
    assert abs(draws.mean()) < 0.02
    assert 0.0 < draws.std() < 2.0


def test_hierarchical_beta_rejects_unknown_form():
    with pytest.raises(ValueError, match="form"):
        sample_beta_prior_da("shared", 10, 1.0, 1.0, 1.0, RngStream(0, 0))


def test_beta_kernel_check_passes_and_catches_mutation():
    good = beta_kernel_ks_check(n=4000, seed=1)
    assert good.passed, good.detail
    bad = beta_kernel_ks_check(n=4000, seed=1,
                               updater=broken_coordinate_update)
    assert not bad.passed, bad.detail


def test_broken_coordinate_update_changes_only_its_coordinate():
    data, prior, state = kernel_check_setup("common", "direct")
    before = replace(state, beta=state.beta.copy())
    broken_coordinate_update(data, prior, state, 1, RngStream(5, 1))
    changed = np.flatnonzero(state.beta != before.beta)
    assert changed.tolist() == [1]
    assert (state.sigma2, state.lambda1, state.lambda2) == (
        before.sigma2, before.lambda1, before.lambda2)


def test_broken_coordinate_update_restores_lambda1_when_it_raises():
    data, prior, state = kernel_check_setup("differential", "direct")
    lambda1 = state.lambda1
    state.beta[1] = math.nan
    # the nan reaches the truncated-normal mean, which refuses it
    with pytest.raises(ValueError, match="mean must be finite"):
        broken_coordinate_update(data, prior, state, 0, RngStream(5, 2))
    assert state.lambda1 == lambda1


def _block_update_without_lambda2(data, prior, state, rng):
    """The block update of beta run at lambda2 = 0: the common form's
    prior precision lambda2 (1 + z) vanishes, the differential form keeps
    only z.  It calls kernels.update_beta_block, because the test
    patches the oracle's name with this function."""
    lambda2 = state.lambda2
    state.lambda2 = 0.0
    try:
        kernels.update_beta_block(data, prior, state, rng)
    finally:
        state.lambda2 = lambda2


def _block_update_without_data_noise(data, prior, state, rng):
    """The block update of beta with R'e dropped from its noise, so only
    D^1/2 z perturbs the solve and the draw is too narrow: it runs
    kernels.update_beta_block on a copy of the data whose root of X'X is
    zero, with X'X and X'y kept."""
    blind = copy.copy(data)
    blind.xtx_root = np.zeros_like(data.xtx_root)
    kernels.update_beta_block(blind, prior, state, rng)


def test_log_phi_distinct_matches_log_phi_bit_for_bit():
    theta = 0.7
    u = np.linspace(0.05, 9.0, 2001)
    # the common form's u1 slice: r is theta up to rounding at every node
    r = (2.0 * theta * u * 1.3) / (2.0 * np.sqrt(u * (u * 1.3 * 1.3)))
    for x in (-r, np.array([-3.0, 0.0, -0.0, 2.5, -3.0, 40.0, -40.0]),
              np.float64(-1.25), np.linspace(-12.0, 6.0, 501)):
        got = oracle._log_phi_distinct(x)
        assert np.shape(got) == np.shape(x)
        assert (np.asarray(got).tobytes()
                == np.asarray(oracle._log_phi(x)).tobytes())


def test_beta_block_check_passes_and_catches_dropped_lambda2():
    # and a block that drops R'e, the one-solve draw's own failure mode
    for form in ("common", "differential"):
        data, prior, state = kernel_check_setup(form, "da")
        good = beta_block_ks(data, prior, state, 2000, RngStream(0, 8))
        assert good.passed, (form, good.detail)
        for mutant in (_block_update_without_lambda2,
                       _block_update_without_data_noise):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "update_beta_block", mutant)
                bad = beta_block_ks(data, prior, state, 2000,
                                    RngStream(0, 8))
            assert not bad.passed, (form, mutant.__name__, bad.detail)


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
    write_csv(out, ("sigma2", "ratio"), zip(rep.sigma2_grid, rep.ratios()))
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


@pytest.mark.parametrize("name", ["a", "b", "lambda1", "lambda2", "p"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_appendix_a_refuses_nonfinite_parameters(name, value):
    args = {"a": 14.0, "b": 3.0, "lambda1": 1.0, "lambda2": 1.0, "p": 8}
    args[name] = value
    # refused by name before any draw, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite, got {value}$"):
            appendix_a_demonstration(**args)


def test_validation_suite_quick_all_pass(validate_quick):
    assert validate_quick.suite_kwargs == dict(seed=0, quick=True,
                                               beta_updater=None)
    checks = validate_quick.checks
    names = [c.name for c in checks]
    assert len(names) == len(set(names)) == 30
    for expect in ("quadrature-self-test", "ks-gig", "ks-tilted-q4",
                   "ks-tilted-small-shape", "ks-tilted-kept-hull",
                   "ks-gig-kept-hull",
                   "prior-equivalence-common", "tilted-property-suite",
                   "mills-gordon-sandwich",
                   "coefficient-kernel-ks",
                   "coefficient-kernel-ks-differential",
                   "kernel-common-direct-u1",
                   "kernel-common-direct-lambda2",
                   "kernel-common-da-tau2",
                   "kernel-differential-direct-sigma2",
                   "kernel-differential-direct-lambda2",
                   "kernel-differential-da-beta-block"):
        assert expect in names
    # the scale blocks are checked once per form: they read beta alone,
    # through its sums, in both representations
    assert not [n for n in names if n.startswith("kernel-")
                and "-da-" in n and not n.endswith(("tau2", "beta-block"))]
    failed = [c.name for c in checks if not c.passed]
    assert not failed, failed


def test_validation_suite_reports_injected_mutation(validate_quick_mutant):
    assert validate_quick_mutant.suite_kwargs == dict(
        seed=0, quick=True, beta_updater=broken_coordinate_update)
    checks = validate_quick_mutant.checks
    by_name = {c.name: c for c in checks}
    # the broken update is caught in both forms' coefficient lines
    coefficient = ("coefficient-kernel-ks",
                   "coefficient-kernel-ks-differential")
    assert not any(by_name[name].passed for name in coefficient)
    others = [c for c in checks if c.name not in coefficient]
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
    # the same four nodes as one array
    at_once = lp(np.array(xs))
    assert at_once.shape == (len(xs),)
    for v, x in zip(at_once, xs):
        assert abs(v - reference(x) - gaps[0]) < 1e-9


@pytest.mark.parametrize("representation", ["direct", "da"])
def test_lambda2_slice_matches_posterior(representation):
    """The natural lambda2 slice differs from the model's joint posterior
    by a constant: lambda1 is held fixed and there is no Jacobian."""
    data, prior, state = kernel_check_setup("differential", representation)
    assert slice_coordinate("differential", "lambda2", state) == state.lambda2
    lp = scale_slice_log_density(data, prior, state, "lambda2")
    xs = (0.05, 0.4, 0.9, 2.6, 11.0)
    sums = coefficient_sums(data, state)
    gaps = [lp(x) - log_posterior_unnorm(data, prior, replace(
        state, lambda2=x), sums) for x in xs]
    for g in gaps[1:]:
        assert abs(g - gaps[0]) < 1e-9


def test_scale_slice_refuses_a_restatement_that_disagrees():
    # a joint posterior that moves with sigma2 by a little more than the
    # restatement does must stop the slice from being built
    data, prior, state = kernel_check_setup("common", "direct")
    real = oracle.log_posterior_unnorm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "log_posterior_unnorm",
                   lambda d, pr, st, sums: real(d, pr, st, sums)
                   + 1e-6 * st.sigma2)
        with pytest.raises(OracleError, match="u1 slice disagrees"):
            scale_slice_log_density(data, prior, state, "u1")


@pytest.mark.parametrize("form, nodes", [
    ("common", (1e-6, 0.05, 0.7, 9.0, 1e3)),
    ("differential", (1e-6, 0.05, 0.8, 3.0, 40.0)),
])
def test_tau2_slice_matches_augmented_prior(form, nodes):
    """Differences of the latent slice target equal differences of the
    tests' own log_prior_da; outside the support z > 0 it is -inf."""
    _, prior, state = kernel_check_setup(form, "da")
    lp = oracle.tau2_slice_log_density(prior, state)
    got = lp(np.array(nodes))
    ref = [log_prior_da(form, state.beta, np.array([z, state.tau2[1]]),
                        state.sigma2, state.lambda1, state.lambda2)
           for z in nodes]
    for g, r in zip(got, ref):
        assert abs((g - got[0]) - (r - ref[0])) < 1e-9
    assert np.all(lp(np.array((-1.5, -0.5, 0.0, -0.0))) == -np.inf)


@pytest.mark.parametrize("form", ["common", "differential"])
def test_latent_slice_is_the_t_slice_changed_in_variables(form):
    """The z slice is the former slice in t = z/(1 + z) (common) or
    t = 1/z (differential) plus log |dt/dz|, -2 log(1 + z) or -2 log z,
    up to a constant, at random states."""
    gen = RngStream(523, 0).gen
    _, prior, state = kernel_check_setup(form, "da")
    for _ in range(20):
        b = gen.normal(0.0, 1.5)
        s2, l1, l2 = np.exp(gen.uniform(-1.5, 1.5, 3)).tolist()
        st = replace(state, beta=np.array([b, state.beta[1]]), sigma2=s2,
                     lambda1=l1, lambda2=l2)
        z = np.geomspace(1e-3, 1e3, 61)
        t, log_jac = latent_t_coordinate(form, z)
        got = oracle.tau2_slice_log_density(prior, st)(z)
        want = latent_t_slice(form, b, s2, l1, l2)(t) + log_jac
        gap = got - want
        assert np.all(np.abs(gap - gap[30]) <= 1e-12 * (1.0 + np.abs(got)))


@pytest.mark.parametrize("q", [1, 2, 4])
def test_tilted_array_density_matches_scalar(q):
    p = TiltedParams(q, 3.5, 1.1)
    xs = np.concatenate([[-2.0, -1e-300, 0.0],
                         np.geomspace(1e-8, 1e3, 400)])
    got = oracle._tilted_log_density(p, xs)
    for x, g in zip(xs, got):
        want = tilted_log_density(p, float(x))
        if x <= 0.0:
            assert g == want == -math.inf
        else:
            assert abs(g - want) <= 1e-13 * (1.0 + abs(want))


@pytest.mark.parametrize("target, quad_shape, scan_shape", [
    (lambda x: -0.5, "()", "()"),
    (lambda x: np.array(-0.5), "()", "()"),
    (lambda x: -0.5 * x[:-1] ** 2, "(20000,)", "(1500,)"),
], ids=["python-float", "zero-dim-array", "one-short"])
def test_target_must_return_one_value_per_node(target, quad_shape,
                                               scan_shape):
    with pytest.raises(OracleError, match=re.escape(f"shape {quad_shape}")):
        quadrature_cdf(target, QuadratureGrid(-10.0, 10.0))
    with pytest.raises(OracleError, match=re.escape(f"shape {scan_shape}")):
        auto_cdf(target, (-10.0, 10.0))


def test_da_beta_marginal_is_the_gaussian_it_should_be():
    # given the latent scales the conditional is exactly Gaussian, so the
    # certified planar marginal must hit its symmetric quantiles
    for form in ("common", "differential"):
        data, prior, state = kernel_check_setup(form, "da")
        table = da_beta_marginal_cdf(data, prior, state, nodes=241)
        v = state.sigma2 / latent_precision(form, state.tau2, state.lambda2)
        prec = data.xtx / state.sigma2 + np.diag(1.0 / v)
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
