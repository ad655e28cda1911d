"""Exactness tests for the Gibbs updates.

The central battery holds a frozen state, repeatedly applies a single
block update, and KS-compares the refreshed coordinate against dense
quadrature of the corresponding slice of the transformed-space log
posterior.  The slice target is computed by the model module, the
update parameters are hard-coded in the kernels module, so a derivation
slip in either one shows up as a KS failure.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from bayenet import kernels, tilted
from bayenet.diagnostics import ess_batch_means
from bayenet.distributions import (sample_inverse_gaussian,
                                   sample_truncated_normal)
from bayenet.envelope import PiecewiseExpEnvelope
from bayenet.kernels import (
    MH_SCALES,
    MH_TARGET,
    SAMPLERS,
    mh_update_scales,
    parse_sampler,
    run_chain,
    run_sweep,
    update_beta_block,
    update_beta_coordinate,
    update_lambda2,
    update_sigma2_differential_rs,
    update_tau2,
    update_theta_common,
    update_theta_differential,
    update_u1_common,
    update_u2_common,
    update_u2_differential,
)
from bayenet.model import (
    RegressionData,
    coefficient_sums,
    initial_state,
    log_posterior_unnorm,
    make_prior,
)
from bayenet.oracle import sweep_coordinates
from bayenet.rng import BLOCK, RngStream, log_uniform
from bayenet.simulate import data_stream, design, generate_dataset
from bayenet.special import log_std_normal_cdf

from helpers import (cdf_table, from_transformed, ks_statistic,
                     ks_threshold, latent_t_coordinate,
                     log_posterior_transformed, log_prior_da,
                     reference_coefficient_sums, reference_scan_beta,
                     to_transformed)

N_SLICE_DRAWS = 4000


def make_data(seed=5, n=12, p=3):
    gen = RngStream(seed, 0).gen
    X = gen.standard_normal((n, p))
    beta = np.array([1.8, 0.0, -1.1][:p])
    y = X @ beta + 0.7 * gen.standard_normal(n)
    return RegressionData(y, X)


def clone(state):
    return replace(state, beta=state.beta.copy(),
                   tau2=None if state.tau2 is None else state.tau2.copy())


def coords(form, st):
    """The state's transformed scales (u1, u2, theta)."""
    return to_transformed(form, st.sigma2, st.lambda1, st.lambda2)


def set_coords(form, st, i, v):
    """Replace transformed scale i of st by v, keeping the other two."""
    c = list(coords(form, st))
    c[i] = v
    st.sigma2, st.lambda1, st.lambda2 = from_transformed(form, *c)


_FROZEN = {}


def frozen(form, representation):
    """Data, prior, and a state warmed by 30 exact sweeps (cached)."""
    key = (form, representation)
    if key not in _FROZEN:
        data = make_data()
        prior = make_prior(form, representation, preset="weak")
        state = initial_state(data, prior)
        rng = RngStream(42, COMBOS.index(key))
        for _ in range(30):
            run_sweep("rs", data, prior, state, rng)
        _FROZEN[key] = (data, prior, state)
    data, prior, state = _FROZEN[key]
    return data, prior, clone(state)


def auto_window(logf, lo, hi, drop=46.0, coarse=4001):
    """Trim [lo, hi] to where the log density is within drop of its peak."""
    xs = np.linspace(lo, hi, coarse)
    ys = np.array([float(logf(x)) for x in xs])
    top = ys.max()
    keep = np.nonzero(ys >= top - drop)[0]
    i0 = max(keep[0] - 1, 0)
    i1 = min(keep[-1] + 1, coarse - 1)
    if i1 - i0 < 2:
        raise AssertionError("slice window collapsed; widen the scan range")
    return float(xs[i0]), float(xs[i1])


def slice_ks(data, prior, state0, set_coord, get_coord, update,
             lo, hi, seed, log_density=log_posterior_transformed):
    def logf(v):
        st = clone(state0)
        set_coord(st, v)
        return log_density(data, prior, st)

    lo, hi = auto_window(logf, lo, hi)
    xs, cdf = cdf_table(logf, lo, hi)
    rng = RngStream(seed, 1)
    draws = np.empty(N_SLICE_DRAWS)
    for i in range(N_SLICE_DRAWS):
        st = clone(state0)
        update(st, rng)
        draws[i] = get_coord(st)
    return ks_statistic(draws, xs, cdf)


COMBOS = [("common", "direct"), ("common", "da"),
          ("differential", "direct"), ("differential", "da")]


@pytest.mark.parametrize("form,rep", COMBOS)
def test_variance_scale_slice(form, rep):
    data, prior, state = frozen(form, rep)
    sums = coefficient_sums(data, state)
    if form == "common":
        def set_coord(st, v):
            set_coords("common", st, 0, v)

        def update(st, rng):
            update_u1_common(data, prior, st, sums, rng)
    else:
        def set_coord(st, v):
            st.sigma2 = v

        def update(st, rng):
            update_sigma2_differential_rs(data, prior, st, sums, rng)

    get = lambda st: st.sigma2
    lo, hi = state.sigma2 / 60.0, state.sigma2 * 60.0
    d = slice_ks(data, prior, state, set_coord, get, update, lo, hi,
                 seed=101)
    assert d < ks_threshold(N_SLICE_DRAWS)


@pytest.mark.parametrize("form,rep", COMBOS)
def test_ridge_scale_slice(form, rep):
    data, prior, state = frozen(form, rep)
    sums = coefficient_sums(data, state)

    def set_coord(st, v):
        set_coords(form, st, 1, v)

    if form == "common":
        def update(st, rng):
            update_u2_common(data, prior, st, sums, rng)
    else:
        def update(st, rng):
            update_u2_differential(data, prior, st, sums, rng)

    u2 = coords(form, state)[1]
    d = slice_ks(data, prior, state, set_coord,
                 lambda st: coords(form, st)[1], update,
                 u2 / 60.0, u2 * 60.0, seed=202)
    assert d < ks_threshold(N_SLICE_DRAWS)


@pytest.mark.parametrize("form,rep", COMBOS)
def test_tilt_ratio_slice(form, rep):
    data, prior, state = frozen(form, rep)
    sums = coefficient_sums(data, state)

    def set_coord(st, v):
        set_coords(form, st, 2, v)

    if form == "common":
        def update(st, rng):
            update_theta_common(data, prior, st, sums, rng)
    else:
        def update(st, rng):
            update_theta_differential(data, prior, st, sums, rng)

    theta = coords(form, state)[2]
    d = slice_ks(data, prior, state, set_coord,
                 lambda st: coords(form, st)[2], update,
                 1e-9, max(theta, 0.2) * 80.0, seed=303)
    assert d < ks_threshold(N_SLICE_DRAWS)


@pytest.mark.parametrize("form,rep", COMBOS)
def test_penalty_rate_slice_at_fixed_lambda1(form, rep):
    # the lambda2 block of both sweeps, in natural coordinates: the
    # slice is the joint posterior itself, with no Jacobian
    data, prior, state = frozen(form, rep)
    sums = coefficient_sums(data, state)

    def logf(v):
        st = clone(state)
        st.lambda2 = v
        return log_posterior_unnorm(data, prior, st, sums)

    lo, hi = auto_window(logf, state.lambda2 / 300.0, state.lambda2 * 60.0)
    xs, cdf = cdf_table(logf, lo, hi)
    rng = RngStream(404, 1)
    draws = np.empty(N_SLICE_DRAWS)
    for i in range(N_SLICE_DRAWS):
        st = clone(state)
        update_lambda2(data, prior, st, sums, rng)
        assert (st.sigma2, st.lambda1) == (state.sigma2, state.lambda1)
        draws[i] = st.lambda2
    assert ks_statistic(draws, xs, cdf) < ks_threshold(N_SLICE_DRAWS)


# each rejection scale block, the natural scales its draw moves, and
# the sweep coordinates (u1, u2, theta) its conditional holds fixed
SCALE_BLOCK_WRITES = {
    "common": [(update_u1_common, {"sigma2", "lambda1", "lambda2"}, (1, 2)),
               (update_u2_common, {"lambda1", "lambda2"}, (0, 2)),
               (update_lambda2, {"lambda2"}, ()),
               (update_theta_common, {"lambda1"}, (0, 1))],
    "differential": [
        (update_sigma2_differential_rs, {"sigma2"}, ()),
        (update_u2_differential, {"lambda1", "lambda2"}, (0, 2)),
        (update_theta_differential, {"lambda1"}, (0, 1)),
        (update_lambda2, {"lambda2"}, ())],
}


@pytest.mark.parametrize("form", ["common", "differential"])
def test_scale_blocks_write_only_what_they_draw(form):
    # a natural scale the draw does not move keeps its bits, and the
    # coordinates the conditional fixes hold to rounding.  Each block
    # starts from the random state itself: in sweep order a u2 draw
    # leaves lambda2 a square, whose square root is exact
    data = make_data()
    prior = make_prior(form, "direct", preset="weak")
    gen = RngStream(77).gen
    rng = RngStream(77, 1)
    for _ in range(20):
        s2, l1, l2 = np.exp(gen.uniform(-3.0, 3.0, size=3)).tolist()
        start = initial_state(data, prior)
        start.beta = gen.standard_normal(data.p)
        start.sigma2, start.lambda1, start.lambda2 = s2, l1, l2
        sums = coefficient_sums(data, start)
        old = sweep_coordinates(form, s2, l1, l2)
        for block, moves, held in SCALE_BLOCK_WRITES[form]:
            state = clone(start)
            block(data, prior, state, sums, rng)
            for name in set(MH_SCALES) - moves:
                assert getattr(state, name) == getattr(start, name), (
                    block.__name__, name)
            new = sweep_coordinates(form, state.sigma2, state.lambda1,
                                    state.lambda2)
            for i in held:
                assert new[i] == pytest.approx(old[i], rel=1e-12), (
                    block.__name__, i)


@pytest.mark.parametrize("form", ["common", "differential"])
def test_coefficient_slice_direct(form):
    data, prior, state = frozen(form, "direct")
    j = int(np.argmax(np.abs(state.beta)))
    width = 15.0 * math.sqrt(
        state.sigma2 / (data.col_sq_norms[j] + state.lambda2))
    center = state.beta[j]

    def set_coord(st, v):
        st.beta[j] = v

    def update(st, rng):
        update_beta_coordinate(data, prior, st, j, rng)

    d = slice_ks(data, prior, state, set_coord, lambda st: st.beta[j],
                 update, center - width, center + width, seed=404)
    assert d < ks_threshold(N_SLICE_DRAWS)


def design3_direct(form, seed):
    """Design 3 (p = 40) under the strong direct prior, at the state a
    few rejection sweeps from the warm start reach; and the stream that
    drove them, with its buffers part used."""
    y, X = generate_dataset(design(3), data_stream(seed, 3, 0))
    data = RegressionData(y, X)
    prior = make_prior(form, "direct", preset="strong")
    state = initial_state(data, prior)
    rng = RngStream(seed, 1)
    for _ in range(3):
        run_sweep("rs", data, prior, state, rng)
    return data, prior, state, rng


@pytest.mark.parametrize("form", ["common", "differential"])
def test_direct_scan_is_the_coordinate_update_over_every_j(form):
    """The oracle's coefficient line checks update_beta_coordinate; that
    certifies the sweep only because one update_beta_direct call is that
    update over j = 0..p-1, draw for draw and bit for bit."""
    data, prior, state, rng = design3_direct(form, 12)
    scan, coord = clone(state), clone(state)
    scan_rng, coord_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    for _ in range(4):
        kernels.update_beta_direct(data, prior, scan, scan_rng)
        for j in range(data.p):
            update_beta_coordinate(data, prior, coord, j, coord_rng)
        assert scan.beta.tobytes() == coord.beta.tobytes()
    assert not np.array_equal(scan.beta, state.beta)
    # both streams are at the same place, buffers included
    for name in ("uniform", "normal", "exponential"):
        assert getattr(scan_rng, name)() == getattr(coord_rng, name)()
    assert scan_rng.gen.random() == coord_rng.gen.random()


class CountingGenerator:
    """A Generator stand-in that records each method call it forwards."""

    def __init__(self, gen):
        self.gen = gen
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def counted(*args, **kwargs):
            self.calls.append((name, args))
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("form", ["common", "differential"])
def test_direct_scan_draws_in_blocks_not_per_coordinate(form):
    """A scalar Generator call costs about twenty buffered draws, so the
    40-coordinate scan must reach the Generator only to refill a block:
    a few calls, not the one or more per coordinate it made before."""
    data, prior, state, _ = design3_direct(form, 12)
    rng = RngStream(12, 2)
    counting = CountingGenerator(rng.gen)
    rng.gen = counting
    kernels.update_beta_direct(data, prior, state, rng)
    assert counting.calls
    assert all(args == (BLOCK,) for _, args in counting.calls)
    assert len(counting.calls) <= 6 < data.p


@pytest.mark.parametrize("form", ["common", "differential"])
def test_direct_scan_is_the_reference_scan_bit_for_bit(form, monkeypatch):
    """The scan inlines log Phi's erfc branches and the truncated
    normal's a <= 0.5 regime; the plain scan that calls
    log_std_normal_cdf and sample_truncated_normal must draw the same
    bits from the same stream.  A last-bit drift in a side weight almost
    never flips a side, so both scans' erfc, log, log1p and exp calls,
    arguments and results, must match bit for bit too.  The far tail
    and Robert's regime on each side, which the scan still calls out
    for, and the inline negative side are each reached, so the
    comparison is not vacuous."""
    seen = {"far tail": 0, "nonnegative": 0, "negative": 0,
            "negative inline": 0}
    calls = []

    def recorded(name):
        fn = getattr(math, name)

        def call(x):
            y = fn(x)
            calls.append((name, float(x).hex(), y.hex()))
            return y
        return call

    def counted_log_cdf(x):
        seen["far tail"] += 1
        return log_std_normal_cdf(x)

    def counted_truncated_normal(mean, var, side, rng):
        seen[side] += 1
        return sample_truncated_normal(mean, var, side, rng)

    for name in ("erfc", "exp", "log", "log1p"):
        monkeypatch.setattr(math, name, recorded(name))
    monkeypatch.setattr(kernels, "log_std_normal_cdf", counted_log_cdf)
    monkeypatch.setattr(kernels, "sample_truncated_normal",
                        counted_truncated_normal)
    for d in (1, 2, 3):
        y, X = generate_dataset(design(d), data_stream(7, d, 0))
        data = RegressionData(y, X)
        prior = make_prior(form, "direct",
                           preset="weak" if d == 1 else "strong")
        for algorithm in kernels.ALGORITHMS:
            state = initial_state(data, prior)
            rng = RngStream(7, (d, 1))
            for _ in range(5):
                run_sweep(algorithm, data, prior, state, rng)
            fast, ref = clone(state), clone(state)
            fast_rng, ref_rng = copy.deepcopy(rng), copy.deepcopy(rng)
            for _ in range(5):
                negative_calls = seen["negative"]
                calls.clear()
                kernels.update_beta_direct(data, prior, fast, fast_rng)
                fast_calls = calls[:]
                calls.clear()
                reference_scan_beta(data, prior, ref, ref_rng)
                assert fast.beta.tobytes() == ref.beta.tobytes()
                assert fast_calls == calls
                seen["negative inline"] += (int((fast.beta < 0.0).sum())
                                            - (seen["negative"]
                                               - negative_calls))
            for name in ("uniform", "normal", "exponential"):
                assert getattr(fast_rng, name)() == getattr(ref_rng, name)()
            assert fast_rng.gen.random() == ref_rng.gen.random()
    assert all(seen.values()), seen


@pytest.mark.parametrize("form", ["common", "differential"])
@pytest.mark.parametrize("name", ["sigma2", "lambda1", "lambda2"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_direct_scan_refuses_what_the_reference_refuses(form, name, bad):
    """A non-finite scale must fail as the plain scan fails, with a
    ValueError naming what is not finite, and never be drawn inline: a
    common-form sigma2 = inf leaves every mean finite and only the
    variance infinite.  lambda2 = inf would make every variance 0, so
    both scans refuse it by name before the first coordinate."""
    y, X = generate_dataset(design(3), data_stream(7, 3, 0))
    data = RegressionData(y, X)
    prior = make_prior(form, "direct", preset="strong")
    errors = []
    for scan in (reference_scan_beta, kernels.update_beta_direct):
        state = initial_state(data, prior)
        setattr(state, name, bad)
        with pytest.raises(ValueError) as caught:
            scan(data, prior, state, RngStream(7, 2))
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    if name == "lambda2":
        assert errors[0] == f"lambda2 must be finite, got {bad}"


@pytest.mark.parametrize("label", SAMPLERS)
def test_coefficient_sums_are_the_matmul_sums_bit_for_bit(label):
    """coefficient_sums reduces beta with ndarray.dot; the matmul
    operator's sums must be the same bits after every sweep."""
    algorithm, form, representation = parse_sampler(label)
    for d in (1, 2, 3):
        y, X = generate_dataset(design(d), data_stream(7, d, 0))
        data = RegressionData(y, X)
        prior = make_prior(form, representation,
                           preset="weak" if d == 1 else "strong")
        state = initial_state(data, prior)
        rng = RngStream(7, (d, 3))
        for _ in range(20):
            run_sweep(algorithm, data, prior, state, rng)
            got = coefficient_sums(data, state)
            want = reference_coefficient_sums(data, state.beta)
            assert got.p == want.p
            assert ([float.hex(v) for v in got[1:]]
                    == [float.hex(v) for v in want[1:]])


@pytest.mark.parametrize("form", ["common", "differential"])
def test_latent_scale_slice_da(form):
    data, prior, state = frozen(form, "da")
    j = int(np.argmax(np.abs(state.beta)))

    def set_coord(st, v):
        st.tau2[j] = v

    def update(st, rng):
        update_tau2(data, prior, st, rng)

    # z's density falls like exp(-z prec b^2/(2 sigma2)), prec lambda2
    # (common) or 1 (differential) per unit of z
    prec = state.lambda2 if form == "common" else 1.0
    lo, hi = 1e-9, 100.0 * state.sigma2 / (prec * state.beta[j] ** 2)
    # the likelihood and the log posterior carry no latent: the slice is
    # the augmented prior's
    d = slice_ks(data, prior, state, set_coord, lambda st: st.tau2[j],
                 update, lo, hi, seed=505,
                 log_density=lambda d, pr, st: log_prior_da(
                     pr.form, st.beta, st.tau2, st.sigma2, st.lambda1,
                     st.lambda2))
    assert d < ks_threshold(N_SLICE_DRAWS)


@pytest.mark.parametrize("form", ["common", "differential"])
def test_latent_scales_refuse_an_underflowed_shape_by_name(form):
    # lambda1 near 1e-200, where a gamma(0.02) prior on it puts chains,
    # squares the inverse-Gaussian shape to 0
    data, prior, state = frozen(form, "da")
    prior = replace(prior, L=0.02)
    state.lambda1 = 1e-200
    before = state.tau2.copy()
    with pytest.raises(ValueError, match=(
            r"^lambda1 = 1e-200 is too small .* prior's L = 0\.02 ")):
        update_tau2(data, prior, state, RngStream(506, 0))
    assert (state.tau2 == before).all()


@pytest.mark.parametrize("form", ["common", "differential"])
def test_block_coefficient_update_moments(form):
    data, prior, state = frozen(form, "da")
    # the prior precision in the latents' former coordinate t
    t, _ = latent_t_coordinate(form, state.tau2)
    if form == "common":
        extra = state.lambda2 / (1.0 - t)
    else:
        extra = 1.0 / t + state.lambda2
    prec = data.xtx + np.diag(extra)
    cov = state.sigma2 * np.linalg.inv(prec)
    mean = np.linalg.inv(prec) @ data.xty
    rng = RngStream(606, 0)
    n = 30000
    draws = np.empty((n, data.p))
    for i in range(n):
        st = clone(state)
        update_beta_block(data, prior, st, rng)
        draws[i] = st.beta
    se = np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 5.0 * se)
    sample_cov = np.cov(draws.T)
    assert np.allclose(sample_cov, cov, rtol=0.08, atol=1e-5)


@pytest.mark.parametrize("label", SAMPLERS)
def test_sweep_keeps_latent_scales_in_range(label):
    algorithm, form, representation = parse_sampler(label)
    data = make_data()
    prior = make_prior(form, representation, preset="weak")
    state = initial_state(data, prior)
    rng = RngStream(707, 3)
    for _ in range(5):
        run_sweep(algorithm, data, prior, state, rng)
        if representation == "da":
            assert state.tau2 is not None
            assert np.all((state.tau2 > 0) & (state.tau2 < math.inf))


@pytest.mark.parametrize("form", ["common", "differential"])
def test_latent_update_stores_the_inverse_gaussian_draw(form):
    # z_j | beta_j is inverse Gaussian with mean lambda1/(2 lambda2 |b|)
    # and shape lambda1^2/(4 lambda2 sigma2) (common), or sigma lambda1/|b|
    # and lambda1^2 (differential): the state keeps the draw bit for bit
    data, prior, state = frozen(form, "da")
    rng = RngStream(508, 0)
    for _ in range(5):
        run_sweep("rs", data, prior, state, rng)
        l1, l2, s2 = state.lambda1, state.lambda2, state.sigma2
        mag = np.abs(state.beta)
        if form == "common":
            mean, shape = l1 / (2.0 * l2) / mag, l1 * l1 / (4.0 * l2 * s2)
        else:
            mean, shape = math.sqrt(s2) * l1 / mag, l1 * l1
        want = sample_inverse_gaussian(mean, shape, copy.deepcopy(rng))
        update_tau2(data, prior, state, rng)
        assert state.tau2.tobytes() == want.tobytes()


# the scale blocks of a sweep, in order, by algorithm and form
SCALE_BLOCKS = {
    ("rs", "common"): ("update_u1_common", "update_u2_common",
                       "update_lambda2", "update_theta_common"),
    ("rs", "differential"): ("update_sigma2_differential_rs",
                             "update_u2_differential",
                             "update_theta_differential", "update_lambda2"),
    ("mh", "common"): ("mh_update_scales",),
    ("mh", "differential"): ("mh_update_scales",),
}


def _sweep_calls(monkeypatch, algorithm, prior):
    """The block functions one augmented sweep calls, in order."""
    calls = []
    for name in {"update_beta_block", "update_tau2", "coefficient_sums",
                 *SCALE_BLOCKS[algorithm, prior.form]}:
        def recording(*args, _name=name, _block=getattr(kernels, name)):
            calls.append(_name)
            return _block(*args)
        monkeypatch.setattr(kernels, name, recording)
    data = make_data()
    run_sweep(algorithm, data, prior, initial_state(data, prior),
              RngStream(12, 0))
    return calls


@pytest.mark.parametrize("algorithm,form,L", [
    ("rs", "common", 0.5), ("rs", "common", 1.0), ("rs", "common", 6.0),
    ("rs", "differential", 0.5), ("rs", "differential", 1.0),
    ("rs", "differential", 6.0),
    ("mh", "common", 1.0), ("mh", "common", 0.5),
    ("mh", "differential", 1.0), ("mh", "differential", 0.5)])
def test_augmented_sweep_draws_the_scales_with_tau2_integrated_out(
        algorithm, form, L, monkeypatch):
    # beta, then the scales from the sums of beta alone, then tau2 at
    # the new scales, at every L
    prior = make_prior(form, "da", L=L, nu1=1.0, R=1.0, nu2=1.0)
    assert _sweep_calls(monkeypatch, algorithm, prior) == [
        "update_beta_block", "coefficient_sums",
        *SCALE_BLOCKS[algorithm, form], "update_tau2"]
    # and run_chain's draws are those of that scan, bit for bit
    monkeypatch.undo()
    data = make_data()
    out = run_chain(algorithm, data, prior, RngStream(13, 0), iters=40,
                    burnin=0)
    state, rng = initial_state(data, prior), RngStream(13, 0)
    # theta and u1 draw through the chain's own kept hulls
    kept = {"update_theta_common": kernels.theta_hull(data, prior),
            "update_u1_common": kernels.u1_hull(data, prior)}
    kept["update_theta_differential"] = kept["update_theta_common"]
    for row in out.draws:
        update_beta_block(data, prior, state, rng)
        sums = coefficient_sums(data, state)
        if algorithm == "rs":
            for name in SCALE_BLOCKS["rs", form]:
                hull = (kept[name],) if name in kept else ()
                getattr(kernels, name)(data, prior, state, sums, rng, *hull)
        else:
            mh_update_scales(data, prior, state, sums, (1.0,) * 3, rng,
                             kernels.new_counts("mh"))
        update_tau2(data, prior, state, rng)
        assert row[:data.p + 3].tobytes() == np.array(
            [*state.beta, state.sigma2, state.lambda1,
             state.lambda2]).tobytes()


@pytest.mark.parametrize("label", SAMPLERS[:4])
def test_each_chain_keeps_its_own_theta_hull(label):
    # a hull outliving its chain, or held in module state, would carry
    # one chain's tangents into the next and move that chain's draws
    algorithm, form, rep = parse_sampler(label)
    data = make_data()
    prior = make_prior(form, rep, preset="weak")

    def draws(stream):
        return run_chain(algorithm, data, prior, RngStream(61, stream),
                         iters=40, burnin=10).draws.tobytes()

    first, second = draws(1), draws(2)
    assert draws(2) == second
    assert draws(1) == first


def test_theta_target_evaluations_per_draw_are_pinned(monkeypatch):
    # log f calls per theta draw over seeded design-1 chains (weak prior,
    # L = 1): the kept hull evaluates log f only where its squeeze fails,
    # 146-238 times in 500 draws, where a hull built per draw evaluates
    # it 2.2-2.5 times per draw
    y, X = generate_dataset(design(1), data_stream(5, 1, 0))
    data = RegressionData(y, X)
    calls = [0]

    def counted(p, x, _log_density=tilted.log_density):
        calls[0] += 1
        return _log_density(p, x)

    monkeypatch.setattr(tilted, "log_density", counted)

    def evaluations():
        out = {}
        for label in SAMPLERS[:4]:
            algorithm, form, rep = parse_sampler(label)
            calls[0] = 0
            run_chain(algorithm, data, make_prior(form, rep, preset="weak"),
                      RngStream(5, 2), iters=400, burnin=100)
            out[label] = calls[0]
        return out

    assert evaluations() == {
        "rs-common-direct": 209, "rs-common-da": 146,
        "rs-differential-direct": 171, "rs-differential-da": 238}
    monkeypatch.setattr(kernels, "theta_hull", lambda data, prior: None)
    assert evaluations() == {
        "rs-common-direct": 1103, "rs-common-da": 1094,
        "rs-differential-direct": 1237, "rs-differential-da": 1232}


def test_gig_hull_builds_per_chain_are_pinned(monkeypatch):
    # hulls built for u1's 500 gig draws over seeded design-1 chains
    # (weak prior): the kept hull is rebuilt 7 times, mostly in
    # burn-in, where a hull per draw builds 500
    y, X = generate_dataset(design(1), data_stream(5, 1, 0))
    data = RegressionData(y, X)
    builds = [0]
    init = PiecewiseExpEnvelope.__init__

    def counted(self, *args):
        builds[0] += 1
        init(self, *args)

    # at L = 1 theta's hull is a TangentHull, which builds no such hull
    monkeypatch.setattr(PiecewiseExpEnvelope, "__init__", counted)

    def hulls_built():
        out = {}
        for label in SAMPLERS[:2]:
            algorithm, form, rep = parse_sampler(label)
            builds[0] = 0
            run_chain(algorithm, data, make_prior(form, rep, preset="weak"),
                      RngStream(5, 2), iters=400, burnin=100)
            out[label] = builds[0]
        return out

    assert hulls_built() == {"rs-common-direct": 7, "rs-common-da": 7}
    monkeypatch.setattr(kernels, "u1_hull", lambda data, prior: None)
    assert hulls_built() == {"rs-common-direct": 500, "rs-common-da": 500}


def test_parse_sampler():
    assert parse_sampler("rs-common-direct") == ("rs", "common", "direct")
    assert parse_sampler(" MH-Differential-DA ") == (
        "mh", "differential", "da")
    assert SAMPLERS == (
        "rs-common-direct", "rs-common-da", "rs-differential-direct",
        "rs-differential-da", "mh-common-direct", "mh-common-da",
        "mh-differential-direct", "mh-differential-da")
    for text in ("rs-common", "gibbs-common-direct", "rs-shared-direct",
                 "rs-common-augmented", "rs-common-direct-da", ""):
        with pytest.raises(ValueError, match="sampler must be one of"):
            parse_sampler(text)


def test_run_chain_output_layout():
    data = make_data()
    prior = make_prior("differential", "da", preset="weak")
    out = run_chain("rs", data, prior, RngStream(808, 0),
                    iters=50, burnin=10, thin=2)
    assert out.draws.shape == (50, data.p + 7)
    assert out.kind_label == "rs-differential-da"
    assert out.parameter_names[:3] == ["beta_1", "beta_2", "beta_3"]
    l1 = out.column("lambda1")
    l2 = out.column("lambda2")
    assert np.allclose(out.column("lambda_total"), l1 + np.sqrt(l2))
    assert np.allclose(out.column("alpha_share"),
                       l1 / (l1 + np.sqrt(l2)))
    assert np.allclose(out.column("lambda_sum"), l1 + l2)
    assert np.allclose(out.column("alpha_ridge_share"), l2 / (l1 + l2))
    assert out.wall_ms > 0.0
    assert out.acceptance == {}
    with pytest.raises(KeyError):
        out.column("nope")
    with pytest.raises(ValueError):
        run_chain("rs", data, prior, RngStream(1, 1), iters=0)
    with pytest.raises(ValueError, match="algorithm must be one of"):
        run_chain("gibbs", data, prior, RngStream(1, 1), iters=5)


@pytest.mark.parametrize("rep", ["direct", "da"])
def test_run_sweep_refuses_an_unknown_algorithm(rep):
    # refused by name before any block moves the state or the stream
    data = make_data()
    prior = make_prior("common", rep, preset="weak")
    state, rng = initial_state(data, prior), RngStream(1, 2)
    before = clone(state)
    with pytest.raises(ValueError, match="algorithm must be one of .*'gibbs'"):
        run_sweep("gibbs", data, prior, state, rng, counts={})
    assert state.beta.tobytes() == before.beta.tobytes()
    assert rng.gen.random() == RngStream(1, 2).gen.random()


def test_run_chain_metropolis_acceptance_rates():
    data = make_data()
    prior = make_prior("common", "direct", preset="weak")
    out = run_chain("mh", data, prior, RngStream(909, 0),
                    iters=200, burnin=50, thin=2)
    for name in ("sigma2", "lambda1", "lambda2"):
        rate = out.acceptance_rate(name)
        acc, tot = out.acceptance[name]
        # counted over the kept sweeps only, after the steps froze
        assert tot == 200 * 2
        assert 0.0 < rate < 1.0
        assert out.mh_steps[name] > 0.0
    assert list(out.mh_steps) == list(MH_SCALES)
    assert out.acceptance_rate("beta_1") is None


@pytest.mark.parametrize("form,rep", COMBOS)
def test_no_burn_in_keeps_unit_steps(form, rep):
    # with nothing to tune, a Metropolis chain runs at the unit step, so
    # its draws are those of a chain that never adapts
    data = make_data()
    prior = make_prior(form, rep, preset="weak")
    out = run_chain("mh", data, prior, RngStream(5, 1), iters=30, burnin=0)
    assert out.mh_steps == {name: 1.0 for name in MH_SCALES}
    state, rng = initial_state(data, prior), RngStream(5, 1)
    for row in out.draws:
        run_sweep("mh", data, prior, state, rng)
        assert row[:data.p + 3].tobytes() == np.array(
            [*state.beta, state.sigma2, state.lambda1,
             state.lambda2]).tobytes()
    assert run_chain("rs", data, prior, RngStream(5, 1), iters=5,
                     burnin=3).mh_steps == {}


def _recorded_chain(monkeypatch, data, prior, seed, **kw):
    """run_chain("mh", ...) with every sweep's input recorded: a copy of
    the state and the RNG before the sweep, the steps it ran at, and the
    Metropolis accepts it added."""
    sweeps = []

    def recording_sweep(algorithm, data, prior, state, rng, counts, steps,
                        hull):
        before = [counts[name][0] for name in MH_SCALES]
        sweeps.append({"state": clone(state), "rng": copy.deepcopy(rng),
                       "steps": tuple(steps)})
        run_sweep(algorithm, data, prior, state, rng, counts, steps, hull)
        sweeps[-1]["accepted"] = [counts[name][0] - a
                                  for name, a in zip(MH_SCALES, before)]
        return state

    monkeypatch.setattr(kernels, "run_sweep", recording_sweep)
    out = run_chain("mh", data, prior, RngStream(seed, 4), **kw)
    monkeypatch.undo()
    return out, sweeps


@pytest.mark.parametrize("form,rep", COMBOS)
def test_burn_in_tunes_steps_then_freezes_them(form, rep, monkeypatch):
    data = make_data()
    prior = make_prior(form, rep, preset="weak")
    burnin, iters, thin = 60, 40, 2
    out, sweeps = _recorded_chain(monkeypatch, data, prior, 31,
                                  iters=iters, burnin=burnin, thin=thin)
    assert len(sweeps) == burnin + iters * thin
    # burn-in sweep t moves each log step by
    # (t + 1)^-1/2 (accepted - MH_TARGET), from a unit step
    log_h = np.zeros(len(MH_SCALES))
    for t in range(burnin):
        np.testing.assert_allclose(sweeps[t]["steps"], np.exp(log_h),
                                   rtol=1e-12)
        log_h += ((np.array(sweeps[t]["accepted"]) - MH_TARGET)
                  / math.sqrt(t + 1.0))
    reported = tuple(out.mh_steps[name] for name in MH_SCALES)
    np.testing.assert_allclose(reported, np.exp(log_h), rtol=1e-12)
    assert reported != (1.0,) * len(MH_SCALES)
    # every kept sweep runs at the reported steps, and only those sweeps
    # count towards the acceptance
    kept = sweeps[burnin:]
    assert all(sw["steps"] == reported for sw in kept)
    assert out.acceptance == {
        name: (sum(sw["accepted"][i] for sw in kept), iters * thin)
        for i, name in enumerate(MH_SCALES)}
    # sweeping on from the burnt-in state at the reported steps
    # reproduces every kept draw bit for bit
    state, rng = kept[0]["state"], kept[0]["rng"]
    redrawn = []
    for it in range(iters * thin):
        run_sweep("mh", data, prior, state, rng, None, reported)
        if it % thin == 0:
            redrawn.append([*state.beta, state.sigma2, state.lambda1,
                            state.lambda2])
    assert np.array(redrawn).tobytes() == out.draws[:, :data.p + 3].tobytes()


def test_tuned_acceptance_on_the_wide_design():
    # design 3 with the strong prior, where a unit step accepts only
    # 0.14-0.16 of sigma2 proposals; burn-in brings every scale near
    # MH_TARGET
    y, X = generate_dataset(design(3), data_stream(101, 3, 0))
    data = RegressionData(y, X)
    for i, label in enumerate(SAMPLERS):
        algorithm, form, rep = parse_sampler(label)
        if algorithm != "mh":
            continue
        out = run_chain(algorithm, data,
                        make_prior(form, rep, preset="strong"),
                        RngStream(7, (0, i)), iters=1000, burnin=200)
        for name in MH_SCALES:
            assert 0.25 <= out.acceptance_rate(name) <= 0.65, (label, name)


def test_metropolis_scan_targets_same_posterior():
    """Long MH and exact-rejection chains must agree on scale means."""
    data = make_data()
    res = {}
    for alg in ("rs", "mh"):
        prior = make_prior("common", "direct", preset="weak")
        out = run_chain(alg, data, prior, RngStream(414, 7),
                        iters=20000, burnin=500)
        res[alg] = out
    for name in ("sigma2", "lambda1", "lambda2", "beta_1"):
        a = res["rs"].column(name)
        b = res["mh"].column(name)
        pooled = math.sqrt(a.var() / a.size + b.var() / b.size)
        # MH mixes slower; allow a wide multiple of the naive error
        assert abs(a.mean() - b.mean()) < 12.0 * pooled, name


def _mh_scales_reference(data, prior, state, steps, rng, counts):
    """mh_update_scales with the full log posterior, beta reduced
    afresh, at every evaluation, at the same log-scale steps."""
    cur_lp = log_posterior_unnorm(data, prior, state,
                                  coefficient_sums(data, state))
    for name, step in zip(("sigma2", "lambda1", "lambda2"), steps):
        cur = getattr(state, name)
        prop = cur * math.exp(step * rng.gen.standard_normal())
        trial = replace(state, **{name: prop})
        trial_lp = log_posterior_unnorm(data, prior, trial,
                                        coefficient_sums(data, trial))
        counts[name][1] += 1
        if log_uniform(rng) < (trial_lp - cur_lp
                               + math.log(prop) - math.log(cur)):
            setattr(state, name, prop)
            cur_lp = trial_lp
            counts[name][0] += 1


@pytest.mark.parametrize("form,rep", COMBOS)
def test_mh_scale_block_matches_full_posterior_reference(form, rep):
    # the block computes rss(beta) once; decisions and states must be
    # exactly those of recomputing the whole log posterior each time, at
    # the unit step of an untuned chain and at tuned steps
    data, prior, state = frozen(form, rep)
    for steps in ((1.0, 1.0, 1.0), (0.3, 2.2, 0.7)):
        fast, ref = clone(state), clone(state)
        rng_fast, rng_ref = RngStream(77, 1), RngStream(77, 1)
        counts_fast = {name: [0, 0] for name in MH_SCALES}
        counts_ref = {name: [0, 0] for name in MH_SCALES}
        sums = coefficient_sums(data, fast)
        for _ in range(200):
            mh_update_scales(data, prior, fast, sums, steps, rng_fast,
                             counts_fast)
            _mh_scales_reference(data, prior, ref, steps, rng_ref,
                                 counts_ref)
            assert counts_fast == counts_ref
            assert ((fast.sigma2, fast.lambda1, fast.lambda2)
                    == (ref.sigma2, ref.lambda1, ref.lambda2))
        np.testing.assert_array_equal(fast.beta, ref.beta)
        for name in MH_SCALES:
            accepted, proposed = counts_fast[name]
            assert 0 < accepted < proposed == 200, (steps, name)


_SCALE_BLOCKS = {
    "common": (update_u1_common, update_u2_common, update_theta_common),
    "differential": (update_sigma2_differential_rs, update_u2_differential,
                     update_theta_differential),
}
# blocks checked after the Metropolis one, which keeps its stream; at
# stream (88, 4) its three unit-step proposals are all rejected
_LATER_SCALE_BLOCKS = {
    "common": (update_lambda2,),
    "differential": (update_lambda2,),
}


@pytest.mark.parametrize("form,rep", COMBOS)
def test_scale_blocks_read_coefficients_only_through_sums(form, rep):
    # with beta (and tau2) set to NaN and the real arrays' sums passed,
    # every scale block must write bit for bit what it writes on the
    # real state from the same seed
    data, prior, state = frozen(form, rep)
    sums = coefficient_sums(data, state)
    blind = clone(state)
    blind.beta = np.full(data.p, np.nan)
    if rep == "da":
        blind.tau2 = np.full(data.p, np.nan)
    scales = lambda st: (st.sigma2, st.lambda1, st.lambda2)

    def metropolis(d, pr, st, sm, rng):
        counts = {name: [0, 0] for name in MH_SCALES}
        mh_update_scales(d, pr, st, sm, (1.0,) * len(MH_SCALES), rng,
                         counts)
        return counts

    for i, block in enumerate(_SCALE_BLOCKS[form] + (metropolis,)
                              + _LATER_SCALE_BLOCKS[form]):
        real, nan = clone(state), clone(blind)
        wrote_real = block(data, prior, real, sums, RngStream(88, i))
        wrote_nan = block(data, prior, nan, sums, RngStream(88, i))
        assert scales(real) != scales(state), block.__name__
        assert scales(nan) == scales(real), block.__name__
        assert wrote_nan == wrote_real, block.__name__
        assert np.isnan(nan.beta).all()


def _degenerate_design(case):
    """A 20x4 design whose third column is constant, or a 10x30 one."""
    if case == "constant-column":
        gen = RngStream(41, 0).gen
        X = gen.standard_normal((20, 4))
        X[:, 2] = 3.0
        y = X @ np.array([1.0, -0.5, 0.0, 2.0]) + 0.5 * gen.standard_normal(20)
    else:
        gen = RngStream(41, 1).gen
        X = gen.standard_normal((10, 30))
        y = X[:, :3] @ np.array([1.5, -1.0, 0.5]) + 0.5 * gen.standard_normal(10)
    return RegressionData(y, X)


@pytest.mark.parametrize("case", ["constant-column", "p-over-n"])
def test_degenerate_designs_are_sampled(case):
    # the prior identifies a coefficient the likelihood does not see, so
    # both designs are accepted; the constant column's coefficient has
    # the symmetric prior conditional as its posterior
    data = _degenerate_design(case)
    for i, label in enumerate(SAMPLERS):
        algorithm, form, rep = parse_sampler(label)
        out = run_chain(algorithm, data, make_prior(form, rep, preset="weak"),
                        RngStream(43, i), iters=500, burnin=100)
        assert np.isfinite(out.draws).all(), label
        if case == "constant-column":
            x = out.column("beta_3")
            mcse = x.std(ddof=1) / math.sqrt(ess_batch_means(x))
            assert abs(x.mean()) < 5.0 * mcse, label
