"""Batch-means effective sample size and chain summaries."""

import math
import warnings

import numpy as np
import pytest

from bayenet.diagnostics import (
    ChainOutput,
    derived_penalty_columns,
    ess_batch_means,
    percent_improvement,
    summarize,
)


def test_ess_iid_near_n():
    gen = np.random.default_rng(1)
    x = gen.standard_normal(10000)
    ess = ess_batch_means(x)
    assert 0.75 * 10000 < ess <= 10000


def test_ess_ar1_matches_theory():
    # AR(1) with coefficient 0.9 has autocorrelation time 19
    gen = np.random.default_rng(2)
    n, phi = 40000, 0.9
    eps = gen.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / math.sqrt(1 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    ess = ess_batch_means(x)
    want = n * (1 - phi) / (1 + phi)
    assert 0.5 * want < ess < 1.7 * want


def test_ess_negative_correlation_clips_at_n():
    gen = np.random.default_rng(3)
    eps = gen.standard_normal(10001)
    x = eps[1:] - eps[:-1]
    assert ess_batch_means(x) == 10000.0


def test_ess_constant_series_warns():
    with pytest.warns(RuntimeWarning, match="constant"):
        assert ess_batch_means(np.full(500, 3.3)) == 500.0


def test_ess_affine_invariant():
    gen = np.random.default_rng(4)
    x = gen.standard_normal(2500).cumsum()
    a = ess_batch_means(x)
    b = ess_batch_means(-5.0 * x + 11.0)
    assert math.isclose(a, b, rel_tol=1e-12)


def test_ess_input_validation():
    with pytest.raises(ValueError, match="at least 100"):
        ess_batch_means(np.ones(99))
    bad = np.ones(200)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ess_batch_means(bad)


def _per_column(table):
    """One 1-D ess_batch_means per column, with the warnings each call
    raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ess = np.array([ess_batch_means(table[:, j])
                        for j in range(table.shape[1])])
    return ess, [str(w.message) for w in caught]


def _at_once(table):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ess = ess_batch_means(table)
    return ess, [str(w.message) for w in caught]


@pytest.mark.parametrize("n, k", [(100, 1), (101, 3), (2500, 7),
                                  (10007, 4), (20000, 2)])
def test_ess_of_columns_is_the_per_column_ess_bit_for_bit(n, k):
    gen = np.random.default_rng(n + k)
    table = gen.standard_normal((n, k)).cumsum(axis=0) + 1e5
    ess, caught = _at_once(table)
    want, want_caught = _per_column(table)
    assert ess.shape == (k,)
    assert ess.tobytes() == want.tobytes()
    assert caught == want_caught == []


def test_ess_of_columns_warns_per_constant_or_degenerate_column():
    gen = np.random.default_rng(6)
    n = 400
    # batches of 20 integers 0..19 have exactly equal means: a degenerate
    # batch variance
    periodic = np.tile(np.arange(20.0), n // 20)
    table = np.column_stack([gen.standard_normal(n), np.full(n, 3.3),
                             periodic, np.full(n, -1.0)])
    ess, caught = _at_once(table)
    want, want_caught = _per_column(table)
    assert ess.tobytes() == want.tobytes()
    assert ess[1] == ess[2] == ess[3] == float(n)
    assert caught == want_caught
    assert [("constant" in m, "degenerate" in m) for m in caught] == [
        (True, False), (False, True), (True, False)]


def test_ess_of_columns_refuses_a_non_finite_column():
    table = np.random.default_rng(7).standard_normal((300, 3))
    table[10, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        ess_batch_means(table[:, 2])
    with pytest.raises(ValueError, match="non-finite"):
        ess_batch_means(table)
    with pytest.raises(ValueError, match="at least 100"):
        ess_batch_means(table[:99])


def test_percent_improvement():
    assert percent_improvement(150.0, 100.0) == pytest.approx(50.0)
    assert percent_improvement(80.0, 100.0) == pytest.approx(-20.0)
    with pytest.raises(ValueError):
        percent_improvement(1.0, 0.0)


def test_derived_penalty_columns_values():
    l1 = np.array([2.0, 0.5])
    l2 = np.array([4.0, 9.0])
    total, share, lsum, ridge_share = derived_penalty_columns(l1, l2)
    assert np.allclose(total, [4.0, 3.5])
    assert np.allclose(share, [0.5, 1.0 / 7.0])
    assert np.allclose(lsum, [6.0, 9.5])
    assert np.allclose(ridge_share, [4.0 / 6.0, 9.0 / 9.5])


def _toy_chain():
    gen = np.random.default_rng(5)
    draws = np.column_stack([
        gen.standard_normal(400) + 2.0,
        gen.standard_normal(400) * 0.5,
    ])
    return ChainOutput(
        draws=draws,
        parameter_names=["beta_1", "sigma2"],
        kind_label="mh-common-direct",
        acceptance={"sigma2": (120, 400)},
        mh_steps={"sigma2": 0.6},
        wall_ms=12.5,
    )


def test_summarize_rows():
    rows = summarize(_toy_chain())
    assert [r["parameter"] for r in rows] == ["beta_1", "sigma2"]
    r = rows[0]
    assert set(r) == {"parameter", "mean", "sd", "q25", "q250", "q500",
                      "q750", "q975", "ess", "acceptance_rate", "mh_step"}
    assert r["mean"] == pytest.approx(2.0, abs=0.15)
    assert r["q25"] < r["q250"] < r["q500"] < r["q750"] < r["q975"]
    assert r["acceptance_rate"] is None
    assert rows[1]["acceptance_rate"] == pytest.approx(0.3)
    assert r["mh_step"] is None
    assert rows[1]["mh_step"] == 0.6
    assert 0 < r["ess"] <= 400


def test_summarize_is_the_per_column_reduction_bit_for_bit():
    gen = np.random.default_rng(8)
    draws = np.column_stack([gen.standard_normal(1500).cumsum(),
                             gen.gamma(2.0, size=1500),
                             gen.standard_normal(1500) * 1e-3 + 7.0])
    chain = ChainOutput(draws=draws, parameter_names=["a", "b", "c"],
                        kind_label="rs-common-direct")
    for row, x in zip(summarize(chain), draws.T):
        want = [float(x.mean()), float(x.std(ddof=1)),
                *(float(v) for v in np.quantile(x, (0.025, 0.25, 0.5, 0.75,
                                                    0.975))),
                ess_batch_means(x)]
        got = [row[key] for key in ("mean", "sd", "q25", "q250", "q500",
                                    "q750", "q975", "ess")]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_chain_output_column_lookup():
    chain = _toy_chain()
    assert chain.column("sigma2").shape == (400,)
    with pytest.raises(KeyError):
        chain.column("lambda1")
    assert chain.acceptance_rate("sigma2") == pytest.approx(0.3)
    assert chain.acceptance_rate("beta_1") is None
