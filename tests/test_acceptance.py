"""Release gate: one test per headline guarantee, each printing a
PASS/FAIL line (visible with pytest -s) and asserting at its stated
tolerance.  Runtime bounds are asserted where a guarantee carries one.
"""

import math
import statistics
import time

import numpy as np

from bayenet.appendix_a import appendix_a_demonstration
from bayenet.cli import main as cli_main
from bayenet.diagnostics import ess_batch_means
from bayenet.envelope import (LogDensityTarget, build_envelope,
                              sample_from_envelope)
from bayenet.kernels import run_chain
from bayenet.model import (ModelState, RegressionData, coefficient_sums,
                           log_posterior_unnorm, make_prior)
from bayenet.oracle import (_gordon_check, _prior_equivalence_check,
                            _tilted_property_check, beta_kernel_ks_check,
                            distribution_ks_checks, full_conditional_checks)
from bayenet.rng import RngStream
from bayenet.simulate import design, generate_dataset, run_experiment


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {num}: {detail}")
    assert ok, f"gate {num} failed: {detail}"


class _CountingHull:
    """A hull that counts its proposals; every sample_from_envelope call
    that returns has accepted exactly one of them."""

    def __init__(self, hull):
        self.knots = hull.knots
        self._propose = hull.propose
        self.proposals = 0

    def propose(self, rng):
        self.proposals += 1
        return self._propose(rng)


def test_01_fixed_envelope_acceptance_rate():
    # modified half-normal with exponent 3 and rate pair (2, 2):
    # log f(x) = 2 log x - 2 x^2 - 2 x, mode 1/2, curvature -12 there
    target = LogDensityTarget(
        lambda x: 2.0 * math.log(x) - 2.0 * x * x - 2.0 * x,
        lambda x: 2.0 / x - 4.0 * x - 2.0,
        mode=0.5, curvature=-12.0)
    hull = _CountingHull(build_envelope(target, K=2))
    rng = RngStream(0, 99)
    accepted = 0
    t0 = time.perf_counter()
    while hull.proposals < 100000:
        sample_from_envelope(target, hull, rng)
        accepted += 1
    elapsed = time.perf_counter() - t0
    rate = accepted / hull.proposals
    ok = abs(rate - 0.954) <= 0.01 and elapsed < 5.0
    _report(1, ok,
            f"two-piece envelope acceptance {rate:.4f} over {hull.proposals}"
            f" proposals (want 0.954 +- 0.01) in {elapsed:.2f}s")


def test_02_sampler_exactness_battery():
    t0 = time.perf_counter()
    checks = list(distribution_ks_checks(10000, RngStream(0, 41)))
    checks.append(beta_kernel_ks_check(n=10000, seed=0, form="common"))
    checks.append(beta_kernel_ks_check(n=10000, seed=0,
                                       form="differential"))
    checks.extend(full_conditional_checks(n=10000, seed=0))
    elapsed = time.perf_counter() - t0
    failed = [c.name for c in checks if not c.passed]
    ok = not failed and elapsed < 300.0
    detail = (f"{len(checks) - len(failed)}/{len(checks)} KS checks at 1%"
              f" with N=10000 in {elapsed:.1f}s")
    if failed:
        detail += f"; failed: {failed}"
    _report(2, ok, detail)


def test_03_prior_representation_equivalence():
    results = [_prior_equivalence_check(form, 100000, RngStream(0, (42, i)))
               for i, form in enumerate(("common", "differential"))]
    ok = all(r.passed for r in results)
    _report(3, ok, "; ".join(f"{r.name}: {r.detail}" for r in results))


def test_04_tilted_density_shape_properties():
    shape = _tilted_property_check(100, RngStream(0, 43))
    gordon = _gordon_check(100, RngStream(0, 44))
    ok = shape.passed and gordon.passed
    _report(4, ok, f"{shape.name}: {shape.detail}; "
                   f"{gordon.name}: {gordon.detail}")


def test_05_penalized_objective_identity():
    y, X = generate_dataset(design(1), RngStream(0, (0, 1, 0)))
    data = RegressionData(y, X)
    prior = make_prior("common", "direct", preset="weak")
    s2, l1, l2 = 1.7, 1.3, 0.8
    gen = RngStream(11, 5).gen

    def log_post(b):
        st = ModelState(beta=b, sigma2=s2, lambda1=l1, lambda2=l2)
        return log_posterior_unnorm(data, prior, st,
                                    coefficient_sums(data, st))

    def objective(b):
        resid = data.y - (X - X.mean(axis=0)) @ b
        return (float(resid @ resid) + l2 * float(b @ b)
                + l1 * float(np.abs(b).sum()))

    worst = 0.0
    for _ in range(100):
        b1 = gen.normal(0.0, 2.0, size=8)
        b2 = gen.normal(0.0, 2.0, size=8)
        lhs = -2.0 * s2 * (log_post(b1) - log_post(b2))
        rhs = objective(b1) - objective(b2)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    _report(5, ok, f"-2*sigma2 * log-posterior differences match"
                   f" RSS + l2|b|^2 + l1|b|_1 differences to {worst:.2e}"
                   f" over 100 coefficient pairs (tolerance 1e-9)")


# (form, kept draws, and the (algorithm, representation, stream key) of
# each chain) of every pair test 06 compares
_AGREEING_PAIRS = (
    # both differential rejection sweeps, each against its Metropolis
    # twin
    ("differential", 10000, (("rs", "da", (6, 0)), ("mh", "da", (6, 1)))),
    ("differential", 10000, (("rs", "direct", (6, 0, 1)),
                             ("mh", "direct", (6, 1, 1)))),
    # the common augmented sweep, whose scales are drawn with tau2
    # integrated out, against the direct one
    ("common", 6000, (("rs", "da", (6, 2, 0)), ("rs", "direct", (6, 2, 1)))),
)


def _largest_mean_gap(pairs, **prior_values):
    """(z, parameter, pair) of the largest gap between the posterior
    means of two chains of a pair, in combined batch-means standard
    errors, over every pair on one design-1 dataset."""
    y, X = generate_dataset(design(1), RngStream(0, (0, 1, 0)))
    data = RegressionData(y, X)
    names = [f"beta_{j}" for j in range(1, 9)] + ["sigma2", "lambda1",
                                                  "lambda2"]
    worst = (0.0, "", "")
    for form, iters, chains in pairs:
        outs = []
        for algorithm, representation, key in chains:
            prior = make_prior(form, representation, **prior_values)
            outs.append(run_chain(algorithm, data, prior, RngStream(0, key),
                                  iters=iters, burnin=500))
        for name in names:
            stats = []
            for out in outs:
                col = out.column(name)
                se = float(col.std(ddof=1)) / math.sqrt(ess_batch_means(col))
                stats.append((float(col.mean()), se))
            (m1, se1), (m2, se2) = stats
            z = abs(m1 - m2) / math.hypot(se1, se2)
            if z > worst[0]:
                worst = (z, name, " vs ".join(o.kind_label for o in outs))
    return worst, len(names)


def test_06_rejection_and_metropolis_chains_agree():
    t0 = time.perf_counter()
    (z, name, pair), n_names = _largest_mean_gap(_AGREEING_PAIRS,
                                                 preset="weak")
    elapsed = time.perf_counter() - t0
    ok = z <= 3.0 and elapsed < 180.0
    _report(6, ok,
            f"posterior means of {n_names} parameters agree across"
            f" {len(_AGREEING_PAIRS)} pairs of samplers; largest gap"
            f" {z:.2f} combined standard errors ({name},"
            f" {pair}, limit 3) in {elapsed:.1f}s")


def test_06_small_shape_sweeps_agree_with_metropolis():
    # the composed rejection sweeps at L < 1, whose theta blocks draw
    # the tilted conditional's unbounded small-shape members: one direct
    # and one augmented sampler, each against its Metropolis twin
    pairs = (("common", 10000, (("rs", "direct", (16, 0)),
                                ("mh", "direct", (16, 1)))),
             ("differential", 10000, (("rs", "da", (16, 2)),
                                      ("mh", "da", (16, 3)))))
    t0 = time.perf_counter()
    (z, name, pair), n_names = _largest_mean_gap(
        pairs, L=0.5, nu1=1.0, R=1.0, nu2=1.0)
    elapsed = time.perf_counter() - t0
    ok = z <= 3.0 and elapsed < 180.0
    _report("6b", ok,
            f"at L = 0.5, posterior means of {n_names} parameters agree"
            f" across {len(pairs)} pairs of samplers; largest gap"
            f" {z:.2f} combined standard errors ({name}, {pair}, limit 3)"
            f" in {elapsed:.1f}s")


def test_07_always_accept_sampler_is_not_exact():
    rep = appendix_a_demonstration(14.0, 3.0, 1.0, 1.0, 8,
                                   n_draws=100000, seed=0)
    ok = (rep.acceptance_fraction == 1.0 and rep.ratio_increasing
          and rep.log_ratio[-1] > 700.0 and rep.ks_rejects_target)
    _report(7, ok,
            f"acceptance fraction {rep.acceptance_fraction} over"
            f" {rep.n_draws} proposals; target/proposal log-ratio grows to"
            f" {rep.log_ratio[-1]:.0f} as the variance shrinks;"
            f" KS D={rep.ks_d:.4f} > {rep.ks_threshold:.4f} rejects the"
            f" accepted draws")


def test_08_rejection_sweeps_beat_metropolis_on_ess():
    t0 = time.perf_counter()
    rows, failures = run_experiment(
        (1, 2), "rs-differential-da", "strong",
        replicates=5, iters=10000, burnin=100, seed=0, workers=2)
    elapsed = time.perf_counter() - t0
    pcts = [row["pct_improvement"] for row in rows
            if row["parameter"] == "lambda1"
            and row["pct_improvement"] is not None]
    med = statistics.median(pcts) if pcts else float("nan")
    ok = (not failures and len(pcts) == 10 and med > 0.0
          and elapsed < 1800.0)
    _report(8, ok,
            f"median ESS improvement of the rejection sweep over the"
            f" Metropolis baseline for lambda1 is {med:.1f}% across"
            f" {len(pcts)} strong-prior replicates in {elapsed:.1f}s")


def test_09_reruns_are_bit_identical(tmp_path):
    args = ["fit", "--sim", "1", "--iters", "400", "--burnin", "100",
            "--seed", "3"]
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = cli_main(args + ["--out", str(out)])
        assert code == 0
        blobs.append((out / "draws.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(9, ok, f"two runs with one config and seed wrote identical"
                   f" draws.csv ({len(blobs[0])} bytes)")


def test_10_differential_sweeps_mix_lambda2_better_than_metropolis():
    # the wide design with the strong prior, where log u2 and log theta
    # are correlated -0.9 and the sweeps once moved lambda2 only through
    # u2: each differential rejection sweep's lambda2 ESS must beat its
    # Metropolis twin's on one dataset
    y, X = generate_dataset(design(3), RngStream(0, (0, 3, 0)))
    data = RegressionData(y, X)
    t0 = time.perf_counter()
    ess = {}
    for representation in ("direct", "da"):
        for algorithm in ("rs", "mh"):
            prior = make_prior("differential", representation,
                               preset="strong")
            out = run_chain(algorithm, data, prior,
                            RngStream(0, (10, algorithm == "mh",
                                          representation == "da")),
                            iters=3000, burnin=300)
            ess[algorithm, representation] = ess_batch_means(
                out.column("lambda2"))
    elapsed = time.perf_counter() - t0
    ok = all(ess["rs", rep] > ess["mh", rep] for rep in ("direct", "da"))
    _report(10, ok,
            "lambda2 batch-means ESS at 3000 draws, rejection vs"
            " Metropolis: " + "; ".join(
                f"differential-{rep} {ess['rs', rep]:.0f} vs"
                f" {ess['mh', rep]:.0f}" for rep in ("direct", "da"))
            + f" in {elapsed:.1f}s")
