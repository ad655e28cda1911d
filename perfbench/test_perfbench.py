"""Checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import tracer  # noqa: E402
from bayenet import cli  # noqa: E402
from speedometer import Speedometer  # noqa: E402

SHORT_FIT = ["fit", "--sim", "1", "--prior", "weak", "--iters", "200",
             "--burnin", "50", "--seed", "7"]


def _fit_bytes(out, sampler):
    assert cli.main(SHORT_FIT + ["--sampler", sampler, "--out", str(out)]) == 0
    return (out / "draws.csv").read_bytes()


def _snapshot():
    return {(owner, name): vars(tracer._resolve(owner)).get(name)
            for owner, name, _, _ in tracer.SITES}


@pytest.mark.parametrize("sampler", ["rs-common-direct", "mh-differential-da"])
def test_traced_draws_are_bit_identical(tmp_path, sampler):
    plain = _fit_bytes(tmp_path / "plain", sampler)
    with Speedometer() as meter, tracer.Tracer() as tr:
        traced = _fit_bytes(tmp_path / "traced", sampler)
    assert traced == plain
    assert meter.probes
    assert tr.table("fit")["kernels.sweep"][0] == 250


def test_every_site_exists_and_every_wrapper_is_removed():
    before = _snapshot()
    with tracer.Tracer():
        assert len(tracer.installed_wrappers()) == len(tracer.SITES)
    assert tracer.installed_wrappers() == []
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_are_removed_when_the_traced_code_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _snapshot() == before


def test_a_missing_site_raises_and_leaves_no_wrapper(monkeypatch):
    before = _snapshot()
    monkeypatch.setattr(tracer, "SITES", tracer.SITES + (
        ("bayenet.kernels", "no_such_update", "kernels.none", True),))
    with pytest.raises(LookupError, match="no_such_update"):
        with tracer.Tracer():
            pass
    assert all(_snapshot()[k] is before[k] for k in before)


def test_metrics_of_sites_never_called_are_null():
    fits = [_fake_fit(s) for s in bench.SAMPLERS]
    values = bench.layer_metrics(tracer.Tracer(), fits, validate_s=30.0)
    measured = {k for k, v in values.items() if v is not None}
    assert measured == {"validate_s", "kernels.mh_accept.sigma2",
                        "kernels.mh_accept.lambda1",
                        "kernels.mh_accept.lambda2"}


def test_short_calls_are_counted_not_timed(tmp_path):
    count_only = {"distributions.truncated_normal",
                  "distributions.inverse_gaussian", "envelope.propose",
                  "envelope.hull", "special.log_cdf", "special.mills",
                  "tilted.find_mode"}
    assert {key for _, _, key, timed in tracer.SITES if not timed} \
        == count_only
    with tracer.Tracer() as tr:
        _fit_bytes(tmp_path / "a", "rs-common-direct")
        _fit_bytes(tmp_path / "b", "rs-common-da")
    fit = tr.table("fit")
    for key in count_only - {"tilted.find_mode"}:
        assert fit[key][0] > 0, key
    assert all(fit[key][1] == 0 for key in count_only)


def test_call_counts_repeat_exactly_for_a_fixed_seed(tmp_path):
    counts = []
    for run in ("one", "two"):
        with tracer.Tracer() as tr:
            _fit_bytes(tmp_path / run, "rs-differential-direct")
        counts.append({k: v[0] for k, v in tr.table("fit").items()})
    assert counts[0] == counts[1]


def _fake_fit(sampler, shift=0.0):
    summary = {name: (1.0 + shift, 1.0, 400.0, 0.3)
               for name in ("sigma2", "lambda1", "lambda2", "beta_1")}
    return bench.FitResult(sampler, 0, 1.0, 100, ok=True, summary=summary)


def test_posterior_gate_fails_only_the_fit_that_disagrees():
    fits = [_fake_fit(s) for s in bench.SAMPLERS]
    # a shift of 1 is 20 standard errors of one fit (sd 1, ESS 400): the
    # shifted fit sits 17 combined standard errors from the mean of the
    # other three, and each of those 5.8 from the rest of its group
    fits[1] = _fake_fit(bench.SAMPLERS[1], shift=1.0)
    bench.posterior_gate(fits)
    assert [bool(f.gate_error) for f in fits] == [i == 1 for i in range(8)]
    assert "standard errors" in fits[1].gate_error
    assert all(f.ok for f in fits)


def test_a_gate_failure_counts_only_if_the_rerun_fails_it_too(monkeypatch):
    fits = [_fake_fit(s) for s in bench.SAMPLERS]
    for i in (1, 2):
        fits[i].gate_error = "over the gate"
    reruns = []

    def rerun(cli_main, meter, workload, seeds, out_root):
        reruns.append(seeds)
        again = [_fake_fit(s) for s in bench.SAMPLERS]
        again[2].gate_error = "over the gate again"
        return again

    monkeypatch.setattr(bench, "fit_phase", rerun)
    bench.confirm_gate_failures(None, None, None, fits, Path("unused"))
    assert reruns == [[bench.derived_seeds(0, 2, 1)[0]]]
    assert [f.ok for f in fits] == [i != 2 for i in range(8)]
    assert "over the gate again" in fits[2].error


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "fit-small",
         "--seed", "1", "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_benchmark_json_matches_the_worker():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER_UNITS
