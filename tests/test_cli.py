"""End-to-end runs of the command line: outputs, exit codes, config
round trips, determinism."""

import csv
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayenet import cli
from bayenet.cli import (RunConfig, UserError, assemble_config,
                         build_parser, main, serialize_config)
from bayenet.diagnostics import DERIVED_NAMES
from bayenet.kernels import parse_sampler, run_chain
from bayenet.model import RegressionData, make_prior
from bayenet.rng import RngStream
from bayenet.simulate import data_stream, design, generate_dataset

from helpers import write_dataset_csv


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def load_config(path, subcommand):
    """The RunConfig `bayenet <subcommand> --config path` runs with."""
    args = build_parser().parse_args([subcommand, "--config", str(path)])
    return assemble_config(args)


def config_via_file(text, subcommand, directory):
    path = directory / "conf.txt"
    path.write_text(text)
    return load_config(path, subcommand)


def test_fit_writes_draws_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["fit", "--sim", "1", "--iters", "250", "--burnin", "40",
                 "--seed", "11", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "draws.csv")
    names = ([f"beta_{j}" for j in range(1, 9)]
             + ["sigma2", "lambda1", "lambda2"] + list(DERIVED_NAMES))
    assert rows[0] == names
    assert len(rows) == 1 + 250
    # every cell is a parseable float printed at full precision
    vals = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.all(np.isfinite(vals))
    summary = read_csv(out / "summary.csv")
    assert summary[0] == list(cli._SUMMARY_COLUMNS)
    assert [r[0] for r in summary[1:]] == names
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("sampler", ["rs-differential-direct",
                                     "mh-common-da"])
def test_fit_draws_csv_parses_back_to_the_chain(tmp_path, sampler):
    seed, iters, burnin = 13, 120, 15
    out = tmp_path / "run"
    assert main(["fit", "--sim", "1", "--sampler", sampler,
                 "--iters", str(iters), "--burnin", str(burnin),
                 "--seed", str(seed), "--out", str(out)]) == 0
    y, X = generate_dataset(design(1), data_stream(seed, 1, 0))
    algorithm, form, representation = parse_sampler(sampler)
    chain = run_chain(algorithm, RegressionData(y, X),
                      make_prior(form, representation, preset="weak"),
                      RngStream(seed, 2), iters=iters, burnin=burnin)
    rows = read_csv(out / "draws.csv")
    assert rows[0] == list(chain.parameter_names)
    parsed = np.array([[float(v) for v in r] for r in rows[1:]])
    assert parsed.shape == chain.draws.shape
    # bit for bit, signed zeros included
    assert parsed.tobytes() == chain.draws.tobytes()


def test_identical_config_and_seed_reproduce_draws_exactly(tmp_path):
    args = ["fit", "--sim", "2", "--iters", "200", "--burnin", "30",
            "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "draws.csv").read_bytes() == (b / "draws.csv").read_bytes()


def test_fit_from_written_config_matches_flag_run(tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main(["fit", "--sim", "1", "--iters", "150", "--burnin", "20",
                 "--seed", "3", "--sampler", "rs-common-da",
                 "--out", str(first)]) == 0
    assert main(["fit", "--config", str(first / "run_config.txt"),
                 "--out", str(again)]) == 0
    assert ((first / "draws.csv").read_bytes()
            == (again / "draws.csv").read_bytes())


def test_fit_reads_dataset_file(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 3))
    y = X @ np.array([1.0, -0.5, 0.2]) + 0.3 * rng.standard_normal(40)
    data_path = tmp_path / "data.csv"
    write_dataset_csv(data_path, y, X)
    out = tmp_path / "run"
    assert main(["fit", "--data", str(data_path), "--iters", "150",
                 "--burnin", "20", "--out", str(out)]) == 0
    header = read_csv(out / "draws.csv")[0]
    assert header[:3] == ["beta_1", "beta_2", "beta_3"]


def test_fit_sim_fits_replicate_zero_of_the_data_stream(tmp_path):
    # `fit --sim N --seed s` fits the dataset drawn from
    # RngStream(s, (0, N, 0)); perfbench/setup_probe.py times that key
    y, X = generate_dataset(design(3), RngStream(9, (0, 3, 0)))
    data_path = tmp_path / "data.csv"
    write_dataset_csv(data_path, y, X)
    common = ["--sampler", "rs-common-da", "--iters", "100", "--burnin",
              "10", "--seed", "9"]
    sim, from_file = tmp_path / "sim", tmp_path / "file"
    assert main(["fit", "--sim", "3", *common, "--out", str(sim)]) == 0
    assert main(["fit", "--data", str(data_path), *common,
                 "--out", str(from_file)]) == 0
    assert ((sim / "draws.csv").read_bytes()
            == (from_file / "draws.csv").read_bytes())


def test_fit_rejects_nonfinite_dataset_cell(tmp_path, monkeypatch, capsys):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was started on non-finite data")

    monkeypatch.setattr(cli, "run_chain", no_chain)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 3))
    y = X @ np.array([1.0, -0.5, 0.2])
    X[4, 1] = np.nan
    data_path = tmp_path / "data.csv"
    write_dataset_csv(data_path, y, X)
    for sampler in ("rs-common-direct", "rs-common-da"):
        assert main(["fit", "--data", str(data_path), "--sampler", sampler,
                     "--iters", "150", "--burnin", "20",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {data_path}: non-finite value nan in row 5, "
                       "predictor column 2\n")
    assert not (tmp_path / "run").exists()


def test_simulate_row_accounting(tmp_path):
    out = tmp_path / "grid"
    code = main(["simulate", "--sim", "1", "--replicates", "2",
                 "--iters", "300", "--burnin", "30", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    params = {r["parameter"] for r in rows}
    assert len(rows) == 2 * 2 * len(params)
    assert {r["sampler"] for r in rows} == {"rs-differential-da",
                                            "mh-differential-da"}
    assert {r["replicate"] for r in rows} == {"0", "1"}
    # improvement is measured for the rejection rows only
    for r in rows:
        if r["sampler"].startswith("rs"):
            assert r["pct_improvement"] != ""
        else:
            assert r["pct_improvement"] == ""


def test_fit_keeps_iters_draws_after_a_longer_burn_in(tmp_path):
    out = tmp_path / "run"
    assert main(["fit", "--sim", "1", "--iters", "100", "--burnin", "200",
                 "--out", str(out)]) == 0
    assert len(read_csv(out / "draws.csv")) == 1 + 100


def test_simulate_help_lists_only_the_options_it_reads(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "-h"])
    assert exit_info.value.code == 0
    assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == {
        "--help", "--sim", "--replicates", "--workers", "--iters",
        "--burnin", "--sampler", "--prior", "--config", "--seed", "--out"}


def _no_grid(*args, **kwargs):
    raise AssertionError("the grid was started")


@pytest.mark.parametrize("flag, value", [
    ("--thin", "3"), ("--nu-a", "5"), ("--nu-b", "7"), ("--L", "2"),
    ("--nu1", "1"), ("--R", "1"), ("--nu2", "1"), ("--sigma2-step", "0.1"),
    ("--lambda1-step", "4"), ("--lambda2-step", "1"),
])
def test_simulate_refuses_flags_it_does_not_read(flag, value, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_experiment", _no_grid)
    out = tmp_path / "grid"
    assert main(["simulate", "--sim", "1", flag, value,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unrecognized arguments" in err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("line, needle", [
    ("thin=2", "does not take thin"),
    ("nu_a=2", "does not take nu_a"),
    ("nu_b=2", "does not take nu_b"),
    ("L=2", "does not take L"),
    ("sigma2_step=0.5", "unknown key"),
])
def test_simulate_config_refuses_values_it_does_not_read(
        line, needle, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_experiment", _no_grid)
    path = tmp_path / "conf.txt"
    path.write_text(f"sim=1\n{line}\n")
    out = tmp_path / "grid"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err
    assert not (out / "results.csv").exists()


def test_simulate_reads_its_own_run_config(tmp_path):
    # a written run_config.txt holds thin, nu_a and nu_b at their
    # defaults, which simulate accepts
    first, again = tmp_path / "first", tmp_path / "again"
    args = ["--sim", "1", "--replicates", "1", "--iters", "100",
            "--burnin", "10", "--seed", "6"]
    assert main(["simulate", *args, "--out", str(first)]) == 0
    text = (first / "run_config.txt").read_text()
    assert "thin=1\n" in text and "nu_a=1\n" in text
    assert main(["simulate", "--config", str(first / "run_config.txt"),
                 "--out", str(again)]) == 0


@pytest.mark.parametrize("argv, needle", [
    (["fit", "--sim", "1", "--burnin", "-1"], "burn-in"),
    (["fit", "--sim", "1", "--sampler", "rs-common-direct",
      "--prior", "explicit", "--L", "0.5", "--nu1", "1", "--R", "1",
      "--nu2", "1"],
     "augmented representation"),
    (["simulate", "--sim", "5"], "design id must be in 1..4"),
    (["fit", "--data", "/no/such/file.csv"], "not found"),
    (["fit"], "dataset file"),
    (["fit", "--sim", "1", "--data", "x.csv"], "not both"),
    (["fit", "--sim", "1", "--sigma2-step", "0.5"],
     "unrecognized arguments"),
    (["fit", "--sim", "1", "--iters", "50", "--burnin", "5"],
     "at least 100"),
    (["fit", "--sim", "1", "--prior", "weak", "--L", "2.0"],
     "explicit"),
    (["fit", "--sim", "1", "--prior", "explicit", "--L", "2.0"],
     "nu1, R, nu2"),
    (["simulate", "--sim", "1", "--prior", "explicit"], "presets"),
    (["nonsense"], "invalid choice"),
    (["fit", "--sim", "1", "--sampler", "rs-common"],
     "sampler must be one of"),
])
def test_user_errors_exit_1_with_one_line(argv, needle, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err


def test_config_serialization_is_a_fixed_point(tmp_path):
    cfg = RunConfig(subcommand="fit", sim=(3,), sampler="mh-common-da",
                    iters=1234, burnin=56, seed=9,
                    nu_b=0.7, out="somewhere")
    text = serialize_config(cfg)
    parsed = config_via_file(text, "fit", tmp_path)
    assert parsed == cfg
    assert serialize_config(parsed) == text


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       iters=st.integers(1, 10**9),
       sim=st.lists(st.integers(1, 4), max_size=4).map(tuple),
       a=st.floats(allow_nan=False, allow_infinity=False, width=64),
       nu_a=st.floats(allow_nan=False, allow_infinity=False, width=64),
       quick=st.booleans(),
       prior=st.sampled_from(["weak", "strong", "explicit"]))
def test_config_round_trip_property(tmp_path_factory, seed, iters, sim, a,
                                    nu_a, quick, prior):
    cfg = RunConfig(subcommand="simulate", sim=sim, seed=seed,
                    iters=iters, a=a, nu_a=nu_a, quick=quick, prior=prior)
    text = serialize_config(cfg)
    parsed = config_via_file(text, "simulate", tmp_path_factory.mktemp("c"))
    assert parsed == cfg
    assert serialize_config(parsed) == text


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "conf.txt"
    path.write_text("seed=1\niters=400\nburnin=10\nsim=2\n")
    args = build_parser().parse_args(
        ["fit", "--config", str(path), "--seed", "9"])
    cfg = assemble_config(args)
    assert cfg.seed == 9
    assert cfg.iters == 400
    assert cfg.sim == (2,)


def test_config_file_subcommand_must_match(tmp_path):
    path = tmp_path / "conf.txt"
    path.write_text("subcommand=simulate\nsim=1\n")
    args = build_parser().parse_args(["fit", "--config", str(path)])
    with pytest.raises(UserError, match="subcommand"):
        assemble_config(args)


@pytest.mark.parametrize("text, needle", [
    ("volume=11\n", "unknown key"),
    ("seed=1\nseed=2\n", "duplicate"),
    ("seed one\n", "key=value"),
    ("seed=soon\n", "not a valid int"),
    ("quick=maybe\n", "not a valid bool"),
])
def test_config_text_rejections(text, needle, tmp_path):
    with pytest.raises(UserError, match=needle):
        config_via_file("subcommand=fit\n" + text, "fit", tmp_path)


def test_validate_quick_passes_and_mutation_fails(validate_quick,
                                                  validate_quick_mutant):
    assert validate_quick.code == 0
    out = validate_quick.out
    assert "FAIL" not in out
    assert "coefficient-kernel-ks" in out

    assert validate_quick_mutant.code == 2
    out = validate_quick_mutant.out
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed and all("coefficient-kernel-ks" in line
                          for line in failed)


def test_appendix_a_outputs(tmp_path, capsys):
    out = tmp_path / "app"
    code = main(["appendix-a", "--n-draws", "2000", "--out", str(out)])
    assert code == 0
    text = (out / "always_accept_report.txt").read_text()
    assert "acceptance fraction: 1.000000" in text
    assert "verdict: FAIL" in text
    rows = read_csv(out / "always_accept_ratios.csv")
    assert rows[0] == ["sigma2", "ratio"]
    ratios = [float(r[1]) for r in rows[1:]]
    # beyond the float range the stored ratio saturates at inf
    finite = [r for r in ratios if np.isfinite(r)]
    assert all(b > a for a, b in zip(finite, finite[1:]))
    assert all(not np.isfinite(r) for r in ratios[len(finite):])
    assert "strictly increasing as sigma2 decreases: yes" in text
    assert "acceptance fraction" in capsys.readouterr().out


def test_run_config_written_in_normal_form(tmp_path):
    out = tmp_path / "run"
    assert main(["fit", "--sim", "1", "--iters", "150", "--burnin", "20",
                 "--out", str(out)]) == 0
    text = (out / "run_config.txt").read_text()
    assert serialize_config(load_config(out / "run_config.txt", "fit")) == text


def test_out_directory_is_created(tmp_path):
    nested = tmp_path / "deep" / "run"
    assert main(["fit", "--sim", "1", "--iters", "150", "--burnin", "20",
                 "--out", str(nested)]) == 0
    assert os.path.isfile(nested / "draws.csv")
