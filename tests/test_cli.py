"""End-to-end runs of the command line: outputs, exit codes, config
round trips, determinism."""

import csv
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayenet import appendix_a, cli, oracle
from bayenet.cli import (RunConfig, UserError, assemble_config,
                         build_parser, main, serialize_config)
from bayenet.diagnostics import DERIVED_NAMES, QUANTILES, ess_batch_means
from bayenet.kernels import parse_sampler, run_chain
from bayenet.model import RegressionData, make_prior
from bayenet.rng import RngStream
from bayenet.simulate import data_stream, design, generate_dataset

from helpers import csv_cell_by_cell, write_dataset_csv


README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_fit_direct_rejection_sweep_at_small_shape(tmp_path):
    # with L < 1 the theta conditional is unbounded at 0; the direct
    # rejection sweep draws it all the same
    out = tmp_path / "run"
    code = main(["fit", "--sim", "1", "--prior", "explicit", "--L", "0.5",
                 "--nu1", "1", "--R", "1", "--nu2", "1", "--sampler",
                 "rs-common-direct", "--iters", "150", "--burnin", "20",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "draws.csv")
    assert len(rows) == 1 + 150
    vals = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.all(np.isfinite(vals))
    assert np.all(vals[:, 8:11] > 0.0)


def _summary_rows_one_column_at_a_time(chain):
    rows = []
    for name in chain.parameter_names:
        x = chain.column(name)
        rows.append([name, float(x.mean()), float(x.std(ddof=1)),
                     *(float(v) for v in np.quantile(x, QUANTILES)),
                     ess_batch_means(x), chain.acceptance_rate(name),
                     chain.mh_steps.get(name)])
    return rows


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
    # both files hold the bytes of a cell-by-cell rendering through
    # format_cell, the summary reduced one column at a time
    assert (out / "draws.csv").read_bytes() == csv_cell_by_cell(
        chain.parameter_names, chain.draws.tolist())
    assert (out / "summary.csv").read_bytes() == csv_cell_by_cell(
        cli._SUMMARY_COLUMNS, _summary_rows_one_column_at_a_time(chain))


def test_identical_config_and_seed_reproduce_draws_exactly(tmp_path):
    args = ["fit", "--sim", "2", "--iters", "200", "--burnin", "30",
            "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "draws.csv").read_bytes() == (b / "draws.csv").read_bytes()


def test_tuned_metropolis_fit_reproduces_draws_exactly(tmp_path, capsys):
    # burn-in tunes the steps without drawing random numbers, so a
    # Metropolis fit reruns bit for bit, and it reports the frozen steps
    args = ["fit", "--sim", "1", "--sampler", "mh-differential-da",
            "--iters", "200", "--burnin", "60", "--seed", "8"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "draws.csv").read_bytes() == (b / "draws.csv").read_bytes()
    printed = capsys.readouterr().out
    assert re.search(r"acceptance sigma2=[\d.]+ \(step [\d.e+-]+\) "
                     r"lambda1=[\d.]+ \(step [\d.e+-]+\) "
                     r"lambda2=[\d.]+ \(step [\d.e+-]+\)\n", printed)
    with open(a / "summary.csv", newline="") as fh:
        summary = {row["parameter"]: row for row in csv.DictReader(fh)}
    for name in ("sigma2", "lambda1", "lambda2"):
        assert float(summary[name]["mh_step"]) > 0.0
    assert summary["beta_1"]["mh_step"] == ""
    assert summary["beta_1"]["acceptance_rate"] == ""


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


def _twenty_rows():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 3))
    return X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(20), X


def _scale_column(X, j, factor):
    X = X.copy()
    X[:, j] *= factor
    return X


@pytest.mark.parametrize("case, cause", [
    (lambda y, X: (np.full_like(y, 4.0), X), "y does not vary"),
    (lambda y, X: (y * 1e-200, X), "y does not vary"),
    (lambda y, X: (y * 1e200, X), "y is too large"),
    (lambda y, X: (y * 1e160, X), "y is too large"),
    (lambda y, X: (y, _scale_column(X, 1, 1e200)), "predictor column 2"),
], ids=["constant-y", "tiny-y", "huge-y", "large-y", "huge-column-2"])
@pytest.mark.parametrize("sampler", ["rs-common-direct",
                                     "mh-differential-da"])
def test_fit_refuses_data_its_sums_cannot_hold(tmp_path, capsys, case,
                                               cause, sampler):
    y, X = case(*_twenty_rows())
    data_path = tmp_path / "data.csv"
    write_dataset_csv(data_path, y, X)
    assert main(["fit", "--data", str(data_path), "--sampler", sampler,
                 "--iters", "150", "--burnin", "20",
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cause}") and err.count("\n") == 1
    assert not (tmp_path / "run" / "draws.csv").exists()


def test_fit_accepts_a_predictor_too_small_to_square(tmp_path):
    y, X = _twenty_rows()
    data_path = tmp_path / "data.csv"
    write_dataset_csv(data_path, y, _scale_column(X, 1, 1e-200))
    assert main(["fit", "--data", str(data_path), "--iters", "150",
                 "--burnin", "20", "--out", str(tmp_path / "run")]) == 0
    assert np.isfinite(np.loadtxt(tmp_path / "run" / "draws.csv",
                                  delimiter=",", skiprows=1)).all()


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


def test_simulate_writes_positive_cpu_rates(tmp_path):
    # the measured columns: present, positive, and empty on an mh row
    out = tmp_path / "grid"
    assert main(["simulate", "--sim", "1", "--sampler", "rs-common-direct",
                 "--replicates", "1", "--iters", "100", "--burnin", "0",
                 "--out", str(out)]) == 0
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for r in rows:
        assert float(r["ess_per_cpu_s"]) > 0.0
        if r["sampler"].startswith("rs"):
            assert float(r["ess_per_cpu_s_ratio"]) > 0.0
        else:
            assert r["ess_per_cpu_s_ratio"] == ""


# Runs argv through cli.main and prints, on its last line, every module
# the interpreter then holds.
_RUN_AND_LIST_MODULES = """
import sys
from bayenet.cli import main
assert main(sys.argv[1:]) == 0
print(*sorted(sys.modules))
"""


@pytest.mark.parametrize("argv", [
    ["fit", "--sim", "1", "--iters", "100", "--burnin", "0"],
    ["simulate", "--sim", "1", "--sampler", "rs-common-da", "--prior",
     "weak", "--replicates", "1", "--iters", "100", "--burnin", "0",
     "--workers", "1"],
], ids=["fit", "simulate-one-worker"])
def test_cold_run_loads_no_process_pool_and_no_appendix_a(argv, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv,
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, check=True)
    loaded = set(run.stdout.splitlines()[-1].split())
    assert loaded & {"concurrent.futures", "multiprocessing",
                     "bayenet.appendix_a"} == set()
    # the benchmark's tracer patches the oracle's names when it starts,
    # so the command line keeps loading the oracle
    assert "bayenet.oracle" in loaded


def test_fit_keeps_iters_draws_after_a_longer_burn_in(tmp_path):
    out = tmp_path / "run"
    assert main(["fit", "--sim", "1", "--iters", "100", "--burnin", "200",
                 "--out", str(out)]) == 0
    assert len(read_csv(out / "draws.csv")) == 1 + 100


def help_options(subcommand, capsys):
    """The options `bayenet <subcommand> -h` lists."""
    with pytest.raises(SystemExit) as exit_info:
        main([subcommand, "-h"])
    assert exit_info.value.code == 0
    return set(re.findall(r"--[\w-]+", capsys.readouterr().out))


def test_simulate_help_lists_only_the_options_it_reads(capsys):
    assert help_options("simulate", capsys) == {
        "--help", "--sim", "--replicates", "--workers", "--iters",
        "--burnin", "--sampler", "--prior", "--config", "--seed", "--out"}


def test_validate_help_lists_only_the_options_it_reads(capsys):
    assert help_options("validate", capsys) == {
        "--help", "--quick", "--mutate-kernel", "--config", "--seed"}


@pytest.mark.parametrize("subcommand, options", [
    ("fit", {"--help", "--data", "--sim", "--sampler", "--prior", "--L",
             "--nu1", "--R", "--nu2", "--nu-a", "--nu-b", "--iters",
             "--burnin", "--thin", "--config", "--seed", "--out"}),
    ("appendix-a", {"--help", "--a", "--b", "--lambda1", "--lambda2", "--p",
                    "--n-draws", "--config", "--seed", "--out"}),
])
def test_help_lists_only_the_options_it_reads(subcommand, options, capsys):
    assert help_options(subcommand, capsys) == options


def readme_commands():
    """Each `bayenet ...` command in README's sh blocks, as argv."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["bayenet"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse(capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli._DISPATCH)
    for argv in commands:
        build_parser().parse_args(argv)
    listed = re.search(r"`simulate` takes only `([^`]*)`",
                       README.read_text())
    assert set(listed.group(1).split()) == (
        help_options("simulate", capsys) - {"--help"})


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


def _not_started(*args, **kwargs):
    raise AssertionError("the command started its work")


def _stop_runner(monkeypatch, runner):
    """Make the function a subcommand starts its work with fail the test.
    cmd_appendix_a imports its runner when it runs, so that one is
    replaced on its own module."""
    owner = appendix_a if runner == "appendix_a_demonstration" else cli
    monkeypatch.setattr(owner, runner, _not_started)


@pytest.mark.parametrize("subcommand, lines, runner, needle", [
    ("fit", "sim=1\nquick=true\n", "run_chain", "fit does not take quick"),
    ("fit", "sim=1\nreplicates=9\n", "run_chain",
     "fit does not take replicates"),
    ("fit", "sim=1\na=3\n", "run_chain", "fit does not take a"),
    ("validate", "quick=true\niters=200\n", "run_validation_suite",
     "validate does not take iters"),
    ("validate", "out=elsewhere\n", "run_validation_suite",
     "validate does not take out"),
    ("appendix-a", "sampler=mh-common-da\n", "appendix_a_demonstration",
     "appendix-a does not take sampler"),
    ("appendix-a", "mutate=true\n", "appendix_a_demonstration",
     "appendix-a does not take mutate"),
])
def test_config_refuses_values_a_subcommand_does_not_read(
        subcommand, lines, runner, needle, tmp_path, monkeypatch, capsys):
    _stop_runner(monkeypatch, runner)
    path = tmp_path / "conf.txt"
    path.write_text(lines)
    out = tmp_path / "run"
    assert main([subcommand, "--config", str(path)]
                + ([] if subcommand == "validate" else ["--out", str(out)])
                ) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err
    assert not out.exists()


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
    (["fit", "--sim", "1", "--burnin", "-1"], "burnin"),
    # any positive L is sampled (test_fit_direct_rejection_sweep_at_
    # small_shape), but not L = 0
    (["fit", "--sim", "1", "--sampler", "rs-common-direct",
      "--prior", "explicit", "--L", "0", "--nu1", "1", "--R", "1",
      "--nu2", "1"],
     "L must be positive"),
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
    (["fit", "--sim", "1", "--sampler", "mh-common-da", "--nu-a", "nan"],
     "nu_a must be finite, got nan"),
    (["fit", "--config", "sim=1\nnu_b=inf\n"],
     "nu_b must be finite, got inf"),
    (["appendix-a", "--a", "inf"], "a must be finite, got inf"),
])
def test_user_errors_exit_1_with_one_line(argv, needle, tmp_path, monkeypatch,
                                          capsys):
    # run in an empty directory, where a --config value is the file's text
    monkeypatch.chdir(tmp_path)
    if "--config" in argv:
        at = argv.index("--config") + 1
        (tmp_path / "conf.txt").write_text(argv[at])
        argv = [*argv[:at], "conf.txt", *argv[at + 1:]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert needle in err
    assert err.startswith("error: ") and err.count("\n") == 1
    # nothing was written
    assert set(os.listdir(tmp_path)) <= {"conf.txt"}


@pytest.mark.parametrize("subcommand, line, message", [
    ("fit", "thin=0", "thin must be at least 1, got 0"),
    ("fit", "nu_b=inf", "nu_b must be finite, got inf"),
    ("simulate", "workers=0", "workers must be at least 1, got 0"),
    ("validate", "seed=-1", "seed must be at least 0, got -1"),
    ("appendix-a", "lambda2=0", "lambda2 must be positive, got 0.0"),
    ("appendix-a", "n_draws=999", "n_draws must be at least 1000, got 999"),
])
def test_a_bound_reads_the_same_from_a_flag_or_a_config_file(
        subcommand, line, message, tmp_path, monkeypatch, capsys):
    for runner in ("run_chain", "run_experiment", "run_validation_suite",
                   "appendix_a_demonstration"):
        _stop_runner(monkeypatch, runner)
    key, _, value = line.partition("=")
    common = [subcommand]
    if subcommand in ("fit", "simulate"):
        common += ["--sim", "1"]
    assert main([*common, "--" + key.replace("_", "-"), value]) == 1
    from_flag = capsys.readouterr().err
    path = tmp_path / "conf.txt"
    path.write_text(line + "\n")
    assert main([*common, "--config", str(path)]) == 1
    assert capsys.readouterr().err == from_flag == f"error: {message}\n"


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


def test_readme_validate_line_count_is_the_suite_size(validate_quick):
    text = " ".join(README.read_text().split())
    checks = validate_quick.checks
    count = re.search(r"bayenet validate +# (\d+) checks", text)
    assert int(count.group(1)) == len(checks)
    # a KS line reports each of its tests' statistics as D=...
    ks_lines = sum("D=" in c.detail for c in checks)
    ks_tests = sum(c.detail.count("D=") for c in checks)
    lines = re.search(r"Of the (\d+) lines, (\d+) are KS tests .*? hold two "
                      r"tests each: (\d+) tests\. The other (\d+) lines", text)
    assert [int(g) for g in lines.groups()] == [
        len(checks), ks_lines, ks_tests, len(checks) - ks_lines]
    alarm = re.search(r"1 - 0\.99\^(\d+), about ([\d.]+)%", text)
    assert int(alarm.group(1)) == ks_tests
    assert alarm.group(2) == f"{100.0 * (1.0 - 0.99 ** ks_tests):.1f}"


def test_validate_quick_passes_and_mutation_fails(validate_quick,
                                                  validate_quick_mutant):
    assert validate_quick.code == 0
    out = validate_quick.out
    assert "FAIL" not in out
    assert "PASS coefficient-kernel-ks:" in out
    assert "PASS coefficient-kernel-ks-differential:" in out
    assert out.endswith("\n30/30 checks passed\n")

    assert validate_quick_mutant.code == 2
    out = validate_quick_mutant.out
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == [
        "FAIL coefficient-kernel-ks", "FAIL coefficient-kernel-ks-differential"]
    assert out.endswith("\n28/30 checks passed\n")


def test_validate_reports_a_raising_sampler_and_runs_on(monkeypatch,
                                                        capsys):
    # both gig lines fail, naming the exception, and every line still runs
    def stuck(*args):
        raise RuntimeError("no draw accepted")

    monkeypatch.setattr(oracle, "sample_gig", stuck)
    assert main(["validate", "--quick"]) == 2
    got = capsys.readouterr().out.splitlines()
    with open(Path(__file__).parent / "data" / "validate_quick.txt") as fh:
        pinned = fh.read().splitlines()
    assert len(got) == len(pinned) and got[-1] == "28/30 checks passed"
    for line, pin in zip(got[:-1], pinned):
        name = pin[len("PASS "):].split(":")[0]
        if name in ("ks-gig", "ks-gig-kept-hull"):
            assert line == (f"FAIL {name}: raised RuntimeError: "
                            "no draw accepted")
        elif name.startswith("ks-") and not name.endswith("kept-hull"):
            # the scalar lines share one stream, which the failed line
            # left where it was, so the later ones draw other values
            assert line.startswith(f"PASS {name}: D=")
        else:
            assert line == pin


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
