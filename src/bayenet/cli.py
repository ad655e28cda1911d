"""Command line front end.

Four subcommands share one flat configuration namespace:

  fit         sample the posterior for one dataset, write draws + summary
  simulate    run the benchmark grid and write effective-sample-size rows
  validate    run the oracle suite and report one pass/fail line per check
  appendix-a  reproduce the always-accept variance sampler demonstration

A run is described by a RunConfig.  Values come from built-in defaults,
then a key=value config file (--config), then explicit flags, in that
order.  Serializing a parsed config and parsing it again is the identity,
so a written run_config.txt reproduces its run exactly.

Each key is declared once, as a RunConfig field: type, default, help,
bound, and its flag where that is not --name with dashes.  From the
fields, build_parser makes the flags _READS lists for each subcommand
and validate_config checks flag and config-file values alike.

Exit codes: 0 success, 1 user error (bad flags, files, parameters),
2 validation failure (one or more checks FAILED).
"""

import argparse
import math
import os
import sys

from dataclasses import dataclass, field, fields

import numpy as np

from .diagnostics import summarize
from .kernels import parse_sampler, run_chain
from .model import PRIOR_PRESETS, RegressionData, make_prior
from .oracle import broken_coordinate_update, run_validation_suite
from .rng import RngStream
from .simulate import (RESULT_COLUMNS, data_stream, design, generate_dataset,
                       read_dataset_csv, run_experiment, write_csv)


class UserError(ValueError):
    """A mistake in flags, config, or input files; reported on one line."""


def _key(default, help=None, *, flag=None, at_least=None, positive=False):
    """A settable RunConfig field; every float must be finite, an int at
    least `at_least`, and a `positive` float above 0."""
    return field(default=default, metadata=dict(
        help=help, flag=flag, at_least=at_least, positive=positive))


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    dataset: str = _key(None, "dataset CSV with a 'y' column", flag="--data")
    sim: tuple = _key((), "benchmark design ids in 1..4, e.g. 1,2")
    sampler: str = _key("rs-differential-da",
                        "algorithm-form-representation, e.g. rs-common-da")
    prior: str = _key("weak", "a preset, weak or strong, or explicit")
    L: float = _key(None, "explicit prior: lambda1 ~ gamma(L, rate nu1/2)")
    nu1: float = _key(None, "explicit prior: lambda1 gamma rate, doubled")
    R: float = _key(None, "explicit prior: lambda2 ~ gamma(R, rate nu2/2)")
    nu2: float = _key(None, "explicit prior: lambda2 gamma rate, doubled")
    nu_a: float = _key(1.0, "sigma2 ~ inverse-gamma(nu_a/2, nu_b/2)")
    nu_b: float = _key(1.0, "sigma2 inverse-gamma scale, doubled")
    iters: int = _key(5000, "kept draws", at_least=100)
    burnin: int = _key(500, "discarded sweeps", at_least=0)
    thin: int = _key(1, "sweeps per kept draw", at_least=1)
    seed: int = _key(0, at_least=0)
    replicates: int = _key(2, "datasets per design", at_least=1)
    workers: int = _key(None, "process pool size", at_least=1)
    a: float = _key(14.0, "variance prior shape", positive=True)
    b: float = _key(3.0, "variance prior rate", positive=True)
    lambda1: float = _key(1.0, positive=True)
    lambda2: float = _key(1.0, positive=True)
    p: int = _key(8, "coefficient count", at_least=1)
    n_draws: int = _key(100000, "draws for the KS test", at_least=1000)
    quick: bool = _key(False, "smaller sample sizes, under a minute")
    mutate: bool = _key(False, "run against a broken coefficient kernel",
                        flag="--mutate-kernel")
    out: str = _key(".", "output directory (default .)")


# the fields are the config schema: each value is parsed and written
# according to its field's type
_FIELDS = {f.name: f for f in fields(RunConfig)}

# the keys each subcommand reads; a config file may set any other key
# only to its default.  The grid runs each prior preset at thin 1 with
# nu_a = nu_b = 1, so simulate reads no thin, nu_a, nu_b or prior values.
_READS = {
    "fit": ("dataset", "sim", "sampler", "prior", "L", "nu1", "R", "nu2",
            "nu_a", "nu_b", "iters", "burnin", "thin", "seed", "out"),
    "simulate": ("sim", "sampler", "prior", "iters", "burnin", "seed",
                 "replicates", "workers", "out"),
    "validate": ("seed", "quick", "mutate"),
    "appendix-a": ("a", "b", "lambda1", "lambda2", "p", "n_draws", "seed",
                   "out"),
}


def _int_list(raw):
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _format_value(kind, value):
    if kind is float:
        return f"{float(value):.17g}"
    if kind is bool:
        return "true" if value else "false"
    if kind is tuple:
        return ",".join(str(int(v)) for v in value)
    return str(kind(value))


def _convert_value(key, raw):
    kind = _FIELDS[key].type
    try:
        if kind is bool:
            if raw.lower() not in ("true", "false"):
                raise ValueError(raw)
            return raw.lower() == "true"
        if kind is tuple:
            return _int_list(raw)
        return kind(raw)
    except ValueError:
        raise UserError(f"config value {key}={raw!r} is not a valid "
                        f"{kind.__name__}") from None


def serialize_config(cfg):
    """Normal form: one key=value line per set field, in declaration
    order; unset fields (None, empty id list) are omitted."""
    lines = []
    for name, f in _FIELDS.items():
        value = getattr(cfg, name)
        if value is None or (name == "sim" and not value):
            continue
        lines.append(f"{name}={_format_value(f.type, value)}")
    return "\n".join(lines) + "\n"


def parse_config_text(text):
    """Raw key -> value strings from a flat key=value file.  Blank lines
    and lines starting with # are skipped."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UserError(f"config line {lineno}: expected key=value, "
                            f"got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise UserError(f"config line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise UserError(f"config line {lineno}: duplicate key {key!r}")
        pairs[key] = raw.strip()
    return pairs


def load_config_file(path):
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise UserError(f"cannot read config file: {exc}") from None


def assemble_config(args):
    """Merge defaults, config file, and explicit flags (flags win)."""
    values = {}
    if getattr(args, "config", None):
        pairs = load_config_file(args.config)
        sub = pairs.pop("subcommand", None)
        if sub is not None and sub != args.subcommand:
            raise UserError(
                f"config file names subcommand {sub!r} but the command "
                f"line says {args.subcommand!r}")
        for key, raw in pairs.items():
            values[key] = _convert_value(key, raw)
    for name in _FIELDS:
        if name == "subcommand":
            continue
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return RunConfig(subcommand=args.subcommand, **values)


def _explicit_prior_values(cfg):
    return {name: getattr(cfg, name) for name in ("L", "nu1", "R", "nu2")
            if getattr(cfg, name) is not None}


def sampler_and_prior(cfg):
    """Resolve the algorithm and prior, rejecting an unknown sampler or
    prior."""
    explicit = _explicit_prior_values(cfg)
    try:
        algorithm, form, representation = parse_sampler(cfg.sampler)
        if cfg.prior in PRIOR_PRESETS:
            if explicit:
                raise UserError(
                    f"prior preset {cfg.prior!r} does not take explicit "
                    "L/nu1/R/nu2 values; use --prior explicit")
            prior = make_prior(form, representation,
                               preset=cfg.prior, nu_a=cfg.nu_a,
                               nu_b=cfg.nu_b)
        elif cfg.prior == "explicit":
            missing = [name for name in ("L", "nu1", "R", "nu2")
                       if getattr(cfg, name) is None]
            if missing:
                raise UserError("--prior explicit needs values for "
                                + ", ".join(missing))
            prior = make_prior(form, representation,
                               nu_a=cfg.nu_a, nu_b=cfg.nu_b, **explicit)
        else:
            raise UserError(
                f"prior must be weak, strong, or explicit, got "
                f"{cfg.prior!r}")
    except UserError:
        raise
    except ValueError as exc:
        raise UserError(str(exc)) from None
    return algorithm, prior


def _check_value(f, value):
    """Refuse a value outside the bound its RunConfig field declares."""
    if f.type is float and not math.isfinite(value):
        raise UserError(f"{f.name} must be finite, got {value}")
    low = f.metadata["at_least"]
    if low is not None and value < low:
        raise UserError(f"{f.name} must be at least {low}, got {value}")
    if f.metadata["positive"] and not value > 0.0:
        raise UserError(f"{f.name} must be positive, got {value}")


def validate_config(cfg):
    """Parse-time invariants; raises UserError before any work starts."""
    reads = _READS[cfg.subcommand]
    for name, f in _FIELDS.items():
        value = getattr(cfg, name)
        if name == "subcommand" or value is None:
            continue
        if name in reads:
            _check_value(f, value)
        elif value != f.default:
            raise UserError(f"{cfg.subcommand} does not take {name}; "
                            "remove it from the config file")

    for design_id in cfg.sim:
        if not 1 <= design_id <= 4:
            raise UserError(f"design id must be in 1..4, got {design_id}")

    if cfg.subcommand == "simulate":
        if not cfg.sim:
            raise UserError("simulate needs at least one design id (--sim)")
        # ahead of sampler_and_prior, which asks an explicit prior for values
        if cfg.prior not in PRIOR_PRESETS:
            raise UserError("the benchmark grid runs on prior presets; "
                            "pick --prior weak or strong")

    if cfg.subcommand in ("fit", "simulate"):
        sampler_and_prior(cfg)

    if cfg.subcommand == "fit":
        if cfg.dataset is not None and cfg.sim:
            raise UserError(
                "give either a dataset file or a design id, not both")
        if cfg.dataset is None and not cfg.sim:
            raise UserError(
                "fit needs a dataset file (--data) or a design id (--sim)")
        if cfg.dataset is not None and not os.path.isfile(cfg.dataset):
            raise UserError(f"dataset file not found: {cfg.dataset}")
        if len(cfg.sim) > 1:
            raise UserError("fit takes a single design id")


def _ensure_out_dir(cfg):
    os.makedirs(cfg.out, exist_ok=True)


def _write_run_config(cfg):
    path = os.path.join(cfg.out, "run_config.txt")
    with open(path, "w") as fh:
        fh.write(serialize_config(cfg))
    return path


_SUMMARY_COLUMNS = ("parameter", "mean", "sd", "q25", "q250", "q500",
                    "q750", "q975", "ess", "acceptance_rate", "mh_step")


def _fit_data(cfg):
    if cfg.dataset is not None:
        y, X = read_dataset_csv(cfg.dataset)
        return RegressionData(y, X)
    design_id = cfg.sim[0]
    y, X = generate_dataset(design(design_id),
                            data_stream(cfg.seed, design_id, 0))
    return RegressionData(y, X)


def cmd_fit(cfg):
    """Sample one posterior, write draws.csv and summary.csv."""
    data = _fit_data(cfg)
    algorithm, prior = sampler_and_prior(cfg)
    chain = run_chain(algorithm, data, prior, RngStream(cfg.seed, 2),
                      iters=cfg.iters, burnin=cfg.burnin, thin=cfg.thin)
    _ensure_out_dir(cfg)
    draws_path = os.path.join(cfg.out, "draws.csv")
    summary_path = os.path.join(cfg.out, "summary.csv")
    write_csv(draws_path, chain.parameter_names, chain.draws)
    write_csv(summary_path, _SUMMARY_COLUMNS,
              ([row[col] for col in _SUMMARY_COLUMNS]
               for row in summarize(chain)))
    _write_run_config(cfg)
    print(f"{chain.kind_label}: kept {chain.draws.shape[0]} draws of "
          f"{len(chain.parameter_names)} parameters "
          f"({chain.wall_ms:.0f} ms)")
    if chain.acceptance:
        print("acceptance " + " ".join(
            f"{name}={chain.acceptance_rate(name):.3f} "
            f"(step {chain.mh_steps[name]:.3g})"
            for name in chain.acceptance))
    print(f"wrote {draws_path} and {summary_path}")
    return 0


def cmd_simulate(cfg):
    """Run the benchmark grid, write results.csv."""
    rows, failures = run_experiment(
        cfg.sim, cfg.sampler, cfg.prior, cfg.replicates,
        iters=cfg.iters, burnin=cfg.burnin, seed=cfg.seed,
        workers=cfg.workers)
    _ensure_out_dir(cfg)
    results_path = os.path.join(cfg.out, "results.csv")
    write_csv(results_path, RESULT_COLUMNS,
              ([row[col] for col in RESULT_COLUMNS] for row in rows))
    _write_run_config(cfg)
    for cell in failures:
        print(f"cell failed: design={cell.design_id} "
              f"sampler={cell.sampler} prior={cell.prior_name} "
              f"replicate={cell.replicate}: {cell.error}", file=sys.stderr)
    note = f" ({len(failures)} cells failed)" if failures else ""
    print(f"wrote {len(rows)} result rows to {results_path}{note}")
    return 0


def cmd_validate(cfg):
    """Run the oracle suite, one pass/fail line each."""
    updater = broken_coordinate_update if cfg.mutate else None
    results = run_validation_suite(seed=cfg.seed, quick=cfg.quick,
                                   beta_updater=updater)
    for result in results:
        word = "PASS" if result.passed else "FAIL"
        print(f"{word} {result.name}: {result.detail}")
    n_bad = sum(not result.passed for result in results)
    print(f"{len(results) - n_bad}/{len(results)} checks passed")
    return 2 if n_bad else 0


def cmd_appendix_a(cfg):
    """Always-accept variance sampler demonstration."""
    # imported here, so the other subcommands do not load it
    from .appendix_a import appendix_a_demonstration
    report = appendix_a_demonstration(cfg.a, cfg.b, cfg.lambda1,
                                      cfg.lambda2, cfg.p,
                                      n_draws=cfg.n_draws, seed=cfg.seed)
    text = report.text()
    print(text, end="")
    _ensure_out_dir(cfg)
    text_path = os.path.join(cfg.out, "always_accept_report.txt")
    csv_path = os.path.join(cfg.out, "always_accept_ratios.csv")
    with open(text_path, "w") as fh:
        fh.write(text)
    write_csv(csv_path, ("sigma2", "ratio"),
              np.column_stack([report.sigma2_grid, report.ratios()]))
    _write_run_config(cfg)
    print(f"wrote {text_path} and {csv_path}")
    return 0


_DISPATCH = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "appendix-a": cmd_appendix_a,
}


class _Parser(argparse.ArgumentParser):
    # route argparse's own complaints through the one-line error path
    def error(self, message):
        raise UserError(message)


def build_parser():
    parser = _Parser(
        prog="bayenet",
        description="Elastic net posterior samplers: fit, benchmark, "
                    "validate.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, command in _DISPATCH.items():
        cmd = sub.add_parser(subcommand, help=command.__doc__)
        cmd.add_argument("--config", metavar="PATH",
                         help="flat key=value config file")
        for name in _READS[subcommand]:
            f = _FIELDS[name]
            flag = f.metadata["flag"] or "--" + name.replace("_", "-")
            if f.type is bool:
                # None when absent, so a config file value stands
                cmd.add_argument(flag, dest=name, action="store_const",
                                 const=True, help=f.metadata["help"])
            else:
                cmd.add_argument(
                    flag, dest=name, help=f.metadata["help"],
                    type=_int_list if f.type is tuple else f.type)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = assemble_config(args)
        validate_config(cfg)
        return _DISPATCH[cfg.subcommand](cfg)
    # UserError is a ValueError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
