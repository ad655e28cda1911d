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

Exit codes: 0 success, 1 user error (bad flags, files, parameters),
2 validation failure (one or more checks FAILED).
"""

import argparse
import os
import sys

from dataclasses import dataclass, fields

from .diagnostics import summarize
from .kernels import (check_sweep_supported, parse_sampler, run_chain,
                      sampler_label)
from .model import PRIOR_PRESETS, RegressionData, make_prior
from .oracle import (appendix_a_demonstration, broken_coordinate_update,
                     run_validation_suite)
from .rng import RngStream
from .simulate import (RESULT_COLUMNS, data_stream, design, generate_dataset,
                       read_dataset_csv, run_experiment, write_csv)


class UserError(ValueError):
    """A mistake in flags, config, or input files; reported on one line."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    dataset: str = None
    sim: tuple = ()
    sampler: str = "rs-differential-da"
    prior: str = "weak"
    L: float = None
    nu1: float = None
    R: float = None
    nu2: float = None
    nu_a: float = 1.0
    nu_b: float = 1.0
    iters: int = 5000
    burnin: int = 500
    thin: int = 1
    seed: int = 0
    replicates: int = 2
    workers: int = None
    a: float = 14.0
    b: float = 3.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    p: int = 8
    n_draws: int = 100000
    quick: bool = False
    mutate: bool = False
    out: str = "."


# the annotations are the config schema: each value is parsed and
# written according to its field's type
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}

# chain options fit reads and simulate does not: the grid runs each
# prior preset at thin 1 with nu_a = nu_b = 1
_FIT_ONLY = ("thin", "nu_a", "nu_b", "L", "nu1", "R", "nu2")


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
    kind = _FIELD_TYPES[key]
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
    for name, kind in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        if value is None or (name == "sim" and not value):
            continue
        lines.append(f"{name}={_format_value(kind, value)}")
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
        if key not in _FIELD_TYPES:
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
    for name in _FIELD_TYPES:
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
    """Resolve the algorithm and prior, rejecting unsupported pairs."""
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
        check_sweep_supported(algorithm, prior)
    except UserError:
        raise
    except ValueError as exc:
        raise UserError(str(exc)) from None
    return algorithm, prior


def validate_config(cfg):
    """Parse-time invariants; raises UserError before any work starts."""
    if cfg.seed < 0:
        raise UserError("seed must be a nonnegative integer")
    if cfg.burnin < 0:
        raise UserError(f"burn-in must be nonnegative, got {cfg.burnin}")
    if cfg.thin < 1:
        raise UserError("thin must be at least 1")
    for design_id in cfg.sim:
        if not 1 <= design_id <= 4:
            raise UserError(f"design id must be in 1..4, got {design_id}")

    if cfg.subcommand == "simulate":
        if not cfg.sim:
            raise UserError("simulate needs at least one design id (--sim)")
        if cfg.replicates < 1:
            raise UserError("replicates must be at least 1")
        if cfg.workers is not None and cfg.workers < 1:
            raise UserError("workers must be at least 1")
        # ahead of sampler_and_prior, which asks an explicit prior for values
        if cfg.prior not in PRIOR_PRESETS:
            raise UserError("the benchmark grid runs on prior presets; "
                            "pick --prior weak or strong")
        for name in _FIT_ONLY:
            if getattr(cfg, name) != _DEFAULTS[name]:
                raise UserError(
                    f"simulate does not take {name}: it runs the prior "
                    "presets at thin 1 with nu_a = nu_b = 1")

    if cfg.subcommand in ("fit", "simulate"):
        if cfg.iters < 100:
            raise UserError("need at least 100 kept draws for the "
                            "batch-means effective sample size")
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

    if cfg.subcommand == "appendix-a":
        for name in ("a", "b", "lambda1", "lambda2"):
            if not getattr(cfg, name) > 0.0:
                raise UserError(f"{name} must be positive")
        if cfg.p < 1:
            raise UserError("p must be at least 1")
        if cfg.n_draws < 1000:
            raise UserError("n_draws must be at least 1000 for the "
                            "distribution test")


def _ensure_out_dir(cfg):
    os.makedirs(cfg.out, exist_ok=True)


def _write_run_config(cfg):
    path = os.path.join(cfg.out, "run_config.txt")
    with open(path, "w") as fh:
        fh.write(serialize_config(cfg))
    return path


_SUMMARY_COLUMNS = ("parameter", "mean", "sd", "q25", "q250", "q500",
                    "q750", "q975", "ess", "acceptance_rate")


def _fit_data(cfg):
    if cfg.dataset is not None:
        y, X = read_dataset_csv(cfg.dataset)
        return RegressionData(y, X)
    design_id = cfg.sim[0]
    y, X = generate_dataset(design(design_id),
                            data_stream(cfg.seed, design_id, 0))
    return RegressionData(y, X)


def cmd_fit(cfg):
    data = _fit_data(cfg)
    algorithm, prior = sampler_and_prior(cfg)
    chain = run_chain(algorithm, data, prior, RngStream(cfg.seed, 2),
                      iters=cfg.iters, burnin=cfg.burnin, thin=cfg.thin)
    _ensure_out_dir(cfg)
    draws_path = os.path.join(cfg.out, "draws.csv")
    summary_path = os.path.join(cfg.out, "summary.csv")
    write_csv(draws_path, chain.parameter_names, chain.draws.tolist())
    write_csv(summary_path, _SUMMARY_COLUMNS,
              ([row[col] for col in _SUMMARY_COLUMNS]
               for row in summarize(chain)))
    _write_run_config(cfg)
    print(f"{chain.kind_label}: kept {chain.draws.shape[0]} draws of "
          f"{len(chain.parameter_names)} parameters "
          f"({chain.wall_ms:.0f} ms)")
    rates = {name: chain.acceptance_rate(name) for name in chain.acceptance}
    if rates:
        print("acceptance " + " ".join(f"{name}={rate:.3f}"
                                       for name, rate in rates.items()))
    print(f"wrote {draws_path} and {summary_path}")
    return 0


def cmd_simulate(cfg):
    algorithm, prior = sampler_and_prior(cfg)
    labels = [sampler_label(algorithm, prior)]
    if algorithm == "rs":
        labels.append(sampler_label("mh", prior))
    rows, failures = run_experiment(
        tuple(cfg.sim), tuple(labels), (cfg.prior,), cfg.replicates,
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
              zip(report.sigma2_grid, report.ratios()))
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


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (default .)")


def _add_chain_flags(parser, priors):
    parser.add_argument("--iters", type=int, help="kept draws")
    parser.add_argument("--burnin", type=int, help="discarded sweeps")
    parser.add_argument(
        "--sampler",
        help="algorithm-form-representation, e.g. rs-differential-da")
    parser.add_argument("--prior", help=priors)


def build_parser():
    parser = _Parser(
        prog="bayenet",
        description="Elastic net posterior samplers: fit, benchmark, "
                    "validate.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="sample one posterior, write "
                                     "draws.csv and summary.csv")
    fit.add_argument("--data", dest="dataset", metavar="PATH",
                     help="dataset CSV with a 'y' column")
    fit.add_argument("--sim", type=_int_list, metavar="ID",
                     help="fit the named benchmark design instead")
    _add_chain_flags(fit, "weak, strong, or explicit")
    fit.add_argument("--thin", type=int, help="sweeps per kept draw")
    for name in ("L", "nu1", "R", "nu2"):
        fit.add_argument(f"--{name}", type=float)
    fit.add_argument("--nu-a", type=float, dest="nu_a")
    fit.add_argument("--nu-b", type=float, dest="nu_b")
    _add_common(fit)

    simulate = sub.add_parser(
        "simulate", help="run the benchmark grid, write results.csv")
    simulate.add_argument("--sim", type=_int_list, metavar="IDS",
                          help="comma separated design ids, e.g. 1,2")
    simulate.add_argument("--replicates", type=int)
    simulate.add_argument("--workers", type=int,
                          help="process pool size (default: in process)")
    _add_chain_flags(simulate, "weak or strong")
    _add_common(simulate)

    validate = sub.add_parser(
        "validate", help="run the oracle suite, one pass/fail line each")
    validate.add_argument("--quick", action="store_const", const=True,
                          help="smaller sample sizes, under a minute")
    validate.add_argument("--mutate-kernel", action="store_const",
                          const=True, dest="mutate",
                          help="swap in a deliberately broken coefficient "
                               "kernel to show the suite catches it")
    _add_common(validate)

    appendix = sub.add_parser(
        "appendix-a", help="always-accept variance sampler demonstration")
    appendix.add_argument("--a", type=float, help="variance prior shape")
    appendix.add_argument("--b", type=float, help="variance prior rate")
    appendix.add_argument("--lambda1", type=float)
    appendix.add_argument("--lambda2", type=float)
    appendix.add_argument("--p", type=int, help="coefficient count")
    appendix.add_argument("--n-draws", type=int, dest="n_draws")
    _add_common(appendix)

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
