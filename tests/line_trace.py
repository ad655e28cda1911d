"""The statements of the package that fits run and no `validate` line
reaches.

Runs the fits first: every sampler on two datasets each of designs 1
and 2 under the weak preset, designs 3 and 4 under the strong one, and
design 1 under the weak preset with an explicit lambda1 shape L = 0.4,
whose theta draws take the small-shape sampler.  Then it runs
`run_validation_suite(seed=0, quick=True)`.  Each runs under
sys.settrace, which records only lines of the package's own source.  It
prints every line the fits reach and `validate` does not, grouped by
function, except in DRIVERS, which compose the blocks into a chain and
are left to a whole-chain calibration line; it exits 1 if any line is
printed.

Line tracing slows Python many-fold, so this is a script and not a
tier-1 test (pytest does not collect it):

    PYTHONPATH=src python tests/line_trace.py
"""

import linecache
import sys
from pathlib import Path

import bayenet
from bayenet.kernels import SAMPLERS, parse_sampler, run_chain
from bayenet.model import RegressionData, make_prior
from bayenet.oracle import run_validation_suite
from bayenet.rng import RngStream
from bayenet.simulate import data_stream, design, generate_dataset

PACKAGE = str(Path(bayenet.__file__).resolve().parent)

# (design, preset, explicit prior values): each fit's prior
FITS = ((1, "weak", {}), (2, "weak", {}), (3, "strong", {}),
        (4, "strong", {}), (1, "weak", {"L": 0.4}))
DATASETS = 2
# kept sweeps per fit, after a fifth as many burn-in sweeps
SWEEPS = 500

# (module, function): the composed drivers, which run every block of a
# sweep in turn, keep a chain's hulls, tune its Metropolis steps and
# label its draws
DRIVERS = {
    ("kernels.py", "run_chain"), ("kernels.py", "run_sweep"),
    ("kernels.py", "update_beta_direct"), ("kernels.py", "mh_update_scales"),
    ("kernels.py", "new_counts"), ("kernels.py", "theta_hull"),
    ("kernels.py", "u1_hull"), ("kernels.py", "sampler_label"),
    ("model.py", "initial_state"),
    ("diagnostics.py", "derived_penalty_columns"),
}


def traced_lines(run):
    """The (file, function, line) of every package line run() runs; the
    lines of a comprehension or nested function count as those of the
    function that holds it."""
    seen = set()

    def on_line(frame, event, arg):
        if event == "line":
            code = frame.f_code
            seen.add((code.co_filename, code.co_qualname.split(".<")[0],
                      frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return on_line
        return None

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def fits():
    """(algorithm, data, prior, rng) of every fit, made before the trace
    starts so that only the chains are traced."""
    out = []
    for k, (d, preset, values) in enumerate(FITS):
        for r in range(DATASETS):
            data = RegressionData(*generate_dataset(
                design(d), data_stream(0, d, r)))
            for i, label in enumerate(SAMPLERS):
                algorithm, form, representation = parse_sampler(label)
                prior = make_prior(form, representation, preset=preset,
                                   **values)
                out.append((algorithm, data, prior, RngStream(k, (r, i))))
    return out


def main():
    jobs = fits()
    chains = traced_lines(lambda: [
        run_chain(*job, iters=SWEEPS, burnin=SWEEPS // 5) for job in jobs])
    checks = traced_lines(lambda: run_validation_suite(seed=0, quick=True))
    missed = sorted(
        (Path(f).name, fn, line) for f, fn, line in chains - checks
        if (Path(f).name, fn) not in DRIVERS)
    for module, fn, line in missed:
        text = linecache.getline(str(Path(PACKAGE) / module), line).strip()
        print(f"{module}:{line} ({fn})  {text}")
    print(f"{len(missed)} lines run in the fits and in no validate line "
          f"({len(DRIVERS)} driver functions left out)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
