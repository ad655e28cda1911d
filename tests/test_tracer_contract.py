"""The benchmark's tracer (perfbench/tracer.py) must find every function
it patches, so a renamed or inlined traced function fails here and not
only in a traced benchmark run."""

import types
from pathlib import Path

from bayenet import kernels
from bayenet.model import RegressionData, make_prior
from bayenet.rng import RngStream
from bayenet.simulate import design, generate_dataset

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Sites only the validation battery reaches: the oracle's and the command
# line's own lookups, and find_mode, which sample_tilted never calls; only
# the oracle's property suite reads it.
NOT_SWEPT_OWNERS = ("bayenet.oracle", "bayenet.cli")
NOT_SWEPT_KEYS = {"tilted.find_mode"}


def load_tracer():
    """The tracer module, executed from its source without writing a
    bytecode cache next to it."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_removes_every_site():
    tracer = load_tracer()
    with tracer.Tracer():
        assert len(tracer.installed_wrappers()) == len(tracer.SITES)
    assert tracer.installed_wrappers() == []


def test_sweeps_call_every_traced_fit_site():
    """A kernel that stops calling a traced function, or calls it by a
    path the tracer does not patch, would leave a benchmark metric null."""
    tracer = load_tracer()
    swept = {key for owner, _, key, _ in tracer.SITES
             if owner not in NOT_SWEPT_OWNERS} - NOT_SWEPT_KEYS
    y, X = generate_dataset(design(1), RngStream(3, 0))
    data = RegressionData(y, X)
    with tracer.Tracer() as traced:
        for i, label in enumerate(kernels.SAMPLERS):
            algorithm, form, representation = kernels.parse_sampler(label)
            prior = make_prior(form, representation, preset="weak")
            kernels.run_chain(algorithm, data, prior, RngStream(3, (1, i)),
                              iters=5, burnin=0)
    calls = traced.table("fit")
    assert sorted(k for k in swept if calls[k][0] == 0) == []
