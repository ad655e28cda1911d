"""Per-layer tracing of bayenet from outside the package.

The tracer replaces a function with a wrapper at the place its caller
looks it up (a module global, or a class attribute for the hull
methods), so nothing under src/ needs a hook.  Wrappers neither draw
random numbers nor touch arguments, so a traced fit writes the same
draws as an untraced one; test_perfbench.py checks this byte for byte.

Calls that take a few microseconds (closed-form draws, hull proposals,
the normal-tail helpers) get count-only wrappers: two clock reads would
cost about as much as the call itself.  Everything else records the
call count and the total CPU nanoseconds of the main thread spent
inside, so time the hypervisor steals from a shared machine is not
charged to a layer.  These times are not corrected for the machine's
speed swings (speedometer.py); they are for finding where time goes.

Statistics are kept per phase ("fit", "validate"), so counts per Gibbs
sweep are taken over the fit phase alone.

Every site must exist: a missing one raises on entry, so a function the
program renames or inlines cannot leave its metrics quietly at zero.
"""

import importlib
import time
from collections import defaultdict

# (module, attribute, key, timed).  One row per lookup site: a function
# imported into several modules is patched in each one that calls it.
SITES = (
    # Gibbs blocks, looked up by run_sweep / run_chain
    ("bayenet.kernels", "run_sweep", "kernels.sweep", True),
    ("bayenet.kernels", "update_beta_direct", "kernels.beta_direct", True),
    ("bayenet.kernels", "update_beta_block", "kernels.beta_block", True),
    ("bayenet.kernels", "update_tau2", "kernels.tau2", True),
    ("bayenet.kernels", "update_u1_common", "kernels.u1_common", True),
    ("bayenet.kernels", "update_u2_common", "kernels.u2_common", True),
    ("bayenet.kernels", "update_theta_common", "kernels.theta_common", True),
    ("bayenet.kernels", "update_sigma2_differential_rs",
     "kernels.sigma2_differential", True),
    ("bayenet.kernels", "update_u2_differential",
     "kernels.u2_differential", True),
    ("bayenet.kernels", "update_theta_differential",
     "kernels.theta_differential", True),
    ("bayenet.kernels", "mh_update_scales", "kernels.mh_scales", True),
    # scalar draws
    ("bayenet.kernels", "sample_gig", "distributions.gig", True),
    ("bayenet.tilted", "sample_gig", "distributions.gig", True),
    ("bayenet.kernels", "sample_mhn", "distributions.mhn", True),
    ("bayenet.tilted", "sample_mhn", "distributions.mhn", True),
    ("bayenet.kernels", "sample_truncated_normal",
     "distributions.truncated_normal", False),
    ("bayenet.distributions", "sample_truncated_normal",
     "distributions.truncated_normal", False),
    ("bayenet.model", "sample_truncated_normal",
     "distributions.truncated_normal", False),
    ("bayenet.kernels", "sample_inverse_gaussian",
     "distributions.inverse_gaussian", False),
    ("bayenet.kernels", "sample_tilted", "tilted.sample", True),
    ("bayenet.tilted", "find_mode", "tilted.find_mode", False),
    ("bayenet.oracle", "find_mode", "tilted.find_mode", False),
    # hulls
    ("bayenet.distributions", "build_envelope", "envelope.build", True),
    ("bayenet.tilted", "build_envelope", "envelope.build", True),
    ("bayenet.distributions", "sample_from_envelope",
     "envelope.fixed_draw", True),
    ("bayenet.tilted", "sample_from_envelope", "envelope.fixed_draw", True),
    ("bayenet.tilted", "ars_sample", "envelope.ars_draw", True),
    ("bayenet.envelope.PiecewiseExpEnvelope", "__init__", "envelope.hull",
     False),
    ("bayenet.envelope.PiecewiseExpEnvelope", "propose", "envelope.propose",
     False),
    # normal-tail helpers
    ("bayenet.kernels", "log_std_normal_cdf", "special.log_cdf", False),
    ("bayenet.distributions", "log_std_normal_cdf", "special.log_cdf", False),
    ("bayenet.tilted", "log_std_normal_cdf", "special.log_cdf", False),
    ("bayenet.model", "log_std_normal_cdf", "special.log_cdf", False),
    ("bayenet.oracle", "log_std_normal_cdf", "special.log_cdf", False),
    ("bayenet.tilted", "mills_ratio", "special.mills", False),
    ("bayenet.oracle", "mills_ratio", "special.mills", False),
    # joint log posterior, from the MH sweeps and the quadrature oracle
    ("bayenet.kernels", "log_posterior_unnorm", "model.log_posterior", True),
    ("bayenet.oracle", "log_posterior_unnorm", "model.log_posterior", True),
    # quadrature oracle, and every sampler it calls directly
    ("bayenet.oracle", "auto_cdf", "oracle.auto_cdf", True),
    ("bayenet.oracle", "sample_gig", "oracle.sampler", True),
    ("bayenet.oracle", "sample_inverse_gaussian", "oracle.sampler", True),
    ("bayenet.oracle", "sample_mhn", "oracle.sampler", True),
    ("bayenet.oracle", "sample_truncated_normal", "oracle.sampler", True),
    ("bayenet.oracle", "sample_tilted", "oracle.sampler", True),
    ("bayenet.oracle", "update_beta_block", "oracle.sampler", True),
    ("bayenet.oracle", "update_beta_coordinate", "oracle.sampler", True),
    ("bayenet.oracle", "update_sigma2_differential_rs", "oracle.sampler",
     True),
    ("bayenet.oracle", "update_tau2", "oracle.sampler", True),
    ("bayenet.oracle", "update_theta_common", "oracle.sampler", True),
    ("bayenet.oracle", "update_theta_differential", "oracle.sampler", True),
    ("bayenet.oracle", "update_u1_common", "oracle.sampler", True),
    ("bayenet.oracle", "update_u2_common", "oracle.sampler", True),
    ("bayenet.oracle", "update_u2_differential", "oracle.sampler", True),
    # command line front end
    ("bayenet.cli", "_fit_data", "cli.fit_data", True),
    ("bayenet.cli", "run_chain", "cli.run_chain", True),
    ("bayenet.cli", "summarize", "diagnostics.summarize", True),
    ("bayenet.cli", "generate_dataset", "simulate.generate_dataset", True),
)

# The Gibbs blocks run_sweep calls; its self time excludes them.
SWEEP_CHILDREN = (
    "kernels.beta_direct", "kernels.beta_block", "kernels.tau2",
    "kernels.u1_common", "kernels.u2_common", "kernels.theta_common",
    "kernels.sigma2_differential", "kernels.u2_differential",
    "kernels.theta_differential", "kernels.mh_scales")


def _resolve(owner):
    """The module, or the class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """Context manager that installs every wrapper in SITES on entry and
    puts the original objects back on exit."""

    def __init__(self):
        self.phase = "fit"
        self.stats = {}
        self._saved = []

    def table(self, phase):
        """key -> [calls, nanoseconds] for one phase."""
        return self.stats.setdefault(phase, defaultdict(lambda: [0, 0]))

    def wrap(self, key, fn, timed=True):
        """fn wrapped to record its calls (and CPU time) under key."""
        tracer = self
        clock = time.thread_time_ns
        if timed:
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    slot = tracer.table(tracer.phase)[key]
                    slot[0] += 1
                    slot[1] += clock() - t0
        else:
            def wrapper(*args, **kwargs):
                tracer.table(tracer.phase)[key][0] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        try:
            for owner, name, key, timed in SITES:
                obj = _resolve(owner)
                original = vars(obj).get(name)
                if not callable(original):
                    raise LookupError(f"tracer site {owner}.{name} is not in "
                                      "the program; update tracer.SITES")
                setattr(obj, name, self.wrap(key, original, timed))
                self._saved.append((obj, name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        while self._saved:
            obj, name, original = self._saved.pop()
            setattr(obj, name, original)

    def __exit__(self, *exc):
        self.restore()
        return False


def installed_wrappers():
    """(site, object) pairs in SITES that currently hold a wrapper."""
    found = []
    for owner, name, _, _ in SITES:
        current = vars(_resolve(owner)).get(name)
        if hasattr(current, "__wrapped__"):
            found.append((f"{owner}.{name}", current))
    return found
