"""One-line source mutants against the quick validation battery.

Each mutant is one text edit of one file under src/bayenet: a fault in a
Gibbs block, in a kept hull, or in how run_sweep composes the blocks.
For each, the script copies src/ to a temporary directory, applies the
edit, runs `bayenet validate --quick --seed 0` on the copy, and prints
the lines that fail.  The unmutated copy runs first and must fail none.

Block and hull mutants must each fail at least one line; the script
exits 1 if one fails none.  The two composition mutants are expected to
pass every line: each block is checked from a frozen state, and no line
runs a composed sweep yet (ROADMAP item 7, whole-chain calibration).

Each run takes a few seconds, so this is a script and not a tier-1 test
(pytest does not collect it):

    PYTHONPATH=src python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (name, kind, file, old text, new text): the old text occurs exactly
# once in the file
MUTANTS = (
    ("u2 mhn power minus 1", "block", "kernels.py",
     "u2 = sample_mhn(2.0 * prior.R + prior.L + data.p,",
     "u2 = sample_mhn(2.0 * prior.R + prior.L + data.p - 1.0,"),
    ("lambda2 hgamma with q = p - 1", "block", "kernels.py",
     "prior.R, 0.5 * (prior.nu2 + sums.bb / s2), data.p, t, rng)",
     "prior.R, 0.5 * (prior.nu2 + sums.bb / s2), data.p - 1, t, rng)"),
    ("theta's nu1 term halved", "block", "kernels.py",
     "    c = u2 * (u1 * prior.nu1 + sums.b1)",
     "    c = u2 * (u1 * 0.5 * prior.nu1 + sums.b1)"),
    ("u1 gig order off by 1/2", "block", "kernels.py",
     "return prior.R + prior.L - 0.5 * (prior.nu_a + data.n - 1.0)",
     "return prior.R + prior.L - 0.5 * (prior.nu_a + data.n)"),
    ("common tau2 shape doubled", "block", "kernels.py",
     "lam1 * lam1 / (4.0 * lam2 * s2)",
     "lam1 * lam1 / (2.0 * lam2 * s2)"),
    ("differential sigma2 power minus 1", "block", "kernels.py",
     "data.n + data.p + prior.nu_a - 1.0,",
     "data.n + data.p + prior.nu_a - 2.0,"),
    ("DA beta noise scaled by sigma2, not sigma", "block", "kernels.py",
     "data.xty + math.sqrt(state.sigma2) * noise)",
     "data.xty + state.sigma2 * noise)"),
    ("theta hull never re-tilts after its first rate", "hull",
     "envelope.py",
     "self.slopes = [m - c for m in self.g_slopes]",
     "self.slopes = (getattr(self, 'slopes', None)\n"
     "                       or [m - c for m in self.g_slopes])"),
    ("gig hull keeps stale tangents (retarget skipped)", "hull",
     "distributions.py",
     "            self.retarget(omega)",
     "            pass"),
    ("tau2 drawn before the scale blocks", "composition", "kernels.py",
     "    sums = coefficient_sums(data, state)\n"
     "    if algorithm == \"rs\":",
     "    sums = coefficient_sums(data, state)\n"
     "    if not direct:\n"
     "        update_tau2(data, prior, state, rng)\n"
     "        direct = True\n"
     "    if algorithm == \"rs\":"),
    ("run_sweep passes lambda2 a doubled b'b", "composition", "kernels.py",
     "            update_lambda2(data, prior, state, sums, rng)\n"
     "            update_theta_common(",
     "            update_lambda2(data, prior, state,\n"
     "                           sums._replace(bb=2.0 * sums.bb), rng)\n"
     "            update_theta_common("),
)

# a mutant that makes a rejection sampler loop without end is stopped
TIMEOUT_S = 900


def failed_lines(edit=None):
    """The FAIL lines of `validate --quick --seed 0` on a copy of src/
    with edit, (file, old, new), applied; None if the run did not end in
    time or printed no summary."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if edit is not None:
            name, old, new = edit
            path = src / "bayenet" / name
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: the mutant's old text occurs "
                                 f"{text.count(old)} times: {old!r}")
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run(
                [sys.executable, "-m", "bayenet.cli", "validate", "--quick",
                 "--seed", "0"], cwd=tmp, env=env, capture_output=True,
                text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    lines = run.stdout.splitlines()
    if not (lines and lines[-1].endswith("checks passed")):
        return None
    return [line for line in lines if line.startswith("FAIL")]


def report(label, failed):
    verdict = ("no summary (hung or crashed)" if failed is None
               else f"{len(failed)} lines failed")
    print(f"{label}: {verdict}")
    for line in failed or []:
        print(f"  {line}")


def main():
    base = failed_lines()
    report("unmutated", base)
    if base != []:
        print("the unmutated copy must pass every line")
        return 1
    missed = []
    for name, kind, path, old, new in MUTANTS:
        failed = failed_lines((path, old, new))
        note = (" (expected to pass: ROADMAP item 7's open gap)"
                if kind == "composition" else "")
        report(f"{kind} mutant '{name}'{note}", failed)
        if kind != "composition" and not failed:
            missed.append(name)
    if missed:
        print(f"not caught: {', '.join(missed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
