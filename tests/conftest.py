"""Session fixtures for results that several test modules check."""

import contextlib
import io
from dataclasses import dataclass

import pytest

from bayenet import cli


@dataclass
class ValidateRun:
    code: int
    out: str
    checks: list
    suite_kwargs: dict


def _run_validate(argv):
    """cli.main(argv), keeping its exit code, its standard output, and
    the checks run_validation_suite returned to it."""
    calls = []
    suite = cli.run_validation_suite

    def recording_suite(**kwargs):
        checks = suite(**kwargs)
        calls.append((kwargs, checks))
        return checks

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "run_validation_suite", recording_suite)
        code = cli.main(argv)
    (kwargs, checks), = calls
    return ValidateRun(code, out.getvalue(), checks, kwargs)


# The arguments of each shared validate run, by fixture name.  The quick
# battery takes about 5 s; test_cli checks the command's exit code and
# output, test_oracle its checks and test_validate_lines its printed
# lines, so each run is shared.
VALIDATE_RUNS = {
    "validate_quick": ["validate", "--quick"],
    "validate_quick_mutant": ["validate", "--quick", "--mutate-kernel"],
}


@pytest.fixture(scope="session")
def validate_quick():
    return _run_validate(VALIDATE_RUNS["validate_quick"])


@pytest.fixture(scope="session")
def validate_quick_mutant():
    return _run_validate(VALIDATE_RUNS["validate_quick_mutant"])
