"""Pinned lines: the seed-0 quick validation battery must print the
committed lines, with and without --mutate-kernel.

Every KS line prints its D to four places, so a refactor that claims
to keep every validate draw is checked here line for line.  The runs
are conftest's shared validate fixtures.  An intended change in the
draws regenerates the pins with

    PYTHONPATH=src python tests/test_validate_lines.py

which first prints, for each run, the lines that moved, and says why
in CHANGES.md.
"""

import itertools
import os

import pytest

from conftest import VALIDATE_RUNS, _run_validate

DATA = os.path.join(os.path.dirname(__file__), "data")


def pin_path(run):
    return os.path.join(DATA, f"{run}.txt")


def moved_lines(old, new):
    """(line number, old line, new line) of each line that differs
    between two printouts; a line only one of them has reads None in
    the other."""
    return [(i + 1, a, b) for i, (a, b) in enumerate(
        itertools.zip_longest(old.splitlines(), new.splitlines()))
        if a != b]


def write_pins():
    """Rewrite the pins, first printing the lines that move."""
    os.makedirs(DATA, exist_ok=True)
    for run, argv in VALIDATE_RUNS.items():
        out = _run_validate(argv).out
        old = ""
        if os.path.exists(pin_path(run)):
            with open(pin_path(run)) as fh:
                old = fh.read()
        moved = moved_lines(old, out)
        print(f"{run}: {f'{len(moved)} lines moved' if moved else 'unchanged'}")
        for i, a, b in moved:
            print(f"  line {i} was: {a}\n  line {i} now: {b}")
        with open(pin_path(run), "w") as fh:
            fh.write(out)


def test_moved_lines_names_each_differing_line():
    old = "PASS a: D=0.0100\nPASS b: D=0.0200\n2/2 checks passed\n"
    new = "PASS a: D=0.0100\nFAIL b: D=0.0500\n1/2 checks passed\nextra\n"
    assert moved_lines(old, new) == [
        (2, "PASS b: D=0.0200", "FAIL b: D=0.0500"),
        (3, "2/2 checks passed", "1/2 checks passed"),
        (4, None, "extra")]
    assert moved_lines(new, new) == []


@pytest.mark.parametrize("run", VALIDATE_RUNS)
def test_validate_prints_the_pinned_lines(run, request):
    with open(pin_path(run)) as fh:
        want = fh.read()
    moved = moved_lines(want, request.getfixturevalue(run).out)
    assert not moved, moved


if __name__ == "__main__":
    write_pins()
