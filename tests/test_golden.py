"""Golden outputs: each command's exit code and stdout, against a recorded copy.

tests/golden/<name>.out holds the stdout of one command below. The
comparison is exact except in two places. Timings (median_seconds) are
only checked for being null or not. Floats, which may move in their last
bits with the numpy or BLAS build, are compared to relative 1e-12 (with
a 1e-12 floor for gaps near zero). Exact integers, printed as decimal
strings, are compared digit for digit, and JSON keys in order.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --record

which rewrites only the files that are missing or no longer match.
"""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from circnorm.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: (name, exit code, argv)
CASES = [
    ("seq-fibonacci", 0, ["seq", "--id", "fibonacci", "--n", "40", "--sum"]),
    ("seq-custom", 0, ["seq", "--id", "custom", "--spec", "k=2;coef=3,1;init=1,2",
                       "--n", "20", "--sum"]),
    ("norm-fibonacci", 0, ["norm", "--id", "fibonacci", "--n", "24"]),
    ("norm-perrin-all", 0, ["norm", "--id", "perrin", "--n", "80", "--methods", "all"]),
    ("norm-pell-dft-sum", 0, ["norm", "--id", "pell", "--n", "12", "--methods", "dft,sum"]),
    ("norm-custom-past-float64", 0, ["norm", "--id", "custom", "--spec",
                                     "k=1;coef=10;init=1", "--n", "400"]),
    ("norm-custom-negative", 1, ["norm", "--id", "custom", "--spec",
                                 "k=1;coef=-1;init=1", "--n", "2"]),
    ("norm-custom-zero-row", 0, ["norm", "--id", "custom", "--spec",
                                 "k=1;coef=0;init=0", "--n", "3"]),
    ("verify-perrin", 0, ["verify", "--id", "perrin", "--n-max", "30"]),
    ("verify-all-csv", 0, ["verify", "--id", "all", "--n-max", "140", "--format", "csv"]),
    ("bench-lucas-unsorted", 0, ["bench", "--id", "lucas", "--n", "64,8,1", "--reps", "1"]),
    ("bench-lucas-unsorted-csv", 0, ["bench", "--id", "lucas", "--n", "64,8", "--reps", "1",
                                     "--format", "csv"]),
    ("bench-pell-csv", 0, ["bench", "--id", "pell", "--n", "1,5,40,128", "--reps", "1",
                           "--format", "csv"]),
    ("bench-custom-power-skip", 0, ["bench", "--id", "custom", "--spec",
                                    "k=1;coef=1;init=67108864", "--n", "1,3", "--reps", "1"]),
    ("bench-negative-csv", 1, ["bench", "--id", "custom", "--spec", "k=1;coef=-1;init=1",
                               "--n", "1,64", "--reps", "1", "--format", "csv"]),
    ("usage-error", 2, ["norm", "--id", "fibonacci", "--n", "0"]),
]


def run(argv):
    """(exit code, stdout) of one in-process command; stderr is not kept."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _csv_cell(text):
    if text.lstrip("-").isdigit():
        return text  # an exact integer: compare the digits
    try:
        return float(text)
    except ValueError:
        return text


def _parse(text):
    """JSON objects and CSV rows as lists of (key, value) pairs, in order."""
    if text.startswith("{"):
        return json.loads(text, object_pairs_hook=list)
    if not text:
        return []
    header, *rows = csv.reader(io.StringIO(text))
    return [header] + [list(zip(header, map(_csv_cell, row))) for row in rows]


def _diff(expected, actual, path="", key=None):
    """Path of the first difference, or None when the two match."""
    if key == "median_seconds":
        same = (expected in (None, "")) == (actual in (None, ""))
    elif isinstance(expected, float) or isinstance(actual, float):
        same = (
            isinstance(expected, float)
            and isinstance(actual, float)
            and math.isclose(expected, actual, rel_tol=1e-12, abs_tol=1e-12)
        )
    elif isinstance(expected, tuple) and isinstance(actual, tuple):
        if expected[0] != actual[0]:
            return f"{path}: key {actual[0]!r}, expected {expected[0]!r}"
        return _diff(expected[1], actual[1], f"{path}.{expected[0]}", expected[0])
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: {len(actual)} items, expected {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _diff(e, a, f"{path}[{i}]", key)
            if found:
                return found
        return None
    else:
        same = type(expected) is type(actual) and expected == actual
    return None if same else f"{path}: {actual!r}, expected {expected!r}"


@pytest.mark.parametrize("name, code, argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, code, argv):
    actual_code, stdout = run(argv)
    assert actual_code == code
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert _diff(_parse(expected), _parse(stdout)) is None


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.mkdir(exist_ok=True)
    for name, code, argv in CASES:
        actual_code, stdout = run(argv)
        assert actual_code == code, (name, actual_code)
        path = GOLDEN / f"{name}.out"
        # A file that still matches is left alone, so that its timings do not churn.
        if not path.exists() or _diff(_parse(path.read_text(encoding="utf-8")), _parse(stdout)):
            path.write_text(stdout, encoding="utf-8")
