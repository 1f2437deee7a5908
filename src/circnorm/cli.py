"""Command-line front end: seq, norm, verify, bench.

main owns the output envelope of all four commands. Each run writes
exactly one document or table to stdout: the JSON OutputRecord, whose
parameters echo the parsed arguments, or, for verify and bench with
--format csv, one CSV table of the result rows. The table has one column
per field of the first row whose value is not a list, in row order, so
verify's methods list is JSON-only. A CircnormError raised by a command
yields the JSON error document and exit 1 under either --format, and so
does running out of memory (a huge --n or --n-max) in a command or while
writing its JSON document, though not while writing a CSV table, which
goes out row by row. The JSON document is the text of json.dumps(doc,
indent=2): two-space indent, keys in build order, ASCII with \\u escapes.
json.dumps writes it from Python 3.13 on, where json writes an indent in
C; before, _jsontext writes the same bytes from batched C-encoder calls.
Diagnostics go to stderr. Exact integers are serialized as decimal
strings, at any size, so they survive JSON consumers that parse numbers
as float64. Only the functions that build matrices or norms import the
numpy-backed circulant and spectral modules, so seq, --help and usage
errors run without numpy. Of the usage errors, only an unknown --methods
name loads it, since the names are checked against spectral.METHOD_NAMES.

Exit codes: 0 success / all checks agree, 1 verification or computation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from typing import NamedTuple

from . import sequences
from .errors import CircnormError
from .sequences import _decimal, _from_decimal

__all__ = ["OutputRecord", "load_output_schema", "parse_spec", "main"]


class OutputRecord(NamedTuple):
    """One machine-readable CLI result: command, parameters, payload.

    An immutable named tuple. Exactly one of results/error is set.
    """

    command: str
    parameters: dict
    results: dict | None = None
    error: dict | None = None

    def to_json(self) -> str:
        payload = {key: value for key, value in self._asdict().items() if value is not None}
        return _dumps(payload)


if sys.version_info >= (3, 13):  # json writes an indent in C from 3.13 on
    # Every payload is a fresh tree of dicts, lists and scalars: no cycle to catch.
    _dumps = functools.partial(json.dumps, indent=2, allow_nan=False, check_circular=False)
else:
    from ._jsontext import dumps as _dumps


def load_output_schema() -> dict:
    """The checked-in JSON schema every JSON output document conforms to."""
    from importlib import resources  # local: no command reads the schema

    text = (
        resources.files("circnorm")
        .joinpath("schemas/output_record.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def parse_spec(text: str) -> sequences.RecurrenceSpec:
    """Parse a custom recurrence, 'k=<order>;coef=<a1,...,ak>;init=<t0,...,tk-1>'.

    Each integer is ASCII: a sign, decimal digits 0-9 with single
    underscores between them, and surrounding ASCII whitespace. Anything
    else, non-ASCII digits and spaces included, raises ValueError.
    """
    fields: dict[str, str] = {}
    for part in text.split(";"):
        key, sep, value = part.partition("=")
        key = key.strip(" \t\n\r\f\v")  # str.strip() would also drop non-ASCII spaces
        if not sep or key in fields:
            raise ValueError(f"bad custom spec fragment {part!r}")
        fields[key] = value
    if set(fields) != {"k", "coef", "init"}:
        raise ValueError("custom spec needs exactly the fields k, coef and init")
    try:
        order = _from_decimal(fields["k"])
        coef = tuple(_from_decimal(x) for x in fields["coef"].split(","))
        init = tuple(_from_decimal(x) for x in fields["init"].split(","))
    except ValueError as exc:
        raise ValueError(f"custom spec has a non-integer field: {exc}") from None
    if order != len(coef) or order != len(init):
        raise ValueError(
            f"k={order} but got {len(coef)} coefficients and {len(init)} initial terms"
        )
    return sequences.RecurrenceSpec(coef, init)


def _ascii(text: str) -> str:
    """text itself if ASCII: int() and float() also read non-ASCII digits and spaces."""
    if not text.isascii():
        raise argparse.ArgumentTypeError(f"non-ASCII characters in {text!r}")
    return text


def _positive_int(text: str) -> int:
    value = int(_ascii(text))
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_int_list(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",")]


def _positive_float(text: str) -> float:
    value = float(_ascii(text))
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return value


_BUILTIN_IDS = tuple(sorted(sequences.BUILTIN_SEQUENCES))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the four commands, built once per process: it holds constants, never input."""
    parser = argparse.ArgumentParser(
        prog="circnorm",
        description=(
            "Circulant matrices from integer recurrence sequences: exact "
            "spectral norms cross-validated by DFT and power iteration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sequence_args(p: argparse.ArgumentParser, ids: tuple[str, ...]) -> None:
        p.add_argument("--id", required=True, choices=ids, help="sequence to use")
        if "custom" in ids:
            p.add_argument(
                "--spec",
                help="custom recurrence, k=<order>;coef=<a1,...,ak>;init=<t0,...,tk-1>",
            )

    p = sub.add_parser("seq", help="print the first n terms of a sequence")
    add_sequence_args(p, _BUILTIN_IDS + ("custom",))
    p.add_argument("--n", required=True, type=_positive_int, help="number of terms")
    p.add_argument(
        "--sum",
        action="store_true",
        help="also report the prefix sum and, for builtins, the closed form",
    )

    p = sub.add_parser("norm", help="spectral norm of circ(t(0), ..., t(n-1))")
    add_sequence_args(p, _BUILTIN_IDS + ("custom",))
    p.add_argument("--n", required=True, type=_positive_int, help="matrix order")
    p.add_argument(
        "--methods",
        type=_ascii,  # str.strip() would also drop non-ASCII spaces around a name
        default="all",
        help="comma list from {sum,dft,power}, or 'all' (default)",
    )
    p.add_argument("--rel-tol", type=_positive_float, default=1e-8)

    p = sub.add_parser(
        "verify",
        help="batch-check closed forms and norm-method agreement for 1 <= n <= n-max",
    )
    add_sequence_args(p, _BUILTIN_IDS + ("all",))
    p.add_argument("--n-max", required=True, type=_positive_int)
    p.add_argument("--rel-tol", type=_positive_float, default=1e-8)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("bench", help="time the norm methods over a list of orders")
    add_sequence_args(p, _BUILTIN_IDS + ("custom",))
    p.add_argument(
        "--n",
        required=True,
        type=_positive_int_list,
        help="comma list of matrix orders, e.g. 256,1024",
    )
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--rel-tol", type=_positive_float, default=1e-8)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _sequence_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> sequences.SequenceId:
    """The sequence --id/--spec names ("all" for verify); exits 2 on misuse."""
    if args.id == "custom":
        if not getattr(args, "spec", None):
            parser.error("--id custom requires --spec")
        try:
            return parse_spec(args.spec)
        except ValueError as exc:
            parser.error(f"bad --spec: {exc}")
    if getattr(args, "spec", None):
        parser.error("--spec only applies with --id custom")
    return args.id


def _parse_methods(parser: argparse.ArgumentParser, text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        parser.error("--methods must name at least one method")
    from . import spectral
    bad = [m for m in names if m not in spectral.METHOD_NAMES + ("all",)]
    if bad:
        parser.error(
            f"unknown methods {bad}; choose from {list(spectral.METHOD_NAMES)} or 'all'"
        )
    if "all" in names:
        return list(spectral.METHOD_NAMES)
    return list(dict.fromkeys(names))


def _method_entry(r: spectral.MethodResult) -> dict:
    value = r.value if r.value is not None and math.isfinite(r.value) else None
    exact = None if r.exact_value is None else _decimal(r.exact_value)
    return dict(r._asdict(), value=value, exact_value=exact)


#: What each command hands main to wrap: (results, ok).
_Outcome = tuple[dict, bool]


def cmd_seq(seq: sequences.SequenceId, args: argparse.Namespace) -> _Outcome:
    terms = sequences.prefix(seq, args.n)
    results: dict = {"terms": [_decimal(t) for t in terms]}
    if args.sum:
        direct = sum(terms)
        closed = None if args.id == "custom" else sequences.closed_form_sum(seq, args.n)
        results["prefix_sum"] = _decimal(direct)
        results["closed_form_sum"] = None if closed is None else _decimal(closed)
        results["closed_form_matches"] = None if closed is None else closed == direct
    return results, True


def cmd_norm(seq: sequences.SequenceId, args: argparse.Namespace) -> _Outcome:
    from . import circulant, spectral
    matrix = circulant.from_sequence(seq, args.n)
    report = spectral.compare_methods(matrix, rel_tol=args.rel_tol, methods=args.methods)
    methods = [_method_entry(r) for r in report.methods]
    return dict(report._asdict(), methods=methods), report.agrees


def _verify_sequence(name: str, n_max: int, rel_tol: float) -> tuple[dict, list[dict]]:
    """Check one builtin for each n <= n_max: _audit, _closed_forms and the _nested circulants."""
    from . import circulant, spectral
    audit, terms = sequences._audit(name, n_max)
    matrices = circulant.CirculantMatrix._nested(terms, range(1, n_max + 1))
    closed_forms = sequences._closed_forms(name, 1, n_max)
    rows = []
    for audit_row, matrix, shipped in zip(audit.rows, matrices, closed_forms):
        report = spectral.compare_methods(matrix, rel_tol=rel_tol)
        # direct is the sum route's value: closed_form_matches checks that route at every n.
        direct, published = matrix.entry_sum, audit_row.published_value
        text = _decimal(direct)  # the three values are mostly equal: one string per distinct int
        rows.append(
            {
                "sequence": name,
                "n": audit_row.n,
                "direct_sum": text,
                "closed_form": text if shipped == direct else _decimal(shipped),
                "closed_form_matches": shipped == direct,
                "published_value": text if published == direct else _decimal(published),
                "published_matches": audit_row.matches,
                "methods": [r.method for r in report.methods if r.value is not None],
                "max_gap": report.max_pairwise_relative_gap,
                "norm_agrees": report.agrees,
            }
        )
    findings = []
    if not audit.all_match:
        findings.append(
            f"published identity '{audit.published_form}' matches direct summation "
            f"at {audit.match_count}/{n_max} indices; the shipped closed form uses "
            "the corrected constant and matches everywhere (informational, not a failure)"
        )
    summary = {
        "sequence": name,
        "checks": n_max,
        "closed_form_matches": sum(row["closed_form_matches"] for row in rows),
        "published_matches": audit.match_count,
        "norm_agreements": sum(row["norm_agrees"] for row in rows),
        "findings": findings,
    }
    return summary, rows


def cmd_verify(seq: str, args: argparse.Namespace) -> _Outcome:
    summaries = []
    rows: list[dict] = []
    for name in _BUILTIN_IDS if seq == "all" else (seq,):
        summary, seq_rows = _verify_sequence(name, args.n_max, args.rel_tol)
        summaries.append(summary)
        rows.extend(seq_rows)
        if args.format == "csv":
            for finding in summary["findings"]:
                print(f"finding ({name}): {finding}", file=sys.stderr)
    ok = all(row["closed_form_matches"] and row["norm_agrees"] for row in rows)
    return {"ok": ok, "sequences": summaries, "rows": rows}, ok


def _timed(func, reps: int) -> tuple[float, object]:
    times = []
    value = None
    for _ in range(reps):
        start = time.perf_counter()
        value = func()
        times.append(time.perf_counter() - start)
    # statistics.median's value, without statistics (it loads decimal, fractions and random).
    times.sort()
    half = reps // 2
    return (times[half] if reps % 2 else (times[half - 1] + times[half]) / 2), value


def cmd_bench(seq: sequences.SequenceId, args: argparse.Namespace) -> _Outcome:
    from . import circulant, spectral
    rows = []
    all_agree = True
    matrices = circulant.CirculantMatrix._nested(sequences.prefix(seq, max(args.n)), args.n)
    for n, matrix in zip(args.n, matrices):
        timed = [
            _timed(lambda: spectral.run_method(matrix, method), args.reps)
            for method in spectral.METHOD_NAMES
        ]
        report = spectral.norm_report(n, [r for _, r in timed], args.rel_tol)
        all_agree = all_agree and report.agrees
        for seconds, r in timed:
            entry = _method_entry(r)
            rows.append(
                {
                    "n": n,
                    "method": r.method,  # also in entry; placed for key order
                    "reps": args.reps,
                    # A skipped method ran nothing worth timing.
                    "median_seconds": None if r.value is None else seconds,
                    **entry,
                    "agrees": None if entry["value"] is None else report.agrees,
                }
            )
    return {"rows": rows}, all_agree


_COMMANDS = {"seq": cmd_seq, "norm": cmd_norm, "verify": cmd_verify, "bench": cmd_bench}

#: The error document of a command that ran out of memory, such as on a huge --n.
_OUT_OF_MEMORY = {"type": "MemoryError", "message": "out of memory; try a smaller --n or --n-max"}


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its envelope; returns the exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    seq = _sequence_from_args(parser, args)
    if args.command == "norm":
        args.methods = _parse_methods(parser, args.methods)
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "spec")}
    if args.id == "custom":
        parameters["spec"] = args.spec
    error = text = None
    try:
        results, ok = _COMMANDS[args.command](seq, args)
        if getattr(args, "format", "json") == "json":
            text = OutputRecord(args.command, parameters, results=results).to_json()
    except CircnormError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
    except MemoryError:  # allocate nothing here: the command's memory is freed on leaving
        error, results = _OUT_OF_MEMORY, None  # and drop the results, which outlive the command
    if error is not None:
        print(OutputRecord(args.command, parameters, error=error).to_json())
        return 1
    if text is None:  # --format csv
        rows = results["rows"]
        columns = [key for key, value in rows[0].items() if not isinstance(value, list)]
        writer = csv.DictWriter(sys.stdout, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    else:
        print(text)
    return 0 if ok else 1
