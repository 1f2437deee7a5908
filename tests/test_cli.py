import contextlib
import csv
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import given, strategies as st

import circnorm.circulant
import circnorm.cli
import circnorm.sequences
import circnorm.spectral
from circnorm.cli import OutputRecord, load_output_schema, main, parse_spec

SCHEMA = load_output_schema()
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_record(stdout):
    doc = json.loads(stdout)
    VALIDATOR.validate(doc)
    return doc


class TestSeqCommand:
    def test_fibonacci_terms(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--id", "fibonacci", "--n", "5")
        doc = parse_record(out)
        assert code == 0
        assert doc["results"]["terms"] == ["0", "1", "1", "2", "3"]

    def test_lucas_with_sum(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--id", "lucas", "--n", "1", "--sum")
        doc = parse_record(out)
        assert code == 0
        assert doc["results"]["terms"] == ["2"]
        assert doc["results"]["prefix_sum"] == "2"
        assert doc["results"]["closed_form_sum"] == "2"
        assert doc["results"]["closed_form_matches"] is True

    def test_custom_spec_aliases_fibonacci(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "seq", "--id", "custom", "--spec", "k=2;coef=1,1;init=0,1", "--n", "5",
        )
        doc = parse_record(out)
        assert code == 0
        assert doc["results"]["terms"] == ["0", "1", "1", "2", "3"]

    def test_custom_spec_has_no_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "seq", "--id", "custom", "--spec", "k=1;coef=2;init=1", "--n", "4", "--sum",
        )
        doc = parse_record(out)
        assert code == 0
        assert doc["results"]["terms"] == ["1", "2", "4", "8"]
        assert doc["results"]["prefix_sum"] == "15"
        assert doc["results"]["closed_form_sum"] is None
        assert doc["results"]["closed_form_matches"] is None

    def test_huge_terms_stay_exact_strings(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--id", "fibonacci", "--n", "301", "--sum")
        doc = parse_record(out)
        assert code == 0
        last = int(doc["results"]["terms"][-1])
        assert last > 2**200  # would be impossible through a float64 round trip
        assert doc["results"]["closed_form_matches"] is True

    def test_terms_past_4300_digits(self, capsys):
        # str() of an int past 4300 digits raises by default; compare strings.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        big = "1" + "0" * 2200
        code, out, _ = run_cli(
            capsys,
            "seq", "--id", "custom", "--spec", f"k=1;coef={big};init=1", "--n", "3",
            "--sum",
        )
        doc = parse_record(out)
        assert code == 0
        assert doc["results"]["terms"] == ["1", big, "1" + "0" * 4400]
        assert doc["results"]["prefix_sum"] == "1" + ("0" * 2199 + "1") * 2
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_spec_field_past_4300_digits(self, capsys):
        # int() of a string past 4300 digits raises by default; parse_spec must not.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        big = "1" + "0" * 4300
        code, out, _ = run_cli(
            capsys, "seq", "--id", "custom", "--spec", f"k=1;coef=1;init={big}", "--n", "2"
        )
        doc = parse_record(out)
        assert code == 0
        assert doc["results"]["terms"] == [big, big]
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


class TestNormCommand:
    def test_fibonacci_all_methods(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--id", "fibonacci", "--n", "4", "--methods", "all"
        )
        doc = parse_record(out)
        assert code == 0
        results = doc["results"]
        by_name = {m["method"]: m for m in results["methods"]}
        assert by_name["sum"]["exact_value"] == "4"
        assert by_name["dft"]["value"] == pytest.approx(4.0, rel=1e-10)
        assert by_name["power"]["value"] == pytest.approx(4.0, rel=1e-8)
        assert results["agrees"] is True

    def test_pell_single_entry(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--id", "pell", "--n", "1", "--methods", "sum"
        )
        doc = parse_record(out)
        assert code == 0
        (method,) = doc["results"]["methods"]
        assert method["exact_value"] == "0"

    def test_perrin_six(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--id", "perrin", "--n", "6", "--methods", "all"
        )
        doc = parse_record(out)
        assert code == 0
        by_name = {m["method"]: m for m in doc["results"]["methods"]}
        assert by_name["sum"]["exact_value"] == "15"

    def test_guard_skips_marked(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--id", "fibonacci", "--n", "100", "--methods", "all"
        )
        doc = parse_record(out)
        assert code == 0
        by_name = {m["method"]: m for m in doc["results"]["methods"]}
        assert by_name["dft"]["value"] is None
        assert "2**53" in by_name["dft"]["note"]
        assert by_name["power"]["value"] is None
        assert "2**26" in by_name["power"]["note"]
        assert doc["results"]["agrees"] is True

    def test_sum_past_4300_digits(self, capsys):
        big = "1" + "0" * 2200
        code, out, _ = run_cli(
            capsys,
            "norm", "--id", "custom", "--spec", f"k=1;coef={big};init=1", "--n", "3",
            "--methods", "sum",
        )
        doc = parse_record(out)
        assert code == 0
        (method,) = doc["results"]["methods"]
        assert method["exact_value"] == "1" + ("0" * 2199 + "1") * 2
        assert method["value"] is None  # past the float64 range

    def test_negative_entry_past_4300_digits(self, capsys):
        big = "1" + "0" * 4299
        code, out, _ = run_cli(
            capsys,
            "norm", "--id", "custom", "--spec", f"k=2;coef=0,-{big};init={big},1",
            "--n", "3",
        )
        doc = parse_record(out)
        assert code == 1
        assert doc["error"] == {
            "type": "NegativeEntry",
            "message": "first row entry at index 2 is negative, of 28562 bits",  # -10**8598
        }

    def test_power_past_dense_order_limit_is_skipped(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "norm", "--id", "custom", "--spec", "k=1;coef=1;init=1", "--n", "3000",
            "--methods", "power",
        )
        doc = parse_record(out)
        assert code == 0
        assert doc["results"]["methods"] == [
            {
                "method": "power",
                "value": None,
                "exact_value": None,
                "note": "skipped: order exceeds 512",
            }
        ]

    def test_tolerance_below_float64_resolution_adds_no_note(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "norm", "--id", "fibonacci", "--n", "30", "--methods", "power",
            "--rel-tol", "1e-300",
        )
        doc = parse_record(out)
        assert code == 0
        assert doc["parameters"]["rel_tol"] == 1e-300
        (power,) = doc["results"]["methods"]
        assert power["value"] == pytest.approx(float(1346268), rel=1e-12)
        assert power["note"] is None

    def test_negative_custom_reports_structured_error(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "norm", "--id", "custom", "--spec", "k=1;coef=-1;init=1", "--n", "2",
        )
        doc = parse_record(out)
        assert code == 1
        assert doc["error"]["type"] == "NegativeEntry"
        assert "results" not in doc

    def test_disagreement_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            circnorm.spectral, "spectral_norm_dft", lambda matrix: 123456.0
        )
        code, out, _ = run_cli(
            capsys, "norm", "--id", "fibonacci", "--n", "4", "--methods", "all"
        )
        doc = parse_record(out)
        assert code == 1
        assert doc["results"]["agrees"] is False


class TestVerifyCommand:
    def test_fibonacci_sixty(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "fibonacci", "--n-max", "60")
        doc = parse_record(out)
        assert code == 0
        (summary,) = doc["results"]["sequences"]
        assert summary["closed_form_matches"] == 60
        assert summary["published_matches"] == 60
        assert summary["norm_agreements"] == 60
        assert doc["results"]["ok"] is True

    def test_perrin_divergence_is_finding_not_failure(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "perrin", "--n-max", "50")
        doc = parse_record(out)
        assert code == 0
        (summary,) = doc["results"]["sequences"]
        assert summary["closed_form_matches"] == 50
        assert summary["published_matches"] == 0
        assert summary["findings"]
        assert "R(n+4) - 1" in summary["findings"][0]

    def test_all_sequences_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "all", "--n-max", "1")
        doc = parse_record(out)
        assert code == 0
        assert len(doc["results"]["sequences"]) == 4
        assert len(doc["results"]["rows"]) == 4

    def test_corrupted_closed_form_fails(self, capsys, monkeypatch):
        # verify reads every n's closed form from _closed_forms, and seq --sum
        # reads its one through closed_form_sum, which is _closed_forms at lo == hi.
        honest = circnorm.sequences._closed_forms
        monkeypatch.setattr(
            circnorm.sequences,
            "_closed_forms",
            lambda name, lo, hi: [value + 1 for value in honest(name, lo, hi)],
        )
        code, out, _ = run_cli(capsys, "verify", "--id", "lucas", "--n-max", "5")
        doc = parse_record(out)
        assert code == 1
        assert doc["results"]["ok"] is False
        (summary,) = doc["results"]["sequences"]
        assert summary["closed_form_matches"] == 0
        for row in doc["results"]["rows"]:
            assert int(row["closed_form"]) == int(row["direct_sum"]) + 1
            assert row["published_value"] == row["direct_sum"]
        code, out, _ = run_cli(capsys, "seq", "--id", "lucas", "--n", "5", "--sum")
        results = parse_record(out)["results"]
        assert code == 0
        assert results["closed_form_matches"] is False
        assert int(results["closed_form_sum"]) == int(results["prefix_sum"]) + 1

    def test_corrupted_sum_route_fails(self, capsys, monkeypatch):
        # Past 2**53 only the sum route is in guard, so its entry_sum meets no other
        # route there: closed_form_matches must still catch it, on those 41 rows.
        honest = circnorm.circulant.CirculantMatrix._nested

        def corrupted(terms, orders):
            for matrix in honest(terms, orders):
                if matrix.max_entry >= circnorm.circulant.EXACT_DOUBLE_BOUND:
                    object.__setattr__(matrix, "entry_sum", matrix.entry_sum + 1)
                yield matrix

        monkeypatch.setattr(circnorm.circulant.CirculantMatrix, "_nested", staticmethod(corrupted))
        code, out, _ = run_cli(capsys, "verify", "--id", "fibonacci", "--n-max", "120")
        doc = parse_record(out)
        assert code == 1
        assert doc["results"]["ok"] is False
        (summary,) = doc["results"]["sequences"]
        assert summary["closed_form_matches"] == 79
        assert summary["published_matches"] == 120
        assert summary["norm_agreements"] == 120

    def test_one_prefix_per_sequence(self, capsys, monkeypatch):
        # The audit's prefix also gives the circulants; lucas's identity reads Fibonacci.
        honest = circnorm.sequences.prefix
        calls = []

        def counted(seq, n):
            calls.append((seq, n))
            return honest(seq, n)

        monkeypatch.setattr(circnorm.sequences, "prefix", counted)
        code, _, _ = run_cli(capsys, "verify", "--id", "all", "--n-max", "20")
        assert code == 0
        assert calls == [
            ("fibonacci", 22), ("fibonacci", 23), ("lucas", 20), ("pell", 21), ("perrin", 25),
        ]

    def test_csv_table(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--id", "all", "--n-max", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        assert {row["sequence"] for row in rows} == {
            "fibonacci", "lucas", "pell", "perrin",
        }
        assert all(row["norm_agrees"] == "True" for row in rows)
        assert "finding (perrin)" in err


class TestBenchCommand:
    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--id", "lucas", "--n", "8,16", "--reps", "2"
        )
        doc = parse_record(out)
        assert code == 0
        rows = doc["results"]["rows"]
        assert len(rows) == 6
        for row in rows:
            if row["value"] is not None:
                assert row["agrees"] is True
                assert row["median_seconds"] >= 0

    def test_out_of_guard_methods_marked(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--id", "pell", "--n", "64", "--reps", "1"
        )
        doc = parse_record(out)
        assert code == 0
        by_name = {row["method"]: row for row in doc["results"]["rows"]}
        assert by_name["sum"]["exact_value"] is not None
        assert by_name["dft"]["note"] == "skipped: entries reach 2**53"
        assert by_name["power"]["note"] == "skipped: entries reach 2**26"

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench", "--id", "fibonacci", "--n", "4", "--reps", "1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["method"] for row in rows] == ["sum", "dft", "power"]

    def test_trivial_order(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--id", "fibonacci", "--n", "1", "--reps", "1")
        doc = parse_record(out)
        assert code == 0
        assert all(row["n"] == 1 for row in doc["results"]["rows"])

    @pytest.mark.parametrize(
        "seq_args, n",
        [
            (("--id", "lucas"), 16),
            (("--id", "perrin"), 1),
            (("--id", "pell"), 64),
            (("--id", "custom", "--spec", "k=1;coef=1;init=67108864"), 3),
            (("--id", "custom", "--spec", "k=1;coef=10;init=1"), 400),
        ],
    )
    def test_rows_match_norm(self, capsys, seq_args, n):
        _, out, _ = run_cli(capsys, "bench", *seq_args, "--n", str(n), "--reps", "1")
        rows = parse_record(out)["results"]["rows"]
        _, out, _ = run_cli(capsys, "norm", *seq_args, "--n", str(n))
        report = parse_record(out)["results"]
        methods = [m["method"] for m in report["methods"]]
        assert [row["method"] for row in rows] == methods
        for row, entry in zip(rows, report["methods"]):
            for key in ("value", "exact_value", "note"):
                assert row[key] == entry[key]
            skipped = entry["note"] is not None and entry["note"].startswith("skipped")
            assert (row["median_seconds"] is None) == skipped
            ran = entry["value"] is not None
            assert row["agrees"] == (report["agrees"] if ran else None)

    def test_disagreement_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            circnorm.spectral, "spectral_norm_dft", lambda matrix: 0.5
        )
        code, out, _ = run_cli(
            capsys, "bench", "--id", "fibonacci", "--n", "4", "--reps", "1"
        )
        doc = parse_record(out)
        assert code == 1
        by_name = {row["method"]: row for row in doc["results"]["rows"]}
        assert by_name["sum"]["agrees"] is False


class TestBenchMedian:
    @pytest.mark.parametrize(
        "durations", [[0.5], [0.5, 0.125], [0.5, 3.0, 0.125], [0.5, 0.125, 3.0, 0.25],
                      [1e-7, 2e-7, 1e-7, 4e-7]],
    )
    def test_equals_statistics_median(self, durations, monkeypatch):
        # A fake clock: rep i starts at 10 * i and takes durations[i].
        ticks = iter([t for i, d in enumerate(durations) for t in (10.0 * i, 10.0 * i + d)])
        clock = SimpleNamespace(perf_counter=lambda: next(ticks))
        monkeypatch.setattr(circnorm.cli, "time", clock)
        median, value = circnorm.cli._timed(lambda: "value", len(durations))
        assert value == "value"
        elapsed = [(10.0 * i + d) - 10.0 * i for i, d in enumerate(durations)]
        assert median == statistics.median(elapsed)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("seq", "--id", "perrin", "--n", "20", "--sum"),
            ("norm", "--id", "lucas", "--n", "12", "--methods", "all"),
            ("verify", "--id", "pell", "--n-max", "10"),
        ],
    )
    def test_identical_invocations_identical_output(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestParserReuse:
    """main parses with _parser's one parser per process; no call may leave anything in it.

    Each call of the sequence must write what a run with a fresh parser,
    from the uncached _parser.__wrapped__(), writes.
    """

    SEQUENCE = [
        ("norm", "--id", "lucas", "--n", "6", "--methods", "sum"),
        ("norm", "--id", "lucas", "--n", "6"),  # the default runs all three methods
        ("verify", "--id", "perrin", "--n-max", "4", "--format", "csv"),
        ("verify", "--id", "perrin", "--n-max", "4"),  # the default writes JSON
        ("seq", "--id", "pell", "--n", "5"),
        ("seq", "--id", "custom", "--n", "5"),  # usage error, exit 2
        ("seq", "--id", "pell", "--n", "5"),
    ]

    @staticmethod
    def run(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_outputs_equal_fresh_parser_runs(self, capsys, monkeypatch):
        assert circnorm.cli._parser() is circnorm.cli._parser()
        reused = [self.run(capsys, argv) for argv in self.SEQUENCE]
        monkeypatch.setattr(circnorm.cli, "_parser", circnorm.cli._parser.__wrapped__)
        fresh = [self.run(capsys, argv) for argv in self.SEQUENCE]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2, 0]
        methods = parse_record(reused[1][1])["results"]["methods"]
        assert [m["method"] for m in methods] == ["sum", "dft", "power"]
        assert parse_record(reused[3][1])["parameters"]["format"] == "json"
        assert reused[4] == reused[6]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("seq", "--id", "tribonacci", "--n", "5"),
            ("seq", "--id", "fibonacci", "--n", "0"),
            ("seq", "--id", "custom", "--n", "5"),
            ("seq", "--id", "fibonacci", "--spec", "k=1;coef=1;init=1", "--n", "5"),
            ("seq", "--id", "custom", "--spec", "k=2;coef=1;init=0,1", "--n", "5"),
            ("seq", "--id", "custom", "--spec", "gibberish", "--n", "5"),
            ("norm", "--id", "fibonacci", "--n", "4", "--methods", "qr"),
            ("norm", "--id", "fibonacci", "--n", "4", "--methods", ","),
            ("norm", "--id", "fibonacci", "--n", "4", "--rel-tol", "0"),
            ("verify", "--id", "custom", "--n-max", "5"),
            ("bench", "--id", "fibonacci", "--n", "4,0", "--reps", "1"),
            ("norm", "--id", "fibonacci", "--n", "4", "--rel-tol", "inf"),
            ("bench", "--id", "fibonacci", "--n", "4", "--rel-tol", "inf"),
            ("verify", "--id", "pell", "--n-max", "3", "--rel-tol", "1e400"),
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("seq", "--id", "fibonacci", "--n", "\u0663"),  # Arabic-Indic three
            ("norm", "--id", "fibonacci", "--n", "4", "--rel-tol", "\u0661e-8"),
            ("verify", "--id", "pell", "--n-max", "\u0967"),  # Devanagari one
            ("bench", "--id", "fibonacci", "--n", "4,\U0001d7d7", "--reps", "1"),
            ("bench", "--id", "fibonacci", "--n", "4", "--reps", "\u00a01"),  # no-break space
        ],
    )
    def test_non_ascii_number_rejected(self, capsys, argv):
        # int() and float() read these; the numeric options keep the spec grammar's ASCII rule.
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert "non-ASCII characters in" in capsys.readouterr().err

    def test_non_ascii_space_in_methods_rejected(self, capsys):
        # str.strip() also drops U+3000, so this list would run as sum,dft.
        with pytest.raises(SystemExit) as excinfo:
            main(["norm", "--id", "fibonacci", "--n", "5", "--methods", "sum,\u3000dft"])
        assert excinfo.value.code == 2
        assert "non-ASCII characters in" in capsys.readouterr().err

    def test_unknown_method_beside_all(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["norm", "--id", "fibonacci", "--n", "4", "--methods", "all,nosuch"])
        assert excinfo.value.code == 2
        assert "unknown methods ['nosuch']" in capsys.readouterr().err


# (command and its arguments after --id, expected parameter keys in order)
SEQUENCE_COMMAND_KEYS = [
    (("seq", "--n", "3"), ["id", "n", "sum"]),
    (("norm", "--n", "3"), ["id", "n", "methods", "rel_tol"]),
    (("bench", "--n", "3", "--reps", "1"), ["id", "n", "reps", "rel_tol", "format"]),
]


class TestEnvelope:
    @pytest.mark.parametrize(
        "argv, keys",
        SEQUENCE_COMMAND_KEYS
        + [(("verify", "--n-max", "2"), ["id", "n_max", "rel_tol", "format"])],
    )
    def test_parameter_keys(self, capsys, argv, keys):
        _, out, _ = run_cli(capsys, argv[0], "--id", "lucas", *argv[1:])
        parameters = parse_record(out)["parameters"]
        assert list(parameters) == keys
        assert parameters["id"] == "lucas"

    @pytest.mark.parametrize("argv, keys", SEQUENCE_COMMAND_KEYS)
    def test_custom_spec_comes_last(self, capsys, argv, keys):
        spec = "k=1;coef=1;init=1"
        _, out, _ = run_cli(capsys, argv[0], "--id", "custom", "--spec", spec, *argv[1:])
        parameters = parse_record(out)["parameters"]
        assert list(parameters) == keys + ["spec"]
        assert parameters["id"] == "custom"
        assert parameters["spec"] == spec

    def test_norm_parameters_carry_parsed_methods(self, capsys):
        _, out, _ = run_cli(
            capsys, "norm", "--id", "pell", "--n", "3", "--methods", "power, sum,power"
        )
        assert parse_record(out)["parameters"]["methods"] == ["power", "sum"]

    def test_error_is_json_under_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench", "--id", "custom", "--spec", "k=1;coef=-1;init=1",
            "--n", "1,64", "--reps", "1", "--format", "csv",
        )
        doc = parse_record(out)
        assert code == 1
        assert doc["error"]["type"] == "NegativeEntry"
        assert doc["parameters"]["format"] == "csv"
        assert "results" not in doc

    def test_bench_builds_every_order_from_one_prefix(self, capsys, monkeypatch):
        calls = []
        honest = circnorm.sequences.prefix

        def counting(seq, n):
            calls.append(n)
            return honest(seq, n)

        # circulant holds its own reference to prefix; count through both names.
        monkeypatch.setattr(circnorm.sequences, "prefix", counting)
        monkeypatch.setattr(circnorm.circulant, "prefix", counting)
        code, out, _ = run_cli(
            capsys, "bench", "--id", "perrin", "--n", "64,256,1024", "--reps", "1"
        )
        assert code == 0
        assert [row["n"] for row in parse_record(out)["results"]["rows"]] == (
            [64] * 3 + [256] * 3 + [1024] * 3
        )
        assert calls == [1024]


class TestOutputRecord:
    def test_schema_rejects_malformed(self):
        record = OutputRecord("seq", {"n": 1}, results={"terms": ["0"]})
        assert OutputRecord._fields == ("command", "parameters", "results", "error")
        assert repr(record) == (
            "OutputRecord(command='seq', parameters={'n': 1}, results={'terms': ['0']}, error=None)"
        )
        # Its dict fields leave it as unhashable as the plain tuple of them.
        for value in (record, tuple(record)):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
        # The envelope leaves out whichever of results/error is None.
        assert list(parse_record(record.to_json())) == ["command", "parameters", "results"]
        with pytest.raises(jsonschema.ValidationError):
            VALIDATOR.validate({"command": "seq", "parameters": {}})
        with pytest.raises(jsonschema.ValidationError):
            VALIDATOR.validate(
                {"command": "seq", "parameters": {}, "results": {"terms": ["0x1"]}}
            )


def _spec_text(coef, init, k):
    k = len(coef) if k is None else k
    return f"k={k};coef={','.join(coef)};init={','.join(init)}"


_spec_fields = st.lists(
    st.integers(-(10**6), 10**6).map(str)
    | st.sampled_from(["", "x", "1_0", "+3", " 7 ", "\u0967", "\u0661", "\U0001d7d7", "\u00a01", "1\u2003"]),
    min_size=1,
    max_size=3,
)
#: Specs near the grammar: signed integers, underscores, spaces, non-ASCII digits and spaces.
spec_texts = st.builds(_spec_text, _spec_fields, _spec_fields, st.none() | _spec_fields.map(",".join))


class TestParseSpec:
    def test_valid(self):
        spec = parse_spec("k=3;coef=0,1,1;init=3,0,2")
        assert spec.order == 3
        assert spec.coefficients == (0, 1, 1)
        assert spec.initial_terms == (3, 0, 2)

    def test_whitespace_tolerated(self):
        spec = parse_spec("k=2; coef=2,1; init=0,1")
        assert spec.coefficients == (2, 1)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "k=2;coef=1,1",
            "k=2;coef=1,1;init=0,1;extra=1",
            "k=two;coef=1,1;init=0,1",
            "k=2;coef=1;init=0,1",
            "k=2;coef=1,a;init=0,1",
            "k=2;k=2;coef=1,1;init=0,1",
        ],
    )
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_spec(text)

    @pytest.mark.parametrize(
        "field",
        ["1__0", "1" + "0" * 4300 + ".5", "1" + "0" * 4300 + "e3", "--1" + "0" * 4300],
    )
    def test_non_integer_field_past_4300_digits(self, field):
        with pytest.raises(ValueError, match="non-integer field"):
            parse_spec(f"k=1;coef=1;init={field}")

    @pytest.mark.parametrize(
        "text",
        [
            "k=\u0967;coef=1;init=1",  # Devanagari one
            "k=1;coef=\u0661;init=1",  # Arabic-Indic one
            "k=1;coef=1;init=\U0001d7d7",  # mathematical bold nine
            "k=1;coef=1;init=\u00a01",  # no-break space
            "k=1;coef=1,\u20031;init=1",  # em space
        ],
    )
    def test_non_ascii_field_rejected(self, text):
        with pytest.raises(ValueError, match="non-integer field"):
            parse_spec(text)

    @given(st.text() | spec_texts)
    def test_any_text_parses_or_is_a_usage_error(self, text):
        try:
            spec = parse_spec(text)
        except ValueError:
            spec = None
        assert spec is None or isinstance(spec, circnorm.sequences.RecurrenceSpec)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["seq", "--id", "custom", "--spec", text, "--n", "3"])
            except SystemExit as exc:
                code = exc.code
        assert code == (2 if spec is None else 0)

    @pytest.mark.parametrize(
        "spec, exact", [("k=1;coef=1;init=5", "20"), ("k=2;coef=0,0;init=0,0", "0")]
    )
    def test_order_one_and_all_zero_rows_through_norm(self, capsys, spec, exact):
        code, out, _ = run_cli(capsys, "norm", "--id", "custom", "--spec", spec, "--n", "4")
        assert code == 0
        results = parse_record(out)["results"]
        by_name = {m["method"]: m for m in results["methods"]}
        assert by_name["sum"]["exact_value"] == exact
        assert by_name["dft"]["value"] == by_name["power"]["value"] == float(exact)
        assert results["agrees"] is True

    def test_fields_past_4300_digits(self):
        spec = parse_spec("k=2; coef=1,-1_" + "0" * 4400 + "; init= 7" + "0" * 5000 + " ,1")
        assert spec.coefficients == (1, -(10**4400))
        assert spec.initial_terms == (7 * 10**5000, 1)


class TestModuleEntrypoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "circnorm", "seq", "--id", "perrin", "--n", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        VALIDATOR.validate(doc)
        assert doc["results"]["terms"] == ["3", "0", "2", "3"]


#: Loads numpy, caps this process's address space at its size now plus 256 MiB,
#: then runs cli.main on the argv in sys.argv[1].
OUT_OF_MEMORY_PROBE = """
import json, resource, sys
import circnorm.cli, circnorm.spectral
pages = int(open("/proc/self/statm").read().split()[0])
limit = pages * resource.getpagesize() + 2**28
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(circnorm.cli.main(json.loads(sys.argv[1])))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
class TestOutOfMemory:
    @pytest.mark.parametrize(
        "argv",
        [
            ["seq", "--id", "custom", "--spec", "k=1;coef=0;init=0", "--n", "10000000000"],
            ["norm", "--id", "custom", "--spec", "k=1;coef=1;init=1", "--n", "10000000000"],
            ["verify", "--id", "fibonacci", "--n-max", "10000000000"],
            ["bench", "--id", "custom", "--spec", "k=1;coef=0;init=0",
             "--n", "3,10000000000", "--reps", "1"],
            # The terms fit under the 2**28-byte (268 MB) cap; their JSON document
            # does not. Every term of t(n) = t(n - 1) from t(0) = 10**299 is one int,
            # but each decimal string is its own 352-byte object (349 rounded up to
            # pymalloc's size class), and each line of the document, 4 spaces, 302
            # quoted characters and ",\n", takes 308 bytes. At --n 550000 the terms,
            # two 8-byte list slots and a string each, take 368 * 550000 = 202 MB;
            # the strings (360 * 550000 = 198 MB) and the document text alone
            # (308 * 550000 = 169 MB) together pass the cap, however it is written.
            ["seq", "--id", "custom", "--spec", "k=1;coef=1;init=1" + "0" * 299,
             "--n", "550000"],
        ],
        ids=["seq", "norm", "verify", "bench", "seq-document"],
    )
    def test_huge_n_ends_in_the_error_document(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", OUT_OF_MEMORY_PROBE, json.dumps(argv)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        doc = parse_record(proc.stdout)
        assert doc["error"] == {
            "type": "MemoryError",
            "message": "out of memory; try a smaller --n or --n-max",
        }


#: Runs `python -m circnorm <argv>` (or, with no argv, a bare `import circnorm`)
#: in this process, then one norm through cli.main; prints
#: [exit code, numpy loaded before the norm, norm exit code, numpy loaded after].
NUMPY_PROBE = """
import contextlib, io, json, runpy, sys
argv = json.loads(sys.argv[1])
code = None
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if argv:
        sys.argv = ["circnorm", *argv]
        try:
            runpy.run_module("circnorm", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    else:
        import circnorm
    before = "numpy" in sys.modules
    import circnorm.cli
    norm_code = circnorm.cli.main(["norm", "--id", "pell", "--n", "12"])
print(json.dumps([code, before, norm_code, "numpy" in sys.modules]))
"""


class TestNumpyFreeStart:
    @pytest.mark.parametrize(
        "argv, code",
        [
            ([], None),
            (["seq", "--id", "fibonacci", "--n", "10", "--sum"], 0),
            (["seq", "--id", "custom", "--spec", "k=2;coef=1,1;init=0,1", "--n", "5"], 0),
            (["--help"], 0),
            (["norm", "--id", "fibonacci", "--n", "0"], 2),
        ],
    )
    def test_numpy_loads_only_for_norms(self, argv, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, json.dumps(argv)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [code, False, 0, True]
