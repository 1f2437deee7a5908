import csv
import io
import json
import subprocess
import sys

import jsonschema
import pytest

import circnorm.circulant
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
            "message": "first row contains negative entry -1" + "0" * 8598,
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
        honest = circnorm.sequences.closed_form_sum
        monkeypatch.setattr(
            circnorm.sequences,
            "closed_form_sum",
            lambda seq, n: honest(seq, n) + 1,
        )
        code, out, _ = run_cli(capsys, "verify", "--id", "lucas", "--n-max", "5")
        doc = parse_record(out)
        assert code == 1
        assert doc["results"]["ok"] is False
        (summary,) = doc["results"]["sequences"]
        assert summary["closed_form_matches"] == 0

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
    def test_round_trip_results(self, capsys):
        _, out, _ = run_cli(capsys, "seq", "--id", "pell", "--n", "6", "--sum")
        record = OutputRecord.from_json(out)
        assert OutputRecord.from_json(record.to_json()) == record

    def test_round_trip_error(self):
        record = OutputRecord(
            "norm",
            {"id": "custom", "n": 2},
            error={"type": "NegativeEntry", "message": "entry -1"},
        )
        assert OutputRecord.from_json(record.to_json()) == record

    def test_schema_rejects_malformed(self):
        with pytest.raises(jsonschema.ValidationError):
            VALIDATOR.validate({"command": "seq", "parameters": {}})
        with pytest.raises(jsonschema.ValidationError):
            VALIDATOR.validate(
                {"command": "seq", "parameters": {}, "results": {"terms": ["0x1"]}}
            )


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
