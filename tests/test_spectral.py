import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circnorm import (
    GRAM_SAFE_BOUND,
    CirculantMatrix,
    PrecisionLoss,
    compare_methods,
    eigenvalues_dft,
    from_sequence,
    spectral_norm_dft,
    spectral_norm_power,
    spectral_norm_sum,
    spectral_radius,
)

from circnorm.circulant import to_dense
from circnorm.cli import OutputRecord
from circnorm.errors import DenseBudgetExceeded
from circnorm.sequences import AuditRow, IdentityAudit
from circnorm.spectral import (
    DENSE_ORDER_LIMIT,
    ConvergenceRecord,
    MethodResult,
    NormReport,
    _gram,
    norm_report,
    run_method,
)

from conftest import oracle_builtin, oracle_dense, oracle_dft, oracle_gram


def rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class TestSpectralNormSum:
    def test_fibonacci_matches_closed_form(self, fib):
        for n in range(1, 40):
            assert spectral_norm_sum(from_sequence("fibonacci", n)) == fib[n + 1] - 1

    def test_zero_matrix(self):
        assert spectral_norm_sum(CirculantMatrix((0,))) == 0

    def test_pell_frozen(self):
        assert spectral_norm_sum(from_sequence("pell", 5)) == 20

    @given(
        row=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=32),
        m=st.integers(min_value=0, max_value=10**6),
    )
    def test_scaling_covariance(self, row, m):
        scaled = CirculantMatrix(tuple(m * c for c in row))
        assert spectral_norm_sum(scaled) == m * spectral_norm_sum(
            CirculantMatrix(tuple(row))
        )


class TestSpectralNormDFT:
    def test_fibonacci_frozen(self):
        assert spectral_norm_dft(from_sequence("fibonacci", 4)) == pytest.approx(
            4.0, rel=1e-10
        )

    def test_order_one(self):
        assert spectral_norm_dft(CirculantMatrix((9,))) == pytest.approx(9.0)

    def test_perrin_frozen(self):
        assert spectral_norm_dft(from_sequence("perrin", 5)) == pytest.approx(
            10.0, rel=1e-9
        )

    def test_guard(self):
        with pytest.raises(PrecisionLoss):
            spectral_norm_dft(CirculantMatrix((2**53, 1)))

    # Odd and even orders both: the half spectrum ends at k = (n - 1) / 2 for
    # odd n and at the real Nyquist value k = n / 2 for even n.
    @pytest.mark.parametrize("n", range(1, 34))
    def test_matches_full_spectrum_oracle(self, n):
        rng = np.random.default_rng([20261019, n])
        rows = [
            tuple(int(x) for x in rng.integers(0, hi, size=n)) for hi in (2, 10**6, 2**52)
        ]
        spike = [0] * n
        spike[int(rng.integers(0, n))] = 7  # one nonzero entry: all n moduli are 7
        for row in rows + [tuple(spike)]:
            expected = max(abs(lam) for lam in oracle_dft(row))
            assert rel_close(spectral_norm_dft(CirculantMatrix(row)), expected, 1e-12)


class TestSpectralRadius:
    def test_frozen_cases(self):
        assert spectral_radius(from_sequence("lucas", 4)) == pytest.approx(10.0, rel=1e-9)
        assert spectral_radius(CirculantMatrix((1, 0, 0))) == pytest.approx(1.0)
        assert spectral_radius(CirculantMatrix((0, 1, 0))) == pytest.approx(1.0)
        assert spectral_radius(from_sequence("fibonacci", 8)) == pytest.approx(
            33.0, rel=1e-9
        )

    def test_identical_to_dft_norm(self):
        for n in (1, 3, 7, 16):
            matrix = from_sequence("perrin", n)
            assert spectral_radius(matrix) == spectral_norm_dft(matrix)

    def test_argmax_at_zero_frequency(self):
        rng = np.random.default_rng(20250811)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            row = tuple(int(x) for x in rng.integers(0, 10**6, size=n))
            matrix = CirculantMatrix(row)
            values = eigenvalues_dft(matrix).values
            moduli = np.abs(values)
            total = sum(row)
            # Ties allowed: k = 0 must be within roundoff of the max modulus.
            assert moduli[0] >= moduli.max() - 1e-9 * max(total, 1)
            assert abs(moduli[0] - total) <= 1e-9 * max(total, 1)

    def test_triangle_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            row = tuple(int(x) for x in rng.integers(0, 10**6, size=n))
            total = sum(row)
            assert spectral_radius(CirculantMatrix(row)) <= total + 1e-9 * total + 1e-12


class TestSpectralNormPower:
    def test_lucas_frozen(self):
        value, record = spectral_norm_power(from_sequence("lucas", 3))
        assert value == pytest.approx(6.0, rel=1e-8)
        assert record.converged

    def test_order_one(self):
        value, record = spectral_norm_power(CirculantMatrix((4,)))
        assert value == pytest.approx(4.0)
        assert record.converged

    def test_perrin_row_frozen(self):
        value, _ = spectral_norm_power(CirculantMatrix((3, 0, 2)))
        assert value == pytest.approx(5.0, rel=1e-8)

    def test_zero_matrix(self):
        value, record = spectral_norm_power(CirculantMatrix((0, 0, 0)))
        assert value == 0.0
        assert record.converged
        assert record.iterations == 1

    def test_entry_guard(self):
        with pytest.raises(
            PrecisionLoss,
            match=r"^entry of 27 bits is not below 2\*\*26, the bound that keeps "
            r"n \* max\*\*2 < 2\*\*61 up to order 512$",
        ):
            spectral_norm_power(CirculantMatrix((2**26, 1)))
        value, _ = spectral_norm_power(CirculantMatrix((2**26 - 1, 1)))
        assert value == pytest.approx(float(2**26), rel=1e-8)

    def test_rounding_gram_regime(self):
        # Entries in [2**25, 2**26): every Gram entry passes 2**53 and rounds.
        rng = np.random.default_rng(2026)
        row = tuple(int(x) for x in rng.integers(2**25, 2**26, size=64))
        value, record = spectral_norm_power(CirculantMatrix(row))
        assert record.converged
        assert rel_close(value, float(sum(row)), 1e-8)


def assert_gram_exact(matrix):
    """_gram is the exact Gram's first row rounded once, and every Gram row rotates it."""
    g = _gram(matrix)
    assert g.dtype == np.float64
    exact = oracle_gram(matrix.first_row)
    assert g.tolist() == [float(x) for x in exact[0]]
    dense = to_dense(matrix)
    assert np.array_equal(g, (dense[:, 0] @ dense).astype(np.float64))
    # Row i is the first row rotated by i, so every row sums to sum(g): the
    # fact the power route rests on.
    n = matrix.order
    assert all(exact[i] == exact[0][n - i:] + exact[0][:n - i] for i in range(n))


class TestGram:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 255, 256, 384, 511, 512])
    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 2**20), (0, GRAM_SAFE_BOUND), (GRAM_SAFE_BOUND - 4096, GRAM_SAFE_BOUND)],
        ids=["small", "below-guard", "near-guard"],
    )
    def test_equals_exact_gram_rounded_once(self, n, lo, hi):
        rng = np.random.default_rng([n, lo, hi])
        row = tuple(int(x) for x in rng.integers(lo, hi, size=n))
        matrix = CirculantMatrix(row)
        # Small rows stay in float64; from order 3 up the others are int64.
        regime = np.float64 if n * matrix.max_entry**2 < 2**53 else np.int64
        assert to_dense(matrix).dtype == regime
        assert_gram_exact(matrix)

    @pytest.mark.parametrize("n", [32, 128, 512])
    @pytest.mark.parametrize(
        "offset, regime", [(1, np.float64), (0, np.int64)], ids=["below", "at"]
    )
    def test_either_side_of_the_float64_switch(self, n, offset, regime):
        # At offset 0, n * top**2 is exactly 2**53; at offset 1 it is just below.
        top = math.isqrt(2**53 // n) - offset
        assert (n * top**2 < 2**53) == (regime is np.float64)
        rng = np.random.default_rng([n, offset])
        row = (top,) + tuple(int(x) for x in rng.integers(top - 4096, top + 1, size=n - 1))
        matrix = CirculantMatrix(row)
        assert to_dense(matrix).dtype == regime
        assert_gram_exact(matrix)

    def test_oracle_gram_is_the_plain_product(self):
        for row in [(5,), (1, 2), (3, 0, 7), (2**26 - 1, 2**26 - 2, 8191, 8192)]:
            plain = oracle_dense(row)
            n = len(row)
            exact = [
                [sum(plain[k][i] * plain[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert oracle_gram(row) == exact


class TestPowerMemory:
    @pytest.mark.parametrize("n", [256, 384, 512])
    @pytest.mark.parametrize(
        "lo, hi", [(1, 2**10), (GRAM_SAFE_BOUND - 4096, GRAM_SAFE_BOUND)],
        ids=["small", "near-guard"],
    )
    def test_holds_one_dense_array(self, n, lo, hi):
        # O(n) bytes: neither the matrix nor its Gram is built, only rows of length n.
        rng = np.random.default_rng([n, lo])
        row = tuple(int(x) for x in rng.integers(lo, hi, size=n))
        matrix = CirculantMatrix(row)
        tracemalloc.start()
        try:
            value, record = spectral_norm_power(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.converged and rel_close(value, float(sum(row)), 1e-8)
        assert peak < 16 * n * 8


class TestNormDefinitionConsistency:
    def test_gram_route_equals_radius_route(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(1, 17))
            row = tuple(int(x) for x in rng.integers(0, 1000, size=n))
            matrix = CirculantMatrix(row)
            by_power, record = spectral_norm_power(matrix)
            by_dft = spectral_norm_dft(matrix)
            assert record.converged
            assert rel_close(by_power, by_dft, 1e-8)


class TestTheoremCertification:
    @pytest.mark.parametrize("name", ["fibonacci", "lucas", "pell", "perrin"])
    def test_three_routes_agree_small_orders(self, name):
        for n in range(1, 25):
            matrix = from_sequence(name, n)
            exact = spectral_norm_sum(matrix)
            assert rel_close(spectral_norm_dft(matrix), float(exact), 1e-8)
            if max(matrix.first_row) < GRAM_SAFE_BOUND:
                value, record = spectral_norm_power(matrix)
                assert record.converged
                assert rel_close(value, float(exact), 1e-8)


class TestCompareMethods:
    def test_fibonacci_16(self):
        report = compare_methods(from_sequence("fibonacci", 16), rel_tol=1e-8)
        assert report.agrees
        by_name = {r.method: r for r in report.methods}
        assert by_name["sum"].exact_value == 1596
        assert by_name["sum"].value == 1596.0
        assert report.max_pairwise_relative_gap <= 1e-8

    def test_zero_matrix(self):
        report = compare_methods(CirculantMatrix((0,)), rel_tol=1e-8)
        assert report.agrees
        assert all(r.value == 0.0 for r in report.methods)

    def test_perrin_10_exact_value(self):
        perrin = oracle_builtin("perrin", 15)
        report = compare_methods(from_sequence("perrin", 10), rel_tol=1e-8)
        assert report.agrees
        by_name = {r.method: r for r in report.methods}
        assert by_name["sum"].exact_value == perrin[14] - 2 == 49

    def test_power_skipped_over_guard(self):
        matrix = CirculantMatrix((2**30, 1))
        report = compare_methods(matrix)
        by_name = {r.method: r for r in report.methods}
        assert by_name["power"].value is None
        assert "2**26" in by_name["power"].note
        assert by_name["dft"].value is not None
        assert report.agrees  # sum and dft still cross-check

    def test_dft_and_power_skipped_over_guard(self):
        matrix = from_sequence("fibonacci", 100)
        report = compare_methods(matrix)
        by_name = {r.method: r for r in report.methods}
        assert by_name["dft"].value is None
        assert by_name["power"].value is None
        assert by_name["sum"].exact_value == spectral_norm_sum(matrix)
        assert report.agrees
        assert report.max_pairwise_relative_gap == 0.0

    def test_method_restriction_preserves_order(self):
        report = compare_methods(CirculantMatrix((1, 2)), methods=("dft", "sum"))
        assert [r.method for r in report.methods] == ["dft", "sum"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            compare_methods(CirculantMatrix((1,)), methods=("sum", "qr"))

    @pytest.mark.parametrize("rel_tol", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize(
        "methods", [("sum", "dft"), ("sum", "dft", "power")], ids=["no-power", "power"]
    )
    def test_rel_tol_must_be_positive(self, rel_tol, methods):
        # The same rule whichever methods are asked for, before any of them runs.
        matrix = from_sequence("fibonacci", 10)
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            compare_methods(matrix, rel_tol=rel_tol, methods=methods)

    def test_sum_float_is_rounded_exact(self):
        report = compare_methods(from_sequence("lucas", 30), methods=("sum",))
        (result,) = report.methods
        assert result.value == float(result.exact_value)

    def test_report_is_deterministic(self):
        matrix = from_sequence("pell", 12)
        assert compare_methods(matrix) == compare_methods(matrix)


class TestNormReportGap:
    @given(
        st.lists(
            st.floats(min_value=0, allow_nan=False, allow_infinity=False), max_size=3
        ),
        st.none() | st.integers(min_value=0, max_value=3),
    )
    def test_equals_largest_pairwise_gap(self, finite, inf_at):
        values = list(finite)
        if inf_at is not None:
            values.insert(inf_at, math.inf)
        results = [MethodResult("sum", v) for v in values] + [MethodResult("dft", None)]
        gap = norm_report(len(values), results, 1e-8).max_pairwise_relative_gap
        expected = 0.0
        if len(values) >= 2:
            pairwise = max(abs(a - b) for a, b in itertools.combinations(values, 2))
            expected = pairwise / max(max(values), 1.0)
        assert gap == expected or (math.isnan(gap) and math.isnan(expected))


class TestSharedRow:
    @pytest.mark.parametrize(
        "row",
        [(3, 1, 4, 1, 5), (2**26 - 1,) * 40, tuple(range(2**20, 2**20 + 300))],
        ids=["float64-gram", "int64-gram", "float64-order-300"],
    )
    def test_routes_leave_it_unchanged(self, row):
        matrix = CirculantMatrix(row)
        report = compare_methods(matrix)
        assert report.agrees
        assert [r.value is not None for r in report.methods] == [True, True, True]
        assert matrix._int64_row.tolist() == list(row)
        assert not matrix._int64_row.flags.writeable

    def test_held_up_to_the_dft_bound(self):
        # F(78) < 2**53 <= F(79): order 79 holds the row and runs dft, order 80 does neither.
        below, at = from_sequence("fibonacci", 79), from_sequence("fibonacci", 80)
        assert below._int64_row is not None and at._int64_row is None
        assert compare_methods(below, methods=("sum", "dft")).agrees
        total = sum(oracle_builtin("fibonacci", 80))
        report = compare_methods(at)
        assert [(r.method, r.value, r.exact_value, r.note) for r in report.methods] == [
            ("sum", float(total), total, None),
            ("dft", None, None, "skipped: entries reach 2**53"),
            ("power", None, None, "skipped: entries reach 2**26"),
        ]
        assert report.max_pairwise_relative_gap == 0.0 and report.agrees


class TestRunMethod:
    @pytest.mark.parametrize(
        "method, bound, note",
        [
            ("dft", 2**53, "skipped: entries reach 2**53"),
            ("power", 2**26, "skipped: entries reach 2**26"),
        ],
    )
    def test_guard_is_exact(self, method, bound, note):
        # The offending entry first, and last in a longer row.
        n = {"dft": 4096, "power": 64}[method]
        for head, tail in [((), (1,)), ((1,) * (n - 1), ())]:
            skipped = run_method(CirculantMatrix(head + (bound,) + tail), method)
            assert skipped.value is None
            assert skipped.note == note
            row = head + (bound - 1,) + tail
            ran = run_method(CirculantMatrix(row), method)
            assert ran.note is None
            assert ran.value == pytest.approx(float(sum(row)), rel=1e-8)

    def test_sum_past_float_range(self):
        matrix = CirculantMatrix((10**400,))
        result = run_method(matrix, "sum")
        assert result.value == math.inf
        assert result.exact_value == 10**400
        for method in ("dft", "power"):
            skipped = run_method(matrix, method)
            assert skipped.value is None
            assert skipped.note.startswith("skipped: ")

    def test_skips_entries_without_decimal_form(self):
        # Past 4300 digits an int has no str(); the skip must not need one.
        matrix = CirculantMatrix((10**5000,))
        for method in ("dft", "power"):
            assert run_method(matrix, method).note.startswith("skipped: ")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_method(CirculantMatrix((1,)), "qr")


#: (row, method, run_method's value and note, and what a direct call of the
#: route returns or raises), frozen from the implementation that skipped by
#: catching the route's exception: each guard at its bound and one below it.
GUARD_TABLE = [
    ("2**26-1", (2**26 - 1, 1), "dft", 67108864.0, None, None),
    ("2**26-1", (2**26 - 1, 1), "power", 67108864.0, None, None),
    ("2**26", (2**26, 1), "dft", 67108865.0, None, None),
    ("2**26", (2**26, 1), "power", None, "skipped: entries reach 2**26", (
        PrecisionLoss, "entry of 27 bits is not below 2**26, the bound that keeps "
        "n * max**2 < 2**61 up to order 512")),
    ("2**53-1", (2**53 - 1, 1), "dft", 9007199254740992.0, None, None),
    ("2**53-1", (2**53 - 1, 1), "power", None, "skipped: entries reach 2**26", (
        PrecisionLoss, "entry of 53 bits is not below 2**26, the bound that keeps "
        "n * max**2 < 2**61 up to order 512")),
    ("2**53", (2**53, 1), "dft", None, "skipped: entries reach 2**53", (
        PrecisionLoss, "matrix entry of 54 bits; float64 holds every integer only below 2**53")),
    ("2**53", (2**53, 1), "power", None, "skipped: entries reach 2**26", (
        PrecisionLoss, "entry of 54 bits is not below 2**26, the bound that keeps "
        "n * max**2 < 2**61 up to order 512")),
    ("order-512", (1,) * 512, "dft", 512.0, None, None),
    ("order-512", (1,) * 512, "power", 512.0, None, None),
    ("order-513", (1,) * 513, "dft", 513.0, None, None),
    ("order-513", (1,) * 513, "power", None, "skipped: order exceeds 512", (
        DenseBudgetExceeded, "order 513 exceeds the dense power limit of 512")),
]


class TestGuardTable:
    @pytest.mark.parametrize(
        "row, method, value, note, raised",
        [case[1:] for case in GUARD_TABLE],
        ids=[f"{case[2]}-{case[0]}" for case in GUARD_TABLE],
    )
    def test_skip_and_direct_call(self, row, method, value, note, raised):
        matrix = CirculantMatrix(row)
        assert run_method(matrix, method) == MethodResult(method, value, None, note)
        route = {"dft": spectral_norm_dft, "power": lambda m: spectral_norm_power(m)[0]}[method]
        if raised is None:
            assert route(matrix) == value
            return
        kind, message = raised
        with pytest.raises(kind) as info:
            route(matrix)
        assert type(info.value) is kind and str(info.value) == message


class TestRecords:
    def test_method_result(self):
        result = MethodResult("sum", 3.0, 3)
        assert MethodResult._fields == ("method", "value", "exact_value", "note")
        assert repr(result) == "MethodResult(method='sum', value=3.0, exact_value=3, note=None)"
        assert hash(result) == hash(("sum", 3.0, 3, None))
        # A named tuple: it unpacks, indexes and equals the plain tuple of its fields.
        assert result == ("sum", 3.0, 3, None) and result[1] == 3.0
        method, value, exact, note = result
        assert (method, value, exact, note) == ("sum", 3.0, 3, None)

    def test_norm_report(self):
        report = compare_methods(CirculantMatrix((1, 2)), methods=("sum", "dft"))
        assert NormReport._fields == (
            "order", "methods", "max_pairwise_relative_gap", "rel_tol", "agrees"
        )
        assert repr(report) == (
            "NormReport(order=2, methods=(MethodResult(method='sum', value=3.0, "
            "exact_value=3, note=None), MethodResult(method='dft', value=3.0, "
            "exact_value=None, note=None)), max_pairwise_relative_gap=0.0, "
            "rel_tol=1e-08, agrees=True)"
        )
        assert hash(report) == hash((2, report.methods, 0.0, 1e-8, True))
        assert report == (2, (("sum", 3.0, 3, None), ("dft", 3.0, None, None)), 0.0, 1e-8, True)

    @pytest.mark.parametrize(
        "record, field",
        [(MethodResult("sum", 1.0, 1), "value"), (MethodResult("dft", None), "note"),
         (NormReport(1, (), 0.0, 1e-8, True), "agrees"),
         (NormReport(1, (), 0.0, 1e-8, True), "methods"),
         (ConvergenceRecord(1, True), "converged"), (AuditRow(1, 4, 3, False), "matches"),
         (IdentityAudit("perrin", "R(n+4) - 1", ()), "rows"), (OutputRecord("seq", {}), "error")],
    )
    def test_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


class TestDenseOrderLimit:
    def test_near_guard_row_at_the_limit_runs_in_int64(self):
        rng = np.random.default_rng(512)
        row = tuple(int(x) for x in rng.integers(2**26 - 4096, 2**26, size=512))
        matrix = CirculantMatrix(row)
        assert DENSE_ORDER_LIMIT == 512
        assert to_dense(matrix).dtype == np.int64
        result = run_method(matrix, "power")
        assert result.note is None
        assert rel_close(result.value, float(sum(row)), 1e-8)

    def test_past_the_limit_is_skipped(self):
        result = run_method(CirculantMatrix((1,) * 513), "power")
        assert result.value is None
        assert result.note == "skipped: order exceeds 512"

    def test_entry_guard_note_comes_first(self):
        result = run_method(CirculantMatrix((2**26,) + (1,) * 512), "power")
        assert result.note == "skipped: entries reach 2**26"

    def test_direct_call_past_the_limit_raises(self):
        with pytest.raises(DenseBudgetExceeded, match="513"):
            spectral_norm_power(CirculantMatrix((1,) * 513))


class TestDefaults:
    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-300])
    @pytest.mark.parametrize("n", [1, 64, 384, 512])
    @pytest.mark.parametrize(
        "lo, hi", [(1, 2**10), (GRAM_SAFE_BOUND - 4096, GRAM_SAFE_BOUND), (0, 1)],
        ids=["small", "near-guard", "zero"],
    )
    def test_power_takes_one_step(self, n, lo, hi, rel_tol):
        # One step, the Gram's row sum, and no note whatever the tolerance asks.
        rng = np.random.default_rng([n, lo])
        row = tuple(int(x) for x in rng.integers(lo, hi, size=n))
        matrix = CirculantMatrix(row)
        value, record = spectral_norm_power(matrix)
        assert record.iterations == 1
        assert ConvergenceRecord._fields == ("iterations", "converged")
        assert repr(record) == "ConvergenceRecord(iterations=1, converged=True)"
        assert hash(record) == hash((1, True))
        assert rel_close(value, float(sum(row)), 1e-8)
        (power,) = compare_methods(matrix, rel_tol=rel_tol, methods=("power",)).methods
        assert power.value == value and power.note is None

    def test_compare_default_tolerance(self):
        report = compare_methods(from_sequence("fibonacci", 8))
        assert report.rel_tol == 1e-8
        assert math.isfinite(report.max_pairwise_relative_gap)
