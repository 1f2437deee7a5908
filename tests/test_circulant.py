import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circnorm import (
    EXACT_DOUBLE_BOUND,
    CirculantMatrix,
    DimensionMismatch,
    NegativeEntry,
    PrecisionLoss,
    RecurrenceSpec,
    all_ones_eigencheck,
    eigenvalues_dft,
    from_sequence,
    matvec_fft,
    matvec_naive,
    prefix,
    to_dense,
)

from conftest import oracle_dense, oracle_dft, oracle_matvec

first_rows = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=1, max_size=64
)


def assert_componentwise_close(got, exact, rel=1e-10, floor=1e-12):
    """Per-component gap against the largest exact component magnitude."""
    scale = max(max(abs(float(x)) for x in exact), floor)
    for g, e in zip(got, exact):
        assert abs(g - float(e)) <= rel * scale


def assert_within_row_scale(got, exact, row, vector, rel=1e-10):
    """Per-component gap against sum(row) * max|v|, a bound on every exact component."""
    scale = sum(row) * max(abs(x) for x in vector)
    for g, e in zip(got, exact):
        assert abs(g - float(e)) <= rel * scale


class TestCirculantMatrix:
    def test_order_and_row(self):
        m = CirculantMatrix((3, 0, 2))
        assert m.order == 3
        assert m.first_row == (3, 0, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CirculantMatrix(())

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            CirculantMatrix((1, -1))

    def test_negative_error_names_first_entry(self):
        message = "^first row entry at index 1 is negative, of 1 bits$"
        with pytest.raises(NegativeEntry, match=message):
            CirculantMatrix((1, -1, -5))

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            CirculantMatrix((1.5, 2.5))

    def test_normalizes_numpy_ints(self):
        m = CirculantMatrix(tuple(np.array([1, 2], dtype=np.int64)))
        assert all(type(c) is int for c in m.first_row)

    @pytest.mark.parametrize(
        "row",
        [
            tuple(np.array([3, 9, 2], dtype=np.int64)),
            tuple(np.array([7, 1], dtype=np.uint64)),
            (2**64 + 5, 1, 2**63),
            (1, 10**400, 0),
            (0, 0, 0),
            (1, 2**63 - 1),
            (2**63, 1),
        ],
    )
    def test_max_entry_is_largest_entry(self, row):
        m = CirculantMatrix(row)
        assert m.max_entry == max(int(c) for c in row)
        assert type(m.max_entry) is int

    def test_max_entry_stays_out_of_equality_hash_and_repr(self):
        a, b = CirculantMatrix((3, 0, 2)), CirculantMatrix((3, 0, 2))
        assert a == b and hash(a) == hash(b)
        assert a != CirculantMatrix((3, 2, 0))
        assert repr(a) == "CirculantMatrix(first_row=(3, 0, 2))"

    @pytest.mark.parametrize(
        "row",
        [
            tuple(np.array([3, 9, 2], dtype=np.int64)),
            tuple(np.array([7, 1], dtype=np.uint64)),
            (2**64 + 5, 1, 2**63),
            (1, 10**400, 0),
            (0, 0, 0),
            (2**63 - 1, 2**63 - 1, 5),  # an int64 row whose sum passes 2**63
            (2**53 - 1,) * 2048,  # an int64 row below the dft guard whose sum passes 2**64
        ],
    )
    def test_entry_sum_is_exact_sum(self, row):
        m = CirculantMatrix(row)
        assert m.entry_sum == sum(int(c) for c in row)
        assert type(m.entry_sum) is int

    def test_entry_sum_stays_out_of_equality_hash_and_repr(self):
        a, b = CirculantMatrix((3, 0, 2)), CirculantMatrix((3, 0, 2))
        assert a.entry_sum == 5
        object.__setattr__(b, "entry_sum", 6)
        assert a == b and hash(a) == hash(b)
        assert repr(b) == "CirculantMatrix(first_row=(3, 0, 2))"

    @pytest.mark.parametrize(
        "row, index, bits",
        [
            ((1, -5, 2), 1, 3),  # int64 row: the check runs on the array
            ((1, 2, -(2**63)), 2, 64),  # the smallest int64
            ((1, -(2**63) - 1, 5), 1, 64),  # past int64, small last entry: Python passes
            ((3, -(10**400), 0, -1), 1, 1329),
        ],
    )
    def test_negative_message_same_on_both_paths(self, row, index, bits):
        message = f"^first row entry at index {index} is negative, of {bits} bits$"
        with pytest.raises(NegativeEntry, match=message):
            CirculantMatrix(row)

    def test_guard_reports_largest_entry(self):
        # The bit count is the largest entry's, wherever it sits in the row.
        with pytest.raises(PrecisionLoss, match=r"^matrix entry of 55 bits; "):
            eigenvalues_dft(CirculantMatrix((2**53, 1, 2**54)))


class TestInt64Row:
    """The int64 copy of the row that the dft and power routes share.

    It is made when the last entry is below 2**53, the bound behind which
    every reader of it sits, and every entry fits int64.
    """

    @given(st.lists(st.integers(min_value=0, max_value=2**53 - 1), min_size=1, max_size=64))
    def test_equals_row_read_only(self, row):
        array = CirculantMatrix(row)._int64_row
        assert array.dtype == np.int64
        assert array.tolist() == row
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1

    @pytest.mark.parametrize(
        "row, exists",
        [
            ((0, 2**53 - 1), True),
            ((2**63 - 1, 7, 0), True),  # a large early entry, small last entry
            ((0, 2**53), False),  # last entry at the readers' bound: no attempt
            ((0, 2**63 - 1), False),
            ((2**63, 1), False),  # partial conversion, then the fallback
            ((1, 10**400, 0), False),
            ((5,), True),
            ((1, 2**63), False),
            (tuple(np.array([2**63, 1], dtype=np.uint64)), False),
        ],
    )
    def test_exists_exactly_within_int64(self, row, exists):
        assert (CirculantMatrix(row)._int64_row is not None) is exists


class TestFromSequence:
    def test_frozen_cases(self):
        assert from_sequence("fibonacci", 4).first_row == (0, 1, 1, 2)
        assert from_sequence("lucas", 1).first_row == (2,)
        assert from_sequence("perrin", 3).first_row == (3, 0, 2)

    def test_negative_custom_rejected(self):
        alternating = RecurrenceSpec((-1,), (1,))  # 1, -1, 1, ...
        with pytest.raises(NegativeEntry):
            from_sequence(alternating, 2)

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            from_sequence("fibonacci", 0)


def assert_same_matrix(got, expected):
    """got, from the entry for exact ints, matches expected, from the constructor."""
    assert got.first_row == expected.first_row
    assert all(type(c) is int for c in got.first_row)
    assert got.max_entry == expected.max_entry
    assert type(got.max_entry) is int and type(expected.max_entry) is int
    assert got.entry_sum == expected.entry_sum == sum(expected.first_row)
    assert type(got.entry_sum) is int and type(expected.entry_sum) is int
    if expected._int64_row is None:
        assert got._int64_row is None
    else:
        for array in (got._int64_row, expected._int64_row):
            assert array.dtype == np.int64 and not array.flags.writeable
        assert np.array_equal(got._int64_row, expected._int64_row)
    assert got == expected and hash(got) == hash(expected)


class TestEntryForExactInts:
    """from_sequence and CirculantMatrix._nested skip the constructor's operator.index pass.

    Whatever they build must equal what the public constructor builds from
    the same terms, down to the int64 row and the NegativeEntry message.
    """

    @pytest.mark.parametrize("name", ["fibonacci", "lucas", "pell", "perrin"])
    def test_builtins_match_constructor(self, name):
        orders = [*range(1, 121), 500]
        terms = prefix(name, 500)
        for n, sliced in zip(orders, CirculantMatrix._nested(terms, orders)):
            expected = CirculantMatrix(terms[:n])
            assert_same_matrix(from_sequence(name, n), expected)
            assert_same_matrix(sliced, expected)

    @given(
        coefficients=st.lists(
            st.one_of(
                st.just(0),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=2**63, max_value=2**70),
                st.integers(min_value=-(2**70), max_value=-(2**63)),
            ),
            min_size=1,
            max_size=4,
        ),
        data=st.data(),
    )
    def test_custom_specs_match_constructor(self, coefficients, data):
        k = len(coefficients)
        init = data.draw(st.lists(st.integers(min_value=0, max_value=9), min_size=k, max_size=k))
        spec = RecurrenceSpec(tuple(coefficients), tuple(init))
        for n in range(1, 3 * k + 6):
            try:
                expected = CirculantMatrix(prefix(spec, n))
            except NegativeEntry as exc:
                with pytest.raises(NegativeEntry) as caught:
                    from_sequence(spec, n)
                assert str(caught.value) == str(exc)
            else:
                assert_same_matrix(from_sequence(spec, n), expected)

    def test_negative_message_matches_constructor(self):
        spec = RecurrenceSpec((1, -3), (1, 2))  # 1, 2, -1, -7, ...
        message = "^first row entry at index 2 is negative, of 1 bits$"
        for build in (lambda: CirculantMatrix(prefix(spec, 4)), lambda: from_sequence(spec, 4)):
            with pytest.raises(NegativeEntry, match=message):
                build()

    def test_constructor_still_maps_through_index(self):
        m = CirculantMatrix((np.int64(3), True, 2))
        assert m.first_row == (3, 1, 2)
        assert all(type(c) is int for c in m.first_row)
        with pytest.raises(TypeError):
            CirculantMatrix((1.5,))


def assert_nested_match_constructor(terms, orders):
    """CirculantMatrix._nested(terms, orders) builds what the constructor builds at each order.

    The builder stops at the first order whose row has a negative entry,
    with the constructor's message; the orders after it are checked in a
    fresh build.
    """
    remaining = list(orders)
    while remaining:
        built = CirculantMatrix._nested(terms, remaining)
        for i, n in enumerate(remaining):
            try:
                expected = CirculantMatrix(terms[:n])
            except NegativeEntry as exc:
                with pytest.raises(NegativeEntry) as caught:
                    next(built)
                assert str(caught.value) == str(exc)
                remaining = remaining[i + 1:]
                break
            assert_same_matrix(next(built), expected)
        else:
            remaining = []


class TestNestedBuild:
    """CirculantMatrix._nested slices every order from one int64 array and one running maximum.

    Each matrix must equal what the constructor builds from its row, down
    to the read-only int64 row (not one entry short) and the NegativeEntry
    message, at orders given unsorted and repeated.
    """

    @given(
        coefficients=st.lists(
            st.one_of(
                st.just(0),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=2**63, max_value=2**70),
                st.integers(min_value=-(2**70), max_value=-(2**63)),
            ),
            min_size=1,
            max_size=4,
        ),
        data=st.data(),
    )
    def test_custom_specs_match_constructor(self, coefficients, data):
        k = len(coefficients)
        init = data.draw(st.lists(st.integers(min_value=0, max_value=9), min_size=k, max_size=k))
        count = 3 * k + 5
        terms = prefix(RecurrenceSpec(tuple(coefficients), tuple(init)), count)
        orders = data.draw(st.lists(st.integers(min_value=1, max_value=count), min_size=1))
        assert_nested_match_constructor(terms, orders)

    @pytest.mark.parametrize(
        "terms",
        [
            (1, 2, -1, -7, 4),  # the recurrence (1, -3) from (1, 2): negative from index 2
            (4, 2**63, 5, 6),  # past int64, then small entries: no array from order 2 on
            (2**53 - 1, 2**53, 7, 2**63 - 1, 3, -(2**63), 1),
            (9, 2**70, -(2**70), 3),
            (2**53 - 1,) * 2048,  # running sums pass 2**64 where every order has its array
        ],
    )
    def test_rows_past_int64_and_negatives(self, terms):
        orders = [4, 1, 3, 2, 2, 1, len(terms), 3]
        assert_nested_match_constructor(list(terms), orders)

    def test_perrin_max_entry_is_a_running_maximum(self):
        # Perrin starts 3, 0, 2, 3, 2, 5: the last entry is not the largest.
        orders = range(1, 11)
        peaks = [m.max_entry for m in CirculantMatrix._nested(prefix("perrin", 10), orders)]
        assert peaks == [3, 3, 3, 3, 3, 5, 5, 7, 10, 12]


class TestOneReduction:
    """Sign and max_entry of an int64 row come from the maximum of its uint64 view.

    A negative int64 reads there as 2**63 or more, so the check is
    view-max >= 2**63. Comparing with > misses -(2**63), which reads as
    exactly 2**63; the signed maximum without the view misses every row
    whose largest entry is still nonnegative, and reads (-1,) as -1.
    """

    builds = pytest.mark.parametrize(
        "build", [CirculantMatrix, CirculantMatrix._of_ints], ids=["constructor", "exact_ints"]
    )

    @builds
    @pytest.mark.parametrize(
        "row, index, bits",
        [
            ((-1,), 0, 1),
            ((0, -(2**63), 5), 1, 64),  # reads as exactly 2**63 in the uint64 view
            ((4, 9, -1, 2, 3), 2, 1),  # a mid-row -1 with a small last entry
        ],
    )
    def test_negative_rows(self, build, row, index, bits):
        # Every entry fits int64 and the last is below 2**53: the check runs on the array.
        assert row[-1] < EXACT_DOUBLE_BOUND and min(row) >= -(2**63)
        message = f"^first row entry at index {index} is negative, of {bits} bits$"
        with pytest.raises(NegativeEntry, match=message):
            build(row)

    @builds
    @pytest.mark.parametrize(
        "row", [(2**63 - 1, 7, 0), (2**53 - 1,) * 3, (0,)]
    )
    def test_nonnegative_rows(self, build, row):
        m = build(row)
        assert m._int64_row is not None
        assert m.max_entry == max(row)
        assert type(m.max_entry) is int


class TestToDense:
    def test_frozen_four_by_four(self):
        dense = to_dense(CirculantMatrix((0, 1, 1, 2)))
        assert dense.tolist() == [
            [0, 1, 1, 2],
            [2, 0, 1, 1],
            [1, 2, 0, 1],
            [1, 1, 2, 0],
        ]

    def test_order_one(self):
        assert to_dense(CirculantMatrix((5,))).tolist() == [[5]]

    def test_basis_rows_are_identity_and_shift(self):
        # circ(1,0,0) is the identity; the one-step cyclic shift is circ(0,1,0).
        assert to_dense(CirculantMatrix((1, 0, 0))).tolist() == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]
        assert to_dense(CirculantMatrix((0, 1, 0))).tolist() == [
            [0, 1, 0],
            [0, 0, 1],
            [1, 0, 0],
        ]

    def test_entries_stay_python_ints(self):
        dense = to_dense(from_sequence("fibonacci", 100))
        assert dense.dtype == object
        assert type(dense[50, 0]) is int

    @pytest.mark.parametrize(
        "row, dtype",
        [
            ((2**26 - 1, 0), np.float64),
            ((2**26 - 1, 2**26 - 1), np.float64),
            ((2**26, 0), np.int64),  # n * max**2 is exactly 2**53
            ((2**31 - 1, 0), np.int64),
            ((2**31 - 1, 2**31 - 1), np.int64),
            ((2**31, 0), object),  # n * max**2 is exactly 2**63
            ((2**31, 2**31), object),
        ],
    )
    def test_dtype_keeps_gram_exact(self, row, dtype):
        dense = to_dense(CirculantMatrix(row))
        assert dense.dtype == dtype
        plain = oracle_dense(row)
        n = len(row)
        exact = [
            [sum(plain[k][i] * plain[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert [[int(x) for x in r] for r in (dense.T @ dense).tolist()] == exact

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 512])
    @pytest.mark.parametrize(
        "peak, dtype",
        # n * peak**2 stays in the dtype's range at every order from 1 to 512.
        [(2**20, np.float64), (2**27 - 1, np.int64), (2**32, object)],
        ids=["float64", "int64", "object"],
    )
    def test_owned_contiguous_and_exact(self, n, peak, dtype):
        rng = np.random.default_rng([n, peak])
        row = [int(x) for x in rng.integers(0, 2**20, size=n)]
        row[int(rng.integers(n))] = peak
        dense = to_dense(CirculantMatrix(tuple(row)))
        assert dense.dtype == dtype
        assert dense.flags.owndata and dense.flags.writeable and dense.flags.c_contiguous
        assert dense.tolist() == oracle_dense(row)

    @given(row=first_rows)
    def test_entry_law(self, row):
        dense = to_dense(CirculantMatrix(tuple(row)))
        n = len(row)
        for i in range(n):
            for j in range(n):
                assert dense[i, j] == row[(j - i) % n]

    @given(row=first_rows)
    def test_row_sums_constant(self, row):
        dense = to_dense(CirculantMatrix(tuple(row)))
        total = sum(row)
        assert all(sum(r) == total for r in dense.tolist())


class TestNormality:
    @settings(max_examples=40, deadline=None)
    @given(
        row=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=32)
    )
    def test_commutes_with_transpose_exactly(self, row):
        dense = to_dense(CirculantMatrix(tuple(row)))
        assert np.array_equal(dense.T @ dense, dense @ dense.T)


class TestMatvecNaive:
    def test_all_ones_gives_row_sum(self):
        assert matvec_naive(CirculantMatrix((0, 1, 1, 2)), [1, 1, 1, 1]) == [4, 4, 4, 4]

    def test_basis_vector_extracts_first_column(self):
        row = (7, 1, 4, 9, 2)
        result = matvec_naive(CirculantMatrix(row), [1, 0, 0, 0, 0])
        assert result == [7, 2, 9, 4, 1]  # (c0, c4, c3, c2, c1)

    def test_frozen_product(self):
        assert matvec_naive(CirculantMatrix((3, 0, 2)), [1, 2, 3]) == [9, 8, 13]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matvec_naive(CirculantMatrix((1, 2)), [1, 2, 3])

    @given(
        row=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=24),
        data=st.data(),
    )
    def test_matches_dense_oracle(self, row, data):
        v = data.draw(
            st.lists(
                st.integers(min_value=-(10**6), max_value=10**6),
                min_size=len(row),
                max_size=len(row),
            )
        )
        assert matvec_naive(CirculantMatrix(tuple(row)), v) == oracle_matvec(row, v)


class TestMatvecFFT:
    def test_all_ones(self):
        got = matvec_fft(CirculantMatrix((0, 1, 1, 2)), [1, 1, 1, 1])
        assert_componentwise_close(got, [4, 4, 4, 4])

    def test_order_one(self):
        got = matvec_fft(CirculantMatrix((1,)), [7.5])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(7.5, abs=1e-12)

    def test_frozen_product(self):
        got = matvec_fft(CirculantMatrix((3, 0, 2)), [1, 2, 3])
        assert_componentwise_close(got, [9, 8, 13])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matvec_fft(CirculantMatrix((1, 2)), [1.0])

    def test_entry_guard(self):
        exact = r"of 54 bits; float64 holds every integer only below 2\*\*53$"
        with pytest.raises(PrecisionLoss, match="^matrix entry " + exact):
            matvec_fft(CirculantMatrix((2**53, 1)), [1.0, 1.0])
        with pytest.raises(PrecisionLoss, match="^vector entry " + exact):
            matvec_fft(CirculantMatrix((1, 1)), [2**53, 0])
        # One below the bound converts exactly and is accepted.
        matvec_fft(CirculantMatrix((2**53 - 1, 0)), [1.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(
        row=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=64),
        data=st.data(),
    )
    def test_agrees_with_naive(self, row, data):
        v = data.draw(
            st.lists(
                st.integers(min_value=-(10**6), max_value=10**6),
                min_size=len(row),
                max_size=len(row),
            )
        )
        exact = matvec_naive(CirculantMatrix(tuple(row)), v)
        assert_componentwise_close(matvec_fft(CirculantMatrix(tuple(row)), v), exact)

    def test_alternating_vector_on_flat_row(self):
        row, v = (2**52 - 1,) * 7, [1, -1, 1, -1, 1, -1, 0]
        exact = matvec_naive(CirculantMatrix(row), v)
        assert exact == [0] * 7
        got = matvec_fft(CirculantMatrix(row), v)
        assert max(abs(got)) > 1e-12  # past any bound relative to the largest exact component
        assert_within_row_scale(got, exact, row, v)

    @settings(max_examples=60, deadline=None)
    @given(
        row=st.lists(st.integers(min_value=0, max_value=2**52), min_size=2, max_size=64),
        data=st.data(),
    )
    def test_cancelling_vectors(self, row, data):
        v = data.draw(
            st.lists(
                st.integers(min_value=-(2**51), max_value=2**51),
                min_size=len(row) - 1,
                max_size=len(row) - 1,
            )
        )
        v.append(-sum(v) if abs(sum(v)) < 2**53 else 0)  # the vector sums to about 0
        exact = matvec_naive(CirculantMatrix(tuple(row)), v)
        got = matvec_fft(CirculantMatrix(tuple(row)), v)
        assert_within_row_scale(got, exact, row, v)


class TestEigenvaluesDFT:
    def test_order_one(self):
        spectrum = eigenvalues_dft(CirculantMatrix((5,)))
        assert spectrum.order == 1
        assert spectrum.values[0] == pytest.approx(5.0)

    def test_zero_frequency_is_entry_sum(self):
        spectrum = eigenvalues_dft(CirculantMatrix((0, 1, 1, 2)))
        assert spectrum.values[0] == pytest.approx(4.0, abs=1e-12)

    def test_identity_row_has_flat_spectrum(self):
        # circ(1,0,0) is the identity, so every eigenvalue is 1.
        values = eigenvalues_dft(CirculantMatrix((1, 0, 0))).values
        assert np.allclose(values, 1.0, atol=1e-12)

    def test_shift_row_gives_roots_of_unity(self):
        values = eigenvalues_dft(CirculantMatrix((0, 1, 0))).values
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        assert np.allclose(values, expected, atol=1e-12)

    def test_positive_sign_convention(self):
        # lambda_1 of the shift must be exp(+2 pi i / n), not its conjugate.
        lam1 = eigenvalues_dft(CirculantMatrix((0, 1, 0, 0))).values[1]
        assert lam1 == pytest.approx(1j, abs=1e-12)

    def test_entry_guard(self):
        exact = r"of 54 bits; float64 holds every integer only below 2\*\*53$"
        with pytest.raises(PrecisionLoss, match="^matrix entry " + exact):
            eigenvalues_dft(CirculantMatrix((2**53,)))
        eigenvalues_dft(CirculantMatrix((2**53 - 1,)))

    @settings(max_examples=40)
    @given(row=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=32))
    def test_matches_direct_summation(self, row):
        got = eigenvalues_dft(CirculantMatrix(tuple(row))).values
        expected = oracle_dft(row)
        scale = max(sum(row), 1)
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-9 * scale

    @given(row=first_rows)
    def test_zero_frequency_nearly_real(self, row):
        values = eigenvalues_dft(CirculantMatrix(tuple(row))).values
        total = sum(row)
        assert abs(values[0].imag) <= 1e-9 * max(total, 1)
        assert abs(values[0].real - total) <= 1e-9 * max(total, 1)

    @given(row=first_rows)
    def test_inverse_transform_recovers_first_row(self, row):
        spectrum = eigenvalues_dft(CirculantMatrix(tuple(row)))
        recovered = np.fft.fft(spectrum.values) / len(row)
        scale = max(max(row), 1)
        assert np.all(np.abs(recovered - np.asarray(row, dtype=float)) <= 1e-10 * scale)


class TestAllOnesEigencheck:
    def test_frozen_cases(self):
        assert all_ones_eigencheck(CirculantMatrix((0, 1, 1, 2))) == [0, 0, 0, 0]
        assert all_ones_eigencheck(CirculantMatrix((7,))) == [0]
        assert all_ones_eigencheck(CirculantMatrix((3, 0, 2))) == [0, 0, 0]

    @given(
        row=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=128)
    )
    def test_exactly_zero_for_any_nonnegative_row(self, row):
        assert all_ones_eigencheck(CirculantMatrix(tuple(row))) == [0] * len(row)

    def test_exact_beyond_double_range(self):
        # The residual stays exactly zero where floats could not even hold the entries.
        matrix = from_sequence("fibonacci", 400)
        assert max(matrix.first_row) > 2**250
        assert all_ones_eigencheck(matrix) == [0] * 400
