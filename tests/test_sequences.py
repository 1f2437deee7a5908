import pytest
from hypothesis import given, settings, strategies as st

import circnorm.sequences
from circnorm import (
    FIBONACCI,
    LUCAS,
    PELL,
    PERRIN,
    BUILTIN_SEQUENCES,
    RecurrenceSpec,
    UnsupportedSequence,
    audit_closed_form_identity,
    closed_form_sum,
    prefix,
    prefix_sum,
    resolve,
    term,
)

from conftest import oracle_builtin, oracle_terms

BUILTIN_NAMES = sorted(BUILTIN_SEQUENCES)


def recurrence_specs(max_order=4, max_coeff=3, max_init=5, coefficients=None):
    """Random custom recurrences with matching coefficient/init lengths."""
    if coefficients is None:
        coefficients = st.integers(min_value=-max_coeff, max_value=max_coeff)
    return st.integers(min_value=1, max_value=max_order).flatmap(
        lambda k: st.tuples(
            st.lists(coefficients, min_size=k, max_size=k),
            st.lists(
                st.integers(min_value=-max_init, max_value=max_init),
                min_size=k,
                max_size=k,
            ),
        ).map(lambda pair: RecurrenceSpec(tuple(pair[0]), tuple(pair[1])))
    )


class TestRecurrenceSpec:
    def test_builtin_definitions(self):
        assert FIBONACCI == RecurrenceSpec((1, 1), (0, 1))
        assert LUCAS == RecurrenceSpec((1, 1), (2, 1))
        assert PELL == RecurrenceSpec((2, 1), (0, 1))
        assert PERRIN == RecurrenceSpec((0, 1, 1), (3, 0, 2))

    def test_order_property(self):
        assert PERRIN.order == 3
        assert RecurrenceSpec((5,), (7,)).order == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RecurrenceSpec((1, 1), (0,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RecurrenceSpec((), ())

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            RecurrenceSpec((1.5, 1), (0, 1))

    def test_resolve_names_and_specs(self):
        assert resolve("fibonacci") is FIBONACCI
        assert resolve("Lucas") is LUCAS
        custom = RecurrenceSpec((2,), (1,))
        assert resolve(custom) is custom
        with pytest.raises(UnsupportedSequence):
            resolve("tribonacci")


class TestTerm:
    def test_initial_terms(self):
        assert term("fibonacci", 0) == 0
        assert term("perrin", 1) == 0
        assert term("lucas", 0) == 2
        assert term("pell", 1) == 1

    def test_frozen_values(self):
        assert term("fibonacci", 10) == 55
        assert term("perrin", 5) == 5

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            term("fibonacci", -1)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_oracle(self, name):
        expected = oracle_builtin(name, 120)
        assert [term(name, i) for i in range(120)] == expected

    def test_exact_beyond_word_size(self, fib):
        # Fibonacci leaves 64-bit range near index 93; stays exact here.
        assert term("fibonacci", 200) == fib[200]
        assert term("fibonacci", 200) > 2**128

    @given(spec=recurrence_specs(), n=st.integers(min_value=0, max_value=300))
    def test_custom_matches_oracle(self, spec, n):
        expected = oracle_terms(spec.coefficients, spec.initial_terms, n + 1)[n]
        assert term(spec, n) == expected

    @pytest.mark.parametrize("m", [49_999, 50_000, 50_001])
    def test_fibonacci_large_index(self, m):
        # Doubling identities F(2m) = F(m)(2F(m+1) - F(m)) and
        # F(2m+1) = F(m+1)**2 + F(m)**2, plus F(m) mod p by a plain loop so
        # that an all-zero answer cannot satisfy them.
        f_m, f_next = term("fibonacci", m), term("fibonacci", m + 1)
        assert term("fibonacci", 2 * m) == f_m * (2 * f_next - f_m)
        assert term("fibonacci", 2 * m + 1) == f_next**2 + f_m**2
        p = 1_000_000_007
        a, b = 0, 1
        for _ in range(m):
            a, b = b, (a + b) % p
        assert f_m % p == a


class TestPrefix:
    def test_frozen_values(self):
        assert prefix("fibonacci", 5) == [0, 1, 1, 2, 3]
        assert prefix("lucas", 1) == [2]
        assert prefix("perrin", 4) == [3, 0, 2, 3]

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            prefix("fibonacci", 0)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_prefix_extends(self, name):
        for n in range(1, 101):
            assert prefix(name, n) == prefix(name, n + 1)[:n]

    @given(spec=recurrence_specs(), n=st.integers(min_value=1, max_value=100))
    def test_prefix_extends_custom(self, spec, n):
        assert prefix(spec, n) == prefix(spec, n + 1)[:n]

    # Every count from 1 to 3k + 5 covers n <= k, where no term is computed,
    # the first term the iterator chain makes, and the steady state after it.
    @given(
        spec=recurrence_specs(
            max_order=6,
            max_init=9,
            coefficients=st.one_of(
                st.just(0),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=2**63, max_value=2**70),
                st.integers(min_value=-(2**70), max_value=-(2**63)),
            ),
        )
    )
    def test_every_count_matches_oracle(self, spec):
        count = 3 * spec.order + 5
        expected = oracle_terms(spec.coefficients, spec.initial_terms, count)
        for n in range(1, count + 1):
            assert prefix(spec, n) == expected[:n]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_all_zero_coefficients(self, k):
        spec = RecurrenceSpec((0,) * k, tuple(range(3, 3 + k)))
        for n in range(1, 3 * k + 6):
            assert prefix(spec, n) == oracle_terms(spec.coefficients, spec.initial_terms, n)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_long_prefix(self, name):
        assert prefix(name, 3000) == oracle_builtin(name, 3000)


class TestRecurrenceConsistency:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_windows_regenerate(self, name):
        spec = BUILTIN_SEQUENCES[name]
        terms = prefix(name, 501)
        for n in range(spec.order, 501):
            regenerated = sum(
                a * terms[n - i] for i, a in enumerate(spec.coefficients, start=1)
            )
            assert regenerated == terms[n]

    @settings(max_examples=60)
    @given(spec=recurrence_specs())
    def test_custom_windows_regenerate(self, spec):
        terms = prefix(spec, 501)
        assert terms == oracle_terms(spec.coefficients, spec.initial_terms, 501)
        for n in range(spec.order, 501, 17):
            regenerated = sum(
                a * terms[n - i] for i, a in enumerate(spec.coefficients, start=1)
            )
            assert regenerated == terms[n]


class TestPrefixSum:
    def test_frozen_values(self):
        assert prefix_sum("fibonacci", 4) == 4
        assert prefix_sum("lucas", 3) == 6

    def test_all_zero_custom(self):
        assert prefix_sum(RecurrenceSpec((1,), (0,)), 7) == 0

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_oracle(self, name):
        oracle = oracle_builtin(name, 200)
        for n in range(1, 201, 13):
            assert prefix_sum(name, n) == sum(oracle[:n])


class TestClosedFormSum:
    def test_frozen_values(self):
        assert closed_form_sum("fibonacci", 4) == 4
        assert closed_form_sum("pell", 3) == 3
        assert closed_form_sum("perrin", 3) == 5

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_equals_prefix_sum_exactly(self, name):
        for n in range(1, 201):
            assert closed_form_sum(name, n) == prefix_sum(name, n)

    def test_lucas_form_equivalence(self, fib):
        # F(n+2) + F(n) - 1 is the same number as L(n+1) - 1.
        for n in range(1, 201):
            assert fib[n + 2] + fib[n] - 1 == term("lucas", n + 1) - 1

    def test_pell_parity(self):
        pell = oracle_builtin("pell", 201)
        for n in range(1, 201):
            assert (pell[n] + pell[n - 1] - 1) % 2 == 0

    def test_custom_unsupported(self):
        with pytest.raises(UnsupportedSequence):
            closed_form_sum(RecurrenceSpec((1, 1), (0, 1)), 5)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            closed_form_sum("fibonacci", 0)


class TestAudit:
    def test_fibonacci_all_match(self):
        audit = audit_closed_form_identity("fibonacci", 50)
        assert audit.match_count == 50
        assert audit.all_match

    def test_pell_all_match_and_even(self):
        audit = audit_closed_form_identity("pell", 50)
        assert audit.all_match
        pell = oracle_builtin("pell", 51)
        for row in audit.rows:
            assert (pell[row.n] + pell[row.n - 1] - 1) % 2 == 0

    def test_lucas_all_match(self):
        assert audit_closed_form_identity("lucas", 50).all_match

    def test_odd_pell_numerator_is_flagged(self, monkeypatch):
        # Unreachable with the real Pell parities: shift the numerator by one
        # so every halving leaves a remainder but floors to the direct sum.
        text, constant, divisor, form = circnorm.sequences._SUM_IDENTITIES["pell"]
        odd = (text, constant, divisor, lambda t, f, n: form(t, f, n) + 1)
        monkeypatch.setitem(circnorm.sequences._SUM_IDENTITIES, "pell", odd)
        audit = audit_closed_form_identity("pell", 6)
        assert all(row.published_value == row.direct_sum for row in audit.rows)
        assert audit.match_count == 0
        with pytest.raises(ArithmeticError):
            closed_form_sum("pell", 6)

    def test_perrin_printed_form_never_matches(self):
        audit = audit_closed_form_identity("perrin", 50)
        assert audit.match_count == 0
        assert audit.published_form == "R(n+4) - 1"
        # The printed value overshoots the true sum by exactly one, always.
        for row in audit.rows:
            assert row.published_value - row.direct_sum == 1

    def test_rows_carry_direct_sums(self):
        audit = audit_closed_form_identity("perrin", 10)
        oracle = oracle_builtin("perrin", 10)
        assert [row.direct_sum for row in audit.rows] == [
            sum(oracle[:n]) for n in range(1, 11)
        ]

    def test_custom_unsupported(self):
        with pytest.raises(UnsupportedSequence):
            audit_closed_form_identity(RecurrenceSpec((1,), (1,)), 5)

    def test_n_max_must_be_positive(self):
        with pytest.raises(ValueError, match="n_max must be positive"):
            audit_closed_form_identity("pell", 0)
