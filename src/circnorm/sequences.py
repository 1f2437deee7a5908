"""Exact integer linear-recurrence sequences and their partial sums.

Everything here runs on Python's unbounded integers, so terms and sums
are exact at any index (Fibonacci-class growth leaves 64-bit range near
n = 93, and the identity checks below are meaningful only when exact).
All functions are pure and RecurrenceSpec is immutable, so values can
be shared freely across threads.

There are two ways to get terms. prefix lists t(0), ..., t(n-1) in one
linear pass and is what circulant rows and direct sums are built from;
the pass is a chain of C-level iterators (islice, map) that reads the
list as list.extend grows it, so no Python bytecode runs per term.
term jumps straight to one index by polynomial exponentiation (C. M.
Fiduccia, SIAM J. Comput. 14(1), 1985) in O(k**2 log n) multiplications,
and each further consecutive term costs one multiply by x of the same
polynomial. So closed_form_sum at one n, which reads at most three
consecutive terms, costs one exponentiation of O(log n) products rather
than a walk from t(0); the closed forms for every n in lo..hi (what
verify checks) come from one such exponentiation and one multiply by x
per further n. Neither reads prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, mul, sub
from operator import index as _as_int
from typing import NamedTuple, Union

from .errors import UnsupportedSequence

__all__ = [
    "RecurrenceSpec",
    "SequenceId",
    "FIBONACCI",
    "LUCAS",
    "PELL",
    "PERRIN",
    "BUILTIN_SEQUENCES",
    "resolve",
    "term",
    "prefix",
    "prefix_sum",
    "closed_form_sum",
    "audit_closed_form_identity",
    "AuditRow",
    "IdentityAudit",
]


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order-k integer recurrence t(n) = a1*t(n-1) + ... + ak*t(n-k).

    ``coefficients`` holds (a1, ..., ak) and ``initial_terms`` holds
    (t(0), ..., t(k-1)); indexing is zero-based throughout. Terms may be
    negative or zero here; nonnegativity is enforced only where a
    circulant matrix is built from the sequence.
    """

    coefficients: tuple[int, ...]
    initial_terms: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(_as_int(a) for a in self.coefficients)
        init = tuple(_as_int(t) for t in self.initial_terms)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "initial_terms", init)
        if not coeffs:
            raise ValueError("recurrence order must be at least 1")
        if len(init) != len(coeffs):
            raise ValueError(
                f"need exactly {len(coeffs)} initial terms, got {len(init)}"
            )

    @property
    def order(self) -> int:
        return len(self.coefficients)


FIBONACCI = RecurrenceSpec((1, 1), (0, 1))
LUCAS = RecurrenceSpec((1, 1), (2, 1))
PELL = RecurrenceSpec((2, 1), (0, 1))
PERRIN = RecurrenceSpec((0, 1, 1), (3, 0, 2))

BUILTIN_SEQUENCES: dict[str, RecurrenceSpec] = {
    "fibonacci": FIBONACCI,
    "lucas": LUCAS,
    "pell": PELL,
    "perrin": PERRIN,
}

# Partial-sum identities, sum_{i<n} t(i) = (form(s, n) - c) / divisor, per
# builtin: (the identity as usually published, the constant c that
# closed_form_sum ships, divisor, the sequence whose terms s maps an index
# to, the offsets from n of the first and last index the form reads, form).
# Every published form has c = 1.
_SUM_IDENTITIES = {
    "fibonacci": ("F(n+1) - 1", 1, 1, "fibonacci", (1, 1), lambda s, n: s(n + 1)),
    "lucas": ("F(n+2) + F(n) - 1", 1, 1, "fibonacci", (0, 2), lambda s, n: s(n + 2) + s(n)),
    "pell": ("(P(n) + P(n-1) - 1) / 2", 1, 2, "pell", (-1, 0), lambda s, n: s(n) + s(n - 1)),
    "perrin": ("R(n+4) - 1", 2, 1, "perrin", (4, 4), lambda s, n: s(n + 4)),
}

#: A sequence is either a builtin name ("fibonacci", "lucas", "pell",
#: "perrin") or an explicit custom RecurrenceSpec.
SequenceId = Union[str, RecurrenceSpec]


def resolve(seq: SequenceId) -> RecurrenceSpec:
    """Map a builtin name or explicit RecurrenceSpec to the spec itself."""
    if isinstance(seq, RecurrenceSpec):
        return seq
    if isinstance(seq, str):
        try:
            return BUILTIN_SEQUENCES[seq.lower()]
        except KeyError:
            pass
    raise UnsupportedSequence(
        f"unknown sequence {seq!r}; expected one of {sorted(BUILTIN_SEQUENCES)} "
        "or a RecurrenceSpec"
    )


def _square_mod(r: list[int], taps: list[tuple[int, int]]) -> list[int]:
    """r(x)**2 mod x**k - a1*x**(k-1) - ... - ak, as k coefficients (k = len(r)).

    ``taps`` lists the nonzero (j, a_j); polynomials are coefficient lists,
    lowest degree first.
    """
    k = len(r)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(r):
        if x:
            for j, y in enumerate(r):
                prod[i + j] += x * y
    # x**d = sum_j a_j x**(d-j) for d >= k; fold from the top down.
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            for j, a in taps:
                prod[d - j] += c if a == 1 else a * c
    return prod[:k]


def _times_x(r: list[int], taps: list[tuple[int, int]]) -> None:
    """r(x) * x mod the characteristic polynomial, in place: shift up, fold x**k."""
    top = r.pop()
    r.insert(0, 0)
    k = len(r)
    for j, a in taps:
        r[k - j] += a * top


def _window(spec: RecurrenceSpec, m: int, width: int) -> list[int]:
    """[t(m), ..., t(m + width - 1)] from one polynomial exponentiation.

    Fiduccia's method: r(x) = x**m mod (x**k - a1*x**(k-1) - ... - ak) by
    square-and-multiply, then t(m) = sum_i r_i * t(i). That is O(log m)
    polynomial products of O(k**2) big-integer multiplications each, for
    every recurrence (any order, zero or negative coefficients). Each
    further term multiplies r by x once more, at O(k) multiplications.
    """
    taps = [(j, a) for j, a in enumerate(spec.coefficients, start=1) if a]
    r = [1] + [0] * (spec.order - 1)
    for bit in bin(m)[2:]:
        r = _square_mod(r, taps)
        if bit == "1":
            _times_x(r, taps)
    window = [sum(map(mul, r, spec.initial_terms))]
    for _ in range(width - 1):
        _times_x(r, taps)
        window.append(sum(map(mul, r, spec.initial_terms)))
    return window


def term(seq: SequenceId, n: int) -> int:
    """Exact n-th term (zero-based); for n < order this is an initial term.

    The one-term case of _window: O(log n) polynomial products by
    Fiduccia's method, with no walk from t(0).
    """
    if n < 0:
        raise ValueError("term index must be nonnegative")
    return _window(resolve(seq), n, 1)[0]


def prefix(seq: SequenceId, n: int) -> list[int]:
    """First n terms [t(0), ..., t(n-1)], generated in one linear pass.

    The terms past the k initial ones come from one chain of C iterators
    over the list itself: for each nonzero coefficient a_j,
    islice(terms, k - j, None) yields t(i - j) for i = k, k + 1, ....
    The first tap is wrapped in map(mul, repeat(a_j), ...) when a_j != 1.
    Each later tap is joined on by map(add, ...) when a_j > 0 and by
    map(sub, ...) when a_j < 0, wrapped in map(mul, repeat(|a_j|), ...)
    when |a_j| != 1; terms.extend appends the stream. This relies on two
    things list does: extend appends the items of an iterator one at a
    time, and a list iterator compares its index with the list's current
    length, so each lag reads t(i - j), already in the list when t(i) is
    asked for, and never runs off its end. Each new term costs one
    big-integer addition or subtraction per nonzero coefficient after the
    first, plus a multiplication where the coefficient is not 1 (nor, after
    the first tap, -1). With every coefficient 0, the terms past the
    initial ones are 0.
    """
    if n < 1:
        raise ValueError("term count must be positive")
    spec = resolve(seq)
    k = spec.order
    terms = list(spec.initial_terms[:n])
    if n <= k:
        return terms
    stream = None
    for j, a in enumerate(spec.coefficients, start=1):
        if a:
            lag = islice(terms, k - j, None)  # t(i - j) for i = k, k + 1, ...
            join = add
            if a < 0 and stream is not None:  # subtract |a| * t(i - j)
                join, a = sub, -a
            if a != 1:
                lag = map(mul, repeat(a), lag)
            stream = lag if stream is None else map(join, stream, lag)
    terms.extend(repeat(0, n - k) if stream is None else islice(stream, n - k))
    return terms


def prefix_sum(seq: SequenceId, n: int) -> int:
    """Exact sum of the first n terms.

    This direct summation is the oracle the closed forms are checked
    against; it never goes through floating point.
    """
    return sum(prefix(seq, n))


def _decimal(x: int) -> str:
    """Exact decimal digits of x, also past str()'s limit (4300 digits by default)."""
    try:
        return str(x)
    except ValueError:  # Decimal is exact at any size and leaves the limit as it is
        from decimal import Decimal  # here, so neither import circnorm nor the CLI loads it
        return str(Decimal(x))


def _from_decimal(text: str) -> int:
    """int(text) for ASCII text, also past int()'s limit on decimal digits (4300 by default).

    int() also reads non-ASCII digits and whitespace; they raise ValueError here.
    """
    if not text.isascii():
        raise ValueError(f"non-ASCII characters in {text!r}")
    try:
        return int(text)
    except ValueError:
        import re  # local, as Decimal is: only this fallback needs them
        if not re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text, re.ASCII):
            raise
        from decimal import Decimal  # exact at any size; leaves the limit as it is
        return int(Decimal(text))


def _builtin_name(seq: SequenceId) -> str:
    """Lower-case builtin name; UnsupportedSequence for anything else."""
    if isinstance(seq, RecurrenceSpec):
        raise UnsupportedSequence("no closed-form sum for custom recurrence specs")
    resolve(seq)  # raises UnsupportedSequence for an unknown name
    return seq.lower()


def closed_form_sum(seq: SequenceId, n: int) -> int:
    """Partial-sum value by closed form; equals prefix_sum on every builtin.

    The forms are the identities as usually published: F(n+1) - 1,
    F(n+2) + F(n) - 1 (equivalently L(n+1) - 1) and (P(n) + P(n-1) - 1) / 2.
    Perrin ships R(n+4) - 2: the identity as usually published,
    R(n+4) - 1, overshoots direct summation by exactly one at every n
    (run audit_closed_form_identity to see this per n). The value is the
    one-index case of _closed_forms: one polynomial exponentiation, O(log n)
    big-integer products, yields the two or three consecutive terms the
    form reads; no prefix is generated.

    Raises UnsupportedSequence for custom recurrence specs.
    """
    if n < 1:
        raise ValueError("term count must be positive")
    return _closed_forms(_builtin_name(seq), n, n)[0]


def _closed_forms(name: str, lo: int, hi: int) -> list[int]:
    """closed_form_sum(name, n) for n = lo, ..., hi, from one _window walk.

    The forms for lo..hi read terms lo + first through hi + last of one
    sequence, so one exponentiation reaches the first of them and each
    further n costs one multiply by x: O(log lo + (hi - lo)) polynomial
    products in all, for 1 <= lo <= hi and a lower-case builtin name.
    """
    _, constant, divisor, source, (first, last), form = _SUM_IDENTITIES[name]
    start = lo + first
    window = _window(BUILTIN_SEQUENCES[source], start, hi - lo + last - first + 1)
    s = lambda i: window[i - start]
    values = []
    for n in range(lo, hi + 1):
        value, rem = divmod(form(s, n) - constant, divisor)
        if rem:  # unreachable: Pell parities alternate, so the numerator is even
            raise ArithmeticError("Pell closed form produced an odd numerator")
        values.append(value)
    return values


class AuditRow(NamedTuple):
    """One audited index: published formula value vs direct summation."""

    n: int
    published_value: int
    direct_sum: int
    matches: bool


class IdentityAudit(NamedTuple):
    """Per-n comparison of a published sum identity with direct summation.

    An immutable named tuple, like AuditRow.
    """

    sequence: str
    published_form: str
    rows: tuple[AuditRow, ...]

    @property
    def match_count(self) -> int:
        return sum(1 for row in self.rows if row.matches)

    @property
    def all_match(self) -> bool:
        return self.match_count == len(self.rows)


def audit_closed_form_identity(seq: SequenceId, n_max: int) -> IdentityAudit:
    """Evaluate the published partial-sum identity for 1 <= n <= n_max.

    The published forms for fibonacci, lucas and pell hold everywhere.
    The Perrin identity as usually published, sum = R(n+4) - 1, fails at
    every n; the constant must be 2, which is what closed_form_sum
    ships. The audit keeps the published form verbatim so the mismatch
    stays visible.
    """
    return _audit(seq, n_max)[0]


def _audit(seq: SequenceId, n_max: int) -> tuple[IdentityAudit, list[int]]:
    """audit_closed_form_identity(seq, n_max) and the prefix its direct sums read.

    That prefix holds the sequence's own first n_max terms or more, so
    verify slices its circulants from it rather than generating them again.
    Where the identity reads the sequence itself, it is the one prefix the
    audit generates, n_max + last + 1 terms long; lucas's identity reads a
    Fibonacci prefix, so its audit also generates n_max Lucas terms.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    name = _builtin_name(seq)
    published, _, divisor, source, (_, last), form = _SUM_IDENTITIES[name]
    terms = prefix(source, n_max + last + 1)
    own = terms if source == name else prefix(name, n_max)

    rows = []
    running = 0
    for n in range(1, n_max + 1):
        running += own[n - 1]
        value, rem = divmod(form(terms.__getitem__, n) - 1, divisor)
        rows.append(AuditRow(n, value, running, rem == 0 and value == running))
    return IdentityAudit(name, published, tuple(rows)), own
