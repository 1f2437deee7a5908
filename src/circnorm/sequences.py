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
so closed_form_sum, which needs only a term or two, costs O(log n)
products rather than a walk from t(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, mul
from operator import index as _as_int
from typing import Union

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

# Partial-sum identities, sum_{i<n} t(i) = (form(t, f, n) - c) / divisor,
# per builtin: (the identity as usually published, the constant c that
# closed_form_sum ships, divisor, form). t and f map an index to a term of
# the sequence itself and of Fibonacci. Every published form has c = 1.
_SUM_IDENTITIES = {
    "fibonacci": ("F(n+1) - 1", 1, 1, lambda t, f, n: f(n + 1)),
    "lucas": ("F(n+2) + F(n) - 1", 1, 1, lambda t, f, n: f(n + 2) + f(n)),
    "pell": ("(P(n) + P(n-1) - 1) / 2", 1, 2, lambda t, f, n: t(n) + t(n - 1)),
    "perrin": ("R(n+4) - 1", 2, 1, lambda t, f, n: t(n + 4)),
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


def term(seq: SequenceId, n: int) -> int:
    """Exact n-th term (zero-based); for n < order this is an initial term.

    Fiduccia's method: r(x) = x**n mod (x**k - a1*x**(k-1) - ... - ak) by
    square-and-multiply, then t(n) = sum_i r_i * t(i). That is O(log n)
    polynomial products of O(k**2) big-integer multiplications each, for
    every recurrence (any order, zero or negative coefficients).
    """
    if n < 0:
        raise ValueError("term index must be nonnegative")
    spec = resolve(seq)
    k = spec.order
    if n < k:
        return spec.initial_terms[n]
    taps = [(j, a) for j, a in enumerate(spec.coefficients, start=1) if a]
    r = [1] + [0] * (k - 1)
    for bit in bin(n)[2:]:
        r = _square_mod(r, taps)
        if bit == "1":  # multiply by x: shift up, fold the x**k coefficient
            top = r.pop()
            r.insert(0, 0)
            for j, a in taps:
                r[k - j] += a * top
    return sum(c * t for c, t in zip(r, spec.initial_terms))


def prefix(seq: SequenceId, n: int) -> list[int]:
    """First n terms [t(0), ..., t(n-1)], generated in one linear pass.

    The terms past the k initial ones come from one chain of C iterators
    over the list itself: for each nonzero coefficient a_j,
    islice(terms, k - j, None) yields t(i - j) for i = k, k + 1, ...,
    wrapped in map(mul, repeat(a_j), ...) when a_j != 1; the taps are
    joined by map(add, ...), and terms.extend appends the stream. This
    relies on two things list does: extend appends the items of an
    iterator one at a time, and a list iterator compares its index with
    the list's current length, so each lag reads t(i - j), already in the
    list when t(i) is asked for, and never runs off its end. Each new term
    costs one big-integer addition per nonzero coefficient after the
    first, plus a multiplication where the coefficient is not 1. With
    every coefficient 0, the terms past the initial ones are 0.
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
            if a != 1:
                lag = map(mul, repeat(a), lag)
            stream = lag if stream is None else map(add, stream, lag)
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
    (run audit_closed_form_identity to see this per n).

    Raises UnsupportedSequence for custom recurrence specs.
    """
    if n < 1:
        raise ValueError("term count must be positive")
    name = _builtin_name(seq)
    _, constant, divisor, form = _SUM_IDENTITIES[name]
    spec = BUILTIN_SEQUENCES[name]
    numerator = form(lambda i: term(spec, i), lambda i: term(FIBONACCI, i), n)
    value, rem = divmod(numerator - constant, divisor)
    if rem:  # unreachable: Pell parities alternate, so the numerator is even
        raise ArithmeticError("Pell closed form produced an odd numerator")
    return value


@dataclass(frozen=True)
class AuditRow:
    """One audited index: published formula value vs direct summation."""

    n: int
    published_value: int
    direct_sum: int
    matches: bool


@dataclass(frozen=True)
class IdentityAudit:
    """Per-n comparison of a published sum identity with direct summation."""

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
    if n_max < 1:
        raise ValueError("n_max must be positive")
    name = _builtin_name(seq)
    published, _, divisor, form = _SUM_IDENTITIES[name]
    # Index reach per formula: F(n+2) for lucas, P(n) for pell, R(n+4) for perrin.
    own = prefix(name, n_max + 5)
    fib = prefix(FIBONACCI, n_max + 3) if name == "lucas" else own

    rows = []
    running = 0
    for n in range(1, n_max + 1):
        running += own[n - 1]
        value, rem = divmod(form(own.__getitem__, fib.__getitem__, n) - 1, divisor)
        rows.append(
            AuditRow(
                n=n,
                published_value=value,
                direct_sum=running,
                matches=rem == 0 and value == running,
            )
        )
    return IdentityAudit(sequence=name, published_form=published, rows=tuple(rows))
