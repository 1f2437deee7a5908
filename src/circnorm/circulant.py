"""First-row circulant matrices with exact integer entries.

The dense layout follows the classical convention: row i is the first
row cyclically right-shifted i places, i.e. dense[i][j] = c[(j - i) % n],
so the first column reads (c0, c(n-1), ..., c1) top to bottom.

Eigenvalues use the positive-sign Fourier convention

    lambda_k = sum_j c_j * w**(j*k),   w = exp(+2j*pi/n),

which makes lambda_0 the plain entry sum. The eigenvalue set of a real
circulant is conjugation-symmetric, so moduli (and hence the spectral
radius) do not depend on the sign convention, but tests need one fixed
choice and this is it.

Matrices and spectra are immutable after construction; every function
here is pure and safe to call concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from operator import index as _as_int
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionMismatch, NegativeEntry, PrecisionLoss
from .sequences import SequenceId, prefix

__all__ = [
    "EXACT_DOUBLE_BOUND",
    "CirculantMatrix",
    "Spectrum",
    "from_sequence",
    "to_dense",
    "matvec_naive",
    "matvec_fft",
    "eigenvalues_dft",
    "all_ones_eigencheck",
]

#: Integers with magnitude below this convert to float64 without rounding.
EXACT_DOUBLE_BOUND = 2**53


@dataclass(frozen=True)
class CirculantMatrix:
    """circ(c0, ..., c(n-1)) stored as its first row of nonnegative ints.

    The constructor maps each entry through operator.index, so numpy ints
    and bools become ints and floats raise TypeError. Rows that prefix
    generates skip that pass (see from_sequence): their entries are
    already exact ints. max_entry is the largest entry, found once at
    construction; every guard and to_dense compare it. entry_sum is the
    exact sum of the entries, also found once at construction, in Python
    ints (an int64 sum wraps past 2**63); spectral_norm_sum and
    all_ones_eigencheck read it. When the last entry is below 2**53 (the
    dft guard, so every reader of the array is behind it), the row is also
    converted once to a read-only int64 array, which the dft and power
    routes and eigenvalues_dft share. Then sign and
    max_entry come from one reduction, the maximum of the array's uint64
    view: a negative int64 reads there as 2**63 or more, and for a
    nonnegative row the view's maximum is the row's. A row with no array
    (its last entry reaches 2**53, or an entry lies outside int64) is
    checked by Python passes instead. Rows sliced from one prefix (verify
    and bench, through _nested) skip both: their arrays are read-only
    views of one array, and a running maximum and a running sum give
    max_entry and entry_sum. Equality, hash and repr use first_row only.
    """

    first_row: tuple[int, ...]
    max_entry: int = field(init=False, repr=False, compare=False)
    entry_sum: int = field(init=False, repr=False, compare=False)
    _int64_row: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._adopt(tuple(map(_as_int, self.first_row)))

    @classmethod
    def _of_ints(cls, row: Sequence[int], scanned: tuple | None = None) -> CirculantMatrix:
        """circ(row) for a row whose entries are all exact ints, with no operator.index pass."""
        matrix = object.__new__(cls)
        matrix._adopt(tuple(row), scanned)
        return matrix

    @classmethod
    def _nested(cls, terms: Sequence[int], orders: Iterable[int]) -> Iterator[CirculantMatrix]:
        """circ(terms[:n]) for each n in orders (1 <= n <= len(terms)), from one scan of terms.

        terms are exact ints. One read-only int64 array covers their leading
        run of entries in [0, 2**63), one running maximum gives every
        max_entry and one running sum, in Python ints, every entry_sum. So
        each order costs a tuple slice and O(1) more, where _adopt converts,
        reduces and sums the whole row. An order gets the view base[:n]
        exactly when _adopt would give it an array: its last entry
        is below 2**53 and every entry fits int64. A row with a negative
        entry raises NegativeEntry before its array is read, so the run
        stops at the first negative term. Rows are yielded lazily, so the
        orders before the first with a negative entry are still built.
        """
        row = tuple(terms)
        peaks = list(accumulate(row, max))
        sums = list(accumulate(row))
        negative_at = len(row)
        if min(row) < 0:
            negative_at = next(i for i, c in enumerate(row) if c < 0)
        run = min(negative_at, bisect_left(peaks, 2**63))
        base = np.fromiter(row, np.int64, run)
        base.flags.writeable = False
        for n in orders:
            array = base[:n] if n <= run and row[n - 1] < EXACT_DOUBLE_BOUND else None
            yield cls._of_ints(row[:n], (array, peaks[n - 1], sums[n - 1], n > negative_at))

    def _adopt(self, row: tuple[int, ...], scanned: tuple | None = None) -> None:
        """Store row, a tuple of exact ints, with its int64 array, max_entry and entry_sum.

        scanned, if given, is what the scan below finds for row: (its
        int64 array or None, max_entry, entry_sum, whether an entry is
        negative), as _nested precomputes it.
        """
        if not row:
            raise ValueError("circulant matrix needs at least one entry")
        object.__setattr__(self, "first_row", row)
        if scanned is not None:
            array, high, total, negative = scanned
        else:
            total = sum(row)
            array = None
            # Recurrence rows grow, so a last entry past the readers' bound skips the attempt.
            if row[-1] < EXACT_DOUBLE_BOUND:
                try:
                    array = np.fromiter(row, np.int64, len(row))
                except OverflowError:
                    pass
            if array is None:
                negative, high = min(row) < 0, max(row)
            else:
                array.flags.writeable = False
                high = int(array.view(np.uint64).max())
                negative = high >= 2**63
        if negative:
            i = next(i for i, c in enumerate(row) if c < 0)
            bits = row[i].bit_length()  # past 4300 digits an int has no str()
            raise NegativeEntry(f"first row entry at index {i} is negative, of {bits} bits")
        object.__setattr__(self, "max_entry", high)
        object.__setattr__(self, "entry_sum", total)
        object.__setattr__(self, "_int64_row", array)

    @property
    def order(self) -> int:
        return len(self.first_row)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues lambda_0, ..., lambda_(n-1) of a circulant (complex128)."""

    values: np.ndarray

    @property
    def order(self) -> int:
        return len(self.values)


def from_sequence(seq: SequenceId, n: int) -> CirculantMatrix:
    """circ(t(0), ..., t(n-1)) for the given sequence.

    The terms skip the constructor's operator.index pass, which on them is
    the identity: RecurrenceSpec passes every coefficient and initial term
    through operator.index, and sums and products of exact ints are exact
    ints. When the row gets its int64 array (its last term is below 2**53
    and every term fits int64), the sign check and max_entry take one
    reduction over the array's uint64 view; otherwise, as for fibonacci
    from n = 80, they take Python passes (see CirculantMatrix). entry_sum
    takes one Python sum either way. Raises NegativeEntry if any of the
    first n terms is negative, which can happen for custom recurrences;
    the four builtins are nonnegative everywhere.
    """
    return CirculantMatrix._of_ints(prefix(seq, n))


def _exact_dtype(matrix: CirculantMatrix) -> type:
    """The cheapest dtype in which the Gram of circ(first_row) is exact.

    Each Gram entry sums n products of two entries, so every partial sum,
    in any order, is a nonnegative integer at most n * max**2:

      * float64 when n * max**2 < 2**53: every partial sum is an integer
        that float64 holds exactly, so a BLAS product is exact;
      * int64 when n * max**2 < 2**63: no partial sum overflows;
      * object (Python ints) otherwise, exact at any magnitude.
    """
    peak = matrix.order * matrix.max_entry ** 2
    if peak < EXACT_DOUBLE_BOUND:
        return np.float64
    if peak < 2**63:
        return np.int64
    return object


def to_dense(matrix: CirculantMatrix) -> np.ndarray:
    """Dense n x n matrix with exact integer entries, dense[i, j] = c[(j - i) % n].

    The result is an owned, C-contiguous array, built in O(n**2), in
    _exact_dtype's dtype: the cheapest in which the Gram dense.T @ dense
    (and dense @ dense.T) is exact. The power route does not build it;
    it forms the Gram's first row from the row alone (see spectral._gram).
    Row i is the length-n window of the row written out twice that starts
    at n - i; the windows are read through one strided view and copied.
    """
    n = matrix.order
    c = np.array(matrix.first_row, dtype=_exact_dtype(matrix))
    doubled = np.concatenate((c, c))
    step = doubled.strides[0]
    return as_strided(doubled[n:], shape=(n, n), strides=(-step, step)).copy()


def matvec_naive(matrix: CirculantMatrix, vector: Sequence[int]) -> list[int]:
    """Exact product to_dense(matrix) @ vector in O(n^2).

    Works directly off the first row, never materializing the dense
    matrix; with integer input the result is exact at any size.
    """
    row = matrix.first_row
    n = len(row)
    if len(vector) != n:
        raise DimensionMismatch(
            f"vector has length {len(vector)}, matrix order is {n}"
        )
    return [
        sum(row[(j - i) % n] * vector[j] for j in range(n)) for i in range(n)
    ]


def _require_exact_double(values, what: str) -> None:
    for x in values:
        if isinstance(x, (int, np.integer)) and abs(int(x)) >= EXACT_DOUBLE_BOUND:
            bits = abs(int(x)).bit_length()  # past 4300 digits an int has no str()
            raise PrecisionLoss(
                f"{what} of {bits} bits; float64 holds every integer only below 2**53"
            )


def matvec_fft(matrix: CirculantMatrix, vector: Sequence[float]) -> np.ndarray:
    """Same product as matvec_naive via the FFT, in float64, O(n log n).

    The transform length is exactly n (mixed-radix, no padding). Each
    output component is within 1e-10 * sum(row) * max|v| of the exact
    product: a scale that bounds every exact component and, unlike the
    largest of them, cannot cancel to 0. The rounding error grows at most
    as log2(n) * sqrt(n) * 2**-53 of it (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 24.1); it stayed below 2e-16 of it on
    seeded rows up to order 20000 with near-zero-sum vectors.
    Raises PrecisionLoss for an integer input at or past 2**53 in
    magnitude; float64 holds every integer only below 2**53.
    """
    n = matrix.order
    if len(vector) != n:
        raise DimensionMismatch(
            f"vector has length {len(vector)}, matrix order is {n}"
        )
    eigenvalues = eigenvalues_dft(matrix).values
    _require_exact_double(vector, "vector entry")
    v = np.asarray(vector, dtype=np.float64)
    return np.fft.ifft(eigenvalues * np.fft.fft(v)).real


def eigenvalues_dft(matrix: CirculantMatrix) -> Spectrum:
    """All n eigenvalues lambda_k = sum_j c_j w^(jk), w = exp(+2j*pi/n).

    lambda_0 is the entry sum (exactly, up to float64 roundoff); the
    rest come in conjugate pairs since the entries are real. Raises
    PrecisionLoss when the largest entry is not below 2**53.
    """
    _require_exact_double((matrix.max_entry,), "matrix entry")
    # n * ifft realizes the positive-sign transform; below 2**53 the matrix holds its int64 row.
    return Spectrum(matrix.order * np.fft.ifft(matrix._int64_row))


def all_ones_eigencheck(matrix: CirculantMatrix) -> list[int]:
    """Exact residual of the all-ones eigenvector identity.

    Returns matvec_naive(matrix, ones) - entry_sum * ones in integer
    arithmetic, entry_sum being the one the matrix took at construction.
    The zero vector certifies that every row sums to the entry sum, i.e.
    that the entry sum is an eigenvalue with the all-ones eigenvector.
    """
    ones = [1] * matrix.order
    return [y - matrix.entry_sum for y in matvec_naive(matrix, ones)]
