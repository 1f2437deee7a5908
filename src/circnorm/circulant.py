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

from dataclasses import dataclass, field
from operator import index as _as_int
from typing import Sequence

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

    max_entry is the largest entry, found once at construction; every guard
    and to_dense compare it. When the last entry is below 2**53 (the dft
    guard, so every reader of the array is behind it), the row is also
    converted once to a read-only int64 array, which the dft and power
    routes and eigenvalues_dft share, and the nonnegativity check and
    max_entry are taken from it in C. A row with no array (its last entry
    reaches 2**53, or an entry lies outside int64) is checked by Python
    passes instead. Equality, hash and repr use first_row only.
    """

    first_row: tuple[int, ...]
    max_entry: int = field(init=False, repr=False, compare=False)
    _int64_row: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        row = tuple(map(_as_int, self.first_row))
        object.__setattr__(self, "first_row", row)
        if not row:
            raise ValueError("circulant matrix needs at least one entry")
        array = None
        # Recurrence rows grow, so a last entry past the readers' bound skips the attempt.
        if row[-1] < EXACT_DOUBLE_BOUND:
            try:
                array = np.fromiter(row, np.int64, len(row))
            except OverflowError:
                pass
        if array is None:
            low, high = min(row), max(row)
        else:
            array.flags.writeable = False
            low, high = array.min(), int(array.max())
        if low < 0:
            i = next(i for i, c in enumerate(row) if c < 0)
            bits = row[i].bit_length()  # past 4300 digits an int has no str()
            raise NegativeEntry(f"first row entry at index {i} is negative, of {bits} bits")
        object.__setattr__(self, "max_entry", high)
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

    Raises NegativeEntry if any of the first n terms is negative, which
    can happen for custom recurrences; the four builtins are nonnegative
    everywhere.
    """
    return CirculantMatrix(prefix(seq, n))


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
    arithmetic. The zero vector certifies that every row sums to the
    entry sum, i.e. that the entry sum is an eigenvalue with the
    all-ones eigenvector.
    """
    total = sum(matrix.first_row)
    ones = [1] * matrix.order
    return [y - total for y in matvec_naive(matrix, ones)]
