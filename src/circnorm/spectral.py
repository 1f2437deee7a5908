"""Spectral norm of a nonnegative circulant by three independent routes.

A circulant commutes with its transpose, so its 2-norm equals its
spectral radius; with nonnegative entries the zero-frequency eigenvalue
(the plain row sum) has the largest modulus by the triangle inequality.
spectral_norm_sum returns that row sum exactly, while spectral_norm_dft
and spectral_norm_power recompute the same number through diagonalization
and through the Gram G = A^T A, so the three can be cross-checked against
each other. The dft route takes a real-input FFT of the row: the spectrum
of a real row is conjugate-symmetric, so its n // 2 + 1 values hold the
modulus of every eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circulant import CirculantMatrix, _exact_dtype, _require_exact_double
# Unused here; circbench's tracer patches spectral.to_dense and spectral.eigenvalues_dft.
from .circulant import eigenvalues_dft, to_dense
from .errors import DenseBudgetExceeded, PrecisionLoss

__all__ = [
    "GRAM_SAFE_BOUND",
    "DENSE_ORDER_LIMIT",
    "METHOD_NAMES",
    "ConvergenceRecord",
    "MethodResult",
    "NormReport",
    "spectral_norm_sum",
    "spectral_norm_dft",
    "spectral_norm_power",
    "spectral_radius",
    "run_method",
    "norm_report",
    "compare_methods",
]

#: Entry guard for the power path. Below 2**26 every product of two
#: entries is below 2**52, and the Gram's first row is formed from them
#: exactly (float64 or int64, see circulant._exact_dtype). A Gram entry sums
#: n such products, so it can pass 2**53; it then rounds once, to within
#: relative 2**-53, on conversion to float64.
GRAM_SAFE_BOUND = 2**26

#: Order limit for the power path. With entries below GRAM_SAFE_BOUND and
#: n <= 2**9, n * max**2 < 2**61, so the Gram's first row, formed from the
#: matrix row alone, fits float64 or int64 and no entry of it overflows.
DENSE_ORDER_LIMIT = 512

METHOD_NAMES = ("sum", "dft", "power")


def spectral_norm_sum(matrix: CirculantMatrix) -> int:
    """Exact spectral norm of a nonnegative circulant: the first-row sum."""
    return sum(matrix.first_row)


def spectral_norm_dft(matrix: CirculantMatrix) -> float:
    """Spectral norm via diagonalization: max_k |lambda_k| over the DFT eigenvalues.

    Norm equals spectral radius because a circulant is normal (it
    commutes with its transpose). The moduli come from a real-input FFT
    of the row, of length exactly n: for a real row c, rfft(c)_k is
    sum_j c_j exp(-2j*pi*jk/n) = conj(lambda_k) in the positive-sign
    convention of circulant, for k = 0, ..., n // 2, and
    lambda_(n-k) = conj(lambda_k). So those n // 2 + 1 values hold every
    |lambda_k|, and no 1/n scaling is applied or undone. For nonnegative
    rows the maximum is attained at k = 0, where the eigenvalue is real
    and equals the entry sum. Raises PrecisionLoss when an entry reaches
    2**53; below it the transform reads the matrix's int64 row (converted
    once, at construction), which converts to float64 exactly.
    """
    _require_exact_double((matrix.max_entry,), "matrix entry")
    return float(np.abs(np.fft.rfft(matrix._int64_row)).max())


#: The same function under the name of what it computes.
spectral_radius = spectral_norm_dft


def _gram(matrix: CirculantMatrix) -> np.ndarray:
    """First row g of G = A^T A, A = to_dense(matrix), in float64, from its exact form.

    G is itself a circulant, G[i, j] = g[(j - i) % n], and g = A[:, 0] @ A
    is the circular autocorrelation of the row c,
    g_k = sum_j c_j c_((j + k) % n). It is read off the row written out
    once and a half, in O(n**2), without building A. The row is the
    matrix's int64 row (converted once, at construction; callers keep
    entries below 2**26), cast to _exact_dtype's dtype unless it is int64.
    Each entry of g is one Gram entry, exact in that dtype in any summation
    order, and rounds once on conversion to float64.
    """
    c = matrix._int64_row.astype(_exact_dtype(matrix), copy=False)
    g = np.correlate(np.concatenate((c, c[:-1])), c, mode="valid")
    return g.astype(np.float64, copy=False)


@dataclass(frozen=True)
class ConvergenceRecord:
    """Step count and flag of the power route (circbench's tracer reads both)."""

    iterations: int
    converged: bool


# Every call returns one of these: the route takes one step, or none for the zero row.
_ONE_STEP = ConvergenceRecord(iterations=1, converged=True)
_NO_STEP = ConvergenceRecord(iterations=0, converged=True)


def spectral_norm_power(matrix: CirculantMatrix) -> tuple[float, ConvergenceRecord]:
    """Spectral norm as sqrt(lambda_max(G)), G = A^T A, from the Gram's first row.

    G is a nonnegative circulant, so every row is a rotation of its first
    row g and G 1 = (sum_k g_k) 1. A nonnegative matrix whose row sums all
    equal s has spectral radius s (Collatz-Wielandt; Horn & Johnson,
    Matrix Analysis, 2nd ed., 8.1), and G is symmetric positive
    semidefinite, so lambda_max(G) = ||A||_2**2 = sum_k g_k exactly. The
    route forms g (see _gram), in O(n**2) time and O(n) memory, and
    returns sqrt(theta), theta the float64 sum of g. Each entry of g is
    exact before it rounds once on conversion (see GRAM_SAFE_BOUND), and
    the n nonnegative terms are summed in float64, so theta is within
    relative n * 2**-52 of sum_k g_k (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 4.2). The record holds one iteration
    (0 for the zero matrix) and converged = True.

    Raises PrecisionLoss when an entry reaches 2**26, then
    DenseBudgetExceeded when the order passes DENSE_ORDER_LIMIT. Within
    both, n * max**2 < 2**61.
    """
    n = matrix.order
    if matrix.max_entry >= GRAM_SAFE_BOUND:
        raise PrecisionLoss(
            f"entry of {matrix.max_entry.bit_length()} bits is not below 2**26, "
            f"the bound that keeps n * max**2 < 2**61 up to order {DENSE_ORDER_LIMIT}"
        )
    if n > DENSE_ORDER_LIMIT:
        raise DenseBudgetExceeded(
            f"order {n} exceeds the dense power limit of {DENSE_ORDER_LIMIT}"
        )
    if matrix.max_entry == 0:
        return 0.0, _NO_STEP
    return math.sqrt(float(_gram(matrix).sum())), _ONE_STEP


@dataclass(frozen=True)
class MethodResult:
    """One method's norm value; value is None when skipped or failed."""

    method: str
    value: float | None
    exact_value: int | None = None
    note: str | None = None


@dataclass(frozen=True)
class NormReport:
    """Per-method norm values with their mutual agreement diagnostics."""

    order: int
    methods: tuple[MethodResult, ...]
    max_pairwise_relative_gap: float
    rel_tol: float
    agrees: bool


def run_method(matrix: CirculantMatrix, method: str) -> MethodResult:
    """Run one norm method on one matrix behind its entry guard.

    A method whose route raises PrecisionLoss (dft needs entries below
    2**53, power below 2**26) is skipped: its value is None and its note
    names the bound. So is power past DENSE_ORDER_LIMIT, whose note names
    that limit. The sum's float value is inf past the float64 range.
    Power carries no note when it runs. Raises ValueError for a method not
    in METHOD_NAMES.
    """
    if method == "sum":
        exact = spectral_norm_sum(matrix)
        try:
            value = float(exact)
        except OverflowError:
            value = math.inf
        return MethodResult("sum", value, exact_value=exact)
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    try:
        if method == "dft":
            return MethodResult("dft", spectral_norm_dft(matrix))
        value, _ = spectral_norm_power(matrix)
    except PrecisionLoss:
        bound = "2**53" if method == "dft" else "2**26"
        return MethodResult(method, None, note=f"skipped: entries reach {bound}")
    except DenseBudgetExceeded:
        return MethodResult(
            method, None, note=f"skipped: order exceeds {DENSE_ORDER_LIMIT}"
        )
    return MethodResult("power", value)


def norm_report(
    order: int, results: Sequence[MethodResult], rel_tol: float
) -> NormReport:
    """Cross-check the values of results against each other.

    Skipped methods (value None) take no part. The gap is the largest
    pairwise |a - b|, divided by max(values, 1), so the all-zero matrix
    agrees trivially, and agrees is gap <= rel_tol. The largest pairwise
    difference is max(values) - min(values): for a >= b >= c exactly
    a - c >= a - b, and float64 rounding is monotone, so the rounded
    max - min is never below any rounded pairwise difference. The two
    forms differ only when two or more values are infinite (inf - inf is
    nan), which no report holds: only the sum route's value can be inf.
    """
    values = [r.value for r in results if r.value is not None]
    gap = 0.0
    if len(values) >= 2:
        denom = max(max(values), 1.0)
        gap = (max(values) - min(values)) / denom
    return NormReport(
        order=order,
        methods=tuple(results),
        max_pairwise_relative_gap=gap,
        rel_tol=rel_tol,
        agrees=gap <= rel_tol,
    )


def compare_methods(
    matrix: CirculantMatrix,
    rel_tol: float = 1e-8,
    methods: Sequence[str] = METHOD_NAMES,
) -> NormReport:
    """Run the requested norm methods and report their mutual agreement.

    Each method goes through run_method, so one whose entry guard is
    violated is skipped and marked in its note instead of raising. The
    Gram's first row g sums to (sum c)**2, each product c_i c_j falling in
    exactly one lag, so power checks _gram only up to that total; TestGram
    (tests/test_spectral.py) checks g itself against the exact Gram.
    norm_report then computes the pairwise gap and the agrees flag.
    Duplicate method names run once; unknown ones, and a rel_tol that is
    not positive, raise ValueError before anything runs.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    wanted = list(dict.fromkeys(methods))
    unknown = [m for m in wanted if m not in METHOD_NAMES]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected subset of {METHOD_NAMES}")
    results = [run_method(matrix, m) for m in wanted]
    return norm_report(matrix.order, results, rel_tol)
