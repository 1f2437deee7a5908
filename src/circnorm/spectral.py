"""Spectral norm of a nonnegative circulant by three independent routes.

A circulant commutes with its transpose, so its 2-norm equals its
spectral radius; with nonnegative entries the zero-frequency eigenvalue
(the plain row sum) has the largest modulus by the triangle inequality.
spectral_norm_sum returns that row sum exactly, while spectral_norm_dft
and spectral_norm_power recompute the same number through diagonalization
and through a dense Gram power iteration, so the three can be
cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .circulant import CirculantMatrix, eigenvalues_dft, to_dense
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
#: entries is below 2**52, and the Gram matrix is formed from them
#: exactly (float64 or int64, see circulant.to_dense). A Gram entry sums
#: n such products, so it can pass 2**53; it then rounds once, to within
#: relative 2**-53, on conversion to float64.
GRAM_SAFE_BOUND = 2**26

#: Order budget for the power path, whose dense matrix and Gram take
#: O(n**2) memory and O(n**3) time. With entries below GRAM_SAFE_BOUND
#: and n <= 2**9, n * max**2 < 2**61, so to_dense picks float64 or int64
#: and the Gram cannot overflow. numpy's int64 matmul is an unblocked
#: loop, so the int64 Gram is the costlier one: on a 2-core x86-64 host
#: it took 0.50 s at n = 512 and 7.1 s at n = 1024 (float64: 0.02 s and
#: 0.04 s).
DENSE_ORDER_LIMIT = 512

METHOD_NAMES = ("sum", "dft", "power")


def spectral_norm_sum(matrix: CirculantMatrix) -> int:
    """Exact spectral norm of a nonnegative circulant: the first-row sum."""
    return sum(matrix.first_row)


def spectral_norm_dft(matrix: CirculantMatrix) -> float:
    """Spectral norm via diagonalization: max_k |lambda_k| over the DFT eigenvalues.

    Norm equals spectral radius because a circulant is normal (it
    commutes with its transpose). For nonnegative rows the maximum is
    attained at k = 0, where the eigenvalue is real and equals the entry
    sum. Raises PrecisionLoss when an entry reaches 2**53.
    """
    return float(np.abs(eigenvalues_dft(matrix).values).max())


#: The same function under the name of what it computes.
spectral_radius = spectral_norm_dft


@dataclass(frozen=True)
class ConvergenceRecord:
    """Outcome of a power iteration: step count, final residual, flag."""

    iterations: int
    residual: float
    converged: bool


def spectral_norm_power(
    matrix: CirculantMatrix,
    rel_tol: float = 1e-8,
    max_iter: int | None = None,
) -> tuple[float, ConvergenceRecord]:
    """Spectral norm as sqrt of the dominant eigenvalue of G = A^T A.

    G is formed exactly, in float64 or int64 (see to_dense), and converted
    to float64, where an entry past 2**53 rounds once, to within relative
    2**-53 (see GRAM_SAFE_BOUND). The all-ones seed is an exact eigenvector
    of every circulant's Gram, so a run stops after 2 iterations: the route
    checks the exact Gram and its float64 conversion, not that lambda_0
    dominates. Convergence requires both conditions at once:

      * relative change of the Rayleigh quotient below rel_tol, and
      * residual ||G v - theta v|| / theta below 10 * rel_tol,

    since Rayleigh stagnation alone can mask slow progress under
    eigenvalue ties. If max_iter (default 50 * n + 1000) is exhausted
    first, the best estimate is returned with converged=False rather
    than raising.

    Raises PrecisionLoss when an entry reaches 2**26, then
    DenseBudgetExceeded when the order passes DENSE_ORDER_LIMIT. Within
    both, n * max**2 < 2**61.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    n = matrix.order
    if max_iter is None:
        max_iter = 50 * n + 1000
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
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
        return 0.0, ConvergenceRecord(iterations=0, residual=0.0, converged=True)

    dense = to_dense(matrix)
    gram = (dense.T @ dense).astype(np.float64)
    v = np.full(n, 1.0 / math.sqrt(n))
    theta = 0.0
    theta_prev = None
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        w = gram @ v
        theta = float(v @ w)
        residual = float(np.linalg.norm(w - theta * v)) / theta
        if (
            theta_prev is not None
            and abs(theta - theta_prev) <= rel_tol * theta
            and residual <= 10 * rel_tol
        ):
            return math.sqrt(theta), ConvergenceRecord(iteration, residual, True)
        theta_prev = theta
        v = w / np.linalg.norm(w)
    return math.sqrt(theta), ConvergenceRecord(max_iter, residual, False)


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


def run_method(
    matrix: CirculantMatrix, method: str, rel_tol: float = 1e-8
) -> MethodResult:
    """Run one norm method on one matrix behind its entry guard.

    A method whose route raises PrecisionLoss (dft needs entries below
    2**53, power below 2**26) is skipped: its value is None and its note
    names the bound. So is power past DENSE_ORDER_LIMIT, whose note names
    that limit. The sum's float value is inf past the float64 range.
    Power runs under spectral_norm_power's default iteration cap; a run
    that exhausts it keeps its estimate and says so in the note. Raises
    ValueError for a method not in METHOD_NAMES.
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
        value, record = spectral_norm_power(matrix, rel_tol=rel_tol)
    except PrecisionLoss:
        bound = "2**53" if method == "dft" else "2**26"
        return MethodResult(method, None, note=f"skipped: entries reach {bound}")
    except DenseBudgetExceeded:
        return MethodResult(
            method, None, note=f"skipped: order exceeds {DENSE_ORDER_LIMIT}"
        )
    note = None
    if not record.converged:
        note = f"no convergence after {record.iterations} iterations"
    return MethodResult("power", value, note=note)


def norm_report(
    order: int, results: Sequence[MethodResult], rel_tol: float
) -> NormReport:
    """Cross-check the values of results against each other.

    Skipped methods (value None) take no part. The pairwise gap divides
    by max(values, 1), so the all-zero matrix agrees trivially, and
    agrees is gap <= rel_tol.
    """
    values = [r.value for r in results if r.value is not None]
    gap = 0.0
    if len(values) >= 2:
        denom = max(max(values), 1.0)
        gap = max(abs(a - b) for a, b in combinations(values, 2)) / denom
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
    violated is skipped and marked in its note instead of raising, as
    is a power run that fails to converge within spectral_norm_power's
    default iteration cap. norm_report then computes the pairwise gap and
    the agrees flag. Duplicate method names run once; unknown ones raise
    ValueError before anything runs.
    """
    wanted = list(dict.fromkeys(methods))
    unknown = [m for m in wanted if m not in METHOD_NAMES]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected subset of {METHOD_NAMES}")
    results = [run_method(matrix, m, rel_tol=rel_tol) for m in wanted]
    return norm_report(matrix.order, results, rel_tol)
