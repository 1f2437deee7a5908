"""Shared brute-force oracles, kept independent of the library code paths.

The sequence oracle appends every term to a plain list straight from the
recurrence, where the library's term jumps to one index by polynomial
exponentiation; the circulant oracles build the dense matrix from
the entry law and multiply with explicit loops (the Gram oracle forms
the whole product D^T D, where the library forms one row of it); the
transform oracle evaluates the defining O(n^2) sums with cmath. Tests
freeze expected values computed by these, then check the fast paths
against them.
"""

import cmath

import numpy as np
import pytest


def oracle_terms(coefficients, initial_terms, count):
    """First `count` terms of t(n) = a1 t(n-1) + ... + ak t(n-k), exactly."""
    terms = list(initial_terms)
    k = len(coefficients)
    while len(terms) < count:
        terms.append(sum(a * t for a, t in zip(coefficients, terms[-1:-k - 1:-1])))
    return terms[:count]


ORACLE_RECURRENCES = {
    "fibonacci": ((1, 1), (0, 1)),
    "lucas": ((1, 1), (2, 1)),
    "pell": ((2, 1), (0, 1)),
    "perrin": ((0, 1, 1), (3, 0, 2)),
}


def oracle_builtin(name, count):
    coeffs, init = ORACLE_RECURRENCES[name]
    return oracle_terms(coeffs, init, count)


def oracle_dense(first_row):
    """Dense circulant rows by the entry law dense[i][j] = c[(j - i) % n]."""
    n = len(first_row)
    return [[first_row[(j - i) % n] for j in range(n)] for i in range(n)]


def oracle_gram(first_row):
    """Exact Gram D^T D of D = oracle_dense(first_row), as Python ints.

    The entries must be below 2**26. Each splits as 2**13 * hi + lo with
    hi, lo < 2**13. An entry of a float64 product of two such parts sums n
    products below 2**26, so it is exact while n < 2**27, and the four
    products combine exactly in Python ints.
    """
    dense = np.array(oracle_dense(first_row), dtype=np.int64)
    assert dense.max() < 2**26 and len(first_row) < 2**27
    hi, lo = (dense >> 13).astype(np.float64), (dense & 8191).astype(np.float64)
    products = [
        p.astype(np.int64).tolist() for p in (hi.T @ hi, hi.T @ lo, lo.T @ hi, lo.T @ lo)
    ]
    return [
        [(hh << 26) + ((hl + lh) << 13) + ll for hh, hl, lh, ll in zip(*rows)]
        for rows in zip(*products)
    ]


def oracle_matvec(first_row, vector):
    dense = oracle_dense(first_row)
    n = len(vector)
    return [sum(dense[i][j] * vector[j] for j in range(n)) for i in range(n)]


def oracle_dft(first_row):
    """lambda_k = sum_j c_j exp(+2 pi i jk / n) by direct O(n^2) summation."""
    n = len(first_row)
    return [
        sum(c * cmath.exp(2j * cmath.pi * j * k / n) for j, c in enumerate(first_row))
        for k in range(n)
    ]


@pytest.fixture
def fib():
    return oracle_builtin("fibonacci", 250)
