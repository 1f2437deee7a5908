"""Shared brute-force oracles, kept independent of the library code paths.

The sequence oracle appends every term to a plain list straight from the
recurrence, where the library's term jumps to one index by polynomial
exponentiation; the circulant oracles build the dense matrix from
the entry law and multiply with explicit loops; the transform oracle
evaluates the defining O(n^2) sums with cmath. Tests freeze expected
values computed by these, then check the fast paths against them.
"""

import cmath

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
