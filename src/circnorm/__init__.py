"""Circulant matrices over integer recurrence sequences and their spectral norms.

The library builds circ(t(0), ..., t(n-1)) from exact integer
linear-recurrence sequences and computes the spectral norm three
independent ways: the exact first-row sum, DFT diagonalization, and the
square root of the row sum of the Gram A^T A, formed from its first row.
That Gram is a nonnegative circulant whose rows all have the same sum,
so the sum is its largest eigenvalue (Collatz-Wielandt). The routes
cross-validate each other, along with the classical partial-sum
identities for the Fibonacci, Lucas, Pell and Perrin sequences.

Importing the package loads none of its submodules. Every public name
is read, on each access, from the submodule whose __all__ lists it:
errors and sequences are searched first, so their names load no numpy;
numpy loads with the first circulant or spectral name.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SEQUENCES",
    "CirculantMatrix",
    "CircnormError",
    "DimensionMismatch",
    "EXACT_DOUBLE_BOUND",
    "FIBONACCI",
    "GRAM_SAFE_BOUND",
    "LUCAS",
    "NegativeEntry",
    "PELL",
    "PERRIN",
    "PrecisionLoss",
    "RecurrenceSpec",
    "UnsupportedSequence",
    "all_ones_eigencheck",
    "audit_closed_form_identity",
    "closed_form_sum",
    "compare_methods",
    "eigenvalues_dft",
    "from_sequence",
    "matvec_fft",
    "matvec_naive",
    "prefix",
    "prefix_sum",
    "resolve",
    "spectral_norm_dft",
    "spectral_norm_power",
    "spectral_norm_sum",
    "spectral_radius",
    "term",
    "to_dense",
    "__version__",
]


#: Searched in this order for a public name; the last two import numpy.
_SEARCH = ("errors", "sequences", "circulant", "spectral")
_SUBMODULES = _SEARCH + ("cli",)


def __getattr__(name):
    # Read through on every access, so circnorm.<name> is always the
    # submodule's current attribute (monkeypatching reaches both).
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:
        for module_name in _SEARCH:
            module = importlib.import_module(f"{__name__}.{module_name}")
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
