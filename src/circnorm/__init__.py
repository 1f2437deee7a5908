"""Circulant matrices over integer recurrence sequences and their spectral norms.

The library builds circ(t(0), ..., t(n-1)) from exact integer
linear-recurrence sequences and computes the spectral norm three
independent ways: the exact first-row sum, DFT diagonalization, and a
dense Gram power iteration. The routes cross-validate each other, along
with the classical partial-sum identities for the Fibonacci, Lucas,
Pell and Perrin sequences.

Importing the package does not import numpy: the circulant and spectral
names, and the circulant, spectral and cli submodules, load on first access.
"""

import importlib

from .errors import (
    CircnormError,
    DimensionMismatch,
    NegativeEntry,
    PrecisionLoss,
    UnsupportedSequence,
)
from .sequences import (
    BUILTIN_SEQUENCES,
    FIBONACCI,
    LUCAS,
    PELL,
    PERRIN,
    RecurrenceSpec,
    audit_closed_form_identity,
    closed_form_sum,
    prefix,
    prefix_sum,
    resolve,
    term,
)

_SUBMODULES = ("circulant", "spectral", "cli")

#: The submodule each lazily loaded public name lives in.
_LAZY = dict.fromkeys(
    (
        "EXACT_DOUBLE_BOUND",
        "CirculantMatrix",
        "all_ones_eigencheck",
        "eigenvalues_dft",
        "from_sequence",
        "matvec_fft",
        "matvec_naive",
        "to_dense",
    ),
    "circulant",
)
_LAZY.update(
    dict.fromkeys(
        (
            "GRAM_SAFE_BOUND",
            "compare_methods",
            "spectral_norm_dft",
            "spectral_norm_power",
            "spectral_norm_sum",
            "spectral_radius",
        ),
        "spectral",
    )
)

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


def __getattr__(name):
    # Read through on every access, so circnorm.<name> is always the
    # submodule's current attribute (monkeypatching reaches both).
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_SUBMODULES))
