import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circnorm

TOP_LEVEL = {
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
}

#: Types of returned values, public in their modules but not re-exported.
MODULE_ONLY = [
    ("circulant", "Spectrum"),
    ("errors", "DenseBudgetExceeded"),
    ("sequences", "AuditRow"),
    ("sequences", "IdentityAudit"),
    ("sequences", "SequenceId"),
    ("spectral", "METHOD_NAMES"),
    ("spectral", "ConvergenceRecord"),
    ("spectral", "MethodResult"),
    ("spectral", "NormReport"),
]


def test_public_surface():
    assert sorted(circnorm.__all__) == sorted(TOP_LEVEL | {"__version__"})
    for name in circnorm.__all__:
        getattr(circnorm, name)
    for module_name, name in MODULE_ONLY:
        module = importlib.import_module(f"circnorm.{module_name}")
        assert name in module.__all__
        getattr(module, name)


def test_cli_surface():
    assert circnorm.cli.__all__ == ["OutputRecord", "load_output_schema", "parse_spec", "main"]
    for name in circnorm.cli.__all__:
        getattr(circnorm.cli, name)


#: Every public name, by the submodule it is read from on each access.
LAZY = {
    "errors": [
        "CircnormError",
        "DimensionMismatch",
        "NegativeEntry",
        "PrecisionLoss",
        "UnsupportedSequence",
    ],
    "sequences": [
        "BUILTIN_SEQUENCES",
        "FIBONACCI",
        "LUCAS",
        "PELL",
        "PERRIN",
        "RecurrenceSpec",
        "audit_closed_form_identity",
        "closed_form_sum",
        "prefix",
        "prefix_sum",
        "resolve",
        "term",
    ],
    "circulant": [
        "EXACT_DOUBLE_BOUND",
        "CirculantMatrix",
        "all_ones_eigencheck",
        "eigenvalues_dft",
        "from_sequence",
        "matvec_fft",
        "matvec_naive",
        "to_dense",
    ],
    "spectral": [
        "GRAM_SAFE_BOUND",
        "compare_methods",
        "spectral_norm_dft",
        "spectral_norm_power",
        "spectral_norm_sum",
        "spectral_radius",
    ],
}


@pytest.mark.parametrize(
    "module_name, name", [(m, name) for m, names in LAZY.items() for name in names]
)
def test_lazy_name_is_the_module_attribute(module_name, name, monkeypatch):
    module = importlib.import_module(f"circnorm.{module_name}")
    assert getattr(circnorm, name) is getattr(module, name)
    replacement = object()
    monkeypatch.setattr(module, name, replacement)
    assert getattr(circnorm, name) is replacement


def _child(probe):
    """stdout of a fresh interpreter that runs probe with this checkout's src first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_submodules_resolve_after_bare_import():
    probe = (
        "import sys, circnorm; "
        "print(sorted(m for m in sys.modules if m.startswith('circnorm.'))); "
        "print([m.__name__ for m in (circnorm.errors, circnorm.sequences, "
        "circnorm.circulant, circnorm.spectral, circnorm.cli)])"
    )
    loaded, resolved = _child(probe).splitlines()
    assert loaded == "[]"
    assert resolved == (
        "['circnorm.errors', 'circnorm.sequences', "
        "'circnorm.circulant', 'circnorm.spectral', 'circnorm.cli']"
    )


def test_sequence_and_error_names_load_no_numpy():
    probe = (
        "import sys; "
        "from circnorm import prefix, RecurrenceSpec, closed_form_sum, CircnormError; "
        "print('numpy' in sys.modules)"
    )
    assert _child(probe) == "False"


def test_dir_lists_every_public_name():
    assert set(circnorm.__all__) <= set(dir(circnorm))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from circnorm import *", namespace)
    assert set(namespace) - {"__builtins__"} == TOP_LEVEL | {"__version__"}


def test_unknown_attribute_raises():
    # Module-only names stay off the package, too.
    for name in ["no_such_name", "Spectrum", "METHOD_NAMES", "DenseBudgetExceeded"]:
        with pytest.raises(AttributeError, match=name):
            getattr(circnorm, name)
