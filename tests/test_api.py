import importlib

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
