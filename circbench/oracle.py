"""Reference values for the benchmark, computed without circnorm's own code.

Terms come from plain list accumulation of the recurrence, so a defect in
circnorm.sequences (or in tests/conftest.py) cannot hide in its own check.
The guard constants are restated here from the documented contract: the
dft route needs entries below 2**53, the power route entries below 2**26.
"""

from __future__ import annotations

import math

DFT_GUARD = 2**53
POWER_GUARD = 2**26
DFT_SKIP_NOTE = "skipped: entries reach 2**53"
POWER_SKIP_NOTE = "skipped: entries reach 2**26"

#: (coefficients, initial terms) of the builtin sequences.
BUILTINS = {
    "fibonacci": ((1, 1), (0, 1)),
    "lucas": ((1, 1), (2, 1)),
    "pell": ((2, 1), (0, 1)),
    "perrin": ((0, 1, 1), (3, 0, 2)),
}


def terms(coef, init, n):
    """[t(0), ..., t(n-1)] by accumulating t(i) = sum_j coef[j] * t(i-1-j)."""
    out = list(init[:n])
    while len(out) < n:
        nxt = 0
        for j, a in enumerate(coef):
            nxt += a * out[-1 - j]
        out.append(nxt)
    return out


def sum_and_max(coef, init, n):
    """(sum, max) of the first n terms, keeping only the last len(coef) terms."""
    window = list(init[:n])
    total, top = sum(window), max(window)
    k = len(coef)
    for _ in range(n - len(window)):
        nxt = 0
        for j, a in enumerate(coef):
            nxt += a * window[-1 - j]
        total += nxt
        top = max(top, nxt)
        window.append(nxt)
        if len(window) > k:
            del window[0]
    return total, top


def published_values(name, n_max):
    """Published partial-sum form evaluated at n = 1..n_max (None where not integral)."""
    own = terms(*BUILTINS[name], n_max + 5)
    fib = terms(*BUILTINS["fibonacci"], n_max + 3)
    out = []
    for n in range(1, n_max + 1):
        if name == "fibonacci":
            out.append(fib[n + 1] - 1)
        elif name == "lucas":
            out.append(fib[n + 2] + fib[n] - 1)
        elif name == "pell":
            half, rem = divmod(own[n] + own[n - 1] - 1, 2)
            out.append(None if rem else half)
        else:
            out.append(own[n + 4] - 1)
    return out


def expected_methods(requested, max_entry):
    """{method: skip note or None} for the requested methods, in request order."""
    out = {}
    for m in dict.fromkeys(requested):
        note = None
        if m == "dft" and max_entry >= DFT_GUARD:
            note = DFT_SKIP_NOTE
        if m == "power" and max_entry >= POWER_GUARD:
            note = POWER_SKIP_NOTE
        out[m] = note
    return out


def check_norm(doc, order, requested, exact, max_entry, rel_tol=1e-8):
    """Problems found in one norm report, given as a plain dict.

    ``doc`` has the CLI's norm shape: order, methods (each with method,
    value, exact_value as int or None, note), max_pairwise_relative_gap,
    rel_tol and agrees. An empty list means the report is correct.
    """
    problems = []
    want = expected_methods(requested, max_entry)
    got = [m["method"] for m in doc["methods"]]
    if got != list(want):
        return [f"methods {got} != requested {list(want)}"]
    if doc["order"] != order:
        problems.append(f"order {doc['order']} != {order}")
    for entry in doc["methods"]:
        method, value, note = entry["method"], entry["value"], entry["note"]
        if method == "sum":
            if entry["exact_value"] != exact:
                problems.append("exact sum differs from the direct sum")
            if note is not None:
                problems.append(f"sum has note {note!r}")
            continue
        if note != want[method]:
            problems.append(f"{method} note {note!r} != {want[method]!r}")
        if want[method] is not None:
            if value is not None:
                problems.append(f"{method} ran past its guard")
        elif value is None or abs(value - exact) > rel_tol * max(exact, 1):
            problems.append(f"{method} value {value} not within {rel_tol} of {exact}")
    gap = doc["max_pairwise_relative_gap"]
    if not (doc["agrees"] and 0 <= gap <= rel_tol):
        problems.append(f"agrees={doc['agrees']} gap={gap}")
    return problems


def report_doc(report):
    """A circnorm NormReport as the plain dict check_norm reads."""
    return {
        "order": report.order,
        "methods": [
            {
                "method": r.method,
                "value": None if r.value is None or not math.isfinite(r.value) else r.value,
                "exact_value": r.exact_value,
                "note": r.note,
            }
            for r in report.methods
        ],
        "max_pairwise_relative_gap": report.max_pairwise_relative_gap,
        "agrees": report.agrees,
    }
