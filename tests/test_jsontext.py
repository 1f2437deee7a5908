"""The batched JSON writer against json.dumps(x, indent=2, allow_nan=False).

The writer must give the same text, byte for byte, and raise the same
exception types. These tests run on every Python version, also where
OutputRecord.to_json uses json.dumps itself (3.13 and later).
"""

import decimal
import enum
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

import circnorm.cli
from circnorm import _jsontext
from test_golden import CASES, run


def reference(doc):
    return json.dumps(doc, indent=2, allow_nan=False)


def assert_same_text(doc):
    assert _jsontext.dumps(doc) == reference(doc)


class Pair(NamedTuple):
    left: int
    right: list


class Text(str):
    pass


class Count(int):
    def __repr__(self):
        return "Count(...)"


class Ratio(float):
    def __repr__(self):
        return "Ratio(...)"


class Colour(enum.IntEnum):
    RED = 1


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**300)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e-05, 1e300, 5e-324, 2**53 + 0.0])
    | st.text()
    | st.sampled_from(["%", "%s", "%%d", "é　\U0001f600", '"\\', "\x00\n\t\x1f\x7f"])
)
KEYS = st.text() | st.sampled_from(["%", "%(x)s", "k%%", "é", '"', "\n"])
TREES = st.recursive(
    SCALARS | st.just([]) | st.just({}) | st.just(()),
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(KEYS, children, max_size=5)
    ),
    max_leaves=30,
)


@st.composite
def row_lists(draw):
    """Dicts on one key list, mostly in one order, some columns holding only scalars."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=6, unique=True))
    values = {key: SCALARS if draw(st.booleans()) else TREES for key in keys}
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        order = keys if draw(st.integers(0, 3)) else draw(st.permutations(keys))
        rows.append({key: draw(values[key]) for key in order})
    return rows


@given(TREES)
def test_trees(doc):
    assert_same_text(doc)


@given(row_lists(), st.integers(0, 3))
def test_rows_at_any_depth(rows, depth):
    doc = rows
    for _ in range(depth):
        doc = {"rows": doc, "n": [doc]}
    assert_same_text(doc)


@pytest.mark.parametrize(
    "doc",
    [
        (1, "a", None),
        [(), ((),), ([], {})],
        Pair(1, [Pair(2, [])]),
        {"pair": Pair(3, [(4, 5)]), "pairs": [Pair(1, []), Pair(2, [0])]},
        [{"pair": Pair(1, [2])}, {"pair": Pair(3, [])}],
    ],
    ids=["tuple", "nested-tuples", "namedtuple", "namedtuple-values", "namedtuple-column"],
)
def test_tuples_are_lists(doc):
    assert_same_text(doc)
    assert json.loads(_jsontext.dumps(doc)) == json.loads(json.dumps(doc))


@pytest.mark.parametrize("extra", [-1, 0, 1, 2 * _jsontext._BATCH + 7])
def test_long_lists_cross_batches(extra):
    """Lists of scalars longer than one C call's batch, at the top and nested."""
    n = _jsontext._BATCH + extra
    mixed = [i if i % 3 else f"t{i}\n%" for i in range(n)]
    for doc in (mixed, [str(i) for i in range(n)], {"a": [{"terms": mixed, "sum": n}], "b": mixed}):
        assert_same_text(doc)


def test_one_key_set_in_two_orders():
    rows = [{"a": 1, "b": "x"}, {"b": "y", "a": 2}, {"a": 3, "b": "z"}]
    assert _jsontext.dumps(rows) == reference(rows)
    assert _jsontext.dumps({"rows": rows}) == reference({"rows": rows})


def test_percent_signs_in_keys_and_values():
    rows = [{"%": "%s", "k%d": 1, "%%": ["%"]}, {"%": "%(k)s", "k%d": 2, "%%": []}]
    assert_same_text(rows)
    assert_same_text({"%s": {"%d": "%%"}, "x": [rows]})


@pytest.mark.parametrize(
    "doc",
    [
        ["é", "　", "\U0001f600", "\ud800", '"', "\\", "\x00", "\n\r\t\b\f", "\x1f\x7f"],
        {"é\n": {"\\": '"'}, "\x00": [" "]},
        [{"é": "\n", "k": 1}, {"é": "\\\"", "k": 2}],
    ],
    ids=["list", "dict", "rows"],
)
def test_escapes(doc):
    text = _jsontext.dumps(doc)
    assert text == reference(doc)
    assert text.isascii()


@pytest.mark.parametrize(
    "doc",
    [
        [True, False, 1, 0, -1],
        [2**64, -(2**200), 10**4000],
        [Text("s"), Count(7), Ratio(0.5), Colour.RED],
        {"t": Text("s"), "c": Count(7), "r": Ratio(0.5), "e": Colour.RED, "b": [True]},
        [{"t": Text("s"), "c": Count(1)}, {"t": "u", "c": 2}],
        [-0.0, 0.0, 1e-05, 1e300, -1e300, 1e16, 0.1, 5e-324],
        {True: 1, False: [2], None: 3, 4: {}, 1.5: [], Count(5): 6, Ratio(7.0): 8},
        [{1: "a", None: "b"}, {1: "c", None: "d"}],
        [{1: "a"}, {True: "b"}, {1.0: "c"}],
        [{"k": 1}, {Text("k"): 2}],
    ],
    ids=["bool-int", "big-int", "subclasses", "subclass-values", "subclass-column",
         "floats", "scalar-keys", "scalar-keys-rows", "equal-keys-rows", "str-subclass-key-rows"],
)
def test_scalars(doc):
    assert_same_text(doc)


BAD_FLOATS = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("bad", BAD_FLOATS, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda x: x,
        lambda x: [1, x],
        lambda x: {"a": x},
        lambda x: {"a": [x, []]},
        lambda x: [{"a": x}, {"a": 1.0}],
        lambda x: {x: 1},
        lambda x: [{x: 1}, {x: 2}],
    ],
    ids=["top", "list", "dict", "nested", "column", "key", "row-key"],
)
def test_non_finite_floats_raise_value_error(bad, wrap):
    doc = wrap(bad)
    with pytest.raises(ValueError):
        reference(doc)
    with pytest.raises(ValueError):
        _jsontext.dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        object(),
        [1, {1, 2}],
        {"a": b"x"},
        {"a": [decimal.Decimal(1), []]},
        [{"a": 1j}, {"a": 2}],
        [{"a": [object()]}, {"a": []}],
        {(1, 2): 3},
        {"a": {(1,): []}},
        [{(1,): 1}, {(1,): 2}],
        [{"a": 1, (2,): 2}],
    ],
    ids=["top", "list", "dict", "nested", "column", "nested-column", "key", "nested-key",
         "row-key", "second-key"],
)
def test_unsupported_values_and_keys_raise_type_error(doc):
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        _jsontext.dumps(doc)


@pytest.mark.parametrize(
    "name, argv",
    [(name, ["json" if arg == "csv" else arg for arg in argv]) for name, _, argv in CASES],
    ids=[case[0] for case in CASES],
)
def test_golden_command_payloads(monkeypatch, name, argv):
    """Each golden command's document, --format csv ones written as JSON."""
    payloads = []

    def record(payload):
        payloads.append(payload)
        return reference(payload)

    monkeypatch.setattr(circnorm.cli, "_dumps", record)
    run(argv)
    assert len(payloads) == (name != "usage-error")
    for payload in payloads:
        assert_same_text(payload)


def test_to_json_path_follows_the_python_version():
    uses_writer = circnorm.cli._dumps is _jsontext.dumps
    assert uses_writer == (sys.version_info < (3, 13))


def test_bare_import_loads_no_writer():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, circnorm; print('circnorm._jsontext' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
