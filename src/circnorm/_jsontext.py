"""json.dumps(doc, indent=2, allow_nan=False), byte for byte, in batches of C calls.

Before Python 3.13, an indent sends json to its pure-Python encoder, one
generator step per token. This writer lays out the same two-space text
but leaves every scalar to json's own C encoder (json.encoder's
c_make_encoder), so ints, floats, strings, null, true and false, NaN and
infinity refused, unsupported values and keys refused, come out exactly
as json writes them. It rests on two facts:

- The text is ASCII (\\u escapes), so a raw newline only ever separates
  items; a string token never holds one.
- The CLI's large containers are lists of scalars (seq's terms) and
  lists of dicts that share one order of str keys (verify's and bench's
  rows).

So a container that holds no container is one C call with its depth's
separators (a long list one per batch of items), and a list of
same-shape dicts is one C call per column: the
column is written with a bare newline between items, split on it, and
each row is filled into one %-template of that shape. Every piece is
appended to one list and joined once, so a large document is not copied
once per nesting level.
"""

from __future__ import annotations

import functools
import json
from json import encoder as _json

__all__ = ["dumps"]

_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = (list, tuple, dict)
_BATCH = 256  # items per C call in a list of scalars: bounds the copy that strips its brackets


@functools.cache
def _encoder(item_separator: str):
    """json's C encoder with allow_nan=False and no circular check, as the CLI's json.dumps."""
    return _json.c_make_encoder(
        None,  # markers: every document is a fresh tree
        json.JSONEncoder().default,  # raises TypeError for unsupported values
        _json.encode_basestring_ascii,
        None,
        ": ",
        item_separator,
        False,  # sort_keys
        False,  # skipkeys
        False,  # allow_nan
    )


def _c(value, item_separator: str) -> str:
    return "".join(_encoder(item_separator)(value, 0))


def _flat(types: set) -> bool:
    """Whether values of these types hold no list, tuple or dict (subclasses included)."""
    return types <= _SCALARS or not any(issubclass(t, _CONTAINERS) for t in types)


def _tokens(values, types: set) -> list[str]:
    """The token of each scalar in values, from one C call.

    Strings are encoded one by one, as json does, so a long string is
    copied once; other scalars are written with a bare newline between
    them and split on it.
    """
    if types == {str}:
        return list(map(_json.encode_basestring_ascii, values))
    return _c(values, "\n")[1:-1].split("\n")


def _key(key) -> str:
    """A dict key as json writes it: str, or the text of an int, float, bool or None."""
    if isinstance(key, str):
        return _json.encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return _json.encode_basestring_ascii(_c(key, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _str_keys(row: dict) -> bool:
    """Whether row has keys, all str: 1, 1.0 and True are equal keys that json writes apart."""
    return bool(row) and all(type(key) is str for key in row)


def _write(value, depth: int, out: list) -> None:
    """Append the pieces of value, its first line already indented to depth."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
        elif _flat(set(map(type, value.values()))):
            inner = "  " * (depth + 1)
            text = _c(value, ",\n" + inner)
            out += ("{\n", inner, text[1:-1], "\n", "  " * depth, "}")
        else:
            sep = "{\n"
            for key, item in value.items():
                out += (sep, "  " * (depth + 1), _key(key), ": ")
                _write(item, depth + 1, out)
                sep = ",\n"
            out += ("\n", "  " * depth, "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        types = set(map(type, value))
        inner = "  " * (depth + 1)
        if _flat(types):
            sep = ",\n" + inner
            out += ("[\n", inner)
            for start in range(0, len(value), _BATCH):
                if start:
                    out.append(sep)
                out.append(_c(value[start:start + _BATCH], sep)[1:-1])
            out += ("\n", "  " * depth, "]")
        elif types == {dict} and _str_keys(value[0]) and len(set(map(tuple, value))) == 1:
            out += ("[\n", inner)
            _write_rows(value, depth + 1, out)
            out += ("\n", "  " * depth, "]")
        else:
            sep = "[\n"
            for item in value:
                out += (sep, inner)
                _write(item, depth + 1, out)
                sep = ",\n"
            out += ("\n", "  " * depth, "]")
    else:
        out.append(_c(value, ""))


def _write_rows(rows: list, depth: int, out: list) -> None:
    """Append dicts with one key order, each at depth, one C call per column of scalars."""
    inner = "  " * (depth + 1)
    template = (
        "{\n"
        + ",\n".join(inner + _key(key).replace("%", "%%") + ": %s" for key in rows[0])
        + "\n" + "  " * depth + "}"
    )
    cells = []
    for column in zip(*map(dict.values, rows)):
        types = set(map(type, column))
        if _flat(types):
            cells.append(_tokens(column, types))
        else:
            cells.append([_text(item, depth + 1) for item in column])
    out.append((",\n" + "  " * depth).join(map(template.__mod__, zip(*cells))))


def _text(value, depth: int) -> str:
    out: list = []
    _write(value, depth, out)
    return "".join(out)


def dumps(doc) -> str:
    """The text of json.dumps(doc, indent=2, allow_nan=False); raises as it does."""
    return _text(doc, 0)
