"""A report as JSON text, without importing json; cli.render imports it only for --format json.

dumps(value) is json.dumps(value, indent=2, sort_keys=True) for the values a
report holds: dicts with str keys, lists, tuples, str, int, bool and None.
Strings are escaped as under ensure_ascii: the short escapes, \\uXXXX for other
control characters, DEL and non-ASCII, and a surrogate pair past U+FFFF.
Anything else raises TypeError.
"""

from __future__ import annotations


class _Escapes(dict):
    """str.translate's table: printable ASCII to itself or its short escape, any other code to \\uXXXX."""

    def __missing__(self, code: int) -> str:
        if code < 0x10000:
            return f"\\u{code:04x}"
        code -= 0x10000  # past the Basic Multilingual Plane: a UTF-16 surrogate pair
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


_ESCAPES = _Escapes({code: chr(code) for code in range(0x20, 0x7F)})
_ESCAPES.update((ord(ch), "\\" + letter) for ch, letter in zip('"\\\b\f\n\r\t', '"\\bfnrt'))


def _string(text: str) -> str:
    return '"' + text.translate(_ESCAPES) + '"'


def dumps(value) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it."""
    out: list[str] = []
    _emit(value, "\n", out)
    return "".join(out)


def _emit(value, newline: str, out: list[str]) -> None:
    """Append value's JSON text to out; newline is the line break and indent of value's own line."""
    if isinstance(value, str):
        out.append(_string(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out.append(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _string(key) + ": ")
            _emit(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
