"""Wire formats for CLI output.

Exact rationals are always emitted as strings ("p/q", or "p" when q = 1) so
downstream consumers never coerce them to floats; floats are emitted as
17-significant-digit strings for byte-determinism across platforms.

``jsonable`` is the one conversion of what the CLI emits to JSON-ready
structures, and the csv and text formats flatten its result.  ``dumps``
writes JSON: the bytes of ``json.dumps(jsonable(payload), indent=2,
sort_keys=True)`` and a newline, in one walk that writes the plain values
itself and hands every other value to ``jsonable``.  (With an indent,
``json.dumps`` runs its pure-Python encoder, about twice as slow.)
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .exactnum import QuadNum
from .qseries import IntQSeries

__all__ = ["jsonable", "dumps"]


def jsonable(obj):
    """Recursively convert what the CLI emits to JSON-ready structures.

    The leaves are str, int, bool, None, Fraction, float, QuadNum and
    IntQSeries, inside dicts, lists, tuples and records (NamedTuples, which
    map to the dict of their fields).  Any other leaf raises TypeError.
    """
    if obj is None or isinstance(obj, (str, int)):  # the commonest leaves (bool is an int)
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, QuadNum):
        return {"a": str(obj.a), "b": str(obj.b), "d": obj.d}
    if isinstance(obj, IntQSeries):
        den = obj.den
        coeffs = [str(c) for c in obj.coeffs] if den == 1 else [str(Fraction(c, den)) for c in obj.coeffs]
        return {"offset": obj.offset, "prec": obj.prec, "coeffs": coeffs}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a record (NamedTuple) maps its fields
        return jsonable(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"jsonable cannot convert a {type(obj).__name__}")


def dumps(payload) -> str:
    """``json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\\n"``, byte
    for byte, errors included, without building the converted copy."""
    out = []
    _write(payload, out.append, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj, emit, newline: str) -> None:
    """Emit obj as JSON, indented by two spaces a level; ``newline`` is the
    line break and indent before a closing bracket of obj."""
    if isinstance(obj, str):
        emit(_string(obj))
    elif obj is None or obj is True or obj is False:
        emit("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            # json converts a non-str key, or refuses it, as in {key: null}
            emit(sep + (_string(key) if type(key) is str else json.dumps({key: None})[1:-7]) + ": ")
            _write(value, emit, inner)
            sep = "," + inner
        emit(newline + "}")
    elif type(obj) is list or type(obj) is tuple:  # a record, a tuple subclass, is jsonable's
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            emit(sep)
            _write(value, emit, inner)
            sep = "," + inner
        emit(newline + "]")
    else:
        _write(jsonable(obj), emit, newline)
