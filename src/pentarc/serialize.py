"""Wire formats for CLI output.

Exact rationals are always emitted as strings ("p/q", or "p" when q = 1) so
downstream consumers never coerce them to floats; floats are emitted as
17-significant-digit strings for byte-determinism across platforms.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import QuadNum
from .qseries import IntQSeries

__all__ = [
    "rat_str",
    "float_str",
    "quadnum_dict",
    "int_series_dict",
    "jsonable",
]


def rat_str(x: Fraction) -> str:
    return str(x)


def float_str(x: float) -> str:
    return format(x, ".17g")


def quadnum_dict(z: QuadNum) -> dict:
    return {"a": rat_str(z.a), "b": rat_str(z.b), "d": z.d}


def int_series_dict(s: IntQSeries) -> dict:
    if s.den == 1:
        coeffs = [str(c) for c in s.coeffs]
    else:
        coeffs = [rat_str(Fraction(c, s.den)) for c in s.coeffs]
    return {"offset": s.offset, "prec": s.prec, "coeffs": coeffs}


def jsonable(obj):
    """Recursively convert what the CLI emits to JSON-ready structures.

    The leaves are str, int, bool, None, Fraction, float, QuadNum and
    IntQSeries, inside dicts, lists, tuples and records (NamedTuples, which
    map to the dict of their fields).  Any other leaf raises TypeError.
    """
    if obj is None or isinstance(obj, (str, int)):  # the commonest leaves (bool is an int)
        return obj
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, float):
        return float_str(obj)
    if isinstance(obj, QuadNum):
        return quadnum_dict(obj)
    if isinstance(obj, IntQSeries):
        return int_series_dict(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a record (NamedTuple) maps its fields
        return jsonable(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"jsonable cannot convert a {type(obj).__name__}")
