"""Wire formats for CLI output.

Exact rationals are always emitted as strings ("p/q", or "p" when q = 1) so
downstream consumers never coerce them to floats; floats are emitted as
17-significant-digit strings for byte-determinism across platforms.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import PiScalar, QuadNum
from .qseries import IntQSeries, QSeries24

__all__ = [
    "rat_str",
    "float_str",
    "quadnum_dict",
    "piscalar_dict",
    "qseries_dict",
    "int_series_dict",
    "jsonable",
]


def rat_str(x: Fraction) -> str:
    return str(x)


def float_str(x: float) -> str:
    return format(x, ".17g")


def quadnum_dict(z: QuadNum) -> dict:
    return {"a": rat_str(z.a), "b": rat_str(z.b), "d": z.d}


def piscalar_dict(x: PiScalar) -> dict:
    return {"coeff": rat_str(x.coeff), "halfPiPow": x.half_pi_pow}


def _coeff_strs(s: IntQSeries | QSeries24) -> list[str]:
    if s.den == 1:
        return [str(c) for c in s.coeffs]
    return [rat_str(Fraction(c, s.den)) for c in s.coeffs]


def qseries_dict(s: QSeries24) -> dict:
    return {
        "offset24": s.offset24,
        "prec24": s.prec24,
        "coeffs": _coeff_strs(s),
    }


def int_series_dict(s: IntQSeries) -> dict:
    return {
        "offset": s.offset,
        "prec": s.prec,
        "coeffs": _coeff_strs(s),
    }


def jsonable(obj):
    """Recursively convert package values to JSON-ready structures."""
    if obj is None or isinstance(obj, (str, int)):  # the commonest leaves (bool is an int)
        return obj
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, float):
        return float_str(obj)
    if isinstance(obj, QuadNum):
        return quadnum_dict(obj)
    if isinstance(obj, PiScalar):
        return piscalar_dict(obj)
    if isinstance(obj, QSeries24):
        return qseries_dict(obj)
    if isinstance(obj, IntQSeries):
        return int_series_dict(obj)
    if hasattr(type(obj), "__dataclass_fields__"):  # a dataclass instance, so its module is loaded
        from dataclasses import asdict
        return jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a record (NamedTuple) maps its fields
        return jsonable(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj
