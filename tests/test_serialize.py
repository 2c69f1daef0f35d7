import json
from dataclasses import dataclass
from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentarc.dirichlet import NormEstimate
from pentarc.exactnum import QuadNum
from pentarc.qseries import IntQSeries, QSeries24
from pentarc.rademacher import KloostermanSum, RademacherEstimate
from pentarc.serialize import (
    dumps,
    float_str,
    int_series_dict,
    jsonable,
    quadnum_dict,
    rat_str,
)


def test_rational_strings():
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(-33108590592, 691)) == "-33108590592/691"
    assert rat_str(F(7)) == "7"
    assert rat_str(F(0)) == "0"


def test_float_strings_are_17_digits():
    assert float_str(-49.60838199395963) == "-49.608381993959632"
    assert float(float_str(0.1)) == 0.1


def test_quadnum_wire_format():
    z = QuadNum(F(1, 2), F(-3, 7), 144169)
    assert quadnum_dict(z) == {"a": "1/2", "b": "-3/7", "d": 144169}


def test_series_wire_formats():
    t = IntQSeries(1, [1, -24])
    assert int_series_dict(t) == {"offset": 1, "prec": 3, "coeffs": ["1", "-24"]}
    half = IntQSeries(0, [F(1), F(0), F(1, 2)])
    assert jsonable(half) == {"offset": 0, "prec": 3, "coeffs": ["1", "0", "1/2"]}


def test_jsonable_maps_records_to_dicts():
    """A record is a tuple, but serializes as the dict of its fields, as it did as a dataclass."""
    assert jsonable(RademacherEstimate(6.9999999999999982, 7, 1.7763568394002505e-15, 0.0, 3)) == {
        "estimate": "6.9999999999999982", "nearest": 7, "gap": "1.7763568394002505e-15", "imag": "0",
        "depth": 3,
    }
    with pytest.raises(TypeError, match="complex"):  # the CLI never emits a Kloosterman sum
        jsonable(KloostermanSum(2, 1.5 - 0.25j, 1))
    est = NormEstimate(12, 100, 360, (-49.6, 2.0), (QuadNum(F(1, 2), F(-3, 7), 5), QuadNum(1, 0, 5)), (1.25e-06, -0.5))
    assert jsonable({"r": [est]}) == {"r": [{
        "nu": 12, "big_m": 100, "big_n": 360, "double_sums": ["-49.600000000000001", "2"],
        "projections": [{"a": "1/2", "b": "-3/7", "d": 5}, {"a": "1", "b": "0", "d": 1}],
        "estimates": ["1.2500000000000001e-06", "-0.5"],
    }]}
    assert jsonable((1, F(1, 2))) == [1, "1/2"]  # a plain tuple stays a list


@dataclass(frozen=True)
class _Record:
    name: str


@pytest.mark.parametrize(
    "leaf, name",
    [(QSeries24(-1, [F(1), F(0), F(1, 2)]), "QSeries24"), (_Record("x"), "_Record"), ({1, 2}, "set")],
    ids=["QSeries24", "dataclass", "set"],
)
def test_jsonable_rejects_what_the_cli_never_emits(leaf, name):
    """Only what the CLI emits converts; any other leaf, however deep, raises
    TypeError naming its type instead of reaching json.dumps unconverted."""
    with pytest.raises(TypeError, match=f"cannot convert a {name}$"):
        jsonable({"r": [(1, leaf)]})


class _Pair(NamedTuple):
    first: object
    second: object


_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é\u2028\U0001f600ab') | st.characters(), max_size=8)
_FLOAT = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308])
_INT = st.integers() | st.booleans() | st.sampled_from([10**3999 + 7, -(10**3999) - 3, -1])
_FRACTION = st.fractions() | st.integers(-5, 5).map(F)
_LEAF = (
    _TEXT | _INT | _FRACTION | _FLOAT | st.none()
    | st.builds(QuadNum, _FRACTION, _FRACTION, st.sampled_from([1, 2, 5, 144169]))
    | st.builds(IntQSeries, st.integers(-3, 3), st.lists(_FRACTION, min_size=1, max_size=4))
)
#: nested payloads; dict keys are mostly str, and json's rule for the rest
#: (int keys convert, mixed kinds fail to sort) must hold too
_PAYLOAD = st.recursive(
    _LEAF,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXT | st.integers(-3, 3), children, max_size=4)
    | st.builds(_Pair, children, children),
    max_leaves=24,
)
WRITER = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _outcome(write, payload):
    try:
        return write(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@WRITER
@given(_PAYLOAD)
def test_dumps_writes_what_json_dumps_writes(payload):
    """One walk gives json.dumps's bytes for the converted payload, or its error."""
    want = _outcome(lambda x: json.dumps(jsonable(x), indent=2, sort_keys=True) + "\n", payload)
    assert _outcome(dumps, payload) == want


def test_dumps_rejects_what_jsonable_rejects():
    for payload in (1j, {"r": [_Pair(1, 2.5 - 1j)]}, {(1, 2): 3}):
        with pytest.raises(TypeError) as want:
            json.dumps(jsonable(payload), indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            dumps(payload)
        assert str(got.value) == str(want.value)
