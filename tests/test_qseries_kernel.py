"""Property tests of the integer q-series kernel against plain references.

The references below are the plain per-coefficient ``Fraction`` arithmetic
(truncated Cauchy product, recursive inversion, termwise D) that the
integer numerators over one denominator must reproduce exactly, and the
schoolbook loop that the integer product ``_convolve`` must match on both
of its branches.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentarc import qseries
from pentarc.qseries import IntQSeries, QSeries24, _convolve, euler_expansion
from pentarc.rankincohen import eta_bracket, eta_bracket_from_partitions

# fixed examples keep the test run reproducible; no example database is written
KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)

GRIDS = {IntQSeries: 1, QSeries24: 24}


def ref_mul(a: list, b: list) -> list:
    out = [F(0)] * min(len(a), len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < len(out):
                out[i + j] += ai * bj
    return out


def ref_invert(a: list) -> list:
    out = [F(0)] * len(a)
    out[0] = 1 / a[0]
    for n in range(1, len(a)):
        out[n] = -sum((a[k] * out[n - k] for k in range(1, n + 1)), F(0)) / a[0]
    return out


def values(s) -> list:
    return [F(c, s.den) for c in s.coeffs]


def check_canonical(s) -> None:
    assert s.den > 0 and all(isinstance(c, int) for c in s.coeffs)
    assert gcd(s.den, *s.coeffs) == 1


rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
coefficient_lists = st.lists(rationals, min_size=1, max_size=14)


@st.composite
def series(draw, cls, invertible=False):
    coeffs = draw(coefficient_lists)
    if invertible and not coeffs[0]:
        coeffs[0] = draw(rationals.filter(bool))
    return cls(draw(st.integers(-5, 5)), coeffs)


def same_class_triple(invertible=False):
    return st.sampled_from(list(GRIDS)).flatmap(
        lambda cls: st.tuples(*(series(cls, invertible) for _ in range(3)))
    )


@KERNEL
@given(st.sampled_from(list(GRIDS)), coefficient_lists)
def test_storage_is_lowest_terms(cls, coeffs):
    s = cls(0, coeffs)
    check_canonical(s)
    assert values(s) == coeffs


@KERNEL
@given(same_class_triple())
def test_product_matches_reference(abc):
    a, b, _ = abc
    prod = a * b
    check_canonical(prod)
    assert prod.start == a.start + b.start
    assert values(prod) == ref_mul(values(a), values(b))


@KERNEL
@given(same_class_triple(invertible=True))
def test_invert_matches_reference_and_is_two_sided(abc):
    a = abc[0]
    inv = a.invert()
    check_canonical(inv)
    assert inv.start == -a.start
    assert values(inv) == ref_invert(values(a))
    for prod in (a * inv, inv * a):
        assert values(prod) == [1] + [0] * (len(prod.coeffs) - 1)


@KERNEL
@given(same_class_triple())
def test_ring_laws(abc):
    a, b, c = abc
    assert ((a * b) * c).agrees_with(a * (b * c))
    assert (a * b).agrees_with(b * a)
    assert (a * (b + c)).agrees_with(a * b + a * c)
    assert (a + b).agrees_with(b + a)
    assert (a - a).is_zero()
    assert (a * 3).agrees_with(a + a + a)


@KERNEL
@given(same_class_triple())
def test_deriv_is_a_derivation(abc):
    a, b, _ = abc
    step = GRIDS[type(a)]
    check_canonical(a.deriv())
    assert values(a.deriv()) == [c * F(a.start + i, step) for i, c in enumerate(values(a))]
    assert (a * b).deriv().agrees_with(a.deriv() * b + a * b.deriv())


@KERNEL
@given(st.integers(1, 12))
def test_pow_matches_repeated_product(n):
    e = euler_expansion(25)
    acc = e
    for _ in range(n - 1):
        acc = acc * e
    assert e.pow(n).agrees_with(acc)


@KERNEL
@given(st.integers(0, 14), st.integers(2, 45))
def test_bracket_equals_partition_side(nu, prec):
    assert eta_bracket(nu, prec).agrees_with(eta_bracket_from_partitions(nu, prec))


def test_non_unit_leading_coefficient_inverse_is_exact():
    s = IntQSeries(2, [F(3, 2), 1, F(-5, 7)])
    inv = s.invert()
    assert inv.offset == -2
    assert values(inv) == ref_invert(values(s)) == [F(2, 3), F(-4, 9), F(116, 189)]
    with pytest.raises(ZeroDivisionError):
        IntQSeries(0, [0, 1]).invert()


def schoolbook(a: list, b: list, out_len: int) -> list:
    """Truncated Cauchy product by the plain double loop."""
    out = [0] * out_len
    for i, ai in enumerate(a[:out_len]):
        if ai:
            for j, bj in enumerate(b[: out_len - i], i):
                if bj:
                    out[j] += ai * bj
    return out


def slot_top(k: int) -> int:
    """Largest coefficient modulus a k-byte slot holds."""
    return 2 ** (8 * k - 1) - 1


# values at and just past the k-byte slot limits, mixed with ordinary values
extremes = st.integers(1, 3).flatmap(
    lambda k: st.sampled_from([slot_top(k), -slot_top(k), slot_top(k) + 1, -slot_top(k) - 1])
)
coefficients = extremes | st.integers(-(2**20), 2**20)
# about a quarter nonzero, so the density rule goes either way
sparse_lists = st.lists(coefficients | st.just(0) | st.just(0) | st.just(0), min_size=1, max_size=40)
# a signed monomial +-q^s leaves the other factor's extremes in the product
monomials = st.tuples(st.integers(0, 4), st.sampled_from([1, -1])).map(lambda t: [0] * t[0] + [t[1]])
operands = sparse_lists | st.lists(coefficients, min_size=1, max_size=40) | monomials


@settings(KERNEL, max_examples=200)
@given(operands, operands, st.data())
def test_convolve_is_the_schoolbook_product(a, b, data):
    out_len = data.draw(st.integers(0, min(len(a), len(b))))
    assert _convolve(a, b, out_len) == schoolbook(a, b, out_len)
    assert _convolve(a, a, out_len) == schoolbook(a, a, out_len)


def test_slots_hold_their_extremes():
    # all-equal operands put out_len * max|a| * max|b|, the largest value the
    # slot width allows for, in the last slot; alternating signs make it negative
    for top in (1, 2**7 - 1, 2**7, 2**8 - 1, 2**15, 2**40 + 1):
        for n in (1, 2, 3, 4, 7, 8, 9, 255, 256, 257):
            same = [top] * n
            alt = [(-1) ** i * top for i in range(n)]
            for a, b in ((same, same), (alt, alt), (same, [-top] * n)):
                want = schoolbook(a, b, n)
                assert _convolve(a, b, n) == want
                assert _convolve(a, a, n) == schoolbook(a, a, n)
                assert abs(want[-1]) == n * top * top


@pytest.mark.parametrize("nonzero, packed", [(4, False), (5, True)])
def test_quarter_density_picks_the_loop(monkeypatch, nonzero, packed):
    """A sparser operand 4 of 16 nonzero multiplies pairs; 5 of 16 packs."""
    calls = []
    real = qseries._pack

    def spy(coeffs, k):
        calls.append(k)
        return real(coeffs, k)

    monkeypatch.setattr(qseries, "_pack", spy)
    a = [0] * 16
    for i in range(nonzero):
        a[3 * i] = slot_top(2) - i
    b = [(-1) ** j * (j + 1) ** 5 for j in range(16)]
    for x, y in ((a, b), (b, a)):
        assert _convolve(x, y, 16) == schoolbook(x, y, 16)
    assert bool(calls) == packed
    # density counts the truncated operands: 4 of 15 is over a quarter, and packs
    calls.clear()
    assert _convolve(a, b, 15) == schoolbook(a, b, 15)
    assert calls


def test_empty_and_zero_operands():
    dense = [7, -3, 2**70, 5]
    assert _convolve(dense, dense, 0) == []
    assert _convolve([], [], 0) == []
    assert _convolve([0] * 4, dense, 4) == [0] * 4
    assert _convolve(dense, [0] * 4, 3) == [0] * 3
