"""The packed-integer monomial tables against the q-series kernel.

``qseries._convolve`` is the reference product; exact ``delta`` and
``eisenstein`` products are the reference tables.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pentarc._coeffs import _pack, _truncate, _unpack, cusp_monomial_coeffs
from pentarc.forms import _monomial_exponents, delta, eisenstein
from pentarc.qseries import _convolve

# fixed examples keep the test run reproducible; no example database is written
KERNEL = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def slot_top(k: int) -> int:
    """Largest coefficient modulus a k-byte slot holds."""
    return 2 ** (8 * k - 1) - 1


def slot_width(values) -> int:
    """Smallest k with every |v| <= slot_top(k)."""
    return (max(map(abs, values), default=0).bit_length() + 8) // 8


def packed_product(a: list, b: list, k: int, out_len: int) -> list:
    return _unpack(_truncate(_pack(a, k) * _pack(b, k), k, out_len), k, out_len)


# slot extremes +-slot_top(k) for k = 1..3, mixed with ordinary values
coefficients = st.integers(1, 3).flatmap(lambda k: st.sampled_from([slot_top(k), -slot_top(k)])) | st.integers(
    -(2**20), 2**20
)
# a signed monomial +-q^s leaves the other factor's extremes in the product
monomials = st.tuples(st.integers(0, 4), st.sampled_from([1, -1])).map(lambda t: [0] * t[0] + [t[1]])
factors = monomials | st.lists(st.integers(-5, 5), min_size=1, max_size=12)


@KERNEL
@given(st.lists(coefficients, min_size=1, max_size=16), factors, st.integers(0, 2), st.data())
def test_packed_product_is_the_truncated_convolution(a, b, spare, data):
    out_len = data.draw(st.integers(0, min(len(a), len(b))))
    want = _convolve(a, b, out_len)
    k = slot_width(a + b + want) + spare
    assert packed_product(a, b, k, out_len) == want


def test_slots_hold_their_extremes():
    for k in (1, 2, 3, 5):
        top = slot_top(k)
        a = [top, -top, 0, -top, top, 1, -1]
        assert _unpack(_pack(a, k), k, len(a)) == a
        for b in ([1], [0, -1], [0, 0, 1]):
            want = _convolve(a, b, len(a))
            assert packed_product(a, b, k, len(a)) == want
            assert {top, -top} <= set(want)


def test_monomial_tables_match_exact_products():
    prec = 401  # indices 0..400
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    products = {(1, 0, 0): delta(prec)}
    products[2, 0, 0] = products[1, 0, 0] * products[1, 0, 0]

    def product(dp, a, b):
        if (dp, a, b) not in products:
            products[dp, a, b] = product(dp, a - 1, b) * e4 if a else product(dp, a, b - 1) * e6
        return products[dp, a, b]

    checked = 0
    for weight in range(12, 30, 2):
        for dp in (1, 2):
            if 12 * dp > weight:
                continue
            for a, b in _monomial_exponents(weight - 12 * dp):
                series = product(dp, a, b)
                assert series.den == 1
                want = [int(series.coeff(m)) for m in range(prec)]
                assert cusp_monomial_coeffs(dp, a, b, tuple(range(prec)), prec - 1) == want, (dp, a, b)
                checked += 1
    assert checked == 12
