"""The Delta lattice rows against exact products of an independent Delta and
``eisenstein``."""

from pentarc._coeffs import _monomial_exponents, cusp_monomial_coeffs
from pentarc.forms import eisenstein
from pentarc.qseries import IntQSeries, euler_expansion


def test_monomial_tables_match_exact_products():
    # dim S_w <= 2 through weight 28; weights 30..60 reach dim 5, where the
    # rows' X^i Y^(d-i) indexing first differs from a chain per row
    checked = 0
    for prec, weights in ((401, range(12, 30, 2)), (61, range(30, 62, 2))):  # indices 0..prec-1
        e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
        # Delta = q E(q)^24 from the pentagonal series, not from the lattice under test
        power = euler_expansion(prec - 1).pow(24)
        products = {(0, 0): IntQSeries(1, power.coeffs, den=power.den)}

        def product(a, b):
            if (a, b) not in products:
                products[a, b] = product(a - 1, b) * e4 if a else product(a, b - 1) * e6
            return products[a, b]

        for weight in weights:
            for a, b in _monomial_exponents(weight - 12):
                series = product(a, b)
                assert series.den == 1
                want = [int(series.coeff(m)) for m in range(prec)]
                assert cusp_monomial_coeffs(a, b, tuple(range(prec))) == want, (a, b)
                checked += 1
    assert checked == 10 + 51
