import random
from fractions import Fraction as F

import pytest

from pentarc import qseries
from pentarc.errors import InternalCancellationError, PrecisionError
from pentarc.forms import eisenstein
from pentarc.partitions import partition_table
from pentarc.qseries import (
    IntQSeries,
    QSeries24,
    eta_expansion,
    eta_inverse_expansion,
    eta_product_expansion,
    to_int_series,
)


def random_series(rng, invertible=False):
    offset = rng.randrange(-6, 7)
    length = rng.randrange(4, 24)
    coeffs = [F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(length)]
    if invertible:
        while coeffs[0] == 0:
            coeffs[0] = F(rng.randrange(-9, 10), rng.randrange(1, 5))
    return QSeries24(offset, coeffs)


def test_eta_leading_terms():
    eta = eta_expansion(24 * 15)
    # q^(1/24) (1 - q - q^2 + q^5 + q^7 - q^12 + ...)
    expect = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
    for n in range(13):
        assert eta.coeff24(24 * n + 1) == expect.get(n, 0)
    assert eta.coeff24(25) == -1
    assert eta.coeff24(2) == 0


def test_pentagonal_number_theorem():
    assert eta_expansion(2400).agrees_with(eta_product_expansion(2400))


def product_on_the_24_grid(prec24):
    """q^(1/24) prod_{n<=N} (1 - q^n) multiplied out factor by factor on the
    1/24 grid, with every slot of every factor stored."""
    length = prec24 - 1
    acc = QSeries24(1, [1] + [0] * (length - 1))
    for n in range(1, prec24 // 24 + 2):
        factor = [0] * length
        factor[0] = 1
        if 24 * n < length:
            factor[24 * n] = -1
        acc = acc * QSeries24(0, factor)
    return acc


def test_eta_product_is_the_grid_product_without_the_pentagonal_series(monkeypatch):
    def refuse(prec):
        raise AssertionError("the product form of eta read the pentagonal series")

    monkeypatch.setattr(qseries, "euler_expansion", refuse)
    monkeypatch.setattr(qseries, "eta_expansion", refuse)
    eta_product_expansion.cache_clear()
    for prec24 in [*range(2, 80), 960, 1000, 2400, 2401]:
        built, expected = eta_product_expansion(prec24), product_on_the_24_grid(prec24)
        assert type(built) is QSeries24
        assert (built.start, built.coeffs, built.den) == (expected.start, expected.coeffs, expected.den), prec24


def test_eta_product_multiplies_on_integer_exponents(monkeypatch):
    """Work guard: the product of eta_product_expansion(2400) has 100 integer
    coefficients, so no product it takes is longer."""
    lengths = []
    convolve = qseries._convolve

    def counted(a, b, out_len):
        lengths.append(out_len)
        return convolve(a, b, out_len)

    monkeypatch.setattr(qseries, "_convolve", counted)
    eta_product_expansion.cache_clear()
    eta_product_expansion(2400)
    assert lengths and max(lengths) <= 100


def test_eta_inverse_is_partition_gf():
    inv = eta_inverse_expansion(24 * 12)
    table = partition_table(11)
    assert inv.offset24 == -1
    assert inv.coeff24(-1) == 1
    assert inv.coeff24(119) == 7  # p(5)
    for n in range(12):
        assert inv.coeff24(24 * n - 1) == table.p(n)


def test_mul_identities():
    eta = eta_expansion(240)
    inv = eta_inverse_expansion(238)
    one = eta * inv
    assert one.coeff24(0) == 1
    assert all(one.coeff24(e) == 0 for e in range(1, one.prec24))
    unit = QSeries24(0, [1] + [0] * 200)
    assert (eta * unit).agrees_with(eta)
    lo = QSeries24(-1, [1])
    hi = QSeries24(1, [1])
    prod = lo * hi
    assert prod.offset24 == 0 and prod.coeff24(0) == 1


def test_mul_precision_rule():
    a = QSeries24(2, [1] * 10)  # prec24 12
    b = QSeries24(-1, [1] * 5)  # prec24 4
    prod = a * b
    assert prod.offset24 == 1
    assert prod.prec24 == min(a.prec24 + b.offset24, b.prec24 + a.offset24)


def test_invert_basics():
    one = QSeries24(0, [1] + [0] * 10)
    assert one.invert().agrees_with(one)
    eta = eta_expansion(24 * 9)
    assert eta.invert().invert().agrees_with(eta)
    with pytest.raises(ZeroDivisionError):
        QSeries24(0, [0, 1, 2]).invert()


def test_invert_random_two_sided():
    rng = random.Random(17)
    for _ in range(50):
        s = random_series(rng, invertible=True)
        inv = s.invert()
        prod = s * inv
        assert prod.coeff24(0) == 1
        assert all(prod.coeff24(e) == 0 for e in range(1, prod.prec24))
        prod2 = inv * s
        assert all(prod.coeff24(e) == prod2.coeff24(e) for e in range(prod.offset24, prod.prec24))


def test_deriv_basics():
    const = QSeries24(0, [F(3)] + [0] * 5)
    assert const.deriv().is_zero()
    single = QSeries24(5, [1])
    assert single.deriv().coeff24(5) == F(5, 24)


def test_deriv_leibniz():
    rng = random.Random(19)
    for _ in range(25):
        a, b = random_series(rng), random_series(rng)
        lhs = (a * b).deriv()
        rhs = a.deriv() * b + a * b.deriv()
        assert lhs.agrees_with(rhs)


def test_eta_log_derivatives():
    prec = 60
    e2 = eisenstein(2, prec).to_qseries24()
    eta = eta_expansion(24 * prec)
    inv = eta_inverse_expansion(24 * prec)
    assert eta.deriv().agrees_with((e2 * eta).scale(F(1, 24)))
    assert inv.deriv().agrees_with((e2 * inv).scale(F(-1, 24)))


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(20):
        a, b, c = (random_series(rng) for _ in range(3))
        assert ((a * b) * c).agrees_with(a * (b * c))
        assert (a * (b + c)).agrees_with(a * b + a * c)
        assert (a + b).agrees_with(b + a)


def test_down_conversion():
    eta = eta_expansion(24 * 8)
    d = to_int_series(eta.pow(24))
    assert d.coeff(1) == 1 and d.coeff(2) == -24
    with pytest.raises(InternalCancellationError):
        to_int_series(eta)


def test_int_series_roundtrip_and_deriv():
    s = IntQSeries(1, [1, -24, 252], 4)
    up = s.to_qseries24()
    assert up.coeff24(24) == 1 and up.coeff24(48) == -24 and up.coeff24(30) == 0
    assert to_int_series(up).agrees_with(s)
    assert s.deriv().coeff(2) == -48


def test_precision_errors():
    s = QSeries24(0, [1, 2, 3])
    with pytest.raises(PrecisionError):
        s.coeff24(3)
    t = IntQSeries(0, [1, 2])
    with pytest.raises(PrecisionError):
        t.coeff(2)
