from fractions import Fraction as F
from math import comb

import pytest

from pentarc import hecke
from pentarc.errors import PrecisionError, UnsupportedHeckeFieldError
from pentarc.exactnum import QuadNum, bernoulli
from pentarc.forms import cusp_generator, delta, eisenstein
from pentarc.hecke import (
    eigen_pairs,
    eigenform_projections,
    eigenforms,
    hecke_action,
    hecke_operator,
    trace_series,
)
from pentarc.partitions import sigma
from pentarc.rankincohen import eta_bracket

#: exact cusp-part multipliers for the one-dimensional weights
BETA = {
    6: F(-33108590592, 691),
    8: F(-187167592415232, 3617),
    9: F(-28682634201661440, 43867),
    10: F(-8294726176465158144, 174611),
    11: F(-101475065073734516736, 77683),
    13: F(-1195065734266339700244480, 657931),
}


def test_hecke_t1_is_identity():
    d = delta(20)
    assert hecke_operator(d, 12, 1).agrees_with(d)


def test_hecke_t2_on_delta():
    d = delta(30)
    assert hecke_operator(d, 12, 2).agrees_with(d.scale(-24))


def test_hecke_multiplicativity():
    d = delta(36)
    t6 = hecke_operator(d, 12, 6)
    t2t3 = hecke_operator(hecke_operator(d, 12, 3), 12, 2)
    assert t6.agrees_with(t2t3)
    assert d.coeff(6) == d.coeff(2) * d.coeff(3)


def test_hecke_precision_rules():
    d = delta(30)
    assert hecke_operator(d, 12, 2).prec == 15
    with pytest.raises(PrecisionError):
        hecke_operator(delta(3), 12, 5)


def test_eigenforms_weight12():
    (f,) = eigenforms(12)
    assert f.disc == 1
    assert f.a(1) == 1 and f.a(2) == QuadNum(-24)
    d = delta(f.prec)
    assert all(f.a(n) == QuadNum(d.coeff(n)) for n in range(f.prec))


def test_eigenforms_weight24_field_and_values():
    f1, f2 = eigenforms(24)
    assert f1.disc == f2.disc == 144169
    assert f1.a(2) == QuadNum(540, -12, 144169)
    assert f2.a(2) == QuadNum(540, 12, 144169)
    prec = f1.prec
    de43 = delta(prec) * eisenstein(4, prec).pow(3)
    d2 = delta(prec) * delta(prec)
    for f, sgn in ((f1, -1), (f2, 1)):
        c = QuadNum(-156, 12 * sgn, 144169)
        for n in range(prec):
            assert QuadNum(de43.coeff(n)) + c * d2.coeff(n) == f.a(n)


def test_eigen_pairs_are_the_eigenform_coefficients():
    for weight in (12, 24, 28, 38):
        d, pairs = eigen_pairs(weight, 40)
        forms = eigenforms(weight, 40)
        assert len(pairs) == len(forms)
        for f, p in zip(forms, pairs):
            assert len(p) == 40
            assert all(f.a(n) == QuadNum(F(x, 2), F(y, 2), d) for n, (x, y) in enumerate(p))


def test_eigenvector_property():
    for weight in (12, 24):
        for f in eigenforms(weight):
            for m in (2, 3, 5, 7):
                count = f.prec // m
                acted = hecke_action(f.coeffs, weight, m, count)
                lam = f.a(m)
                for n in range(1, count):
                    assert acted[n] == lam * f.a(n)


def test_eigenform_coefficient_multiplicativity():
    f1, _ = eigenforms(24)
    assert f1.a(6) == f1.a(2) * f1.a(3)
    assert f1.a(10) == f1.a(2) * f1.a(5)


def test_eigenforms_weight28_field():
    f1, f2 = eigenforms(28)
    assert f1.disc == f2.disc == 18209
    assert f1.a(2) == QuadNum(-4140, -108, 18209)
    assert f2.a(2) == f1.a(2).conjugate()
    g1, g2 = eigenform_projections(14)
    assert g2 == g1.conjugate()


def test_eigenforms_need_prec_6():
    # prec 6 is the first whose T_2 check compares a(4) + 2^(k-1) a(1) with a(2)^2
    for prec in (2, 5):
        with pytest.raises(ValueError, match="prec >= 6, got %d" % prec):
            eigenforms(12, prec)
    (f,) = eigenforms(12, 6)
    assert f.prec == 6 and f.a(2) == -24
    assert [g.prec for g in eigenforms(24, 6)] == [6, 6]


def test_unsupported_dimension():
    with pytest.raises(UnsupportedHeckeFieldError):
        eigenforms(36)  # dim S_36 = 3


def test_trace_values_weight12():
    tr = trace_series(6, 50)
    assert tr.value(1) == BETA[6]
    assert tr.value(2) == F(794606174208, 691)  # beta_6 * tau(2), tau(2) = -24
    d = delta(51)
    for n in range(1, 51):
        assert tr.value(n) == BETA[6] * d.coeff(n)


def test_trace_values_weight24():
    tr = trace_series(12, 2)
    assert tr.value(1) == F(-11762326506193377107116032, 236364091)
    assert tr.value(2) == F(-22599437869751987230702829568, 236364091)


def test_trace_zero_for_trivial_cusp_spaces():
    for nu in (2, 3, 4, 5, 7):
        tr = trace_series(nu, 12)
        assert all(tr.value(n) == 0 for n in range(1, 13))
    # the defining formula vanishes identically there, and gives the traces of
    # the nontrivial spaces (dim S_2nu = 1, 1, 2, 1, 3)
    for nu in (2, 3, 4, 5, 7, 6, 8, 12, 13, 18):
        tr = trace_series(nu, 12)
        bracket = eta_bracket(nu, 13)
        factor = F(4 * nu) / bernoulli(2 * nu) * comb(2 * nu - 2, nu - 2)
        for n in range(1, 13):
            assert tr.value(n) == bracket.coeff(n) + factor * sigma(2 * nu - 1, n), (nu, n)


def refuse_brackets(monkeypatch):
    """Make every bracket build in ``hecke`` fail, cached or not."""

    def refuse(nu, prec):
        raise AssertionError(f"eta_bracket({nu}, {prec}) built for a shorter request")

    monkeypatch.setattr(hecke, "eta_bracket", refuse)


def test_shorter_trace_is_read_from_a_longer_one(monkeypatch):
    trace_series.cache_clear()
    hecke._longest_cusp.cache_clear()
    longer = trace_series(8, 60)
    refuse_brackets(monkeypatch)
    shorter = trace_series(8, 30)
    assert shorter.values == longer.values[:31]
    assert shorter.values[1:] == tuple(hecke.cusp_part(8, 31).coeff(n) for n in range(1, 31))
    monkeypatch.setattr(hecke, "eta_bracket", eta_bracket)
    assert len(trace_series(8, 61).values) == 62
    assert trace_series(8, 70).values[:61] == longer.values


@pytest.mark.parametrize("nu", [6, 12, 13, 18])
def test_cusp_part_prefix_equals_a_fresh_build(monkeypatch, nu):
    hecke._longest_cusp.cache_clear()
    hecke.cusp_part(nu, 40)
    refuse_brackets(monkeypatch)
    c = comb(2 * nu - 2, nu - 2)
    for prec in (2, 3, 13, 39, 40):
        fresh = eta_bracket(nu, prec) - eisenstein(2 * nu, prec).scale(c)
        read = hecke.cusp_part(nu, prec)
        assert (read.offset, read.coeffs, read.den) == (fresh.offset, fresh.coeffs, fresh.den), prec


def test_cusp_multipliers_exact():
    for nu, beta in BETA.items():
        prec = 16
        bracket = eta_bracket(nu, prec)
        c = comb(2 * nu - 2, nu - 2)
        cusp = bracket - eisenstein(2 * nu, prec).scale(c)
        assert cusp.agrees_with(cusp_generator(2 * nu, prec).scale(beta)), nu


def test_projections_weight12():
    (gamma,) = eigenform_projections(6)
    assert gamma == QuadNum(BETA[6])


def test_projections_weight24_exact_values():
    g1, g2 = eigenform_projections(12)
    a = F(-5881163253096688553558016, 236364091)
    b = F(676990898183648483035840512, 236364091 * 144169)
    assert g1 == QuadNum(a, b, 144169)
    assert g2 == g1.conjugate()


def test_projection_reconstruction():
    for nu in (6, 8, 9, 10, 11, 12, 13):
        prec = 12
        bracket = eta_bracket(nu, prec)
        c = comb(2 * nu - 2, nu - 2)
        eis = eisenstein(2 * nu, prec)
        gammas = eigenform_projections(nu)
        fs = eigenforms(2 * nu)
        for n in range(prec):
            acc = QuadNum(c * eis.coeff(n))
            for g, f in zip(gammas, fs):
                acc = acc + g * f.a(n)
            assert acc == QuadNum(bracket.coeff(n)), (nu, n)


def test_ramanujan_congruence():
    d = delta(51)
    for n in range(1, 51):
        assert (d.coeff(n) - sigma(11, n)) % 691 == 0


def _hurwitz_class_number(n):
    """H(n) for n > 0: classes of positive definite forms a x^2 + b xy + c y^2
    of discriminant -n, counted over the reduced forms |b| <= a <= c (b >= 0
    when |b| = a or a = c), with a(x^2 + y^2) weighted 1/2 and
    a(x^2 + xy + y^2) weighted 1/3."""
    total = F(0)
    a = 1
    while 3 * a * a <= n:
        for b in range(-a + 1, a + 1):
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if b == 0 and c == a:
                total += F(1, 2)
            elif b == a == c:
                total += F(1, 3)
            else:
                total += 1
        a += 1
    return total


def _eichler_selberg_trace(k, n):
    """tr T_n on S_k (level 1, even k >= 4), in Zagier's form:
    -1/2 sum_{t^2 <= 4n} P_k(t, n) H(4n - t^2) - 1/2 sum_{dd' = n} min(d, d')^(k-1),
    with H(0) = -1/12 and P_k(t, n) the x^(k-2) coefficient of 1/(1 - tx + nx^2)."""
    total = F(0)
    t = 0
    while t * t <= 4 * n:
        p_prev, p = 0, 1  # coefficients of x^(j-1) and x^j, from j = 0
        for _ in range(k - 2):
            p_prev, p = p, t * p - n * p_prev
        h = F(-1, 12) if t * t == 4 * n else _hurwitz_class_number(4 * n - t * t)
        # t and -t agree, since k - 2 is even
        total += (1 if t == 0 else 2) * p * h
        t += 1
    total += sum(min(d, n // d) ** (k - 1) for d in range(1, n + 1) if n % d == 0)
    return -total / 2


def test_eichler_selberg_trace_formula():
    assert [_hurwitz_class_number(n) for n in (3, 4, 7, 8, 11, 12, 15, 20, 23)] == [
        F(1, 3), F(1, 2), 1, 1, 1, F(4, 3), 2, 2, 3,
    ]
    assert _eichler_selberg_trace(36, 1) == 3 and _eichler_selberg_trace(36, 2) == 139656
    for k in (12, 16, 24, 26, 28, 30, 32, 34, 38):
        fs = eigenforms(k)
        for n in (1, 2, 3, 5, 7):
            assert sum((f.a(n) for f in fs), QuadNum(0)) == _eichler_selberg_trace(k, n), (k, n)
