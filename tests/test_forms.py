import random
from fractions import Fraction as F

import pytest

from pentarc._coeffs import _cusp_lattice
from pentarc.errors import NotInSpaceError, PrecisionError
from pentarc.exactnum import bernoulli
from pentarc.forms import (
    _monomial_exponents,
    cusp_generator,
    cusp_monomials,
    decompose,
    delta,
    dim_cusp,
    dim_modular,
    eisenstein,
    space_basis,
)
from pentarc.partitions import sigma
from pentarc.qseries import IntQSeries, eta_expansion, to_int_series


def test_eisenstein_coefficients():
    e4 = eisenstein(4, 5)
    assert [e4.coeff(n) for n in range(4)] == [1, 240, 2160, 6720]
    e2 = eisenstein(2, 4)
    assert [e2.coeff(n) for n in range(3)] == [1, -24, -72]
    for w in range(4, 22, 2):
        assert eisenstein(w, 3).coeff(0) == 1
    with pytest.raises(ValueError):
        eisenstein(5, 10)
    with pytest.raises(ValueError):
        eisenstein(0, 10)
    # the sieve against the per-n divisor sum: E_w = 1 - (2w/B_w) sum sigma_{w-1}(n) q^n
    for w in range(2, 41, 2):
        factor = -F(2 * w) / bernoulli(w)
        want = [F(1)] + [factor * sigma(w - 1, n) for n in range(1, 200)]
        assert [eisenstein(w, 200).coeff(n) for n in range(200)] == want, w


def test_delta_is_eta_power():
    d = delta(8)
    assert [d.coeff(n) for n in range(1, 7)] == [1, -24, 252, -1472, 4830, -6048]
    assert d.coeff(0) == 0


def test_delta_vs_eisenstein_identity():
    prec = 60
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    rhs = (e4.pow(3) - e6.pow(2)).scale(F(1, 1728))
    assert delta(prec).agrees_with(rhs)


def test_ramanujan_derivative_identities():
    prec = 60
    e2, e4, e6 = (eisenstein(w, prec) for w in (2, 4, 6))
    assert e2.deriv().agrees_with((e2 * e2 - e4).scale(F(1, 12)))
    assert e4.deriv().agrees_with((e2 * e4 - e6).scale(F(1, 3)))
    assert e6.deriv().agrees_with((e2 * e6 - e4 * e4).scale(F(1, 2)))


def test_cusp_generator_values():
    assert cusp_generator(12, 4).coeff(2) == -24
    assert cusp_generator(12, 4).coeff(1) == 1
    # Delta * E4: q-coefficient of q^2 is tau(2) + 240 = 216
    assert cusp_generator(16, 4).coeff(2) == 216
    for weight in (12, 16, 18, 20, 22, 26):
        assert cusp_generator(weight, 4).coeff(1) == 1
    with pytest.raises(ValueError):
        cusp_generator(24, 4)


def test_cusp_generator_rejects_other_weights():
    # 14 has no cusp form, 24 a two-dimensional cusp space
    for weight in (14, 24):
        with pytest.raises(ValueError, match=f"^weight {weight} does not have a 1-dimensional cusp space$"):
            cusp_generator(weight, 4)
    accepted = set()
    for w in range(-2, 60):
        try:
            cusp_generator(w, 3)
        except ValueError:
            continue
        accepted.add(w)
    assert accepted == {12, 16, 18, 20, 22, 26}


def test_dimensions():
    assert dim_modular(12) == 2 and dim_cusp(12) == 1
    assert dim_cusp(24) == 2
    assert dim_modular(4) == 1 and dim_cusp(4) == 0
    for w in range(4, 42, 2):
        assert dim_modular(w) - dim_cusp(w) == 1


def test_dimension_closed_form_counts_the_monomials():
    for weight in range(-2, 1001):
        assert dim_modular(weight) == len(_monomial_exponents(weight)), weight


def test_space_basis_staircase():
    for weight in (12, 16, 24, 26, 28):
        sp = space_basis(weight, 20)
        assert len(sp.basis) == sp.dim_total
        assert sp.dim_cusp == dim_cusp(weight) == sp.dim_total - 1
    # Delta E4^a E6^b = (E4^(a+3) E6^b - E4^a E6^(b+2)) / 1728: each cusp row is
    # the difference of two neighbouring basis rows, so the two bases span S_weight
    for weight in range(12, 41, 2):
        sp = space_basis(weight, 20)
        cusp = cusp_monomials(weight, 20)
        assert len(cusp) == sp.dim_cusp
        for i, row in enumerate(cusp):
            lo, hi = sp.basis[i], sp.basis[i + 1]
            assert [F(c) for c in row] == [(hi.coeff(n) - lo.coeff(n)) / 1728 for n in range(20)], (weight, i)


def test_space_basis_rows_are_exact_products():
    prec = 30
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    one = IntQSeries(0, [1] + [0] * (prec - 1))
    for weight in range(4, 61, 2):
        exps = _monomial_exponents(weight)
        basis = space_basis(weight, prec).basis
        assert len(basis) == len(exps) == dim_modular(weight), weight
        for (a, b), row in zip(exps, basis):
            want = (e4.pow(a) if a else one) * (e6.pow(b) if b else one)
            assert (row.offset, row.coeffs, row.den) == (want.offset, want.coeffs, want.den), (weight, a, b)


@pytest.mark.parametrize("cached", [space_basis, eisenstein, _cusp_lattice])
def test_form_caches_are_bounded(cached):
    for prec in range(20, 120):
        cached(12, prec)
    info = cached.cache_info()
    assert isinstance(info.maxsize, int) and info.currsize <= info.maxsize


def test_space_basis_precision_guard():
    with pytest.raises(PrecisionError):
        space_basis(24, 5)


def test_decompose_monomial():
    sp = space_basis(8, 16)
    e4sq = eisenstein(4, 16).pow(2)
    assert decompose(e4sq, sp) == [F(1)]


def test_decompose_weight18_identity():
    # eta^24 E6 lies in the weight-18 monomial span with zero residual
    prec = 20
    f = delta(prec) * eisenstein(6, prec)
    sp = space_basis(18, prec)
    coords = decompose(f, sp)
    synth = None
    for c, m in zip(coords, sp.basis):
        term = m.scale(c)
        synth = term if synth is None else synth + term
    assert synth.agrees_with(f)


def test_decompose_roundtrip_random():
    rng = random.Random(31)
    for weight in range(4, 32, 2):
        sp = space_basis(weight, weight // 2 + 8)
        coords = [F(rng.randrange(-20, 21), rng.randrange(1, 5)) for _ in sp.basis]
        f = None
        for c, m in zip(coords, sp.basis):
            term = m.scale(c)
            f = term if f is None else f + term
        assert decompose(f, sp) == coords


def test_decompose_rejects_outsiders():
    sp = space_basis(12, 16)
    bad = delta(16) + IntQSeries(0, [0] * 7 + [1] + [0] * 8)
    with pytest.raises(NotInSpaceError):
        decompose(bad, sp)
    with pytest.raises(ValueError):
        decompose(IntQSeries(-1, [1] * 17), sp)


def test_decompose_residual_check_reads_every_coefficient():
    """A single numerator off by one, at the first unsolved coefficient or at
    the last checked one, is caught at that n; a combination with fractional
    coordinates decomposes over a denominator that is not 1."""
    sp = space_basis(24, 30)
    coords = [F(1, 3), F(-5, 7), F(2, 11)]
    f = None
    for c, m in zip(coords, sp.basis):
        term = m.scale(c)
        f = term if f is None else f + term
    assert f.den != 1
    assert decompose(f, sp) == coords
    check_prec = min(f.prec, sp.prec)
    for n in (sp.dim_total, check_prec - 1):
        nums = list(f.coeffs)
        nums[n] += 1
        with pytest.raises(NotInSpaceError, match=rf"residual at q\^{n}:"):
            decompose(IntQSeries._make(0, nums, f.den), sp)
    # a longer f is checked through the space's precision only
    longer = IntQSeries._make(0, [*f.coeffs, 1], f.den)
    assert decompose(longer, sp) == coords


def test_eta24_downconversion_matches_delta():
    eta = eta_expansion(24 * 10 + 2)
    assert to_int_series(eta.pow(24)).agrees_with(delta(10))
