from fractions import Fraction as F
from math import comb

import pytest

from pentarc.errors import GammaPoleError
from pentarc.forms import decompose, delta, eisenstein, space_basis
from pentarc.qseries import eta_expansion, eta_inverse_expansion, to_int_series
from pentarc.rankincohen import eta_bracket, eta_bracket_from_partitions, rankin_cohen


def test_degenerate_orders():
    p0 = eta_bracket(0, 60)
    assert all(p0.coeff(n) == (1 if n == 0 else 0) for n in range(60))
    assert eta_bracket(1, 60).is_zero()


def test_order_two_is_pure_eisenstein():
    assert eta_bracket(2, 40).agrees_with(eisenstein(4, 40))
    sp = space_basis(4, 40)
    assert decompose(eta_bracket(2, 40), sp) == [F(1)]


def test_constant_terms():
    for nu in range(2, 15):
        assert eta_bracket(nu, 5).coeff(0) == comb(2 * nu - 2, nu - 2)


def test_operator_equals_partition_side():
    for nu in range(8):
        a = eta_bracket(nu, 30)
        b = eta_bracket_from_partitions(nu, 30)
        assert a.agrees_with(b), nu


def test_brackets_are_modular():
    """Zero-residual decomposition in the weight-2nu monomial space."""
    for nu in range(2, 15):
        prec = 20
        sp = space_basis(2 * nu, prec)
        coords = decompose(eta_bracket(nu, prec), sp)  # raises on residual
        assert len(coords) == sp.dim_total


def test_rankin_cohen_order_zero_is_product():
    f = eisenstein(4, 12).to_qseries24()
    g = eisenstein(6, 12).to_qseries24()
    assert rankin_cohen(f, 4, g, 6, 0).agrees_with(f * g)


def test_rankin_cohen_e4_e6_gives_cusp_form():
    prec = 14
    f = eisenstein(4, prec).to_qseries24()
    g = eisenstein(6, prec).to_qseries24()
    bracket = to_int_series(rankin_cohen(f, 4, g, 6, 1))
    sp = space_basis(12, bracket.prec)
    coords = decompose(bracket, sp)
    # cusp form: no Eisenstein component, proportional to delta
    synth_const = sum(c * b.coeff(0) for c, b in zip(coords, sp.basis))
    assert synth_const == 0
    assert not bracket.is_zero()
    ratio = bracket.coeff(1)
    assert bracket.agrees_with(delta(bracket.prec).scale(ratio))


def test_eta_bracket_matches_scaled_general_bracket():
    """The two constructions differ by exactly 24^nu, order by order."""
    grid = 24 * 16 + 2
    inv = eta_inverse_expansion(grid)
    eta = eta_expansion(grid)
    for nu in range(7):
        rc = rankin_cohen(inv, F(-1, 2), eta, F(1, 2), nu)
        scaled = to_int_series(rc.scale(F(24) ** nu)).truncate(14)
        assert scaled.agrees_with(eta_bracket(nu, 14)), nu


@pytest.mark.parametrize("nu", [6, 12])
def test_eta_bracket_matches_scaled_general_bracket_at_prec_40(nu):
    """The integer-grid bracket against the 1/24-grid general bracket."""
    grid = 24 * 40 + 2
    rc = rankin_cohen(eta_inverse_expansion(grid), F(-1, 2), eta_expansion(grid), F(1, 2), nu)
    scaled = to_int_series(rc.scale(F(24) ** nu)).truncate(40)
    bracket = eta_bracket(nu, 40)
    assert bracket.prec == scaled.prec == 40
    assert scaled.agrees_with(bracket)


def test_rankin_cohen_pole_guard():
    f = eisenstein(4, 8).to_qseries24()
    with pytest.raises(GammaPoleError):
        rankin_cohen(f, -4, f, 6, 2)


def test_bracket_needs_sane_arguments():
    with pytest.raises(ValueError):
        eta_bracket(-1, 10)
    with pytest.raises(ValueError):
        eta_bracket(3, 1)
