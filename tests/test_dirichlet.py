import math
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from pentarc._coeffs import cusp_monomial_coeffs
from pentarc.dirichlet import (
    DEFAULT_BIG_M,
    _coprime_split,
    _float_weights,
    _half_product,
    default_big_n,
    dirichlet_double_sum,
    dirichlet_partial,
    dirichlet_weight,
    dirichlet_weight_float,
    embedded_eigenforms,
    kronecker12,
    kronecker_symbol,
    petersson_norm_estimate,
)
from pentarc.errors import InternalCancellationError, PrecisionError
from pentarc.exactnum import QuadNum
from pentarc.forms import _monomial_exponents, delta
from pentarc.hecke import eigen_coordinates, eigenform_projections, eigenforms


@pytest.fixture(scope="module")
def delta_table_2000():
    return embedded_eigenforms(6, 2000)[0]


def test_kronecker12_values():
    assert kronecker12(1) == 1
    assert kronecker12(2) == 0
    assert kronecker12(11) == 1
    assert kronecker12(5) == -1


def test_kronecker12_against_general_symbol():
    for n in range(1, 10001):
        assert kronecker12(n) == kronecker_symbol(12, n)
        assert kronecker12(n) == kronecker12(n + 12)


def test_kronecker12_multiplicative():
    rng = random.Random(41)
    for _ in range(400):
        a = rng.randrange(1, 10**6)
        b = rng.randrange(1, 10**6)
        if gcd(a * b, 12) == 1:
            assert kronecker12(a * b) == kronecker12(a) * kronecker12(b)


def test_kronecker_symbol_classics():
    # quadratic residues mod 7: 1, 2, 4
    assert [kronecker_symbol(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    assert kronecker_symbol(2, 15) == 1
    assert kronecker_symbol(-1, 0) == 1 and kronecker_symbol(5, 0) == 0
    assert kronecker_symbol(6, 3) == 0


def test_weight_pi_power():
    for nu in (2, 6, 9):
        w = dirichlet_weight(nu, 0, 0)
        assert w.half_pi_pow == 2 * (1 - 2 * nu)
    assert dirichlet_weight(6, 0, 0).half_pi_pow == -22


def test_weight_domain():
    with pytest.raises(ValueError):
        dirichlet_weight(6, 5, 0)  # j must be <= nu - 2
    with pytest.raises(ValueError):
        dirichlet_weight(6, 0, -1)
    with pytest.raises(ValueError):
        dirichlet_weight(1, 0, 0)


def _weight_mpmath(nu, j, m):
    """Independent high-precision Gamma evaluation of the weight."""
    with mpmath.workdps(40):
        g = mpmath.gamma
        val = (
            (-1) ** (j + 1)
            * g(nu - 0.5)
            * g(nu + 0.5)
            / (2 * mpmath.sqrt(mpmath.pi) * g(2.5))
            * (6 / mpmath.pi) ** (2 * nu - 1)
            * mpmath.factorial(2 * nu + m - 2)
            / (mpmath.factorial(j) * mpmath.factorial(m) * mpmath.factorial(2 * nu - j - 2))
            * mpmath.rf(nu - j - 1, nu)
            * mpmath.rf(mpmath.mpf(3) / 2, j)
            / (mpmath.rf(mpmath.mpf(-1) / 2 - j, nu) * mpmath.rf(mpmath.mpf(5) / 2, j))
        )
        return float(val)


def test_weight_against_gamma_oracle():
    for nu in range(2, 9):
        for j in range(nu - 1):
            for m in (0, 1, 5):
                mine = float(dirichlet_weight(nu, j, m))
                oracle = _weight_mpmath(nu, j, m)
                assert mine == pytest.approx(oracle, rel=1e-12), (nu, j, m)


def test_weight_wide_mode_agrees():
    for nu, j, m in ((6, 0, 0), (6, 4, 7), (8, 3, 2)):
        assert dirichlet_weight_float(nu, j, m) == pytest.approx(
            dirichlet_weight_float(nu, j, m, dps=50), rel=1e-13
        )


@pytest.mark.parametrize("dps", [None, 30, 1000])
def test_float_weights_match_the_reference(dps):
    for nu, M in ((2, 3), (6, 4), (19, 2), (12, 100)):
        expected = [
            (2 * nu + 1 + 2 * m + 2 * j, dirichlet_weight_float(nu, j, m, dps))
            for j in range(nu - 1)
            for m in range(M + 1)
        ]
        assert list(_float_weights(nu, M, dps)) == expected
    # at (19, 1000) the reference takes 7 s per dps for all 18018 weights, so
    # every j is checked at every 25th m and the last ones
    nu, M = 19, 1000
    weights = _float_weights(nu, M, dps)
    for j in range(nu - 1):
        for m in [*range(0, M, 25), M - 1, M]:
            expected = (2 * nu + 1 + 2 * m + 2 * j, dirichlet_weight_float(nu, j, m, dps))
            assert weights[j * (M + 1) + m] == expected, (j, m)


def test_partial_small_cases():
    (f,) = eigenforms(12)
    assert dirichlet_partial(f, 1, 13) == 0.0
    assert dirichlet_partial(f, 5, 13) == -(5.0**-13)
    with pytest.raises(ValueError):
        dirichlet_partial(f, 5, 12)  # below absolute-convergence bound
    with pytest.raises(PrecisionError):
        dirichlet_partial(f, 200, 13)  # beyond the stored exact coefficients


def test_partial_tail_decreases(delta_table_2000):
    # beyond N ~ 800 the signed tail terms are individually ~1e-14 and the
    # doubling gaps fluctuate instead of shrinking; test the decaying regime
    f = delta_table_2000
    gaps = []
    for n_trunc in (50, 100, 200, 400):
        gaps.append(abs(dirichlet_partial(f, 2 * n_trunc, 13) - dirichlet_partial(f, n_trunc, 13)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_embedded_table_matches_exact_small_indices(delta_table_2000):
    d = delta(60)
    for n in (1, 5, 7, 11, 13, 25, 35, 37):
        m = (n * n - 1) // 24
        assert delta_table_2000.a_float(m) == float(d.coeff(m))


def test_double_sum_hand_composed():
    (f,) = eigenforms(12)
    total = 0.0
    for j in range(5):
        total += dirichlet_weight_float(6, j, 0) * dirichlet_partial(f, 2, 13 + 2 * j)
    got = dirichlet_double_sum(f, 6, 0, 2)
    assert got == pytest.approx(total, rel=1e-14, abs=1e-300)
    assert math.isfinite(got)


def _neumaier_sum(values) -> float:
    total = comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


def _partial_reference(f, N, s):
    """The partial sum over every n, zero terms included."""
    return _neumaier_sum(
        kronecker12(n) * f.a_float((n * n - 1) // 24) * float(n) ** (-s)
        for n in range(1, N + 1)
        if kronecker12(n)
    )


def _double_sum_reference(f, nu, M, N, dps=None):
    """Every (j, m) evaluates its weight from scratch and its partial sum
    over every n, zero terms included."""
    return _neumaier_sum(
        dirichlet_weight_float(nu, j, m, dps) * _partial_reference(f, N, 2 * nu + 1 + 2 * m + 2 * j)
        for j in range(nu - 1)
        for m in range(M + 1)
    )


def test_partial_matches_reference_through_underflow():
    # 5^(-s) leaves the normal range at s = 441 and underflows to 0.0 at
    # s = 463, so these exponents cover every term kept, a tail stopped
    # early, subnormal first terms and an all-zero sum
    for nu, N in ((6, 120), (12, 80)):
        for f in embedded_eigenforms(nu, N):
            for s in range(2 * nu + 1, 480):
                assert dirichlet_partial(f, N, s) == _partial_reference(f, N, s), (nu, s)


@pytest.mark.parametrize("dps", [None, 30])
def test_double_sum_matches_reference_loop(dps):
    # at M = 100, n^(-s) underflows to 0.0 within n <= N for the largest s,
    # so these cases pin the partial sums' early stop against every term
    for nu, M, N in ((6, 7, 60), (12, 5, 40), (9, 0, 25), (6, 100, 120), (12, 100, 80)):
        if M == 100:
            assert float(N - 1) ** -(2 * nu + 1 + 2 * M + 2 * (nu - 2)) == 0.0
        for f in embedded_eigenforms(nu, N):
            assert dirichlet_double_sum(f, nu, M, N, dps) == _double_sum_reference(f, nu, M, N, dps)


def test_default_double_sums_pinned():
    expected = {
        6: ["-49.608381993955945"],
        12: ["-1869261857645.771", "-4182695338638.0947"],
    }
    for nu, values in expected.items():
        N = default_big_n(nu)
        got = [repr(dirichlet_double_sum(f, nu, DEFAULT_BIG_M, N)) for f in embedded_eigenforms(nu, N)]
        assert got == values


def test_scale_double_sums_pinned():
    # below the 1e-5 and 1e-9 tolerances of the acceptance targets
    (f,) = embedded_eigenforms(6, 10000)
    assert repr(dirichlet_double_sum(f, 6, DEFAULT_BIG_M, 10000)) == "-49.608244425281754"
    (f,) = embedded_eigenforms(6, default_big_n(6))
    assert repr(dirichlet_double_sum(f, 6, DEFAULT_BIG_M, default_big_n(6), 30)) == "-49.608381993955916"
    est = petersson_norm_estimate(14)
    assert [repr(v) for v in est.double_sums] == ["-3.679297814782367e+16", "-5.850346111210148e+16"]


def _embedded_full_range(nu, N):
    """Monomial tables at every needed index, then sum_j c_j table_j embedded."""
    indices = tuple((n * n - 1) // 24 for n in range(1, N + 1) if gcd(n, 12) == 1)
    exps = _monomial_exponents(2 * nu - 12)
    _, coords = eigen_coordinates(2 * nu)
    tables = [cusp_monomial_coeffs(a, b, indices, indices[-1]) for a, b in exps]
    out = []
    for c in coords:
        values = {}
        for pos, m in enumerate(indices):
            exact = c[0] * tables[0][pos]
            for j in range(1, len(exps)):
                exact = exact + c[j] * tables[j][pos]
            values[m] = exact.embed()
        out.append(values)
    return out


def test_embedded_matches_full_range_tables():
    for nu, N, disc in ((6, 700, 1), (12, 360, 144169), (14, 50, 18209)):
        forms = embedded_eigenforms(nu, N)
        oracle = _embedded_full_range(nu, N)
        assert len(forms) == len(oracle)
        for f, values in zip(forms, oracle):
            assert f.disc == disc
            for m, want in values.items():
                assert f.a_float(m).hex() == want.hex(), (nu, N, m)


def test_coprime_split_covers_every_index():
    # a((n^2-1)/24) = a(2^e) a(u) a(v) needs coprime factors inside the tables' N + 1
    for n in range(5, 10**5 + 1):
        if gcd(n, 6) != 1:
            continue
        e, u, v = _coprime_split(n)
        assert (u * v) << e == (n * n - 1) // 24, n
        assert gcd(1 << e, u) == gcd(1 << e, v) == gcd(u, v) == 1, n
        assert max(1 << e, u, v) <= n + 1, n


def test_half_product_matches_quadnum():
    rng = random.Random(7)
    d = 144169

    def pair():
        # x = y mod 2 keeps (x + y sqrt(d))/2 an algebraic integer for d = 1 mod 4
        parity = rng.randrange(2)
        return tuple(2 * rng.randrange(-10**6, 10**6) + parity for _ in range(2))

    for _ in range(200):
        p, q = pair(), pair()
        a, b = (QuadNum(Fraction(x, 2), Fraction(y, 2), d) for x, y in (p, q))
        exact = a * b
        assert _half_product(p, q, d) == (2 * exact.a, 2 * exact.b)
    with pytest.raises(InternalCancellationError):
        _half_product((1, 0), (1, 0), d)  # (1/2)^2 is not an algebraic integer


@pytest.mark.parametrize(
    "cached",
    [embedded_eigenforms, eigen_coordinates, _float_weights, eigenforms, eigenform_projections],
)
def test_petersson_path_caches_are_bounded(cached):
    assert isinstance(cached.cache_info().maxsize, int)


def test_double_sum_converges_in_n(delta_table_2000):
    f = delta_table_2000
    values = {n: dirichlet_double_sum(f, 6, 100, n) for n in (125, 250, 500, 1000)}
    gaps = [
        abs(values[250] - values[125]),
        abs(values[500] - values[250]),
        abs(values[1000] - values[500]),
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_norm_estimate_weight12_window():
    est = petersson_norm_estimate(6)
    assert est.big_m == 100 and est.big_n == 2000
    assert len(est.estimates) == 1
    assert 1.0353e-6 <= est.estimates[0] <= 1.0354e-6


def test_double_sum_wide_mode_close():
    (f,) = eigenforms(12)
    plain = dirichlet_double_sum(f, 6, 3, 15)
    wide = dirichlet_double_sum(f, 6, 3, 15, dps=40)
    assert wide == pytest.approx(plain, rel=1e-12)


def test_norm_estimate_weight24_positive():
    est = petersson_norm_estimate(12)
    assert len(est.estimates) == 2
    assert all(v > 0 for v in est.estimates)
    # each eigenform's double sum goes with its own exact projection
    assert est.projections == eigenform_projections(12)
    forms = embedded_eigenforms(12, est.big_n)
    for f, value, gamma, norm in zip(forms, est.double_sums, est.projections, est.estimates):
        assert value == dirichlet_double_sum(f, 12, est.big_m, est.big_n)
        assert norm == value / gamma.embed()


def test_norm_estimates_other_weights_positive_and_stable():
    for nu in (8, 9, 10, 11, 13):
        est = petersson_norm_estimate(nu)
        assert len(est.estimates) == 1 and est.estimates[0] > 0
    coarse = petersson_norm_estimate(13, N=360).estimates[0]
    finer = petersson_norm_estimate(13, N=500).estimates[0]
    assert finer == pytest.approx(coarse, rel=1e-4)
