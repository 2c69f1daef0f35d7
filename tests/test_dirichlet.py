import functools
import math
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from pentarc import dirichlet as dmod
from pentarc._coeffs import cusp_monomial_coeffs
from pentarc.dirichlet import (
    DEFAULT_BIG_M,
    MIN_BIG_N,
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
    petersson_norm_estimate,
)
from pentarc.errors import InternalCancellationError, PrecisionError
from pentarc.exactnum import QuadNum, kronecker_symbol
from pentarc.forms import _monomial_exponents, delta
from pentarc.hecke import eigen_coordinates, eigenform_projections, eigenforms
from pentarc.verify import run_suite

#: dirichlet_weight(nu, j, 0) for j = 0..nu-2, as the Gamma-function
#: products of the earlier pi-power scalar class computed them
WEIGHT_RATIONALS = {
    2: (
        432,
    ),
    6: (
        11879517500928000,
        85532526006681600,
        128298789010022400,
        47518070003712000,
        3239868409344000,
    ),
    12: (
        25180819800733235605053951710676910080000,
        1057594431630795895412265971848430223360000,
        12917760557776149865392677227577254871040000,
        65067238365094680803459411220389135646720000,
        155274091553066851917346322230474073702400000,
        186328909863680222300815586676568888442880000,
        113867667138915691406053969635680987381760000,
        34447361487403066307713805940206012989440000,
        4759174942338581529355196873317936005120000,
        251808198007332356050539517106769100800000,
        3284454756617378557180950223131770880000,
    ),
}

#: float.hex of every _float_weights(nu, M, dps) weight, in summation order
FLOAT_WEIGHT_HEX = {
    (6, 4, None): (
        "0x1.2cd7e1626d4abp+35", "0x1.9da8d5e75646bp+38", "0x1.363ea06d80b50p+41", "0x1.50192dcbf6197p+43",
        "0x1.2616081277564p+45", "0x1.0ec24ad895900p+38", "0x1.744b26e9cda60p+41", "0x1.17385d2f5a3c8p+44",
        "0x1.2e7d0f9df716ep+46", "0x1.08ad6daa38340p+48", "0x1.96237044e0580p+38", "0x1.17385d2f5a3c8p+42",
        "0x1.a2d48bc7075acp+44", "0x1.c5bb976cf2a25p+46", "0x1.8d04247f544e0p+48", "0x1.2cd7e1626d4abp+37",
        "0x1.9da8d5e75646bp+40", "0x1.363ea06d80b50p+43", "0x1.50192dcbf6197p+45", "0x1.2616081277564p+47",
        "0x1.483152f702dd1p+33", "0x1.c343d213a3f00p+36", "0x1.5272dd8ebaf40p+39", "0x1.6ea71aaff5330p+41",
        "0x1.40d23759f68cap+43",
    ),
    (12, 3, None): (
        "0x1.2b3701cf76957p+96", "0x1.ae1f129a3a76dp+100", "0x1.42974df3abd92p+104", "0x1.500846887dacdp+107",
        "0x1.88b832604ba43p+101", "0x1.1a446435365dfp+106", "0x1.a766964fd18cfp+109", "0x1.b90adc9324f2dp+112",
        "0x1.2bcc9d505e50cp+105", "0x1.aef6222387941p+109", "0x1.4338999aa5af1p+113", "0x1.50b04aabc1ebap+116",
        "0x1.79866748c29e9p+107", "0x1.0f589a3c4be1fp+112", "0x1.9704e75a71d2ep+115", "0x1.a7fa70fe36911p+118",
        "0x1.c274bb3ca265ep+108", "0x1.43c3e69394b94p+113", "0x1.e5a5d9dd5f15ep+116", "0x1.f9e2184698616p+119",
        "0x1.0e4609f12e3d2p+109", "0x1.8484ae4ab277ep+113", "0x1.236382b805d9fp+117", "0x1.2f87a82a5b6dap+120",
        "0x1.4a559a5faa4abp+108", "0x1.dadb0de984cb7p+112", "0x1.64244a6f23989p+116", "0x1.72fb22de6fbefp+119",
        "0x1.8fbb7c6b286bap+106", "0x1.1f4ec16d050d5p+111", "0x1.aef6222387941p+114", "0x1.c0eb0e3a57e4ep+117",
        "0x1.b9cf38ac5518ap+103", "0x1.3d8cf0bbdd29cp+108", "0x1.dc536919cbbe9p+111", "0x1.f02c382589913p+114",
        "0x1.7604c243543adp+99", "0x1.0cd36ba0648a4p+104", "0x1.933d217096cf6p+107", "0x1.a40a582a9d180p+110",
        "0x1.3839661022b23p+93", "0x1.c0d282b731e02p+97", "0x1.509de20965682p+101", "0x1.5ea4761f1ef71p+104",
    ),
    (6, 2, 30): (
        "0x1.2cd7e1626d4a8p+35", "0x1.9da8d5e756467p+38", "0x1.363ea06d80b4dp+41", "0x1.0ec24ad8958fep+38",
        "0x1.744b26e9cda5dp+41", "0x1.17385d2f5a3c6p+44", "0x1.96237044e057dp+38", "0x1.17385d2f5a3c6p+42",
        "0x1.a2d48bc7075a8p+44", "0x1.2cd7e1626d4a8p+37", "0x1.9da8d5e756467p+40", "0x1.363ea06d80b4dp+43",
        "0x1.483152f702dcfp+33", "0x1.c343d213a3efcp+36", "0x1.5272dd8ebaf3dp+39",
    ),
}


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


def _weight_mpmath(nu, j, m):
    """Independent 40-digit Gamma evaluation of the weight, as an mpf."""
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
        return val


def test_weight_pi_power():
    """The weight is the rational dirichlet_weight times pi^(1-2nu): at 40
    digits that product matches the Gamma-function oracle to 30."""
    for nu in (2, 6, 9):
        for j in range(nu - 1):
            r = dirichlet_weight(nu, j, 3)
            assert isinstance(r, Fraction)
            with mpmath.workdps(40):
                mine = mpmath.mpf(r.numerator) / r.denominator * mpmath.pi ** (1 - 2 * nu)
                assert mpmath.almosteq(mine, _weight_mpmath(nu, j, 3), rel_eps=mpmath.mpf(10) ** -30), (nu, j)


def test_weight_rationals_pinned():
    for nu, want in WEIGHT_RATIONALS.items():
        assert tuple(dirichlet_weight(nu, j, 0) for j in range(nu - 1)) == want, nu


@pytest.mark.parametrize("key", FLOAT_WEIGHT_HEX, ids=str)
def test_float_weights_pinned(key):
    assert tuple(w.hex() for _, w in _float_weights(*key)) == FLOAT_WEIGHT_HEX[key]


def test_weight_domain():
    with pytest.raises(ValueError):
        dirichlet_weight(6, 5, 0)  # j must be <= nu - 2
    with pytest.raises(ValueError):
        dirichlet_weight(6, 0, -1)
    with pytest.raises(ValueError):
        dirichlet_weight(1, 0, 0)


def test_weight_against_gamma_oracle():
    for nu in range(2, 9):
        for j in range(nu - 1):
            for m in (0, 1, 5):
                mine = dirichlet_weight_float(nu, j, m)
                oracle = float(_weight_mpmath(nu, j, m))
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
    (f,) = embedded_eigenforms(6, 5)
    assert dirichlet_partial(f, 1, 13) == 0.0
    assert dirichlet_partial(f, 5, 13) == -(5.0**-13)
    with pytest.raises(ValueError):
        dirichlet_partial(f, 5, 12)  # below absolute-convergence bound
    with pytest.raises(PrecisionError):
        dirichlet_partial(f, 6, 13)  # beyond the record's terms


def test_partial_tail_decreases(delta_table_2000):
    # beyond N ~ 800 the signed tail terms are individually ~1e-14 and the
    # doubling gaps fluctuate instead of shrinking; test the decaying regime
    f = delta_table_2000
    gaps = []
    for n_trunc in (50, 100, 200, 400):
        gaps.append(abs(dirichlet_partial(f, 2 * n_trunc, 13) - dirichlet_partial(f, n_trunc, 13)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_embedded_table_matches_exact_small_indices(delta_table_2000):
    # every n <= 37 prime to 6, each term chi(n) tau((n^2-1)/24) read from the exact Delta
    d = delta(60)
    want = [(kronecker12(n) * float(d.coeff((n * n - 1) // 24)), float(n)) for n in range(1, 38) if kronecker12(n)]
    got = [(c, n) for c, n in delta_table_2000.terms if n <= 37]
    assert [(c.hex(), n) for c, n in got] == [(c.hex(), n) for c, n in want if c]


def test_double_sum_hand_composed():
    (f,) = embedded_eigenforms(6, 2)
    total = 0.0
    for j in range(5):
        total += dirichlet_weight_float(6, j, 0) * dirichlet_partial(f, 2, 13 + 2 * j)
    got = dirichlet_double_sum(f, 6, 0, 2)
    assert got == pytest.approx(total, rel=1e-14, abs=1e-300)
    assert math.isfinite(got)


def _exact_sum(values) -> float:
    """The correctly rounded sum of the floats ``values``: their exact
    rational sum, rounded once."""
    return float(sum(map(Fraction, values), Fraction(0)))


def _partial_reference(coeffs, N, s):
    """The partial sum over every n, zero terms included, with each
    a((n^2-1)/24) read from ``coeffs``, an oracle's {index: float}."""
    return _exact_sum(
        kronecker12(n) * coeffs[(n * n - 1) // 24] * float(n) ** (-s)
        for n in range(1, N + 1)
        if kronecker12(n)
    )


def _double_sum_reference(coeffs, nu, M, N, dps=None):
    """Every (j, m) evaluates its weight from scratch, and each exponent's
    partial sum is taken over every n, zero terms included, once per call."""
    partial = functools.cache(lambda s: _partial_reference(coeffs, N, s))
    return _exact_sum(
        dirichlet_weight_float(nu, j, m, dps) * partial(2 * nu + 1 + 2 * m + 2 * j)
        for j in range(nu - 1)
        for m in range(M + 1)
    )


def test_partial_matches_reference_through_underflow():
    # 5^(-s) leaves the normal range at s = 441 and underflows to 0.0 at
    # s = 463, so these exponents cover every term kept, a tail stopped
    # early, subnormal first terms and an all-zero sum
    for nu, N in ((6, 120), (12, 80)):
        for f, coeffs in zip(embedded_eigenforms(nu, N), _embedded_full_range(nu, N), strict=True):
            for s in range(2 * nu + 1, 480):
                assert dirichlet_partial(f, N, s) == _partial_reference(coeffs, N, s), (nu, s)


@pytest.mark.parametrize("dps", [None, 30])
def test_double_sum_matches_reference_loop(dps):
    # at M = 100, n^(-s) underflows to 0.0 within n <= N for the largest s,
    # so these cases pin the partial sums' early stop against every term
    for nu, M, N in ((6, 7, 60), (12, 5, 40), (9, 0, 25), (6, 100, 120), (12, 100, 80)):
        if M == 100:
            assert float(N - 1) ** -(2 * nu + 1 + 2 * M + 2 * (nu - 2)) == 0.0
        for f, coeffs in zip(embedded_eigenforms(nu, N), _embedded_full_range(nu, N), strict=True):
            assert dirichlet_double_sum(f, nu, M, N, dps) == _double_sum_reference(coeffs, nu, M, N, dps)


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
    tables = [cusp_monomial_coeffs(a, b, indices) for a, b in exps]
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
    for nu, N in ((6, 700), (12, 360), (14, 50)):
        forms = embedded_eigenforms(nu, N)
        oracle = _embedded_full_range(nu, N)
        assert len(forms) == len(oracle)
        for f, values in zip(forms, oracle):
            assert (f.weight, f.big_n) == (2 * nu, N)
            want = [(kronecker12(n) * values[(n * n - 1) // 24], float(n)) for n in range(1, N + 1) if kronecker12(n)]
            assert [(c.hex(), n) for c, n in f.terms] == [(c.hex(), n) for c, n in want if c], (nu, N)


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
    [
        embedded_eigenforms, eigen_coordinates, _float_weights, eigenforms, eigenform_projections,
        dmod._norm_estimate,
    ],
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
    (f,) = embedded_eigenforms(6, 15)
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


def test_double_sums_match_the_reference_at_every_m_dps_and_n_bit_for_bit():
    for nu, N in ((6, 120), (12, 80)):
        for f, coeffs in zip(embedded_eigenforms(nu, N), _embedded_full_range(nu, N), strict=True):
            for M, n, dps in ((0, N, None), (3, N, None), (50, N, None), (200, N, None), (100, N, 30), (100, 47, None)):
                got = dirichlet_double_sum(f, nu, M, n, dps)
                assert got.hex() == _double_sum_reference(coeffs, nu, M, n, dps).hex(), (nu, M, n, dps)


def test_partial_sums_check_the_domain():
    (f,) = embedded_eigenforms(6, 60)
    with pytest.raises(ValueError, match="s = 12 below absolute-convergence bound 13"):
        dirichlet_partial(f, 60, 12)
    with pytest.raises(ValueError, match="s = 11 below absolute-convergence bound 13"):
        dirichlet_double_sum(f, 5, 3, 60)  # a smaller nu starts below the bound
    with pytest.raises(ValueError, match="N must be >= 1"):
        dirichlet_partial(f, 0, 13)


def test_double_sum_needs_the_eigenform_weight():
    f = embedded_eigenforms(6, 60)[0]
    with pytest.raises(ValueError, match="nu = 7 does not match the weight-12 eigenform"):
        dirichlet_double_sum(f, 7, 3, 60)
    assert dirichlet_double_sum(f, 6, 3, 60) == _double_sum_reference(_embedded_full_range(6, 60)[0], 6, 3, 60, None)


@pytest.fixture
def work_counts(monkeypatch):
    """A reader of the work done since its last call: embedded_eigenforms
    cache misses, each one pass that builds twisted terms, and _partial_sum
    calls."""
    calls = {"_partial_sum": 0}
    real = dmod._partial_sum

    def counted(*args):
        calls["_partial_sum"] += 1
        return real(*args)

    monkeypatch.setattr(dmod, "_partial_sum", counted)
    seen = {}

    def read():
        now = {"embedded_eigenforms": embedded_eigenforms.cache_info().misses, **calls}
        since = {k: v - seen.get(k, 0) for k, v in now.items()}
        seen.update(now)
        return since

    read()
    return read


def test_warm_double_sums_sum_no_series(work_counts):
    first = petersson_norm_estimate(6)
    work_counts()
    assert petersson_norm_estimate(6) is first
    assert work_counts() == {"embedded_eigenforms": 0, "_partial_sum": 0}
    embedded_eigenforms.cache_clear()  # (6, 200) is then a miss; the clear zeroes the count, so read again
    work_counts()
    (f,) = embedded_eigenforms(6, 200)
    dirichlet_double_sum(f, 6, 100, 200)
    assert work_counts() == {"embedded_eigenforms": 1, "_partial_sum": 105}
    dirichlet_double_sum(f, 6, 200, 200, 30)  # a new (M, dps) sums each of its M + nu - 1 exponents once
    assert work_counts() == {"embedded_eigenforms": 0, "_partial_sum": 205}


def test_one_pass_checks_each_index_against_its_n(monkeypatch):
    # a split of (n^2-1)/24 off by a factor 2 must fail loudly, not sum a wrong coefficient
    def doubled(n):
        e, u, v = _coprime_split(n)
        return e + 1, u, v

    monkeypatch.setattr(dmod, "_coprime_split", doubled)
    with pytest.raises(InternalCancellationError, match="coprime split of 5"):
        embedded_eigenforms.__wrapped__(6, 30)


def test_norm_estimate_needs_a_nonzero_term():
    # below MIN_BIG_N the only n prime to 12 is 1, whose term a(0) is 0
    with pytest.raises(ValueError, match="N >= 5, got 4"):
        petersson_norm_estimate(6, 3, MIN_BIG_N - 1)
    est = petersson_norm_estimate(6, 3, MIN_BIG_N)
    assert est.big_n == 5 and est.double_sums[0] != 0.0
    assert dirichlet_partial(embedded_eigenforms(6, 4)[0], 4, 13) == 0.0  # a partial sum takes any N >= 1


def test_verify_dirichlet_fails_on_a_flipped_term(monkeypatch):
    assert run_suite("dirichlet")["ok"] is True
    (f,) = embedded_eigenforms(6, 5)
    (coeff, n), *rest = f.terms
    corrupt = f._replace(terms=((-coeff, n), *rest))
    monkeypatch.setattr(dmod, "embedded_eigenforms", lambda nu, N: (corrupt,))
    assert run_suite("dirichlet")["ok"] is False
