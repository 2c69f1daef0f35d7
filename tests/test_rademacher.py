import ast
import cmath
import math
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentarc import rademacher
from pentarc.cli import main
from pentarc.errors import PrecisionError
from pentarc.partitions import partition_table
from pentarc.rademacher import (
    CUSP_PARAMETER,
    MAX_DEPTH_C,
    MAX_N,
    KloostermanSum,
    _kloosterman_sum,
    _pair_data,
    bessel_i32,
    eta_multiplier,
    kloosterman,
    rademacher_pn,
)
from pentarc.verify import run_suite

TABLES = (_pair_data, _kloosterman_sum)


def random_sl2(rng, c_bound=None):
    """Random determinant-1 matrix via coprime bottom row + Bezout."""
    while True:
        c = rng.randrange(-40, 41)
        d = rng.randrange(-40, 41)
        if gcd(c, d) != 1:
            continue
        if c_bound is not None and c * c + d * d > c_bound:
            continue
        g, x, y = _xgcd(c, d)
        if g < 0:
            g, x, y = -g, -x, -y
        # a*d - b*c = 1 with (a, b) = (y, -x)
        a, b = y, -x
        shift = rng.randrange(-3, 4)
        return a + shift * c, b + shift * d, c, d


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def eta_numeric(tau, terms=4000):
    q = cmath.exp(2j * math.pi * tau)
    out = cmath.exp(2j * math.pi * tau / 24)
    qn = 1
    for _ in range(terms):
        qn *= q
        out *= 1 - qn
    return out


def multiplier_value(a, b, c, d):
    """The complex value sign * exp(pi i e/12) of the exact multiplier (sign, e)."""
    sign, e = eta_multiplier(a, b, c, d)
    return sign * cmath.exp(1j * math.pi * e / 12)


def test_multiplier_generators():
    assert eta_multiplier(1, 1, 0, 1) == (1, 1)
    # exp(-pi i/4) = exp(pi i * 21 / 12)
    assert eta_multiplier(0, -1, 1, 0) == (1, 21)


def test_multiplier_is_24th_root():
    rng = random.Random(47)
    for _ in range(200):
        a, b, c, d = random_sl2(rng)
        sign, e = eta_multiplier(a, b, c, d)
        assert sign in (1, -1) and 0 <= e < 24, (sign, e)
        assert abs(multiplier_value(a, b, c, d) ** 24 - 1) < 1e-12
    with pytest.raises(ValueError):
        eta_multiplier(1, 1, 1, 1)


def test_multiplier_against_numeric_eta():
    """eta(gamma tau) == eps(gamma) (c tau + d)^(1/2) eta(tau) at tau = i."""
    rng = random.Random(53)
    tau = 1j
    seen = 0
    while seen < 25:
        a, b, c, d = random_sl2(rng, c_bound=150)
        gt = (a * tau + b) / (c * tau + d)
        lhs = eta_numeric(gt, terms=6000)
        rhs = multiplier_value(a, b, c, d) * cmath.sqrt(c * tau + d) * eta_numeric(tau)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs), (a, b, c, d)
        seen += 1


def test_multiplier_cocycle():
    """Automorphy factors composed two ways agree numerically at tau = i."""
    rng = random.Random(59)
    tau = 1j
    for _ in range(100):
        g1 = random_sl2(rng)
        g2 = random_sl2(rng)
        a1, b1, c1, d1 = g1
        a2, b2, c2, d2 = g2
        a3 = a1 * a2 + b1 * c2
        b3 = a1 * b2 + b1 * d2
        c3 = c1 * a2 + d1 * c2
        d3 = c1 * b2 + d1 * d2
        g2tau = (a2 * tau + b2) / (c2 * tau + d2)
        lhs = multiplier_value(a3, b3, c3, d3) * cmath.sqrt(c3 * tau + d3)
        rhs = (
            multiplier_value(a1, b1, c1, d1)
            * cmath.sqrt(c1 * g2tau + d1)
            * multiplier_value(a2, b2, c2, d2)
            * cmath.sqrt(c2 * tau + d2)
        )
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


@cache
def _phase_numerators_literal(c, m, n):
    """Reference enumeration: the literal double loop over (a, d) in
    [0, 24c)^2 with ad = 1 (mod c), every coset lifted 24 x 24 times."""
    out = []
    for a in range(24 * c):
        for d in range(24 * c):
            if (a * d - 1) % c:
                continue
            b = (a * d - 1) // c
            sign, e = eta_multiplier(a, b, c, d)
            r = (e * c + (m + CUSP_PARAMETER) * a + (n + CUSP_PARAMETER) * d) % (24 * c)
            out.append((sign, r))
    return out


LIFTS = 24 * 24
ENUM_CS = range(1, 13)
ENUM_IDXS = (0, 24, 72, 24 * 235)


def _exponents(c, rows):
    """Summand sign * exp(2 pi i r / (24c)) as one exponent k mod 24c; for
    even c, lifts of one coset can differ as (sign, r) vs (-sign, r + 12c)."""
    return Counter(r if s > 0 else (r + 12 * c) % (24 * c) for s, r in rows)


def _phase_numerators(c, m, n):
    """Reference: (sign, r) per coset row, contributing
    sign * exp(2 pi i r / (24c)), with r = e*c + (m + kappa) a + (n + kappa) d
    (mod 24c)."""
    mk, nk = m + CUSP_PARAMETER, n + CUSP_PARAMETER
    return [(sign, (e * c + mk * a + nk * d) % (24 * c)) for sign, e, a, d in _pair_data(c)]


def test_coset_rows_are_the_literal_pairs_once_per_lift():
    """The literal summand multiset is the coset rows', each 576 times."""
    for c in ENUM_CS:
        for idx in ENUM_IDXS:
            rows = _exponents(c, _phase_numerators(c, -24, idx))
            literal = _exponents(c, _phase_numerators_literal(c, -24, idx))
            assert literal == {k: LIFTS * m for k, m in rows.items()}, (c, idx)


def test_kloosterman_times_lifts_is_the_literal_sum():
    """Relative to the sum of the summands' moduli, since K_c can vanish."""
    for c in ENUM_CS:
        for idx in ENUM_IDXS:
            terms = _phase_numerators_literal(c, -24, idx)
            literal = sum(s * cmath.exp(2j * math.pi * r / (24 * c)) for s, r in terms)
            value = kloosterman(c, -24, idx).value
            assert abs(LIFTS * value - literal) <= 1e-12 * len(terms), (c, idx, value, literal)


def kloosterman_per_term(c, m, n):
    """Reference: every coset's phase computed afresh, summed in row order."""
    terms = _phase_numerators(c, m, n)
    value = 0j
    for sign, r in terms:
        value += sign * cmath.exp(1j * (2.0 * math.pi * r / (24.0 * c)))
    return KloostermanSum(value, len(terms))


def _hex(k):
    return k.value.real.hex(), k.value.imag.hex(), k.term_count


def _clear_tables():
    for table in TABLES:
        table.cache_clear()


def test_kloosterman_table_is_bitwise_the_per_term_sum():
    """c up to 120, past the default depth, and n beyond 24c."""
    _clear_tables()
    ms = (-24, 0, 24 * 77)
    ns = (0, 24, 24 * 235, 24 * 999, 24 * 76799)
    for c in range(1, 121):
        for m in ms:
            for n in ns:
                assert _hex(kloosterman(c, m, n)) == _hex(kloosterman_per_term(c, m, n)), (c, m, n)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 120), st.integers(-500, 500), st.integers(-5000, 5000), st.integers(-3, 3))
def test_kloosterman_has_period_24c_in_n(c, m24, n24, shift):
    """Bit for bit, and (m, n) and (m, n + 24c) share one table entry."""
    m, n = 24 * m24, 24 * n24
    moved = kloosterman_per_term(c, m, n + 24 * c * shift)
    assert _hex(kloosterman(c, m, n)) == _hex(moved)
    assert kloosterman(c, m, n + 24 * c * shift) is kloosterman(c, m, n)


def test_rademacher_pn_is_the_same_cold_warm_and_per_term(monkeypatch):
    cases = [(n, 50) for n in (1, 50, 236, 247, 248, 250, 300, 1000, 5000)] + [(300, 120)]
    with monkeypatch.context() as patch:
        patch.setattr(rademacher, "kloosterman", kloosterman_per_term)
        reference = [rademacher_pn(n, depth) for n, depth in cases]
    _clear_tables()
    cold = [rademacher_pn(n, depth) for n, depth in cases]
    warm = [rademacher_pn(n, depth) for n, depth in cases]
    assert cold == warm == reference


def test_rademacher_tables_are_bounded_and_hold_a_walk():
    """Bounded, with room for every coset row up to MAX_DEPTH_C and a K_c
    per c of a walk to MAX_DEPTH_C; a repeated default-depth range misses
    nowhere."""
    assert _pair_data.cache_info().maxsize >= MAX_DEPTH_C
    assert _kloosterman_sum.cache_info().maxsize >= MAX_DEPTH_C
    for n in range(1, 61):
        rademacher_pn(n, 50)
    misses = [table.cache_info().misses for table in TABLES]
    for n in range(1, 61):
        rademacher_pn(n, 50)
    assert [table.cache_info().misses for table in TABLES] == misses


def test_kloosterman_term_count_is_phi():
    for c in range(1, 51):
        phi = sum(1 for d in range(c) if gcd(d, c) == 1)
        assert kloosterman(c, -24, 24 * 99).term_count == phi, c
    assert abs(kloosterman(3, -24, 24).value) <= kloosterman(3, -24, 24).term_count
    for m, n in ((-23, 0), (-24, 1)):
        with pytest.raises(ValueError):
            kloosterman(5, m, n)


def test_rademacher_depth_50_rounds_to_p_n_below_236():
    table = partition_table(235)
    assert [rademacher_pn(n, 50).nearest for n in range(1, 236)] == [table.p(n) for n in range(1, 236)]


def bessel_series_oracle(x, terms=80):
    """Ascending series sum (x/2)^(2k+3/2) / (k! Gamma(k + 5/2))."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k + 1.5) / (math.factorial(k) * math.gamma(k + 2.5))
    return total


def test_bessel_small_and_moderate():
    for x, rel in ((1e-3, 1e-10), (1.0, 1e-12)):
        assert bessel_i32(x) == pytest.approx(bessel_series_oracle(x), rel=rel)


def test_bessel_asymptotics():
    vals = []
    for x in (20.0, 40.0):
        vals.append(bessel_i32(x) * math.sqrt(2 * math.pi * x) * math.exp(-x))
    assert abs(vals[1] - 1) < 0.03
    assert abs(vals[1] - 1) < abs(vals[0] - 1)
    with pytest.raises(ValueError):
        bessel_i32(0.0)


def bessel_i32_while_loop(x):
    """The Taylor loop as a while loop that rebuilds each ratio from k."""
    if x < 1.0:
        core = 0.0
        term = x * x / 3.0
        k = 1
        while True:
            core += term
            k += 1
            term *= x * x * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
            if term < 1e-20 * core:
                break
    else:
        core = math.cosh(x) - math.sinh(x) / x
    return math.sqrt(2.0 / (math.pi * x)) * core


#: a dense and a geometric grid over [1e-3, 1), the 64 floats below 1.0 and
#: 1 - 2^-j, and a grid over [1, 700]
BESSEL_GRID = sorted(
    {
        *(1e-3 + i * (1 - 1e-3) / 10_000 for i in range(10_000)),
        *(1e-3 * 1000 ** (i / 2000) for i in range(2000)),
        *(1.0 - j * 2.0**-53 for j in range(1, 65)),
        *(1.0 - 2.0**-j for j in range(1, 54)),
        *(1.0 + i * 699 / 5000 for i in range(5001)),
    }
)


def test_bessel_is_bitwise_the_while_loop():
    assert BESSEL_GRID[0] == 1e-3 and BESSEL_GRID[-1] == 700.0
    for x in BESSEL_GRID:
        assert bessel_i32(x).hex() == bessel_i32_while_loop(x).hex(), x


def test_bessel_taylor_loop_breaks_inside_its_table(monkeypatch):
    """The loop breaks before it reads past the ratio table, and at x just
    below 1 it reads the last entry, so the table is no longer than needed."""
    table = rademacher._TAYLOR_RATIOS
    read, exhausted = [], []

    class Watched:
        def __iter__(self):
            for pair in table:
                read.append(pair)
                yield pair
            exhausted.append(True)

    monkeypatch.setattr(rademacher, "_TAYLOR_RATIOS", Watched())
    longest = 0
    for x in (x for x in BESSEL_GRID if x < 1.0):
        read.clear()
        bessel_i32(x)
        assert not exhausted, x
        longest = max(longest, len(read))
    assert longest == len(table) == 10


BESSEL_DOMAIN = """
import math
from pentarc.rademacher import bessel_i32
refused = []
for x in (1e-152, 3e-152, 1e-160, 1e-300, 5e-324, math.nextafter(1e-100, 0.0), 0.0, -1.0,
          math.inf, -math.inf, math.nan):
    try:
        bessel_i32(x)
    except ValueError as exc:
        refused.append(str(exc).startswith("bessel_i32 needs a finite x >= 1e-100"))
print(refused)
for x in (1e-100, 1e-50, 1e-10):
    # I_3/2(x) = sqrt(2/pi) x^1.5 / 3 (1 + x^2/10 + ...)
    assert math.isclose(bessel_i32(x), math.sqrt(2 / math.pi) * x**1.5 / 3, rel_tol=1e-15), x
print("ok")
"""


def test_bessel_ends_or_refuses_every_x():
    """Below 1e-100, as at x = 1e-152 where 1e-20 of the sum underflows to
    0 and the stopping test never passes, and at inf and nan, bessel_i32
    raises ValueError; run in a child process, so that a hang fails."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rademacher.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", BESSEL_DOMAIN], env=env, capture_output=True, text=True, timeout=20)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{[True] * 11}\nok\n"


def test_verify_rademacher_fails_on_a_flipped_kloosterman_sum(monkeypatch, capsys):
    assert run_suite("rademacher")["ok"] is True
    table = _kloosterman_sum

    def flipped(c, m, n):
        kc = table(c, m, n)
        return kc._replace(value=-kc.value) if c == 2 else kc

    monkeypatch.setattr(rademacher, "_kloosterman_sum", flipped)
    assert run_suite("rademacher")["ok"] is False
    assert main(["verify", "rademacher"]) == 1
    assert '"ok": false' in capsys.readouterr().out


def test_rademacher_small_cases():
    table = partition_table(10)
    r1 = rademacher_pn(1, 20)
    assert r1.nearest == 1 and r1.gap < 0.1
    r10 = rademacher_pn(10, 20)
    assert r10.nearest == 42 and r10.gap < 0.1
    for n in range(1, 11):
        assert rademacher_pn(n, 20).nearest == table.p(n)


def test_rademacher_p100():
    r = rademacher_pn(100, 50)
    assert r.nearest == partition_table(100).p(100)
    assert r.gap < 0.5
    assert r.imag <= 1e-6 * abs(r.estimate)


def test_rademacher_validation():
    with pytest.raises(ValueError):
        rademacher_pn(0, 10)
    with pytest.raises(ValueError):
        rademacher_pn(3, 0)


def test_max_n_is_the_last_n_inside_binary64():
    assert math.isfinite(rademacher_pn(MAX_N).estimate)
    with pytest.raises(PrecisionError, match=rf"p\({MAX_N + 1}\): .* at c = 1 leaves the binary64 range"):
        rademacher_pn(MAX_N + 1)
    # the check before the c loop is tight: the c = 1 term past MAX_N does overflow
    with pytest.raises(OverflowError):
        bessel_i32(math.pi * math.sqrt(24 * (MAX_N + 1) - 1) / 6.0)


def test_rademacher_does_not_import_the_hecke_stack():
    with open(rademacher.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert not imported & {"dirichlet", "hecke", "forms", "_coeffs"}, imported
