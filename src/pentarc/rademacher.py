"""Convergent Kloosterman-Bessel evaluation of p(n).

The generating function q^(-1/24) sum p(n) q^n is a weight -1/2 form whose
coefficients admit an exact infinite-series expression.  With cusp width
t = 24 and cusp parameter kappa = 23, the coefficient at series index
N = 24n - 24 (the q^((24n-1)/24) term) is

    a(N) = -i^(5/2) * 2 pi * (24n-1)^(-3/4)
           * sum_{c>=1} K_c(-24, N) / c * I_{3/2}(pi sqrt(24n-1) / (6c)),

where K_c is the multiplier-weighted exponential sum over one matrix per
double coset Gamma_inf\\SL2(Z)/Gamma_inf with lower-left entry c: d in
[0, c) coprime to c and a = d^(-1) mod c, so phi(c) terms.  Translating a
or d by c multiplies the multiplier by exp(pi i/12) and moves the phase by
(m + 24)/24 or (n + 24)/24 of a turn, so for m, n divisible by 24 every
representative of a coset carries the same summand.  I_{3/2} has the
elementary closed form sqrt(2/(pi x)) (cosh x - sinh x / x).

The Kloosterman layer is a table.  A phase numerator depends on m and n
only mod 24c, and with n a multiple of 24 so does K_c only on n mod c:
each K_c is a sequential complex sum of its phi(c) terms, computed once per
(c, m mod 24c, n mod 24c) in a bounded LRU cache, so a warm pass evaluates
no Kloosterman sum.  A cold K_c is one pass over the coset rows of c,
each phase numerator reduced mod 24c and its summand added in the same
step; the values are the same floats, bit for bit, as a fresh per-call
sum in the same row order.

Below x = 1 the bracket of I_{3/2} is a Taylor sum, each term x^2 times a
ratio of small integers times the last.  The ratios are a table of float
pairs for k = 2..11, and every x < 1 stops the sum by k = 11.
Partial sums over c <= C round to p(n); the residual imaginary part is
reported, never discarded.  The multiplier is the exact pair (sign, e),
sign * exp(pi i e/12); its Kronecker symbol comes from the leaf
``exactnum``, so this module loads none of the Hecke stack.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .errors import PrecisionError
from .exactnum import kronecker_symbol

__all__ = [
    "CUSP_WIDTH",
    "CUSP_PARAMETER",
    "MAX_DEPTH_C",
    "MAX_N",
    "eta_multiplier",
    "KloostermanSum",
    "kloosterman",
    "bessel_i32",
    "RademacherEstimate",
    "rademacher_pn",
]

CUSP_WIDTH = 24
CUSP_PARAMETER = 23
#: largest Rademacher depth C the CLI accepts (``--depth-c`` and
#: ``--method rademacher:C``); the coset rows of every c <= C take about
#: 50 MB at C = 1000, and memory grows as C^2
MAX_DEPTH_C = 1000
#: largest n that ``rademacher_pn`` evaluates in binary64: cosh x overflows once
#: x > log(2 * float max), and the c = 1 Bessel argument is x = pi sqrt(24n - 1)/6
MAX_N = int(((6 / math.pi * (math.log(sys.float_info.max) + math.log(2))) ** 2 + 1) / 24)


def eta_multiplier(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Automorphy multiplier of eta: eta(gamma tau) = eps (c tau + d)^(1/2) eta(tau).

    Returns the exact pair (sign, e) with eps = sign * exp(pi i e/12), sign
    +-1 and e in 0..23.

    Two-case closed form with Kronecker-Legendre symbols:

        c odd:  (d|/c/) exp(pi i/12 (c(a+d-3) - bd(c^2-1)))
        c even: (c|/d/) exp(pi i/12 (c(a-2d) - bd(c^2-1) + 3d - 3)) * corr

    where corr = -1 when c < 0 and d < 0, else +1.  (With corr applied at
    c = 0, d < 0 as well, the formula contradicts the principal-branch
    transformation law at the -T^b matrices; checked numerically against
    the q-product.)
    """
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    if c % 2:
        sym = kronecker_symbol(d, abs(c))
        e = c * (a + d - 3) - b * d * (c * c - 1)
        sign = sym
    else:
        sym = kronecker_symbol(c, abs(d))
        e = c * (a - 2 * d) - b * d * (c * c - 1) + 3 * d - 3
        sign = sym if not (c < 0 and d < 0) else -sym
    if sign == 0:
        raise ValueError("degenerate Kronecker symbol; entries not coprime")
    return sign, e % 24


class KloostermanSum(NamedTuple):
    value: complex
    term_count: int


@lru_cache(maxsize=MAX_DEPTH_C)
def _pair_data(c: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per-c coset rows (sign, multiplier exponent e, a, d).

    One row per coset: d in [0, c) coprime to c and a = d^(-1) mod c.
    """
    rows = []
    for d in range(c):
        if gcd(d, c) != 1:
            continue
        a = pow(d, -1, c)
        sign, e = eta_multiplier(a, (a * d - 1) // c, c, d)
        rows.append((sign, e, a, d))
    return tuple(rows)


# Holds K_c(m, .) for one m and every n mod c of every c <= 255 (32,640
# entries), or a walk over c <= MAX_DEPTH_C for each of 32 values of n.
@lru_cache(maxsize=1 << 15)
def _kloosterman_sum(c: int, m: int, n: int) -> KloostermanSum:
    """K_c summed in coset-row order; m and n reduced mod 24c.

    Each coset contributes sign * exp(2 pi i r / (24c)).  The weight
    1/conj(eps) equals eps itself (|eps| = 1), so the phase numerator is
    r = e*c + (m + kappa) a + (n + kappa) d  (mod 24c).
    """
    rows = _pair_data(c)
    mk, nk = m + CUSP_PARAMETER, n + CUSP_PARAMETER
    period = 24 * c
    two_pi = 2.0 * math.pi
    den = 24.0 * c
    value = 0j
    for sign, e, a, d in rows:
        value += sign * cmath.exp(1j * (two_pi * ((e * c + mk * a + nk * d) % period) / den))
    return KloostermanSum(value, len(rows))


def kloosterman(c: int, m: int, n: int) -> KloostermanSum:
    """Multiplier-weighted Kloosterman sum at lower-left entry c.

    The series has coefficients only at indices divisible by 24; other
    (m, n) are rejected, since their summands depend on the representative.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if m % CUSP_WIDTH or n % CUSP_WIDTH:
        raise ValueError("m and n must be divisible by 24")
    period = CUSP_WIDTH * c
    return _kloosterman_sum(c, m % period, n % period)


#: (2k, (2k - 2)(2k)(2k + 1)) for k = 2..11, as floats: the x^(2k) term of
#: cosh x - sinh x / x is x^2 * 2k / ((2k - 2)(2k)(2k + 1)) times the
#: x^(2k - 2) term.  Just below x = 1 the x^22 term is about 2e-21 of the
#: sum and the x^20 term about 1e-18, so the sum stops at k = 11 there, and
#: earlier for smaller x.
_TAYLOR_RATIOS = tuple((float(2 * k), float((2 * k - 2) * (2 * k) * (2 * k + 1))) for k in range(2, 12))


def bessel_i32(x: float) -> float:
    """I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh x / x), for finite x >= 1e-100.

    The bracket is evaluated by its even Taylor series for x < 1, where the
    direct difference loses precision to cancellation.  The series stops at
    its first term under 1e-20 of the sum; the loop runs over the k = 2..11
    ratio table, so it ends even where that test never passes.  Below about
    1e-143, 1e-20 of the sum is subnormal, the test fails and the sum loses
    digits; so x under 1e-100 raise ValueError, as do inf and nan.  Past
    x = 710, cosh x raises OverflowError.
    """
    if not 1e-100 <= x < math.inf:
        raise ValueError(f"bessel_i32 needs a finite x >= 1e-100, got {x!r}")
    if x < 1.0:
        # cosh x - sinh x / x = sum_{k>=1} x^(2k) * 2k / (2k+1)!
        xx = x * x
        core = 0.0
        term = xx / 3.0  # k = 1
        for a, d in _TAYLOR_RATIOS:
            core += term
            term *= xx * a / d
            if term < 1e-20 * core:
                break
    else:
        core = math.cosh(x) - math.sinh(x) / x
    return math.sqrt(2.0 / (math.pi * x)) * core


class RademacherEstimate(NamedTuple):
    """Partial-sum evaluation of p(n): estimate, nearest integer, |gap|,
    absolute imaginary residual, and the depth C used."""

    estimate: float
    nearest: int
    gap: float
    imag: float
    depth: int


def rademacher_pn(n: int, depth: int = 50) -> RademacherEstimate:
    """Evaluate p(n) by the partial sum over 1 <= c <= depth.

    The q^((24n-1)/24) coefficient of the generating function corresponds
    to series index 24n - 24 and principal-part argument m = -24.  Raises
    PrecisionError when the c = 1 Bessel term overflows binary64, for n
    above MAX_N (76716).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    idx = 24 * n - 24
    x24 = 24 * n - 1
    # K_c sums one representative per coset (phi(c) terms), so the
    # prefactor is the classical 2 pi.
    pref = -(1j ** 2.5) * (2.0 * math.pi) * x24 ** -0.75
    # the Bessel argument pi sqrt(24n - 1) / (6c), rounded as written, is largest at c = 1
    root = math.pi * math.sqrt(x24)
    if n > MAX_N:
        raise PrecisionError(f"p({n}): I_3/2({root / 6.0:.6g}) at c = 1 leaves the binary64 range")
    acc = 0j
    for c in range(1, depth + 1):
        acc += kloosterman(c, -24, idx).value / c * bessel_i32(root / (6.0 * c))
    total = pref * acc
    nearest = round(total.real)
    return RademacherEstimate(
        estimate=total.real,
        nearest=int(nearest),
        gap=abs(total.real - nearest),
        imag=abs(total.imag),
        depth=depth,
    )
