"""Floating-point evaluation of the twisted quadratic Dirichlet series side.

For a weight-2nu eigenform f the partial series is

    D(f, N; s) = sum_{n=1}^{N} (12|n) a_f((n^2-1)/24) / n^s,

where (12|n) is the Kronecker symbol mod 12 (zero unless gcd(n, 12) = 1, in
which case 24 | n^2 - 1).  The weighted double sum

    sum_{j=0}^{nu-2} sum_{m=0}^{M} beta(nu, j, m) D(f, N; 2nu+1+2m+2j)

converges (as M, N grow) to the Petersson pairing of the order-nu eta
bracket against f, scaled by 24^nu; dividing by the exact projection ratio
from the hecke module therefore estimates the Petersson norm of f.

The coefficients a_f((n^2-1)/24) reach ~N^2/24, but the exact monomial
tables are built only to N + 1.  A normalized level-1 eigenform has
multiplicative coefficients, and for n > 1 prime to 6 the index splits
into three pairwise coprime factors, each at most n + 1:

    (n^2-1)/24 = 2^e u v,

with u and v the odd parts of n - 1 and n + 1 (gcd 2), the one that 3
divides divided by 3, and e = s + t - 3 for the 2-adic valuations s, t of
n - 1 and n + 1.  So a_f((n^2-1)/24) = a_f(2^e) a_f(u) a_f(v), three
table reads.  The tables are ``hecke.eigen_pairs``: the coefficients are
algebraic integers of Q(sqrt(d)), so 2a = x + y sqrt(d) with integers x
and y, checked integral there, and each coefficient is assembled exactly
as such a pair, in Python ints: a product of pairs halves
((x1 x2 + d y1 y2)/2, (x1 y2 + x2 y1)/2), and each halving is checked
exact.  Every assembled index the table reaches directly is checked
against it, and each coefficient is rounded to a float once.

Summation is j-outer, m-inner, n-innermost, with Neumaier-compensated
accumulation so results reproduce across platforms to >= 12 digits.  The
double sum meets only M + nu - 1 distinct exponents s, so each partial sum
D(f, N; s) is evaluated once and reused for every (j, m) that needs it; it
stops at the first n whose n^(-s) underflows to 0.0, since every later term
is 0.0 and leaves the sum's bits alone.  The float weights of a
(nu, M, dps) are computed once and shared by all its eigenforms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .arith import kronecker_symbol  # re-exported: part of this module's API
from .errors import InternalCancellationError, PrecisionError
from .exactnum import QuadNum, rising_factorial
from .forms import dim_cusp
from .hecke import eigen_pairs, eigenform_projections

__all__ = [
    "DEFAULT_BIG_M",
    "MAX_BIG_N",
    "default_big_n",
    "kronecker12",
    "kronecker_symbol",
    "dirichlet_weight",
    "dirichlet_weight_float",
    "dirichlet_partial",
    "dirichlet_double_sum",
    "EmbeddedEigenform",
    "embedded_eigenforms",
    "NormEstimate",
    "petersson_norm_estimate",
]

DEFAULT_BIG_M = 100
#: largest n-truncation accepted (``--big-n`` domain limit); the monomial
#: tables reach index N + 1
MAX_BIG_N = 1048574

_KRON12 = (0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1)


def default_big_n(nu: int) -> int:
    """Default Dirichlet truncation; large only where the coefficient tables
    stay sparse (weight 12), desk-scale elsewhere."""
    return 2000 if nu == 6 else 360


def kronecker12(n: int) -> int:
    """Kronecker symbol (12|n): +1 for n = +-1 mod 12, -1 for +-5, else 0."""
    if n < 1:
        raise ValueError("kronecker12 needs n >= 1")
    return _KRON12[n % 12]


def dirichlet_weight(nu: int, j: int, m: int) -> Fraction:
    """The rational r with beta(nu, j, m) = r pi^(1-2nu), where beta is the
    weight multiplying D(f; 2nu+1+2m+2j) in the double sum:

        (-1)^(j+1) Gamma(nu-1/2) Gamma(nu+1/2) / (2 sqrt(pi) Gamma(5/2))
        * (6/pi)^(2nu-1) * (2nu+m-2)! / (j! m! (2nu-j-2)!)
        * rising(nu-j-1, nu) * rising(3/2, j)
          / (rising(-1/2-j, nu) * rising(5/2, j))

    The Gamma block is rational, 2(2nu-2)!(2nu)! / (3 4^(2nu-1) (nu-1)! nu!),
    from Gamma(k+1/2) = (2k)! sqrt(pi) / (4^k k!), so pi enters only
    through (6/pi)^(2nu-1).
    """
    if nu < 2:
        raise ValueError("dirichlet_weight needs nu >= 2")
    if not 0 <= j <= nu - 2:
        raise ValueError(f"j must lie in [0, {nu - 2}]")
    if m < 0:
        raise ValueError("m must be >= 0")
    f = math.factorial
    gammas = Fraction(2 * f(2 * nu - 2) * f(2 * nu), 3 * 4 ** (2 * nu - 1) * f(nu - 1) * f(nu))
    combinatorial = Fraction(f(2 * nu + m - 2), f(j) * f(m) * f(2 * nu - j - 2))
    ratio = (
        rising_factorial(nu - j - 1, nu)
        * rising_factorial(Fraction(3, 2), j)
        / (rising_factorial(Fraction(-1, 2) - j, nu) * rising_factorial(Fraction(5, 2), j))
    )
    sign = -1 if j % 2 == 0 else 1  # (-1)^(j+1)
    return gammas * 6 ** (2 * nu - 1) * (sign * combinatorial * ratio)


def dirichlet_weight_float(nu: int, j: int, m: int, dps: int | None = None) -> float:
    """Float value of beta(nu, j, m) = dirichlet_weight(nu, j, m) pi^(1-2nu);
    optional mpmath evaluation at ``dps`` decimal digits for wide-precision
    cross-checks."""
    r = dirichlet_weight(nu, j, m)
    if dps is None:
        return float(r) * math.pi ** (1 - 2 * nu)
    import mpmath

    with mpmath.workdps(dps):
        return float(mpmath.mpf(r.numerator) / r.denominator * mpmath.pi ** mpmath.mpf(1 - 2 * nu))


def _neumaier_sum(values) -> float:
    """Compensated (Kahan-Babuska-Neumaier) sum of ``values`` in order."""
    total = comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


def _twisted_terms(f, N: int, s_min: int) -> list[tuple[float, float]]:
    """The nonzero terms (chi(n) a_f((n^2-1)/24), n) for 1 <= n <= N, in n
    order, for exponents s >= s_min.  Zero terms leave a Neumaier sum as it
    is, so dropping them changes no bit of it."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if s_min < f.weight + 1:
        raise ValueError(f"s = {s_min} below absolute-convergence bound {f.weight + 1}")
    terms = []
    for n in range(1, N + 1):
        chi = kronecker12(n)
        if not chi:
            continue
        num = n * n - 1
        if num % 24:
            raise InternalCancellationError(f"24 does not divide {n}^2 - 1 with gcd(n,12)=1")
        coeff = chi * f.a_float(num // 24)
        if coeff:
            terms.append((coeff, float(n)))
    return terms


def _partial_sum(terms: list[tuple[float, float]], s: int) -> float:
    """_neumaier_sum of coeff * n^(-s) over ``terms``, inlined.

    The n ascend, so once n^(-s) underflows to 0.0 every later term is 0.0
    too, and adding 0.0 changes neither accumulator word: the loop stops
    there with the same bits as summing every term.
    """
    total = comp = 0.0
    neg_s = -s
    for coeff, n in terms:
        scale = n ** neg_s
        if not scale:
            break
        x = coeff * scale
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


def dirichlet_partial(f, N: int, s: int) -> float:
    """Partial sum of the twisted series over 1 <= n <= N.

    ``f`` needs ``weight`` and ``a_float(m)``; coefficients must reach
    (N^2-1)/24.  Requires s >= weight + 1 (absolute convergence).
    """
    return _partial_sum(_twisted_terms(f, N, s), s)


@lru_cache(maxsize=8)
def _float_weights(nu: int, M: int, dps: int | None) -> tuple[tuple[int, float], ...]:
    """(s, beta(nu, j, m)) as floats in summation order, j outer, m inner,
    with s = 2nu+1+2m+2j.  The exact weights are
    beta(nu, j, m) = beta(nu, j, 0) C(2nu+m-2, m), the binomial stepped in
    integers, and share one power of pi, evaluated once: the same floats as
    dirichlet_weight_float.  In binary64 the rational part is one int / int
    division, which Python rounds correctly, as float(Fraction) does."""
    exact = []
    for j in range(nu - 1):
        first = dirichlet_weight(nu, j, 0)
        num, den = first.numerator, first.denominator
        binom = 1
        for m in range(M + 1):
            if m:
                binom = binom * (2 * nu + m - 2) // m
            exact.append((2 * nu + 1 + 2 * m + 2 * j, num * binom, den))
    if dps is None:
        scale = math.pi ** (1 - 2 * nu)
        return tuple((s, c / d * scale) for s, c, d in exact)
    import mpmath

    with mpmath.workdps(dps):
        scale = mpmath.pi ** mpmath.mpf(1 - 2 * nu)
        out = []
        for s, c, d in exact:
            c = Fraction(c, d)  # reduced, as dirichlet_weight_float converts it
            out.append((s, float(mpmath.mpf(c.numerator) / c.denominator * scale)))
        return tuple(out)


def dirichlet_double_sum(f, nu: int, M: int, N: int, dps: int | None = None) -> float:
    """The truncated weighted double sum (j outer, m inner, n innermost).

    ``dps`` switches the weight evaluation to mpmath at that many decimal
    digits (the optional wide-float mode); the partial sums stay binary64.
    The float weights are shared by every eigenform of a (nu, M, dps), and
    each distinct exponent's partial sum is computed once; both give the
    same float as calling dirichlet_partial and dirichlet_weight_float for
    every (j, m).
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    terms = _twisted_terms(f, N, 2 * nu + 1)
    partials: dict[int, float] = {}
    products = []
    for s, weight in _float_weights(nu, M, dps):
        partial = partials.get(s)
        if partial is None:
            partial = partials[s] = _partial_sum(terms, s)
        products.append(weight * partial)
    return _neumaier_sum(products)


class EmbeddedEigenform:
    """Real-embedded eigenform coefficients backed by the exact Delta E4^a E6^b lattice rows."""

    __slots__ = ("weight", "disc", "_table")

    def __init__(self, weight: int, disc: int, table):
        self.weight = weight
        self.disc = disc
        self._table = table

    def a_float(self, m: int) -> float:
        try:
            return self._table[m]
        except KeyError:
            raise PrecisionError(f"coefficient {m} not tabulated") from None


def _half_product(p: tuple[int, int], q: tuple[int, int], d: int) -> tuple[int, int]:
    """The pair of 2ab from the pairs of 2a and 2b, where the pair (x, y)
    stands for x + y sqrt(d): ((x1 x2 + d y1 y2)/2, (x1 y2 + x2 y1)/2).
    Both halvings are exact for algebraic integers a and b."""
    x1, y1 = p
    x2, y2 = q
    x = x1 * x2 + d * y1 * y2
    y = x1 * y2 + x2 * y1
    if x & 1 or y & 1:
        raise InternalCancellationError(f"odd product pair ({x}, {y}): a coefficient is not integral")
    return x >> 1, y >> 1


def _coprime_split(n: int) -> tuple[int, int, int]:
    """(e, u, v) with (n^2-1)/24 = 2^e u v for n > 1 prime to 6: u and v
    are the odd parts of n - 1 and n + 1, the one that 3 divides divided by
    3, and e = s + t - 3 for their 2-adic valuations s and t.  The factors
    are pairwise coprime, since gcd(n - 1, n + 1) = 2, and each is at most
    n + 1."""
    lo, hi = n - 1, n + 1
    s = (lo & -lo).bit_length() - 1  # x & -x is the largest power of 2 dividing x
    t = (hi & -hi).bit_length() - 1
    u, v = lo >> s, hi >> t
    if u % 3:
        v //= 3
    else:
        u //= 3
    return s + t - 3, u, v


@lru_cache(maxsize=8)
def embedded_eigenforms(nu: int, N: int) -> tuple[EmbeddedEigenform, ...]:
    """Embedded coefficient tables covering every index (n^2-1)/24, n <= N.

    The ``eigen_pairs`` tables reach only N + 1 (length N + 2).  Each
    coefficient a is carried exactly as the integer pair (x, y) with
    2a = x + y sqrt(d), assembled as a(2^e) a(u) a(v) from the ``_coprime_split``
    of its n, and rounded once at embedding time, to the same float as the
    exact x/2 + (y/2) sqrt(d); every needed index <= N + 1 is also read
    straight from the tables and must agree with its assembly.
    """
    if dim_cusp(2 * nu) == 0:
        raise ValueError(f"S_{2*nu} is trivial")
    top = N + 1
    splits = [((n * n - 1) // 24, _coprime_split(n)) for n in range(5, N + 1) if gcd(n, 6) == 1]
    weight = 2 * nu
    d, pairs = eigen_pairs(weight, top + 1)
    sqrt_d = math.sqrt(d)
    out = []
    for read in pairs:
        values = {0: 0.0}  # n = 1: a cusp form has a(0) = 0
        for m, (e, u, v) in splits:
            pair = _half_product(_half_product(read[1 << e], read[u], d), read[v], d)
            if m <= top and pair != read[m]:
                raise InternalCancellationError(
                    f"coefficient {m} of the weight-{weight} eigenform breaks Hecke multiplicativity"
                )
            # int / int rounds once, as float(Fraction(x, 2)) does
            values[m] = pair[0] / 2 + (pair[1] / 2) * sqrt_d
        out.append(EmbeddedEigenform(weight, d, values))
    return tuple(out)


class NormEstimate(NamedTuple):
    """Per-eigenform double sums, exact projection ratios and the Petersson
    norm estimates they give, with the truncations that produced them."""

    nu: int
    big_m: int
    big_n: int
    double_sums: tuple[float, ...]
    projections: tuple[QuadNum, ...]
    estimates: tuple[float, ...]


def petersson_norm_estimate(
    nu: int, M: int | None = None, N: int | None = None, dps: int | None = None
) -> NormEstimate:
    """Norm estimate per eigenform: double sum divided by the exact
    projection ratio, both embedded with sqrt(d) > 0."""
    M = DEFAULT_BIG_M if M is None else M
    N = default_big_n(nu) if N is None else N
    projections = eigenform_projections(nu)
    sums = tuple(dirichlet_double_sum(f, nu, M, N, dps) for f in embedded_eigenforms(nu, N))
    estimates = tuple(s / gamma.embed() for s, gamma in zip(sums, projections))
    return NormEstimate(nu, M, N, sums, projections, estimates)
