"""Floating-point evaluation of the twisted quadratic Dirichlet series side.

For a weight-2nu eigenform f the partial series is

    D(f, N; s) = sum_{n=1}^{N} (12|n) a_f((n^2-1)/24) / n^s,

where (12|n) is the Kronecker symbol mod 12 (zero unless gcd(n, 12) = 1, in
which case 24 | n^2 - 1).  The weighted double sum

    sum_{j=0}^{nu-2} sum_{m=0}^{M} beta(nu, j, m) D(f, N; 2nu+1+2m+2j)

converges (as M, N grow) to the Petersson pairing of the order-nu eta
bracket against f, scaled by 24^nu; dividing by the exact projection ratio
from the hecke module therefore estimates the Petersson norm of f.

The coefficients a_f((n^2-1)/24) reach ~N^2/24, but the exact tables of
``hecke.eigen_pairs`` are built only to N + 1.  ``embedded_eigenforms``
reaches the rest in one pass by Hecke multiplicativity, as
a_f(2^e) a_f(u) a_f(v) over the pairwise coprime factors of
``_coprime_split``, in exact integer pairs rounded once, and keeps the
nonzero terms (chi(n) a_f((n^2-1)/24), n) on each eigenform's record
(``EmbeddedEigenform.terms``), in n order; the sums read nothing else.

Every sum is a ``math.fsum`` (Shewchuk, Discrete Comput. Geom. 18, 1997):
the correctly rounded value of its float terms, so its bits do not depend
on the order of the terms, and its summation error is at most half an ulp.
The double sum meets only M + nu - 1 distinct exponents s, and sums each
D(f, N; s) once; each partial sum stops at the first n whose n^(-s)
underflows to 0.0, since every later term is 0.0 and leaves the sum alone.
The float weights of a (nu, M, dps) are computed once and shared by all its
eigenforms, and finished norm estimates are cached as values, so a warm
request sums no series.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .errors import InternalCancellationError, PrecisionError
from .exactnum import QuadNum, falling_factorial
from .forms import dim_cusp
from .hecke import eigen_pairs, eigenform_projections

__all__ = [
    "DEFAULT_BIG_M",
    "MIN_BIG_N",
    "MAX_BIG_N",
    "default_big_n",
    "kronecker12",
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
#: smallest n-truncation of a norm estimate (``--big-n`` domain limit): below it
#: the only n <= N prime to 12 is 1, whose term a(0) is 0
MIN_BIG_N = 5
#: largest n-truncation accepted (``--big-n`` domain limit); the monomial
#: tables reach index N + 1
MAX_BIG_N = 1048574

#: (12|n) by n mod 12, in closed form: +1 for n = +-1, -1 for n = +-5, else 0
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
    through (6/pi)^(2nu-1).  Each rising(x, j) = x(x+1)...(x+j-1) is
    evaluated as the falling factorial (x+j-1)_j.
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
        falling_factorial(2 * nu - j - 2, nu)
        * falling_factorial(Fraction(2 * j + 1, 2), j)
        / (falling_factorial(Fraction(2 * nu - 2 * j - 3, 2), nu) * falling_factorial(Fraction(2 * j + 3, 2), j))
    )
    sign = -1 if j % 2 == 0 else 1  # (-1)^(j+1)
    return gammas * 6 ** (2 * nu - 1) * (sign * combinatorial * ratio)


def _pi_scaled(nu: int, rationals, dps: int | None) -> list[float]:
    """The floats c/d pi^(1-2nu) of the (c, d) in ``rationals``, with the
    power of pi evaluated once.  In binary64, c / d is one int / int
    division, which Python rounds correctly, as float(Fraction) does; under
    mpmath at ``dps`` digits, c/d is reduced first, so the numerator mpf
    rounds is the smallest one."""
    if dps is None:
        scale = math.pi ** (1 - 2 * nu)
        return [c / d * scale for c, d in rationals]
    import mpmath

    with mpmath.workdps(dps):
        scale = mpmath.pi ** mpmath.mpf(1 - 2 * nu)
        reduced = [Fraction(c, d) for c, d in rationals]
        return [float(mpmath.mpf(r.numerator) / r.denominator * scale) for r in reduced]


def dirichlet_weight_float(nu: int, j: int, m: int, dps: int | None = None) -> float:
    """Float value of beta(nu, j, m) = dirichlet_weight(nu, j, m) pi^(1-2nu);
    optional mpmath evaluation at ``dps`` decimal digits for wide-precision
    cross-checks."""
    r = dirichlet_weight(nu, j, m)
    return _pi_scaled(nu, [(r.numerator, r.denominator)], dps)[0]


class EmbeddedEigenform(NamedTuple):
    """An eigenform of weight ``weight`` over Q(sqrt(d)), embedded with
    sqrt(d) > 0: its nonzero twisted terms
    (chi(n) a_f((n^2-1)/24), float(n)) for n <= big_n, in n order."""

    weight: int
    big_n: int
    terms: tuple[tuple[float, float], ...]


def _partial_sum(terms: tuple[tuple[float, float], ...], s: int) -> float:
    """The correctly rounded sum of coeff * n^(-s) over ``terms``.

    The n ascend, so once n^(-s) underflows to 0.0 every later term is 0.0
    too and leaves the sum alone: the terms stop there.
    """
    neg_s = -s
    kept = terms[: bisect_left(terms, True, key=lambda term: not term[1] ** neg_s)]
    return math.fsum([coeff * n**neg_s for coeff, n in kept])


def _terms_to(f: EmbeddedEigenform, N: int, s: int) -> tuple[tuple[float, float], ...]:
    """The prefix of ``f.terms`` with n <= N, once D(f, N; s) is checked to
    lie in the domain: s the smallest exponent to be summed."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if s < f.weight + 1:
        raise ValueError(f"s = {s} below absolute-convergence bound {f.weight + 1}")
    if N > f.big_n:
        raise PrecisionError(f"twisted terms stored only to n = {f.big_n}")
    return f.terms[: bisect_right(f.terms, N, key=itemgetter(1))]


def dirichlet_partial(f: EmbeddedEigenform, N: int, s: int) -> float:
    """Partial sum of the twisted series over 1 <= n <= N.

    ``f`` is an ``EmbeddedEigenform`` whose terms reach N (``f.big_n >= N``).
    Requires s >= weight + 1 (absolute convergence).
    """
    return _partial_sum(_terms_to(f, N, s), s)


@lru_cache(maxsize=8)
def _float_weights(nu: int, M: int, dps: int | None) -> tuple[tuple[int, float], ...]:
    """(s, beta(nu, j, m)) as floats, j outer, m inner, with s = 2nu+1+2m+2j.
    The exact weights are beta(nu, j, m) = beta(nu, j, 0) C(2nu+m-2, m),
    rounded by _pi_scaled: the same floats as dirichlet_weight_float."""
    firsts = [dirichlet_weight(nu, j, 0) for j in range(nu - 1)]
    rationals = [(r.numerator * math.comb(2 * nu + m - 2, m), r.denominator) for r in firsts for m in range(M + 1)]
    exponents = [2 * nu + 1 + 2 * m + 2 * j for j in range(nu - 1) for m in range(M + 1)]
    return tuple(zip(exponents, _pi_scaled(nu, rationals, dps)))


def dirichlet_double_sum(f: EmbeddedEigenform, nu: int, M: int, N: int, dps: int | None = None) -> float:
    """The truncated double sum: its weighted partial sums, correctly rounded.

    ``dps`` switches the weight evaluation to mpmath at that many decimal
    digits (the optional wide-float mode); the partial sums stay binary64.
    Each of the M + nu - 1 distinct exponents is summed once, which gives
    the same float as summing dirichlet_weight_float times dirichlet_partial
    over every (j, m).  ``f`` has weight 2nu: a larger nu raises here, a
    smaller one at the convergence bound of the partial sums.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    if 2 * nu > f.weight:
        raise ValueError(f"nu = {nu} does not match the weight-{f.weight} eigenform")
    terms = _terms_to(f, N, 2 * nu + 1)
    sums = {s: _partial_sum(terms, s) for s in range(2 * nu + 1, 2 * nu + 1 + 2 * (M + nu - 1), 2)}
    return math.fsum([weight * sums[s] for s, weight in _float_weights(nu, M, dps)])


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
    """The eigenforms of S_2nu, each with its twisted terms for n <= N, built
    in one pass over the n prime to 6 (n = 1 has the term a(0) = 0).

    The ``eigen_pairs`` tables reach only N + 1 (length N + 2).  Each
    a = a_f((n^2-1)/24) is assembled exactly as the integer pair (x, y) of
    2a = x + y sqrt(d), a(2^e) a(u) a(v) from the ``_coprime_split`` of n,
    and rounded once, to the same float as the exact x/2 + (y/2) sqrt(d);
    every index <= N + 1 is also read straight from the tables and must
    agree with its assembly.
    """
    if dim_cusp(2 * nu) == 0:
        raise ValueError(f"S_{2*nu} is trivial")
    top = N + 1
    splits = []
    for n in range(5, N + 1):
        chi = kronecker12(n)
        if chi:
            e, u, v = _coprime_split(n)
            m = (u * v) << e
            if 24 * m != n * n - 1:
                raise InternalCancellationError(f"the coprime split of {n} is wrong: 24 * {m} != {n}^2 - 1")
            splits.append((float(n), chi, m, e, u, v))
    weight = 2 * nu
    d, pairs = eigen_pairs(weight, top + 1)
    sqrt_d = math.sqrt(d)
    out = []
    for read in pairs:
        terms = []
        for n, chi, m, e, u, v in splits:
            pair = _half_product(_half_product(read[1 << e], read[u], d), read[v], d)
            if m <= top and pair != read[m]:
                raise InternalCancellationError(
                    f"coefficient {m} of the weight-{weight} eigenform breaks Hecke multiplicativity"
                )
            # int / int rounds once, as float(Fraction(x, 2)) does; chi = +-1 flips the sign exactly
            coeff = chi * (pair[0] / 2 + (pair[1] / 2) * sqrt_d)
            if coeff:  # a zero term leaves the sum alone
                terms.append((coeff, n))
        out.append(EmbeddedEigenform(weight, N, tuple(terms)))
    return tuple(out)


class NormEstimate(NamedTuple):
    """Per-eigenform double sums, exact projection ratios and the Petersson
    norm estimates they give, with the truncations that produced them."""

    big_m: int
    big_n: int
    double_sums: tuple[float, ...]
    projections: tuple[QuadNum, ...]
    estimates: tuple[float, ...]


def petersson_norm_estimate(
    nu: int, M: int | None = None, N: int | None = None, dps: int | None = None
) -> NormEstimate:
    """Norm estimate per eigenform: double sum divided by the exact projection
    ratio, both embedded with sqrt(d) > 0, cached once M and N are resolved."""
    return _norm_estimate(nu, DEFAULT_BIG_M if M is None else M, default_big_n(nu) if N is None else N, dps)


# a finished estimate is a value; the petersson workload reads 2 keys
@lru_cache(maxsize=8)
def _norm_estimate(nu: int, M: int, N: int, dps: int | None) -> NormEstimate:
    if N < MIN_BIG_N:
        raise ValueError(f"a norm estimate needs N >= {MIN_BIG_N}, got {N}")
    projections = eigenform_projections(nu)
    sums = tuple(dirichlet_double_sum(f, nu, M, N, dps) for f in embedded_eigenforms(nu, N))
    estimates = tuple(s / gamma.embed() for s, gamma in zip(sums, projections))
    return NormEstimate(M, N, sums, projections, estimates)
