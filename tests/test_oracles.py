"""The package's number theory against sympy, an independent implementation
installed for the tests only (``tests/test_layering.py`` keeps it out of
``src/``)."""

import math
from fractions import Fraction
from math import isqrt

import pytest

sympy = pytest.importorskip("sympy")

from pentarc.exactnum import bernoulli, kronecker_symbol, squarefree_split
from pentarc.partitions import partition_table, recurrence_weight, sigma

#: m of sigma_m: the weights 2nu - 1 the recurrence reads (nu = 2, 6, 12, 200) and m = 1
SIGMA_M = (1, 3, 11, 23, 399)


def _prime_powers(lo: int, hi: int) -> list[int]:
    """The q^e in lo..hi with e >= 2, and the primes among the last thousand
    (sympy's divisor_sigma takes some 100 us a call, too long for all 9592)."""
    powers = [q**e for q in sympy.primerange(2, isqrt(hi) + 1) for e in range(2, hi.bit_length())]
    return sorted([p for p in powers if lo <= p <= hi] + list(sympy.primerange(hi - 999, hi + 1)))


def test_sigma_matches_sympy_divisor_sigma():
    # n = q^2 meets the bound of the trial division; a prime near 10^5 passes all of it
    ns = [*range(1, 2000), *_prime_powers(2000, 10**5)]
    for m in SIGMA_M:
        for n in ns:
            assert sigma(m, n) == sympy.divisor_sigma(n, m), (m, n)


def test_kronecker_symbol_matches_sympy():
    """(a|n) builds every coset row's eta multiplier: (d|c) for odd c, (c|d) for even c."""
    for a in range(-30, 31):
        for n in range(1, 200):
            assert kronecker_symbol(a, n) == sympy.kronecker_symbol(a, n), (a, n)


def test_partition_table_matches_sympy_partition():
    # 236 is the first n the depth-50 Rademacher sum gets wrong
    table = partition_table(10**4)
    for n in (236, 300, 1000, 10**4):
        assert table.p(n) == sympy.partition(n), n


def test_bernoulli_matches_sympy():
    # B_2k from the tangent numbers feeds every Eisenstein series E_2k
    for k in range(201):
        assert bernoulli(2 * k) == sympy.bernoulli(2 * k), k


def test_squarefree_split_matches_sympy_factorint():
    # small n only: a split that runs the whole trial division takes about 0.1 s
    for n in range(1, 2000):
        exponents = sympy.factorint(n).items()
        assert squarefree_split(n) == (
            math.prod(p ** (e // 2) for p, e in exponents),
            math.prod(p ** (e % 2) for p, e in exponents),
        ), n


def _jacobi_terms(nu: int, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """C(nu+alpha, nu-s) C(nu+beta, s) for s = 0..nu, generalized binomials from sympy."""
    def binomial(a: Fraction, m: int) -> Fraction:
        value = sympy.binomial(sympy.Rational(a.numerator, a.denominator), m)
        return Fraction(int(value.p), int(value.q))

    return [binomial(nu + alpha, nu - s) * binomial(nu + beta, s) for s in range(nu + 1)]


def test_recurrence_weight_is_a_jacobi_polynomial():
    """g_nu(n, k) = (24n)^nu P_nu^(-3/2,-1/2)((2u - 24n)/(24n)), u = (6k+1)^2, with
    P_nu^(a,b)(x) = sum_s C(nu+a, nu-s) C(nu+b, s) ((x-1)/2)^s ((x+1)/2)^(nu-s),
    the explicit sum (sympy's jacobi recurrence divides by zero at a + b = -2).
    It shares nothing with the bracket weights' falling-factorial prefactor."""
    for nu in (*range(13), 20, 40):
        terms = _jacobi_terms(nu, Fraction(-3, 2), Fraction(-1, 2))
        for n in (1, 2, 7, 100, -3):
            for k in (0, 1, -1, 3, -5):
                x = Fraction(2 * (6 * k + 1) ** 2 - 24 * n, 24 * n)
                jacobi = sum(c * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (nu - s) for s, c in enumerate(terms))
                assert recurrence_weight(nu, n, k) == (24 * n) ** nu * jacobi, (nu, n, k)
