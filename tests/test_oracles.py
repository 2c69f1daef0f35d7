"""The package's number theory against sympy, an independent implementation
installed for the tests only (``tests/test_layering.py`` keeps it out of
``src/``)."""

from math import isqrt

import pytest

sympy = pytest.importorskip("sympy")

from pentarc.arith import kronecker_symbol
from pentarc.partitions import partition_table, sigma

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
