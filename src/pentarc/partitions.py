"""Partition numbers, pentagonal numbers, divisor sums, and the
trace-corrected pentagonal recurrence.

The recurrence generalizing Euler's: for nu >= 0 and n >= 1,

    p(n) = ( -(4 nu / B_{2 nu}) C(2nu-2, nu-2) sigma_{2nu-1}(n) + trace(n)
             + sum_{k != 0} (-1)^(k+1) w_nu(n,k) p(n - omega(k)) ) / w_nu(n,0)

where omega(k) = (3k^2+k)/2 and w_nu(n,k) is the weight polynomial
``recurrence_weight`` below (identically 1 at nu = 0, recovering Euler).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt
from typing import NamedTuple

from .errors import InternalCancellationError
from .exactnum import bernoulli, falling_factorial

__all__ = [
    "PartitionTable",
    "pentagonal",
    "pentagonal_terms",
    "partition_table",
    "sigma",
    "bracket_weights",
    "recurrence_weight",
    "pentagonal_numerator_sum",
    "recurrence_rhs",
]


def pentagonal(k: int) -> int:
    """omega(k) = (3k^2 + k)/2; omega(0) = 0."""
    return (3 * k * k + k) // 2


@lru_cache(maxsize=8)
def pentagonal_terms(n_max: int) -> tuple[tuple[int, int], ...]:
    """(k, omega(k)) for every k != 0 with omega(k) <= n_max, ascending in omega.

    omega(-k) < omega(k) < omega(-k-1), so the order is k = -1, 1, -2, 2, ...;
    callers walk it and stop at the first omega(k) > n.
    """
    terms = []
    k = 1
    while pentagonal(-k) <= n_max:
        terms.append((-k, pentagonal(-k)))
        if pentagonal(k) <= n_max:
            terms.append((k, pentagonal(k)))
        k += 1
    return tuple(terms)


class PartitionTable(NamedTuple):
    """p(0..N) as exact integers; p(n) = 0 for n < 0."""

    values: tuple[int, ...]

    def p(self, n: int) -> int:
        if n < 0:
            return 0
        return self.values[n]


@lru_cache(maxsize=8)  # a ``verify all`` pass, the busiest workload, reads 4 n_max
def partition_table(n_max: int) -> PartitionTable:
    """p(n) for n <= n_max by the signed pentagonal recurrence, walking
    ``pentagonal_terms`` up to omega(k) = n."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    terms = pentagonal_terms(n_max)
    values = [0] * (n_max + 1)
    values[0] = 1
    for n in range(1, n_max + 1):
        acc = 0
        for k, w in terms:
            if w > n:
                break
            acc += values[n - w] if k % 2 else -values[n - w]
        values[n] = acc
    return PartitionTable(tuple(values))


def sigma(m: int, n: int) -> int:
    """Divisor power sum sigma_m(n) = sum over d | n of d^m."""
    if n < 1:
        raise ValueError("sigma needs n >= 1")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**m
            e = n // d
            if e != d:
                total += e**m
    return total


@lru_cache(maxsize=32)  # a ``verify all`` pass, the busiest workload, reads 14 nu
def bracket_weights(nu: int) -> tuple[tuple[int, ...], Fraction]:
    """Integer weights w_0..w_nu and one rational factor for the order-nu bracket.

    The bracket of (1/eta, eta) is

        factor * sum_j w_j (24D)^j (1/eta) * (24D)^(nu-j) (eta),

    with w_j = (-1)^j (2j-1) C(2nu, 2j) and factor = pref(nu) / (2nu)!,
    where pref(nu) = (2nu-1) ((2nu-2)_(nu-1))^2 / 2^(2nu-2): w_j / (2nu)!
    is (-1)^j (2j-1) / ((2j)! (2nu-2j)!) over its common denominator.  The
    nu = 0 case goes through the negative-index falling factorial
    (-2)_(-1) = -1/2.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    weights = tuple((-1) ** j * (2 * j - 1) * comb(2 * nu, 2 * j) for j in range(nu + 1))
    pref = (2 * nu - 1) * falling_factorial(2 * nu - 2, nu - 1) ** 2 / Fraction(4) ** (nu - 1)
    return weights, pref / factorial(2 * nu)


def _weight_numerator(weights: tuple[int, ...], n: int, k: int) -> int:
    # sum_j w_j v^j u^(nu-j), by Horner's rule in v
    u = (6 * k + 1) ** 2
    v = 24 * n - u
    acc, u_pow = 0, 1
    for w in reversed(weights):
        acc = acc * v + w * u_pow
        u_pow *= u
    return acc


def recurrence_weight(nu: int, n: int, k: int) -> Fraction:
    """Weight polynomial of the order-nu pentagonal recurrence.

    Depends on k only through u = (6k+1)^2:

        pref(nu) * sum_{r=0}^{nu} (-1)^(nu+r) (2nu-2r-1) / ((2r)! (2nu-2r)!)
                   * u^r * (24n - u)^(nu-r)

    At nu = 0 this is identically 1; at nu = 2 it equals
    216 n^2 - 36 u n + u^2.  Summed as an integer numerator over the
    per-nu denominator of ``bracket_weights``.
    """
    weights, factor = bracket_weights(nu)
    return factor * _weight_numerator(weights, n, k)


def pentagonal_numerator_sum(weights: tuple[int, ...], n: int, ptable: PartitionTable) -> int:
    """sum over k != 0 with omega(k) <= n of (-1)^(k+1) W(n, k) p(n - omega(k)),
    where W(n, k) = ``_weight_numerator`` is w_nu(n, k) over the per-nu factor
    of ``bracket_weights``: the recurrence's pentagonal walk, in integers."""
    acc = 0
    # one walk, to the table's end, serves every n of a table
    for k, w in pentagonal_terms(len(ptable.values) - 1):
        if w > n:
            break
        sign = 1 if k % 2 else -1
        acc += sign * _weight_numerator(weights, n, k) * ptable.p(n - w)
    return acc


def recurrence_rhs(nu: int, n: int, trace: Fraction, ptable: PartitionTable) -> Fraction:
    """Right-hand side of the order-nu recurrence, as an exact rational.

    ``trace`` is the weight-2nu trace value for this n (zero whenever the
    cusp space is trivial).  The result equals p(n) when the trace is
    correct; returning a Fraction lets callers detect a wrong trace through
    a non-integral value.
    """
    if nu < 2:
        raise ValueError("recurrence_rhs needs nu >= 2")
    if n < 1:
        raise ValueError("recurrence_rhs needs n >= 1")
    if len(ptable.values) <= n:
        raise ValueError("partition table does not cover n")
    weights, factor = bracket_weights(nu)
    w0 = _weight_numerator(weights, n, 0)
    if w0 == 0:
        # cannot occur for n >= 1; guard kept so a regression is loud
        raise InternalCancellationError(f"vanishing k=0 weight at nu={nu}, n={n}")
    eis = -Fraction(4 * nu) / bernoulli(2 * nu) * comb(2 * nu - 2, nu - 2) * sigma(2 * nu - 1, n)
    acc = pentagonal_numerator_sum(weights, n, ptable)
    return (eis + trace + factor * acc) / (factor * w0)
