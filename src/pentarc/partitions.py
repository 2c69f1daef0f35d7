"""Partition numbers, pentagonal numbers, divisor sums, and the
trace-corrected pentagonal recurrence.

The recurrence generalizing Euler's: for nu >= 0 and n >= 1,

    p(n) = ( -(4 nu / B_{2 nu}) C(2nu-2, nu-2) sigma_{2nu-1}(n) + trace(n)
             + sum_{k != 0} (-1)^(k+1) w_nu(n,k) p(n - omega(k)) ) / w_nu(n,0)

where omega(k) = (3k^2+k)/2 and w_nu(n,k), the paper's g_nu(n,k), is the
weight polynomial ``recurrence_weight`` below, a Jacobi polynomial:

    w_nu(n,k) = (24n)^nu P_nu^(-3/2,-1/2)((2u - 24n) / (24n)),  u = (6k+1)^2

(identically 1 at nu = 0, recovering Euler).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul
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


@lru_cache(maxsize=8)  # a ``verify all`` pass, the busiest workload, reads 9 n_max
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


@lru_cache(maxsize=8)  # ``verify all`` reads 9 n_max, so its warm pass rebuilds p(0..200); 12.2 MB at 10^5
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
    """Divisor power sum sigma_m(n) = sum over d | n of d^m.

    Multiplicative: the product over the prime powers q^e exactly dividing n
    of 1 + q^m + ... + q^(em), with n factored by trial division."""
    if n < 1:
        raise ValueError("sigma needs n >= 1")
    total = 1
    q = 2
    while q * q <= n:
        if n % q == 0:
            qm, part = q**m, 1
            while n % q == 0:
                n //= q
                part = part * qm + 1
            total *= part
        q += 1 if q == 2 else 2
    return total * (n**m + 1) if n > 1 else total


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
          = (24n)^nu P_nu^(-3/2,-1/2)((2u - 24n) / (24n)),

    with P_nu^(a,b)(x) = sum_s C(nu+a, nu-s) C(nu+b, s) ((x-1)/2)^s ((x+1)/2)^(nu-s)
    the Jacobi polynomial.  At nu = 0 this is identically 1; at nu = 2 it
    equals 216 n^2 - 36 u n + u^2.  Summed as an integer numerator over the
    per-nu denominator of ``bracket_weights``.
    """
    weights, factor = bracket_weights(nu)
    return factor * _weight_numerator(weights, n, k)


class PackedWeights(NamedTuple):
    """The signed weights of the pentagonal walk to n_max, Kronecker-packed.

    ``omegas[m]`` is omega(k) for the m-th k of ``pentagonal_terms(n_max)``,
    and ``keys[m]`` packs c_i(m) = (-1)^(k+1) e_i u^(nu-i), u = (6k+1)^2, for
    i = 0..nu, where W(n, k) = sum_i e_i (24n)^i u^(nu-i).  ``slots[i]`` is
    (start, end, half): slot i is bytes start..end of a ``width``-byte int,
    offset by half its range, and ``bias`` is the sum of those offsets.
    """

    omegas: tuple[int, ...]
    keys: tuple[int, ...]
    slots: tuple[tuple[int, int, int], ...]
    bias: int
    width: int


@lru_cache(maxsize=16)  # ``verify all`` reads 27 (nu, n_max) cold and none warm; 11.2 MB at (200, 10^4)
def _weight_columns(nu: int, n_max: int) -> PackedWeights:
    """W(n, k) = sum_j w_j (24n - u)^j u^(nu-j) expanded in powers of 24n,
    e_i = sum_{j >= i} (-1)^(j-i) C(j, i) w_j for the w_j of
    ``bracket_weights``, its columns c_i packed into one int per k.

    Slot i holds D_i(n) for every n <= n_max: |D_i(n)| <= sum_m |c_i(m)| p(n_max)
    < 2^(bits(sum_m |c_i(m)|) + bits(p(n_max))), so the slot takes that many
    bits and a sign bit, rounded up to whole bytes, and is offset by half its
    range (the bias) so that every slot of the sum reads as an unsigned int."""
    weights, _ = bracket_weights(nu)
    e = [sum((-1) ** (j - i) * comb(j, i) * weights[j] for j in range(i, nu + 1)) for i in range(nu + 1)]
    terms = pentagonal_terms(n_max)
    columns = [[] for _ in e]
    for k, _ in terms:
        u = (6 * k + 1) ** 2
        u_pow = 1 if k % 2 else -1  # (-1)^(k+1) u^(nu-i), i from nu down
        for i in range(nu, -1, -1):
            columns[i].append(e[i] * u_pow)
            u_pow *= u
    p_bits = partition_table(n_max).values[-1].bit_length()
    slots, width = [], 0
    for column in columns:
        size = (sum(map(abs, column)).bit_length() + p_bits + 8) // 8
        slots.append((width, width + size, 1 << (8 * size - 1)))
        width += size
    bias = sum(half << (8 * start) for start, _, half in slots)
    keys = tuple(
        int.from_bytes(b"".join((c + h).to_bytes(b - a, "little") for c, (a, b, h) in zip(cs, slots)), "little") - bias
        for cs in zip(*columns)
    )
    return PackedWeights(tuple(w for _, w in terms), keys, tuple(slots), bias, width)


def pentagonal_numerator_sum(nu: int, n: int, ptable: PartitionTable) -> int:
    """sum over k != 0 with omega(k) <= n of (-1)^(k+1) W(n, k) p(n - omega(k)),
    where W(n, k) = ``_weight_numerator`` is w_nu(n, k) over the per-nu factor
    of ``bracket_weights``: the recurrence's pentagonal walk, in integers.

    ``ptable`` is ``partition_table``'s, to some n_max >= n.  One dot product of
    p(n - omega(k)) with the packed weights of ``_weight_columns``, built once
    to n_max for every n of a table, gives every D_i(n) at once; they are read
    from its bytes and folded by Horner's rule in 24n."""
    values = ptable.values
    if not 0 <= n < len(values):
        raise ValueError(f"partition table covers n in 0..{len(values) - 1}, got {n}")
    omegas, keys, slots, bias, width = _weight_columns(nu, len(values) - 1)
    # map stops at the end of ps, the terms with omega(k) <= n
    ps = [values[n - w] for w in omegas[: bisect_right(omegas, n)]]
    raw = (sum(map(mul, keys, ps)) + bias).to_bytes(width, "little")
    v = 24 * n
    acc = 0
    for start, end, half in reversed(slots):
        acc = acc * v + int.from_bytes(raw[start:end], "little") - half
    return acc


@lru_cache(maxsize=16)  # a ``verify all`` pass, the busiest workload, reads 4 nu
def _rhs_constants(nu: int) -> tuple[int, int, int]:
    """(a, b, d) with a/d = E/F and b/d = 1/F, for E the Eisenstein constant
    -(4 nu / B_{2nu}) C(2nu-2, nu-2) and F the factor of ``bracket_weights``."""
    _, factor = bracket_weights(nu)
    eis = -Fraction(4 * nu) / bernoulli(2 * nu) * comb(2 * nu - 2, nu - 2) / factor
    d = lcm(eis.denominator, factor.numerator)
    return eis.numerator * (d // eis.denominator), factor.denominator * (d // factor.numerator), d


def recurrence_rhs(nu: int, n: int, trace: Fraction, ptable: PartitionTable) -> Fraction:
    """Right-hand side of the order-nu recurrence, as an exact rational.

    ``trace`` is the weight-2nu trace value for this n (zero whenever the
    cusp space is trivial).  The result equals p(n) when the trace is
    correct; returning a Fraction lets callers detect a wrong trace through
    a non-integral value.  Divided by the factor F of ``bracket_weights``,
    the numerator is (a/d) sigma + (b/d) trace + the integer walk
    (``_rhs_constants``), so the value is one integer over another, reduced
    once.
    """
    if nu < 2:
        raise ValueError("recurrence_rhs needs nu >= 2")
    if n < 1:
        raise ValueError("recurrence_rhs needs n >= 1")
    if len(ptable.values) <= n:
        raise ValueError("partition table does not cover n")
    weights, _ = bracket_weights(nu)
    w0 = _weight_numerator(weights, n, 0)
    if w0 == 0:
        # cannot occur for n >= 1; guard kept so a regression is loud
        raise InternalCancellationError(f"vanishing k=0 weight at nu={nu}, n={n}")
    a, b, d = _rhs_constants(nu)
    tn, td = trace.numerator, trace.denominator
    num = td * (a * sigma(2 * nu - 1, n) + d * pentagonal_numerator_sum(nu, n, ptable)) + b * tn
    return Fraction(num, d * td * w0)
