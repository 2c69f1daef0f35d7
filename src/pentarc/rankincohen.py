"""Rankin-Cohen brackets of 1/eta with eta and their partition-side expansion.

``eta_bracket(nu, prec)`` builds the weight-2nu holomorphic modular form

    pref(nu) * sum_{r+s=nu} (-1)^r (2r-1) / ((2r)! (2s)!)
               * (24 D)^r (1/eta) * (24 D)^s (eta),

with pref(nu) = (2nu-1) ((2nu-2)_(nu-1))^2 / 2^(2nu-2).  It works on the
integer exponent grid with an explicit 1/24 shift: eta = q^(1/24) E(q) and
1/eta = q^(-1/24) P(q), where E is the pentagonal series and P = E^-1 comes
from the integer inversion.  On these shifted grids 24 D multiplies the
coefficient at q^n by the integer 24n + 1 (eta) or 24n - 1 (1/eta), and
every product's shifts add to zero, so the terms are integer series.  The
weights are integers over the common denominator (2nu)!
(``partitions.bracket_weights``); the weighted sum is accumulated in
integers and divided once.  The same form equals 24^nu times the general
Rankin-Cohen bracket of (1/eta, eta) at weights (-1/2, 1/2), which
``rankin_cohen`` implements on the 1/24 grid with exact Gamma-ratio
weights.

``eta_bracket_from_partitions`` rebuilds the identical expansion from
partition numbers alone: the q^n coefficient is

    sum_k (-1)^k w_nu(n, k) p(n - omega(k)),

summed over every integer k with omega(k) <= n (k = 0 included).  Each
w_nu(n, k) is an integer numerator over the one per-nu factor of
``bracket_weights``, so the sums are integers (the k != 0 part is the
recurrence's walk, ``partitions.pentagonal_numerator_sum``) and the series
is scaled by that factor once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import GammaPoleError
from .exactnum import falling_factorial
from .partitions import (
    _weight_numerator,
    bracket_weights,
    partition_table,
    pentagonal_numerator_sum,
    recurrence_weight,
)
from .qseries import IntQSeries, QSeries24, euler_expansion

__all__ = [
    "eta_bracket",
    "eta_bracket_from_partitions",
    "rankin_cohen",
    "recurrence_weight",
]


def _d24_chain(base: IntQSeries, shift24: int, order: int) -> list[IntQSeries]:
    """(24D)^j of q^(shift24/24) * base, without that factor, for j = 0..order.

    On the shifted grid 24D multiplies the coefficient at q^(n + shift24/24)
    by the integer 24n + shift24.
    """
    factors = [24 * (base.offset + i) + shift24 for i in range(len(base.coeffs))]
    chain = [base]
    for _ in range(order):
        last = chain[-1]
        chain.append(IntQSeries._make(last.offset, [c * f for c, f in zip(last.coeffs, factors)], last.den))
    return chain


@lru_cache(maxsize=64)  # a ``verify all`` pass, the busiest workload, reads 27 (nu, prec)
def eta_bracket(nu: int, prec: int) -> IntQSeries:
    """The order-nu bracket of (1/eta, eta) as an integer-exponent series.

    Constant term C(2nu-2, nu-2) for nu >= 2; equals 1 at nu = 0 and 0 at
    nu = 1.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if prec < 2:
        raise ValueError("prec must be >= 2")
    # eta = q^(1/24) E and 1/eta = q^(-1/24) E^-1, with prec coefficients each
    euler = euler_expansion(prec)
    # the shifts -1/24 and 1/24 add to zero, so every product lies on integer exponents
    inv_chain = _d24_chain(euler.invert(), -1, nu)
    eta_chain = _d24_chain(euler, 1, nu)
    weights, factor = bracket_weights(nu)
    acc = None
    for r, w in enumerate(weights):
        term = (inv_chain[r] * eta_chain[nu - r]).scale(w)
        acc = term if acc is None else acc + term
    return acc.scale(factor)


def eta_bracket_from_partitions(nu: int, prec: int) -> IntQSeries:
    """Reconstruct eta_bracket(nu) purely from partition numbers."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if prec < 2:
        raise ValueError("prec must be >= 2")
    weights, factor = bracket_weights(nu)
    ptable = partition_table(prec - 1)
    # the k = 0 term, less the recurrence's walk over k != 0
    nums = [
        _weight_numerator(weights, n, 0) * ptable.p(n) - pentagonal_numerator_sum(nu, n, ptable)
        for n in range(prec)
    ]
    return IntQSeries._make(0, nums).scale(factor)


def _require_no_pole(weight_plus_nu: Fraction) -> None:
    if weight_plus_nu.denominator == 1 and weight_plus_nu <= 0:
        raise GammaPoleError(f"Gamma pole at {weight_plus_nu}")


def rankin_cohen(
    f: QSeries24,
    wf: Fraction | int,
    g: QSeries24,
    wg: Fraction | int,
    nu: int,
) -> QSeries24:
    """General order-nu Rankin-Cohen bracket of weights (wf, wg):

        sum_{r+s=nu} (-1)^r (wf+nu-1)_s (wg+nu-1)_r / (s! r!) D^r(f) D^s(g)

    The falling factorials are the Gamma ratios Gamma(w+nu)/Gamma(w+nu-j)
    evaluated exactly in the rationals (pi powers cancel within each ratio).
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    wf = Fraction(wf)
    wg = Fraction(wg)
    _require_no_pole(wf + nu)
    _require_no_pole(wg + nu)
    df = [f]
    dg = [g]
    for _ in range(nu):
        df.append(df[-1].deriv())
        dg.append(dg[-1].deriv())
    acc = None
    for r in range(nu + 1):
        s = nu - r
        weight = (
            Fraction(-1 if r % 2 else 1)
            * falling_factorial(wf + nu - 1, s)
            * falling_factorial(wg + nu - 1, r)
            / (factorial(s) * factorial(r))
        )
        term = (df[r] * dg[s]).scale(weight)
        acc = term if acc is None else acc + term
    return acc
