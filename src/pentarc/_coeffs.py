"""The one construction of E_w and of the monomials Delta^c E4^a E6^b as exact
integer series.

``eisenstein_series`` builds E_w for every even w >= 2 by one divisor-power
sieve; ``forms.eisenstein`` wraps it.  ``_monomial_rows`` is the one builder
of the monomials.  For a weight w the (a, b) of ``_monomial_exponents(w)``
are (a0 + 3i, b0 + 2(d - i)), i = 0..d, so row i is (base X^i) Y^(d-i)
with X = E4^3, Y = E6^2 and base = start E4^a0 E6^b0: at most 3d + 5
products for the whole space, where a chain per row takes O(d^2).  With
start = 1 the rows are the basis of M_w (``forms.space_basis``).  With
start = Delta they are the basis of S_(w+12), cached per (weight, length)
by ``_cusp_lattice`` and read through ``cusp_monomial_coeffs`` by
``forms.delta``, ``forms.cusp_generator`` and ``forms.cusp_monomials``.

Delta = q prod(1-q^n)^24 comes from Jacobi's cube identity
prod(1-q^n)^3 = sum (-1)^j (2j+1) q^(j(j+1)/2), squared three times (to
eta^6, eta^12 and eta^24, up to q-shifts) by ``pow(8)``.  E4 and E6 are
built only when a row needs them, so weight 12 is Delta alone; deriving
Delta as (E4^3 - E6^2)/1728 instead is about 4x slower there.  The
Dirichlet sums read the Delta rows only up to index N + 1 (2001 at the
largest default truncation) and reach larger indices through Hecke
multiplicativity.  Every product runs on the one integer product kernel
``qseries._convolve``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactnum import bernoulli
from .qseries import IntQSeries


def _cube_coeffs(length: int) -> list[int]:
    """prod(1-q^n)^3 through q^(length-1): (-1)^j (2j+1) at j(j+1)/2."""
    out = [0] * length
    j = 0
    while j * (j + 1) // 2 < length:
        out[j * (j + 1) // 2] = (2 * j + 1) * (-1 if j % 2 else 1)
        j += 1
    return out


def eisenstein_series(w: int, length: int) -> IntQSeries:
    """E_w through q^(length-1) for even w >= 2 (E_2 is quasi-modular)."""
    sigma = [0] * length
    for d in range(1, length):
        power = d ** (w - 1)
        for m in range(d, length, d):
            sigma[m] += power
    factor = -Fraction(2 * w) / bernoulli(w)
    den = factor.denominator
    return IntQSeries._make(0, [den] + [factor.numerator * s for s in sigma[1:]], den)


def _monomial_exponents(weight: int) -> list[tuple[int, int]]:
    """Every (a, b) with 4a + 6b = weight, a ascending: the row order of
    ``_monomial_rows``."""
    out = []
    for a in range(weight // 4 + 1):
        rest = weight - 4 * a
        if rest % 6 == 0:
            out.append((a, rest // 6))
    return out


def _monomial_rows(weight: int, start: IntQSeries) -> list[IntQSeries]:
    """start E4^a E6^b for each (a, b) of ``_monomial_exponents(weight)``, in
    that order, as long as ``start``: row i is (base X^i) Y^(d-i)."""
    exps = _monomial_exponents(weight)
    d = len(exps) - 1
    a0, b0 = exps[0][0], exps[-1][1]
    length = len(start.coeffs)
    e4 = eisenstein_series(4, length) if a0 or d else None
    e6 = eisenstein_series(6, length) if b0 or d else None
    base = start
    for _ in range(a0):
        base = base * e4
    for _ in range(b0):
        base = base * e6
    if not d:
        return [base]
    x, y = e4 * e4 * e4, e6 * e6
    lefts, y_powers = [base], [y]
    for _ in range(d):
        lefts.append(lefts[-1] * x)
    for _ in range(d - 1):
        y_powers.append(y_powers[-1] * y)
    # the last row, base X^d, takes no power of Y
    return [left * y_power for left, y_power in zip(lefts, y_powers[::-1])] + lefts[-1:]


#: a ``verify all`` pass, the busiest workload, reads 10 (weight, length)
@lru_cache(maxsize=16)
def _cusp_lattice(weight: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Coefficients 0..length-1 of each Delta E4^a E6^b of weight ``weight``,
    in ``_monomial_exponents(weight - 12)`` order."""
    delta_over_q = IntQSeries._make(0, _cube_coeffs(length - 1)).pow(8)  # prod(1-q^n)^24
    return tuple((0,) + row.coeffs for row in _monomial_rows(weight - 12, delta_over_q))


def cusp_monomial_coeffs(a4: int, b6: int, indices: tuple[int, ...]) -> list[int]:
    """Exact integer coefficients of Delta E4^a4 E6^b6 at the given indices.

    Read from row a4 // 3 of the cached Delta lattice of its weight through
    q^max(indices).
    """
    row = _cusp_lattice(12 + 4 * a4 + 6 * b6, max(indices) + 1)[a4 // 3]
    return [row[m] for m in indices]
