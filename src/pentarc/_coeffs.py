"""The one construction of E_w and of Delta E4^a E6^b as exact integer series.

``eisenstein_series`` builds E_w for every even w >= 2 by one divisor-power
sieve; ``forms.eisenstein`` wraps it.  The cached tables Delta E4^a E6^b are
the one builder of Delta (``forms.delta`` and ``forms.cusp_generator`` read
them).  The Dirichlet sums read them only up to index N + 1 (2001 at the
largest default truncation) and reach larger indices through Hecke
multiplicativity.  Each table is a chain of exact ``IntQSeries`` products
on the one integer product kernel ``qseries._convolve``.  eta^24 comes from
Jacobi's cube identity prod(1-q^n)^3 = sum (-1)^j (2j+1) q^(j(j+1)/2),
squared three times (to eta^6, eta^12 and eta^24, up to q-shifts) by
``pow(8)``.
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


@lru_cache(maxsize=32)
def _monomial_table(a4: int, b6: int, mmax: int) -> tuple[int, ...]:
    """Coefficients 0..mmax of Delta E4^a4 E6^b6."""
    acc = IntQSeries._make(0, _cube_coeffs(mmax)).pow(8)  # Delta = q prod(1-q^n)^24
    for w, reps in ((4, a4), (6, b6)):
        if reps:
            eis = eisenstein_series(w, mmax)
            for _ in range(reps):
                acc = acc * eis
    return (0,) + acc.coeffs


def cusp_monomial_coeffs(a4: int, b6: int, indices: tuple[int, ...], mmax: int) -> list[int]:
    """Exact integer coefficients of Delta E4^a4 E6^b6 at the given indices.

    One table through q^mmax is built per (a4, b6, mmax) and cached.
    """
    if max(indices, default=0) > mmax:
        raise ValueError(f"index {max(indices)} beyond table size {mmax}")
    table = _monomial_table(a4, b6, mmax)
    return [table[m] for m in indices]
