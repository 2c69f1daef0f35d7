"""Level-1 modular forms as exact q-expansions.

Eisenstein series E_w = 1 - (2w/B_w) sum sigma_{w-1}(n) q^n (the
quasi-modular E_2 is allowed as a series but never enters a space basis)
and the monomials Delta^c E4^a E6^b are built in ``_coeffs``, the monomials
by its one lattice builder.  Here they are read as the bases of the
level-1 spaces: Delta E4^a E6^b of S_w (``cusp_monomials``, with ``delta``
and the one-dimensional ``cusp_generator``), and E4^a E6^b of M_w
(``space_basis``), with exact decomposition against the latter through the
exact solver ``exactnum.solve``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple

from ._coeffs import _monomial_exponents, _monomial_rows, cusp_monomial_coeffs, eisenstein_series
from .errors import NotInSpaceError, PrecisionError
from .exactnum import solve
from .qseries import IntQSeries

__all__ = [
    "MFSpace",
    "eisenstein",
    "delta",
    "cusp_generator",
    "cusp_monomials",
    "dim_modular",
    "dim_cusp",
    "space_basis",
    "decompose",
]


#: a ``verify all`` pass reads 17 distinct (w, prec), the most of any benchmark workload
@lru_cache(maxsize=32)
def eisenstein(w: int, prec: int) -> IntQSeries:
    """Weight-w Eisenstein series, exact through q^(prec-1)."""
    if w < 2 or w % 2:
        raise ValueError("Eisenstein weight must be a positive even integer")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    return eisenstein_series(w, prec)


def delta(prec: int) -> IntQSeries:
    """eta^24 = q - 24q^2 + 252q^3 - ...: the one row of the weight-12 Delta
    lattice of ``_coeffs``."""
    return cusp_generator(12, prec)


def cusp_generator(weight: int, prec: int) -> IntQSeries:
    """Normalized generator of a one-dimensional cusp space.

    Defined for weight in {12, 16, 18, 20, 22, 26} as Delta times the unique
    E4^a E6^b monomial of weight (weight - 12); leading coefficient 1 at q.
    Exact through q^(prec-1), read from the ``_coeffs`` Delta lattice.
    """
    if dim_cusp(weight) != 1:
        raise ValueError(f"weight {weight} does not have a 1-dimensional cusp space")
    if prec < 2:
        raise ValueError("prec must be >= 2")
    (row,) = cusp_monomials(weight, prec)
    return IntQSeries._make(1, row[1:])


def cusp_monomials(weight: int, length: int) -> list[list[int]]:
    """Coefficients 0..length-1 of each Delta E4^a E6^b of weight ``weight``,
    in the (a, b) order of ``_monomial_exponents(weight - 12)``: the basis
    of S_weight, every member starting with q."""
    indices = tuple(range(length))
    return [cusp_monomial_coeffs(a, b, indices, length - 1) for a, b in _monomial_exponents(weight - 12)]


def dim_modular(weight: int) -> int:
    """dim M_weight for even weight >= 0 (0 for odd or negative), in closed
    form: floor(weight/12), plus 1 unless weight = 2 mod 12."""
    if weight < 0 or weight % 2:
        return 0
    return weight // 12 + (weight % 12 != 2)


def dim_cusp(weight: int) -> int:
    """dim S_weight; one less than dim M_weight for weight >= 4."""
    if weight < 12:
        return 0
    return dim_modular(weight) - 1


class MFSpace(NamedTuple):
    """Monomial basis E4^a E6^b of M_weight, in lexicographic (a, b) order."""

    weight: int
    dim_total: int
    dim_cusp: int
    basis: tuple[IntQSeries, ...]
    prec: int


#: ``pnu`` reads one space per request; ``verify`` and the eigenforms read none
@lru_cache(maxsize=8)
def space_basis(weight: int, prec: int) -> MFSpace:
    """Monomial basis of M_weight, exact through q^(prec-1)."""
    if weight < 4 or weight % 2:
        raise ValueError("space_basis needs an even weight >= 4")
    dim_total = dim_modular(weight)
    if prec <= dim_total + 2:
        raise PrecisionError(f"prec {prec} too small for weight-{weight} space")
    basis = tuple(_monomial_rows(weight, IntQSeries._make(0, [1] + [0] * (prec - 1))))
    return MFSpace(weight, dim_total, dim_total - 1, basis, prec)


def decompose(f: IntQSeries, space: MFSpace) -> list[Fraction]:
    """Exact coordinates of f in the monomial basis of the space.

    Solves against the first dim_total coefficients and then verifies that
    the residual vanishes through the common precision, in integers: the
    coordinates over their common denominator, and the numerators of the
    basis and of f over theirs.  A nonzero residual raises NotInSpaceError.
    """
    if f.offset < 0:
        raise ValueError("decompose expects exponents >= 0")
    if f.prec < space.dim_total + 1:
        raise PrecisionError("series too short to decompose")
    n_rows = space.dim_total
    matrix = [[space.basis[j].coeff(n) for j in range(n_rows)] for n in range(n_rows)]
    rhs = [f.coeff(n) for n in range(n_rows)]
    coords = solve(matrix, rhs)
    check_prec = min(f.prec, space.prec)
    # sum_j c_j B_j / den_j = F / f.den, times lcm(c_j denominators) * lcm(den_j) * f.den
    scale = lcm(*(c.denominator for c in coords))
    basis_den = lcm(*(b.den for b in space.basis))
    weights = [
        c.numerator * (scale // c.denominator) * (basis_den // b.den) * f.den for c, b in zip(coords, space.basis)
    ]
    target_scale = scale * basis_den
    rows = zip(f._window(0, check_prec), *(b._window(0, check_prec) for b in space.basis))
    for n, (target, *row) in enumerate(rows):
        if sum(map(mul, weights, row)) != target * target_scale:
            raise NotInSpaceError(
                f"residual at q^{n}: series is not in the weight-{space.weight} space"
            )
    return coords
