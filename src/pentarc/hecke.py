"""Hecke operators, eigenforms over quadratic fields, and the trace series
carried by the cuspidal part of the eta brackets.

``eigen_coordinates`` is the one eigen solve: it diagonalizes T_2 on the
Delta E4^a E6^b basis of S_w (``forms.cusp_monomials``).  ``eigen_pairs``,
the one reader of its coordinates, gives the integer pairs of
2a(n) = x_n + y_n sqrt(d), checked integral; ``eigenforms`` and the
Dirichlet side both read them.  A failed eigenform check is an internal
fault (InternalCancellationError, exit 3), not an unsupported space.
``cusp_part`` is the one construction of the cuspidal part, the bracket
of ``rankincohen.eta_bracket_from_partitions`` less C(2nu-2, nu-2) E_{2nu},
and ``pnu``, ``trace_series``, the projections and ``verify`` all read it.
The weight-2nu trace sequence is its q^n coefficient for n >= 1.
(``partitions.recurrence_rhs`` writes the Eisenstein term from the
sigma_{2nu-1} formula instead, so the ``trace-recurrence`` suite checks one
against the other.)
``eigenform_projections`` solves sum_i gamma_i a_i(n) = trace(n),
n = 1..dim, with the exact solver ``exactnum.solve``, yielding the exact
projection ratios gamma_i = <bracket, f_i> / <f_i, f_i>.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import NamedTuple

from .errors import InternalCancellationError, PrecisionError, UnsupportedHeckeFieldError
from .exactnum import QuadNum, solve, squarefree_split
from .forms import cusp_monomials, dim_cusp, eisenstein
from .qseries import IntQSeries
from .rankincohen import eta_bracket_from_partitions

__all__ = [
    "Eigenform",
    "TraceSeries",
    "hecke_operator",
    "hecke_action",
    "eigen_coordinates",
    "eigen_pairs",
    "eigenforms",
    "cusp_part",
    "trace_series",
    "eigenform_projections",
]

#: exact eigenform/trace data never needs many terms for the linear algebra
_EIGEN_PREC = 16


def hecke_action(coeffs, weight: int, m: int, count: int) -> list:
    """Coefficients 0..count-1 of T_m applied to a(0..), any coefficient ring.

    [q^n] T_m f = sum over d | gcd(m, n) of d^(weight-1) a(m n / d^2);
    for n = 0 this is sigma_{weight-1}(m) a(0).
    """
    out = []
    for n in range(count):
        g = m if n == 0 else gcd(m, n)
        acc = None
        for d in range(1, g + 1):
            if g % d == 0:
                term = coeffs[m * n // (d * d)] * d ** (weight - 1)
                acc = term if acc is None else acc + term
        out.append(acc)
    return out


def hecke_operator(f: IntQSeries, weight: int, m: int) -> IntQSeries:
    """The m-th Hecke operator on a level-1 weight-`weight` q-expansion.

    Output precision is floor(f.prec / m).
    """
    if m < 1:
        raise ValueError("Hecke index must be >= 1")
    if f.offset < 0:
        raise ValueError("Hecke action expects exponents >= 0")
    out_prec = f.prec // m
    if out_prec < 1:
        raise PrecisionError(f"precision {f.prec} too small for T_{m}")
    table = (0,) * f.offset + f.coeffs
    return IntQSeries._make(0, hecke_action(table, weight, m, out_prec), f.den)


class Eigenform(NamedTuple):
    """Normalized Hecke eigenform q-expansion over Q(sqrt(disc))."""

    weight: int
    disc: int
    coeffs: tuple[QuadNum, ...]

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def a(self, n: int) -> QuadNum:
        return self.coeffs[n]


class TraceSeries(NamedTuple):
    values: tuple[Fraction, ...]  # values[n] for n = 0..N, values[0] = 0

    def value(self, n: int) -> Fraction:
        return self.values[n]


@lru_cache(maxsize=8)
def eigen_coordinates(weight: int) -> tuple[int, tuple[tuple[QuadNum, ...], ...]]:
    """(d, coords): each normalized eigenform of S_weight, dim 1 or 2, as
    its coordinates over Q(sqrt(d)) in the Delta E4^a E6^b basis.

    For dim 2 the matrix of T_2 on that basis is diagonalized exactly;
    each column solves for T_2 of one basis form from the coefficients at
    q^1..q^dim.  Every basis form starts with q, so a(1) is the sum of the
    coordinates, which normalizes each eigenvector.  Forms are ordered so
    the first has the negative sqrt(d)-part in a(2).  Larger dimensions,
    and a T_2 reducible over Q, raise UnsupportedHeckeFieldError.
    """
    if weight < 12 or weight % 2:
        raise ValueError("eigenforms needs an even weight >= 12")
    dim = dim_cusp(weight)
    if dim not in (1, 2):
        raise UnsupportedHeckeFieldError(f"dim S_{weight} = {dim} is not supported")
    if dim == 1:
        return 1, ((QuadNum(1),),)
    # T_2 reads q^1..q^(2 dim); eigen_pairs reads the same tables at the eigenforms' default
    rows = cusp_monomials(weight, _EIGEN_PREC)
    head = [[Fraction(row[n]) for row in rows] for n in range(1, dim + 1)]
    # column j holds the coordinates of T_2 applied to basis form j
    (m11, m21), (m12, m22) = (solve(head, hecke_action(row, weight, 2, dim + 1)[1:]) for row in rows)
    tr = m11 + m22
    det = m11 * m22 - m12 * m21
    disc = tr * tr - 4 * det
    if disc.denominator != 1 or disc <= 0:
        raise UnsupportedHeckeFieldError(f"unexpected T_2 discriminant {disc}")
    s, d = squarefree_split(disc.numerator)
    if d == 1:
        raise UnsupportedHeckeFieldError("T_2 matrix is reducible over Q")
    # a normalized eigenform's a(2) is its T_2 eigenvalue, so this is a(2) order
    coords = []
    for lam in (QuadNum(Fraction(tr, 2), Fraction(sign * s, 2), d) for sign in (-1, 1)):
        # the eigenvector (m12, lam - m11), scaled to a(1) = the sum of its coordinates = 1
        a1 = lam - m11 + m12
        coords.append((m12 / a1, (lam - m11) / a1))
    return d, tuple(coords)


def eigen_pairs(weight: int, length: int) -> tuple[int, tuple[list[tuple[int, int]], ...]]:
    """(d, pairs): for each eigenform of ``eigen_coordinates``, in its order,
    the integer pairs (x_n, y_n) with 2a(n) = x_n + y_n sqrt(d), n < length.

    With coordinate j over one denominator D as (u_j + v_j sqrt(d)) / D,
    2 sum_j u_j T_j and 2 sum_j v_j T_j are summed over the monomial rows
    T_j a whole row at a time; D must divide both, as a(n) is an algebraic
    integer."""
    d, coords = eigen_coordinates(weight)
    rows = cusp_monomials(weight, length)
    out = []
    for c in coords:
        den = lcm(*(z.a.denominator for z in c), *(z.b.denominator for z in c))
        xs = ys = [0] * length
        for z, row in zip(c, rows):
            u, v = int(2 * den * z.a), int(2 * den * z.b)
            xs = [acc + u * t for acc, t in zip(xs, row)]
            ys = [acc + v * t for acc, t in zip(ys, row)]
        for n, (x, y) in enumerate(zip(xs, ys)):
            if x % den or y % den:
                raise InternalCancellationError(
                    f"coefficient {n} of the weight-{weight} eigenform is not an algebraic integer"
                )
        out.append([(x // den, y // den) for x, y in zip(xs, ys)])
    return d, tuple(out)


@lru_cache(maxsize=8)
def eigenforms(weight: int, prec: int = _EIGEN_PREC) -> tuple[Eigenform, ...]:
    """Normalized Hecke eigenforms of S_weight for dim 1 or 2, read from
    ``eigen_pairs`` in its order, each checked by ``_check_eigenform``, whose
    T_2 check first compares a(4) + 2^(weight-1) a(1) with a(2)^2 at prec 6."""
    if prec < 6:
        raise ValueError(f"eigenforms needs prec >= 6, got {prec}")
    d, pairs = eigen_pairs(weight, prec)
    forms = tuple(
        Eigenform(weight, d, tuple(QuadNum(Fraction(x, 2), Fraction(y, 2), d) for x, y in p)) for p in pairs
    )
    for f in forms:
        _check_eigenform(f)
    return forms


def _check_eigenform(f: Eigenform) -> None:
    # a(1) = 1 and the T_2 eigenvalue property through available precision
    if f.a(1) != 1:
        raise InternalCancellationError("eigenform is not normalized")
    count = f.prec // 2
    acted = hecke_action(f.coeffs, f.weight, 2, count)
    lam = f.a(2)
    for n in range(1, count):
        if acted[n] != lam * f.a(n):
            raise InternalCancellationError("T_2 eigenvector check failed")


def cusp_part(nu: int, prec: int) -> IntQSeries:
    """eta_bracket_from_partitions(nu) - C(2nu-2, nu-2) E_{2nu}, exact through q^(prec-1), nu >= 2."""
    if nu < 2 or prec < 2:
        raise ValueError(f"cusp_part needs nu >= 2 and prec >= 2, got ({nu}, {prec})")
    return eta_bracket_from_partitions(nu, prec) - eisenstein(2 * nu, prec).scale(comb(2 * nu - 2, nu - 2))


@lru_cache(maxsize=16)  # a ``verify all`` pass, the busiest workload, reads 7 (nu, n_max)
def trace_series(nu: int, n_max: int) -> TraceSeries:
    """Exact trace values for 1 <= n <= n_max (identically 0 if dim S = 0),
    the coefficients of ``cusp_part``."""
    if nu < 2:
        raise ValueError("trace_series needs nu >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if dim_cusp(2 * nu) == 0:
        return TraceSeries(tuple([Fraction(0)] * (n_max + 1)))
    cusp = cusp_part(nu, n_max + 1)
    return TraceSeries((Fraction(0),) + tuple(cusp.coeff(n) for n in range(1, n_max + 1)))


@lru_cache(maxsize=8)
def eigenform_projections(nu: int) -> tuple[QuadNum, ...]:
    """Exact coefficients gamma_i of the cuspidal part of eta_bracket(nu) in
    the eigenform basis: the solution of sum_i gamma_i a_i(n) = trace(n) for
    n = 1..dim."""
    dim = dim_cusp(2 * nu)
    if dim == 0:
        raise UnsupportedHeckeFieldError(f"dim S_{2*nu} = 0 is not supported")
    fs = eigenforms(2 * nu)
    traces = trace_series(nu, dim)
    matrix = [[f.a(n) for f in fs] for n in range(1, dim + 1)]
    return tuple(solve(matrix, [QuadNum(traces.value(n)) for n in range(1, dim + 1)]))
