"""Exact scalar arithmetic.

Rationals are plain ``fractions.Fraction`` (re-exported as ``Rat``); on top of
that this module provides Bernoulli numbers under the B_1 = -1/2 convention
(from one integer table of tangent numbers), falling/rising factorials
including the negative-index falling factorial (x)_m := 1/(x)_{-m} for
m <= -1, exact Gamma values at integers and half-integers tracked as
rational multiples of pi^(h/2), arithmetic in a real quadratic field
Q(sqrt(d)), and the one exact linear solver, generic over those fields.

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import GammaPoleError, InternalCancellationError, UnsupportedHeckeFieldError

Rat = Fraction

__all__ = [
    "Rat",
    "PiScalar",
    "QuadNum",
    "bernoulli",
    "falling_factorial",
    "rising_factorial",
    "gamma_exact",
    "rref",
    "solve",
    "squarefree_split",
]


@lru_cache(maxsize=16)  # a ``verify all`` pass, the busiest workload, reads 5 kmax
def _tangent_numbers(kmax: int) -> tuple[int, ...]:
    """(0, T_1, ..., T_kmax), the tangent numbers 1, 2, 16, 272, ...

    One O(kmax^2) integer triangle (Brent and Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers", arXiv:1108.0286, Algorithm
    TangentNumbers).  Callers pass a power of two for kmax, so a growing
    index rebuilds the table O(log k) times.
    """
    t = [0, 1] + [0] * (kmax - 1)
    for k in range(2, kmax + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, kmax + 1):
        for j in range(k, kmax + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


@lru_cache(maxsize=32)  # a ``verify all`` pass, the busiest workload, reads 13 n
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2 (so E_4 = 1 + 240q + ...).

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers
    T_k; the odd B_n vanish for n > 1.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    k = n // 2
    four_k = 1 << n
    value = Fraction(n * _tangent_numbers(1 << (k - 1).bit_length())[k], four_k * (four_k - 1))
    return value if k % 2 else -value


def falling_factorial(x: Fraction | int, m: int) -> Fraction:
    """Falling factorial (x)_m = x(x-1)...(x-m+1), with (x)_0 = 1.

    For m <= -1 returns 1/(x)_{-m}; raises ZeroDivisionError when that
    product vanishes.
    """
    x = Fraction(x)
    if m >= 0:
        out = Fraction(1)
        for i in range(m):
            out *= x - i
        return out
    base = falling_factorial(x, -m)
    if base == 0:
        raise ZeroDivisionError(f"falling factorial ({x})_{-m} is zero")
    return 1 / base


def rising_factorial(x: Fraction | int, j: int) -> Fraction:
    """Rising factorial x(x+1)...(x+j-1), with empty product 1 for j = 0."""
    if j < 0:
        raise ValueError("rising factorial needs j >= 0")
    x = Fraction(x)
    out = Fraction(1)
    for i in range(j):
        out *= x + i
    return out


class PiScalar:
    """Exact scalar of the form coeff * pi^(half_pi_pow / 2).

    Canonical zero has half_pi_pow = 0.  Products and quotients add and
    subtract the half powers; addition is intentionally unsupported because
    mixed pi-powers do not stay in this class.
    """

    __slots__ = ("coeff", "half_pi_pow")

    def __init__(self, coeff: Fraction | int, half_pi_pow: int = 0):
        coeff = Fraction(coeff)
        self.coeff = coeff
        self.half_pi_pow = 0 if coeff == 0 else int(half_pi_pow)

    def __mul__(self, other):
        if isinstance(other, PiScalar):
            return PiScalar(self.coeff * other.coeff, self.half_pi_pow + other.half_pi_pow)
        if isinstance(other, (int, Fraction)):
            return PiScalar(self.coeff * other, self.half_pi_pow)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScalar):
            if other.coeff == 0:
                raise ZeroDivisionError("division by zero PiScalar")
            return PiScalar(self.coeff / other.coeff, self.half_pi_pow - other.half_pi_pow)
        if isinstance(other, (int, Fraction)):
            return PiScalar(self.coeff / other, self.half_pi_pow)
        return NotImplemented

    def __neg__(self):
        return PiScalar(-self.coeff, self.half_pi_pow)

    def __eq__(self, other):
        if isinstance(other, PiScalar):
            return self.coeff == other.coeff and self.half_pi_pow == other.half_pi_pow
        if isinstance(other, (int, Fraction)):
            return self == PiScalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.half_pi_pow))

    def __float__(self):
        return float(self.coeff) * math.pi ** (self.half_pi_pow / 2)

    def __repr__(self):
        return f"PiScalar({self.coeff!r}, half_pi_pow={self.half_pi_pow})"


@lru_cache(maxsize=32)
def squarefree_split(n: int, bound: int = 10**6) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; trial division up to ``bound``.

    Errors when the square part cannot be certified (a prime factor above
    the bound could still appear squared).  ``QuadNum`` validates its d
    here on every construction, so the cache keeps that O(1).
    """
    if n <= 0:
        raise ValueError("only positive integers are split")
    s, d = 1, 1
    rest = n
    p = 2
    while p <= bound and p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if rest > 1:
        r = math.isqrt(rest)
        if r * r == rest:
            s *= r
        elif rest <= bound * bound:
            d *= rest  # no factor <= bound, so rest is squarefree
        else:
            raise UnsupportedHeckeFieldError(
                f"cannot certify squarefree part of {n} with trial division to {bound}"
            )
    return s, d


class QuadNum:
    """Element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    d must be a squarefree positive integer (d = 1 encodes a rational value).
    Arithmetic requires matching d, except that purely rational operands
    (b = 0) adapt to the other side's field.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction | int, b: Fraction | int = 0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if b == 0:
            d = 1
        if d <= 0 or squarefree_split(d)[0] != 1:
            raise ValueError(f"d = {d} is not a squarefree positive integer")
        self.a = a
        self.b = b
        self.d = d

    @staticmethod
    def _coerce(value) -> "QuadNum":
        if isinstance(value, QuadNum):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadNum(value, 0, 1)
        raise TypeError(f"cannot interpret {value!r} as QuadNum")

    def _join(self, other) -> tuple["QuadNum", "QuadNum", int]:
        other = self._coerce(other)
        if self.d == other.d:
            return self, other, self.d
        if self.b == 0:
            return self, other, other.d
        if other.b == 0:
            return self, other, self.d
        raise ValueError(f"incompatible quadratic fields d={self.d} and d={other.d}")

    def __add__(self, other):
        try:
            x, y, d = self._join(other)
        except TypeError:
            return NotImplemented
        return QuadNum(x.a + y.a, x.b + y.b, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadNum(-self.a, -self.b, self.d)

    def __mul__(self, other):
        try:
            x, y, d = self._join(other)
        except TypeError:
            return NotImplemented
        return QuadNum(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero QuadNum")
        num = self * other.conjugate()
        return QuadNum(num.a / n, num.b / n, num.d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def conjugate(self) -> "QuadNum":
        return QuadNum(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 (rational)."""
        return self.a * self.a - self.b * self.b * self.d

    def embed(self) -> float:
        """Real embedding with sqrt(d) > 0."""
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadNum(other)
        if not isinstance(other, QuadNum):
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return self.d == other.d and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return f"QuadNum({self.a})"
        return f"QuadNum({self.a} + {self.b}*sqrt({self.d}))"


def gamma_exact(x: Fraction | int) -> PiScalar:
    """Exact Gamma at integers and half-integers.

    Gamma(n) = (n-1)! for n >= 1; Gamma(n + 1/2) = (2n)!/(4^n n!) * sqrt(pi);
    negative half-odd-integers are reached through Gamma(x) = Gamma(x+1)/x.
    Nonpositive integers raise GammaPoleError.
    """
    x = Fraction(x)
    if x.denominator == 1:
        n = x.numerator
        if n <= 0:
            raise GammaPoleError(f"Gamma pole at {n}")
        return PiScalar(math.factorial(n - 1), 0)
    if x.denominator != 2:
        raise ValueError("gamma_exact is defined for half-integers only")
    k = int(x - Fraction(1, 2))
    if x > 0:
        # x = k + 1/2 with k >= 0
        coeff = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
        return PiScalar(coeff, 1)
    # negative half-odd-integer: climb to 1/2
    steps = -k
    denom = rising_factorial(x, steps)
    return PiScalar(Fraction(1) / denom, 1)


def rref(rows: list[list]) -> list[list]:
    """Reduced row echelon form over an exact field, zero rows dropped.

    Entries must be field elements (``Fraction`` or ``QuadNum``): int / int
    would divide to float.  Each pivot is the first nonzero entry of its
    column and is scaled to 1.
    """
    rows = [row[:] for row in rows]
    n_cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row == len(rows):
            break
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        rows[pivot_row] = [v / lead for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return [row for row in rows if any(row)]


def solve(matrix: list[list], rhs: list) -> list:
    """The x with matrix x = rhs for a square system over an exact field,
    read from the reduced form of [matrix | rhs].

    Every caller solves a system the mathematics makes nonsingular, so a
    singular one raises InternalCancellationError.
    """
    n = len(matrix)
    reduced = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    # full rank puts row i's leading 1 in column i
    if len(reduced) != n or any(reduced[i][i] != 1 for i in range(n)):
        raise InternalCancellationError(f"singular {n}x{n} linear system")
    return [row[n] for row in reduced]
