"""Exact scalar arithmetic.

Rationals are plain ``fractions.Fraction``; on top of that this module
provides Bernoulli numbers under the B_1 = -1/2 convention (from one
integer table of tangent numbers), the falling factorial including the
negative-index case (x)_m := 1/(x)_{-m} for m <= -1, the Kronecker symbol
(a|n), arithmetic in a real quadratic field Q(sqrt(d)), and the one exact
linear solver ``solve``, generic over those fields.  It imports only
``errors``, so the eta multiplier can use the Kronecker symbol without
loading the Hecke stack.  Values are immutable; operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InternalCancellationError, UnsupportedHeckeFieldError

__all__ = [
    "QuadNum",
    "bernoulli",
    "falling_factorial",
    "kronecker_symbol",
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


def kronecker_symbol(a: int, n: int) -> int:
    """General Kronecker symbol (a|n) for any integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out 2s from n
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a|n) for odd n > 0 by quadratic reciprocity
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


#: the largest trial divisor of ``squarefree_split``
_SQUAREFREE_BOUND = 10**6


@lru_cache(maxsize=32)
def squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; trial division to ``_SQUAREFREE_BOUND``.

    Errors when the square part cannot be certified (a prime factor above
    the bound could still appear squared).  ``QuadNum`` validates its d
    here on every construction, so the cache keeps that O(1).
    """
    if n <= 0:
        raise ValueError("only positive integers are split")
    s, d = 1, 1
    rest = n
    p = 2
    while p <= _SQUAREFREE_BOUND and p * p <= rest:
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
        elif rest <= _SQUAREFREE_BOUND**2:
            d *= rest  # no factor <= bound, so rest is squarefree
        else:
            raise UnsupportedHeckeFieldError(
                f"cannot certify squarefree part of {n} with trial division to {_SQUAREFREE_BOUND}"
            )
    return s, d


class QuadNum:
    """Element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    d must be a squarefree positive integer (d = 1 encodes a rational value).
    Arithmetic requires matching d, except that purely rational operands
    (b = 0) adapt to the other side's field.  Values are immutable, since
    cached results hold them.
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
        init = object.__setattr__
        init(self, "a", a)
        init(self, "b", b)
        init(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadNum is immutable: cannot set {name}")

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


def solve(matrix: list[list], rhs: list) -> list:
    """The x with matrix x = rhs for a square system over an exact field,
    by one Gauss-Jordan pass on [matrix | rhs].

    Entries must be field elements (``Fraction`` or ``QuadNum``): int / int
    would divide to float.  Each pivot is the first nonzero entry of its
    column at or below the diagonal, scaled to 1.  Every caller solves a
    system the mathematics makes nonsingular, so a column without a pivot
    raises InternalCancellationError.
    """
    n = len(matrix)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise InternalCancellationError(f"singular {n}x{n} linear system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[n] for row in rows]
