"""Truncated formal q-series over exact rationals, stored as integers.

A series stores Python ints ``coeffs`` over one positive denominator
``den``: the coefficient at grid point ``start + i`` is ``coeffs[i] / den``,
kept in lowest terms (gcd(den, *coeffs) = 1), so equal series store equal
data.  Products, inversion and derivatives run as integer kernels; the one
denominator is multiplied and reduced once per operation, never per
coefficient.  The accessors ``coeff``/``coeff24`` return ``Fraction``s.

``_convolve`` is the package's one integer product.  If the sparser operand
is at most a quarter nonzero (pentagonal series, Jacobi's cube, series on
the 1/24 grid) it multiplies only the nonzero pairs.  Otherwise it packs
each operand into one integer, k bytes per coefficient, and multiplies the
two (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009), with k
sized from the operands so that the packed product is exact for any data.

Two grids share this storage and one precision discipline:

* ``IntQSeries`` on integer exponents: ``coeffs[i]`` multiplies
  q^(offset + i).
* ``QSeries24`` on the 1/24 grid: ``coeffs[i]`` multiplies
  q^((offset24 + i)/24).

A series is known exactly for every exponent below its precision
(exponents below the offset are exactly zero).  Arithmetic never fabricates
coefficients: a product is truncated to min(a.prec + b.offset,
b.prec + a.offset), a sum to min(a.prec, b.prec).  Everything is immutable,
so results are freely shared and cached.

Eta never needs the 1/24 grid: eta = q^(1/24) E(q) with E the pentagonal
series ``euler_expansion``, and 1/eta = q^(-1/24) E(q)^-1, so code that
tracks the q^(+-1/24) shifts itself (``rankincohen.eta_bracket``) works on
integer exponents.  ``QSeries24`` remains for the general Rankin-Cohen
bracket and the checks that cross-validate it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InternalCancellationError, PrecisionError


def _bias_run(k: int, length: int) -> int:
    """The packed list holding the bias 2^(8k-1) in each of ``length`` slots."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * length, "little")


def _pack(coeffs: Sequence[int], k: int) -> int:
    """sum coeffs[i] 2^(8k i); each |coeffs[i]| must be below 2^(8k-1)."""
    bias = 1 << (8 * k - 1)
    raw = b"".join((c + bias).to_bytes(k, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _bias_run(k, len(coeffs))


def _unpack(x: int, k: int, length: int) -> list[int]:
    """The first ``length`` slots of x as a list of signed ints."""
    raw = ((x + _bias_run(k, length)) & ((1 << (8 * k * length)) - 1)).to_bytes(k * length, "little")
    bias = 1 << (8 * k - 1)
    return [int.from_bytes(raw[i : i + k], "little") - bias for i in range(0, k * length, k)]


def _convolve(a: Sequence[int], b: Sequence[int], out_len: int) -> list[int]:
    """Truncated Cauchy product of integer lists (see the module docstring).

    Every product coefficient is a sum of at most out_len terms, each below
    2^(bits max|a| + bits max|b|), so it fits a slot of that many bits plus
    bits(out_len) and a sign bit.
    """
    square = a is b
    a, b = a[:out_len], b[:out_len]
    na, nb = sum(map(bool, a)), sum(map(bool, b))
    if 4 * min(na, nb) > out_len:
        bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + out_len.bit_length()
        k = (bits + 8) // 8
        pa = _pack(a, k)
        return _unpack(pa * (pa if square else _pack(b, k)), k, out_len)
    if na > nb:
        a, b = b, a
    idx = [j for j, bj in enumerate(b) if bj]
    terms = [(j, b[j]) for j in idx]
    out = [0] * out_len
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms[: bisect_left(idx, out_len - i)]:
                out[i + j] += ai * bj
    return out


def _invert_coeffs(a: Sequence[int], out_len: int) -> tuple[list[int], int]:
    """Numerators and denominator of 1/a for an integer list with a[0] != 0.

    b_n = a0^(n+1) [q^n](1/a) is an integer: b_0 = 1 and
    b_n = -sum_{k>=1} a_k a0^(k-1) b_(n-k).  The result is b_n a0^(out_len-1-n)
    over a0^out_len (sign moved to the numerators), not yet in lowest terms.
    """
    a0 = a[0]
    terms = [(k, ak * a0 ** (k - 1)) for k, ak in enumerate(a[:out_len]) if k and ak]
    b = [0] * out_len
    b[0] = 1
    for n in range(1, out_len):
        acc = 0
        for k, w in terms:
            if k > n:
                break
            acc += w * b[n - k]
        b[n] = -acc
    if a0 == 1:
        return b, 1
    power = 1
    for n in range(out_len - 1, -1, -1):
        b[n] *= power
        power *= a0
    if power < 0:
        return [-c for c in b], -power
    return b, power


class _Series:
    """Integer numerators over one denominator on a grid of exponents.

    Subclasses fix the grid (``_step`` points per unit exponent) and name
    the accessors; the ring operations are shared.
    """

    __slots__ = ("start", "coeffs", "den")
    _step = 1

    def __init__(self, start: int, coeffs: Iterable, prec: int | None = None, den: int = 1):
        """Coefficients ``coeffs[i] / den``; each ``coeffs[i]`` an int or a Fraction."""
        values = tuple(coeffs)
        if not values:
            raise ValueError("series must store at least one coefficient")
        if den < 1:
            raise ValueError("den must be a positive integer")
        common = lcm(*(v.denominator for v in values))
        nums = [v.numerator * (common // v.denominator) for v in values]
        self._set(int(start), nums, common * den)
        if prec is not None and int(prec) != self.start + len(self.coeffs):
            raise ValueError("prec must equal offset + len(coeffs)")

    def _set(self, start: int, nums: Sequence[int], den: int) -> None:
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [c // g for c in nums]
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "coeffs", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name}")

    @classmethod
    def _make(cls, start: int, nums: Sequence[int], den: int = 1):
        """Build from integer numerators and a positive denominator."""
        out = object.__new__(cls)
        out._set(start, nums, den)
        return out

    @property
    def _end(self) -> int:
        return self.start + len(self.coeffs)

    def _at(self, e: int) -> Fraction:
        """Coefficient at grid point e; exact zero below the offset."""
        if e >= self._end:
            unit = "" if self._step == 1 else f"/{self._step}"
            raise PrecisionError(f"exponent {e}{unit} beyond precision {self._end}{unit}")
        if e < self.start:
            return Fraction(0)
        return Fraction(self.coeffs[e - self.start], self.den)

    def _window(self, lo: int, hi: int) -> tuple[int, ...]:
        """Numerators at grid points lo..hi-1, zero below the offset (hi within precision)."""
        s = self.start
        return (0,) * max(min(s, hi) - lo, 0) + self.coeffs[max(lo - s, 0) : max(hi - s, 0)]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def agrees_with(self, other) -> bool:
        """Termwise equality through the smaller guaranteed precision."""
        if type(other) is not type(self):
            raise TypeError("cannot compare series on different exponent grids")
        lo = min(self.start, other.start)
        hi = min(self._end, other._end)
        return all(
            x * other.den == y * self.den
            for x, y in zip(self._window(lo, hi), other._window(lo, hi))
        )

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        lo = min(self.start, other.start)
        hi = min(self._end, other._end)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        nums = [x * fa + y * fb for x, y in zip(self._window(lo, hi), other._window(lo, hi))]
        return self._make(lo, nums, den)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._make(self.start, [-c for c in self.coeffs], self.den)

    def scale(self, r):
        r = Fraction(r)
        return self._make(self.start, [c * r.numerator for c in self.coeffs], self.den * r.denominator)

    def _mul(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        out_len = min(len(self.coeffs), len(other.coeffs))
        nums = _convolve(self.coeffs, other.coeffs, out_len)
        return self._make(self.start + other.start, nums, self.den * other.den)

    def _invert(self):
        """Multiplicative inverse up to precision; the offset negates."""
        if not self.coeffs[0]:
            raise ZeroDivisionError("leading coefficient is zero")
        nums, den = _invert_coeffs(self.coeffs, len(self.coeffs))
        if self.den != 1:
            nums = [self.den * c for c in nums]
        return self._make(-self.start, nums, den)

    def _pow(self, n: int):
        if n < 1:
            raise ValueError("pow expects n >= 1")
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def deriv(self):
        """The operator D = q d/dq: multiply the coefficient at exponent x by x."""
        nums = [c * (self.start + i) for i, c in enumerate(self.coeffs)]
        return self._make(self.start, nums, self.den * self._step)

    def __repr__(self):
        head = ", ".join(str(Fraction(c, self.den)) for c in self.coeffs[:6])
        return f"{type(self).__name__}(start={self.start}, end={self._end}, [{head}, ...])"


class QSeries24(_Series):
    """Truncated series on the q^(1/24) lattice: coeffs[i]/den multiplies q^((offset24 + i)/24)."""

    __slots__ = ()
    _step = 24

    offset24 = property(lambda self: self.start, doc="first stored exponent, in 1/24 units")
    prec24 = property(lambda self: self._end, doc="known below this exponent, in 1/24 units")
    coeff24 = _Series._at

    # defined on each class, not inherited: perfbench/layers.py wraps them per class
    __mul__ = __rmul__ = _Series._mul
    invert = _Series._invert
    pow = _Series._pow


class IntQSeries(_Series):
    """Truncated series over integer exponents: coeffs[i]/den multiplies q^(offset + i)."""

    __slots__ = ()

    offset = property(lambda self: self.start, doc="first stored exponent")
    prec = property(lambda self: self._end, doc="known below this exponent")
    coeff = _Series._at

    # defined on each class, not inherited: perfbench/layers.py wraps them per class
    __mul__ = __rmul__ = _Series._mul
    invert = _Series._invert
    pow = _Series._pow

    def to_qseries24(self) -> QSeries24:
        """Embed on the 1/24 grid (exponents multiplied by 24).

        Exponents strictly between integer points are exact zeros, and the
        series is known through 24*(prec-1) + 23.
        """
        nums = [0] * (24 * len(self.coeffs))
        nums[::24] = self.coeffs
        return QSeries24._make(24 * self.offset, nums, self.den)


def to_int_series(s: QSeries24) -> IntQSeries:
    """Down-convert a 1/24-grid series whose support is on integer exponents.

    Every stored coefficient at an exponent not divisible by 24 must vanish;
    a nonzero one raises InternalCancellationError.
    """
    for i, c in enumerate(s.coeffs):
        if c and (s.offset24 + i) % 24 != 0:
            raise InternalCancellationError(
                f"nonzero coefficient at fractional exponent {(s.offset24 + i)}/24"
            )
    off = -((-s.offset24) // 24)  # ceil division
    prec = -((-s.prec24) // 24)
    if prec <= off:
        raise PrecisionError("no integer exponents inside known range")
    return IntQSeries._make(off, s.coeffs[24 * off - s.offset24 :: 24], s.den)


def euler_expansion(prec: int) -> IntQSeries:
    """Euler's function prod_{n>=1} (1 - q^n) = sum over k in Z of (-1)^k q^omega(k).

    omega(k) = (3k^2 + k)/2 are the generalized pentagonal numbers; exact
    through q^(prec-1).  eta = q^(1/24) times this series.
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    nums = [0] * prec
    k = 0
    while (3 * k * k - k) // 2 < prec:  # omega(-k), the smaller of the pair
        for j in (k, -k) if k else (0,):
            e = (3 * j * j + j) // 2
            if e < prec:
                nums[e] = -1 if j % 2 else 1
        k += 1
    return IntQSeries._make(0, nums)


@lru_cache(maxsize=8)  # a ``verify all`` pass, the busiest workload, reads 3 prec24
def eta_expansion(prec24: int) -> QSeries24:
    """Dedekind eta: sum over k in Z of (-1)^k q^((6k+1)^2 / 24).

    Stored from its leading exponent 1/24; (6k+1)^2 = 24 omega(k) + 1 puts
    the pentagonal series on the 1/24 grid.
    """
    if prec24 <= 1:
        raise ValueError("prec24 must exceed the leading exponent 1")
    euler = euler_expansion(-(-(prec24 - 1) // 24))  # every n with 24n + 1 < prec24
    nums = [0] * (prec24 - 1)
    nums[::24] = euler.coeffs
    return QSeries24._make(1, nums)


@lru_cache(maxsize=4)  # a ``verify all`` pass, the busiest workload, reads 1 prec24
def eta_product_expansion(prec24: int) -> QSeries24:
    """Dedekind eta as the finite product q^(1/24) prod_{n<L} (1 - q^n).

    The product is built on integer exponents, L = ceil((prec24 - 1)/24)
    coefficients (every n with 24n + 1 < prec24), and placed on the 1/24
    grid as eta_expansion places the pentagonal series.  Independent of
    eta_expansion; the two must agree up to precision (Euler's Pentagonal
    Number Theorem).
    """
    if prec24 <= 1:
        raise ValueError("prec24 must exceed the leading exponent 1")
    length = -(-(prec24 - 1) // 24)
    acc = IntQSeries._make(0, [1] + [0] * (length - 1))
    for n in range(1, length):
        factor = [0] * length
        factor[0], factor[n] = 1, -1
        acc = acc * IntQSeries._make(0, factor)
    nums = [0] * (prec24 - 1)
    nums[::24] = acc.coeffs
    return QSeries24._make(1, nums)


@lru_cache(maxsize=4)  # a ``verify all`` pass, the busiest workload, reads 1 prec24
def eta_inverse_expansion(prec24: int) -> QSeries24:
    """1/eta = q^(-1/24) * sum p(n) q^n, computed by inverting eta."""
    if prec24 <= -1:
        raise ValueError("prec24 must exceed the leading exponent -1")
    return eta_expansion(prec24 + 2).invert()
