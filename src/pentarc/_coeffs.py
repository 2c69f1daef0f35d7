"""Exact coefficients of Delta^j E4^a E6^b by multi-prime modular
convolution.

The Dirichlet sums read these tables only up to index N + 1 (2001 at the
largest default truncation) and reach larger indices through Hecke
multiplicativity, but exact Fraction convolution is still quadratic in big
integers.  So the tables are built modulo several 21-bit primes with numpy
(int64 convolutions stay exact: products < 2^42 accumulated over < 2^20
terms) and reconstructed by CRT at the requested indices.  eta^24 powers
come from the octic power of Jacobi's cube identity
prod(1-q^n)^3 = sum (-1)^j (2j+1) q^(j(j+1)/2), applied as sparse shifted
adds.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_PRIME_BITS = 21
_MAX_LEN = 1 << 20  # overflow guard for the int64 convolutions


@lru_cache(maxsize=None)
def _primes(count: int) -> tuple[int, ...]:
    out = []
    n = (1 << _PRIME_BITS) - 1
    while len(out) < count:
        for p in (2, 3, 5, 7, 11, 13):
            if n % p == 0 and n != p:
                break
        else:
            if all(n % f for f in range(17, math.isqrt(n) + 1, 2)):
                out.append(n)
        n -= 2
    return tuple(out)


def _cube_support(mmax: int) -> list[tuple[int, int]]:
    # prod (1-q^n)^3 support: exponent j(j+1)/2, coefficient (-1)^j (2j+1)
    out = []
    j = 0
    while j * (j + 1) // 2 <= mmax:
        out.append((j * (j + 1) // 2, (2 * j + 1) * (-1 if j % 2 else 1)))
        j += 1
    return out


@lru_cache(maxsize=32)
def _euler24_pow_mod(k: int, mmax: int, p: int) -> np.ndarray:
    """Coefficients 0..mmax of prod(1-q^n)^(24k) modulo p."""
    support = _cube_support(mmax)
    acc = np.zeros(mmax + 1, dtype=np.int64)
    acc[0] = 1
    for _ in range(8 * k):
        nxt = np.zeros(mmax + 1, dtype=np.int64)
        for off, coeff in support:
            if off == 0:
                nxt += acc
            else:
                nxt[off:] += coeff * acc[: mmax + 1 - off]
        acc = nxt % p
    return acc


@lru_cache(maxsize=32)
def _sigma_mod(power: int, mmax: int, p: int) -> np.ndarray:
    out = np.zeros(mmax + 1, dtype=np.int64)
    for d in range(1, mmax + 1):
        out[d::d] += pow(d, power, p)
    return out % p


def _eis_mod(w: int, mmax: int, p: int) -> np.ndarray:
    factor = {4: 240, 6: -504}[w]
    out = (factor * _sigma_mod(w - 1, mmax, p)) % p
    out[0] = 1
    return out


@lru_cache(maxsize=32)
def _monomial_residues(dp: int, a4: int, b6: int, mmax: int, p: int) -> np.ndarray:
    """Coefficients 0..mmax of Delta^dp E4^a4 E6^b6 modulo p."""
    if mmax + 1 > _MAX_LEN:
        raise ValueError("table too long for exact int64 convolution")
    euler = _euler24_pow_mod(dp, mmax, p)
    acc = np.zeros(mmax + 1, dtype=np.int64)
    acc[dp:] = euler[: mmax + 1 - dp]  # Delta^dp = q^dp * prod(1-q^n)^(24 dp)
    for w, reps in ((4, a4), (6, b6)):
        for _ in range(reps):
            acc = np.convolve(acc, _eis_mod(w, mmax, p))[: mmax + 1] % p
    return acc


def _crt(residues: list[int], primes: tuple[int, ...]) -> int:
    x, mod = 0, 1
    for r, p in zip(residues, primes):
        t = ((r - x) * pow(mod, -1, p)) % p
        x += mod * t
        mod *= p
    if 2 * x > mod:
        x -= mod
    return x


def cusp_monomial_coeffs(
    dp: int, a4: int, b6: int, indices: tuple[int, ...], mmax: int
) -> list[int]:
    """Exact integer coefficients of Delta^dp E4^a4 E6^b6 at the given indices.

    The prime count is sized from the coefficient bound m^(w/2 + 2) with
    generous slack (w the weight of the form).
    """
    if dp < 1:
        raise ValueError("need at least one Delta factor (cusp forms only)")
    weight = 12 * dp + 4 * a4 + 6 * b6
    bits = math.ceil((weight / 2 + 2) * math.log2(mmax + 2)) + 16
    primes = _primes(bits // _PRIME_BITS + 2)
    tables = [_monomial_residues(dp, a4, b6, mmax, p) for p in primes]
    out = []
    for m in indices:
        if m > mmax:
            raise ValueError(f"index {m} beyond table size {mmax}")
        out.append(_crt([int(t[m]) for t in tables], primes))
    return out
