"""Exact coefficients of Delta^j E4^a E6^b by Kronecker substitution.

The Dirichlet sums read these tables only up to index N + 1 (2001 at the
largest default truncation) and reach larger indices through Hecke
multiplicativity.  Each table is built exactly in Python ints, with no
modular reduction: a coefficient list c_0, c_1, ... is packed into the one
integer sum c_i 2^(8k i) (k bytes per slot), so a truncated series product
is one big-integer product and a mask (Kronecker substitution; Harvey,
J. Symbolic Comput. 44, 2009).  Packing and unpacking go through
``int.to_bytes``/``int.from_bytes`` in linear time; adding a bias of
2^(8k-1) to every slot makes each slot of a signed list a nonnegative
k-byte field without carries between slots.

This is exact while every coefficient of every product stays inside
(-2^(8k-1), 2^(8k-1)).  Every product formed is, up to a power of q, a
form of some weight w at most the target weight, and its slots are sized
from the coefficient bound m^(w/2 + 2) at the largest index m, with 16
bits of slack and a sign bit.  eta^24 comes from Jacobi's cube identity
prod(1-q^n)^3 = sum (-1)^j (2j+1) q^(j(j+1)/2), squared three times: to
eta^6, eta^12 and eta^24, of weights 3, 6 and 12, each at its own width.
"""

from __future__ import annotations

import math
from functools import lru_cache


def _bias_run(k: int, length: int) -> int:
    """The packed list holding the bias 2^(8k-1) in each of ``length`` slots."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * length, "little")


def _pack(coeffs: list[int], k: int) -> int:
    """sum coeffs[i] 2^(8k i); each |coeffs[i]| must be below 2^(8k-1)."""
    bias = 1 << (8 * k - 1)
    raw = b"".join((c + bias).to_bytes(k, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _bias_run(k, len(coeffs))


def _biased_slots(x: int, k: int, length: int) -> int:
    """The first ``length`` slots of x, each plus the bias: a nonnegative int."""
    return (x + _bias_run(k, length)) & ((1 << (8 * k * length)) - 1)


def _truncate(x: int, k: int, length: int) -> int:
    """The packed list of the first ``length`` slots of x."""
    return _biased_slots(x, k, length) - _bias_run(k, length)


def _unpack(x: int, k: int, length: int) -> list[int]:
    """The first ``length`` slots of x as a list of signed ints."""
    raw = _biased_slots(x, k, length).to_bytes(k * length, "little")
    bias = 1 << (8 * k - 1)
    return [int.from_bytes(raw[i : i + k], "little") - bias for i in range(0, k * length, k)]


def _cube_coeffs(length: int) -> list[int]:
    """prod(1-q^n)^3 through q^(length-1): (-1)^j (2j+1) at j(j+1)/2."""
    out = [0] * length
    j = 0
    while j * (j + 1) // 2 < length:
        out[j * (j + 1) // 2] = (2 * j + 1) * (-1 if j % 2 else 1)
        j += 1
    return out


def _eisenstein_coeffs(w: int, length: int) -> list[int]:
    """E4 or E6 through q^(length-1): 1, then 240 or -504 times sigma_(w-1)."""
    sigma = [0] * length
    for d in range(1, length):
        power = d ** (w - 1)
        for m in range(d, length, d):
            sigma[m] += power
    factor = {4: 240, 6: -504}[w]
    return [1] + [factor * s for s in sigma[1:]]


def _slot_bytes(weight: int, mmax: int) -> int:
    """Slot width for a weight-``weight`` form through q^mmax: the bound
    m^(w/2 + 2) with 16 bits of slack, plus a sign bit, in whole bytes."""
    bits = math.ceil((weight / 2 + 2) * math.log2(mmax + 2)) + 16
    return (bits + 8) // 8


@lru_cache(maxsize=32)
def _monomial_table(dp: int, a4: int, b6: int, mmax: int) -> tuple[int, ...]:
    """Coefficients 0..mmax of Delta^dp E4^a4 E6^b6."""
    length = max(mmax + 1 - dp, 0)  # Delta^dp = q^dp prod(1-q^n)^(24 dp)
    coeffs = _cube_coeffs(length)
    for weight in (3, 6, 12):  # squares to eta^6, eta^12, eta^24 (up to q-shifts)
        k = _slot_bytes(weight, mmax)
        coeffs = _unpack(_pack(coeffs, k) ** 2, k, length)
    k = _slot_bytes(12 * dp + 4 * a4 + 6 * b6, mmax)
    euler24 = _pack(coeffs, k)
    acc = euler24
    for _ in range(dp - 1):
        acc = _truncate(acc * euler24, k, length)
    for w, reps in ((4, a4), (6, b6)):
        if reps:
            eis = _pack(_eisenstein_coeffs(w, length), k)
            for _ in range(reps):
                acc = _truncate(acc * eis, k, length)
    return (0,) * min(dp, mmax + 1) + tuple(_unpack(acc, k, length))


def cusp_monomial_coeffs(
    dp: int, a4: int, b6: int, indices: tuple[int, ...], mmax: int
) -> list[int]:
    """Exact integer coefficients of Delta^dp E4^a4 E6^b6 at the given indices.

    One table through q^mmax is built per (dp, a4, b6, mmax) and cached.
    """
    if dp < 1:
        raise ValueError("need at least one Delta factor (cusp forms only)")
    table = _monomial_table(dp, a4, b6, mmax)
    out = []
    for m in indices:
        if m > mmax:
            raise ValueError(f"index {m} beyond table size {mmax}")
        out.append(table[m])
    return out
