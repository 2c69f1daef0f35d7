"""Elementary number theory shared by the Dirichlet and Rademacher layers.

It imports nothing from the package, so the eta multiplier system can use
the Kronecker symbol without loading the eigenform and Hecke stack.
"""

from __future__ import annotations

__all__ = ["kronecker_symbol"]


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
