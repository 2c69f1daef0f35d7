import random
from fractions import Fraction as F
from itertools import permutations
from math import comb, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentarc import exactnum
from pentarc.errors import InternalCancellationError, UnsupportedHeckeFieldError
from pentarc.exactnum import (
    QuadNum,
    bernoulli,
    falling_factorial,
    solve,
    squarefree_split,
)

# fixed examples keep the test run reproducible; no example database is written
SOLVER = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def bernoulli_oracle(n_max):
    """Independent route: sum_{k<=m} C(m+1, k) B_k = 0 for m >= 1."""
    values = [F(1)]
    for m in range(1, n_max + 1):
        acc = sum(comb(m + 1, k) * values[k] for k in range(m))
        values.append(-acc / (m + 1))
    return values


def akiyama_tanigawa(n_max):
    """Second independent route: the Akiyama-Tanigawa triangle of Fractions,
    whose row m ends with B_m at its head.  It gives B_1 = +1/2; only the
    n = 1 value differs from B_1 = -1/2."""
    row, values = [F(0)] * (n_max + 1), []
    for m in range(n_max + 1):
        row[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        values.append(row[0])
    return values


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)
    assert bernoulli(12).denominator == 2730 and 691 == -bernoulli(12).numerator


def test_bernoulli_against_recurrence_oracle():
    oracle = bernoulli_oracle(40)
    for n in range(41):
        assert bernoulli(n) == oracle[n], n


def test_bernoulli_against_akiyama_tanigawa():
    oracle = akiyama_tanigawa(100)
    for n in range(101):
        assert bernoulli(n) == (F(-1, 2) if n == 1 else oracle[n]), n


def test_bernoulli_von_staudt_clausen():
    """B_2k + sum of 1/p over the primes p with p - 1 | 2k is an integer, so
    the denominator of B_2k is the product of those primes."""
    primes = [p for p in range(2, 402) if all(p % q for q in range(2, isqrt(p) + 1))]
    for n in range(2, 401, 2):
        staudt = [p for p in primes if n % (p - 1) == 0]
        assert (bernoulli(n) + sum(F(1, p) for p in staudt)).denominator == 1, n
        assert bernoulli(n).denominator == prod(staudt), n


def test_bernoulli_tables_grow_by_doubling():
    exactnum._tangent_numbers.cache_clear()
    for n in range(2, 401, 2):
        bernoulli(n)
    assert exactnum._tangent_numbers.cache_info().misses == 9  # kmax = 1, 2, 4, ..., 256


def test_bernoulli_odd_vanish():
    for n in range(1, 61):
        assert bernoulli(2 * n + 1) == 0


def test_falling_factorial_examples():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(-2, -1) == F(-1, 2)
    assert falling_factorial(6, 3) == 120


def test_falling_factorial_zero_division():
    with pytest.raises(ZeroDivisionError):
        falling_factorial(2, -4)  # (2)_4 = 2*1*0*(-1) = 0


def test_falling_factorial_inverse_property():
    rng = random.Random(11)
    for _ in range(60):
        x = F(rng.randrange(-40, 40), rng.randrange(1, 9))
        m = rng.randrange(-8, 9)
        try:
            prod = falling_factorial(x, m) * falling_factorial(x, -m)
        except ZeroDivisionError:
            continue
        assert prod == 1


def test_quadnum_norm_is_rational():
    rng = random.Random(13)
    for _ in range(100):
        z = QuadNum(F(rng.randrange(-50, 50), rng.randrange(1, 9)),
                    F(rng.randrange(-50, 50), rng.randrange(1, 9)), 5)
        w = z * z.conjugate()
        assert w.b == 0
        assert w.a == z.norm()


def test_quadnum_division_and_fields():
    z = QuadNum(F(1, 2), F(3), 13)
    w = QuadNum(2, -1, 13)
    assert (z / w) * w == z
    assert QuadNum(3) + QuadNum(F(1, 2), 0, 13) == QuadNum(F(7, 2))
    with pytest.raises(ValueError):
        QuadNum(1, 1, 5) + QuadNum(1, 1, 13)
    with pytest.raises(ValueError):
        QuadNum(1, 1, 12)  # 4 | 12
    assert QuadNum(1, 0, 5).d == 1  # rational values collapse to d = 1
    for d in (0, -5):
        with pytest.raises(ValueError, match="not a squarefree positive integer"):
            QuadNum(1, 1, d)


def test_squarefree_split():
    for n in range(1, 3000):
        s, d = squarefree_split(n)
        assert s * s * d == n, n
        assert all(d % (p * p) for p in range(2, isqrt(d) + 1)), n
    big, bigger = 10**6 + 3, 10**6 + 33  # primes past the trial-division bound
    assert squarefree_split(big * big) == (big, 1)  # a square left over past the bound
    with pytest.raises(UnsupportedHeckeFieldError, match="trial division to 1000000"):
        squarefree_split(big * bigger)  # > (10^6)^2: a square factor cannot be ruled out
    with pytest.raises(ValueError):
        squarefree_split(0)
    # QuadNum validates d through it on every construction
    assert isinstance(squarefree_split.cache_info().maxsize, int)


def test_quadnum_embedding_order():
    lo = QuadNum(540, -12, 144169)
    hi = QuadNum(540, 12, 144169)
    assert lo.embed() < hi.embed()


# small entries make singular matrices common, so both solver outcomes occur
rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
# Q(sqrt(5)): rational entries mixed with irrational ones
quadratics = st.builds(QuadNum, rationals, rationals, st.just(5))


def matrices(entries, rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def square_systems(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(matrices(entries, n, n), st.lists(entries, min_size=n, max_size=n))
    )


def leibniz_det(matrix):
    """Determinant by the permutation expansion, independent of elimination."""
    n = len(matrix)
    total = 0 * matrix[0][0]
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term
    return total


def times(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), 0 * x[0]) for row in matrix]


@SOLVER
@given(st.one_of(square_systems(rationals), square_systems(quadratics)))
def test_solve_is_exact_or_rejects_a_singular_system(system):
    matrix, x = system
    b = times(matrix, x)
    if leibniz_det(matrix):
        got = solve(matrix, b)
        assert times(matrix, got) == b
        assert got == x  # a nonsingular system has one solution
    else:
        with pytest.raises(InternalCancellationError):
            solve(matrix, b)


def test_solve_rejects_singular_systems():
    half = F(1, 2)
    root5 = QuadNum(0, 1, 5)
    for matrix, b in (
        ([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]),  # dependent, consistent
        ([[F(1), F(2)], [F(2), F(4)]], [F(1), F(3)]),  # dependent, inconsistent
        ([[F(0)]], [F(0)]),
        ([[root5, half * root5], [QuadNum(2), QuadNum(1)]], [QuadNum(0), QuadNum(1)]),
    ):
        with pytest.raises(InternalCancellationError):
            solve(matrix, b)


def test_solve_quadratic_field_example():
    root5 = QuadNum(0, 1, 5)
    phi = (1 + root5) / 2
    # x + y = 1, phi x + (1 - phi) y = 0
    x, y = solve([[QuadNum(1), QuadNum(1)], [phi, 1 - phi]], [QuadNum(1), QuadNum(0)])
    assert x + y == 1 and phi * x + (1 - phi) * y == 0
    assert x == (5 - root5) / 10
