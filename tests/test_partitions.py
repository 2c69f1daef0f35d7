from fractions import Fraction as F
from math import comb, factorial

import pytest

from pentarc.cli import MAX_NU
from pentarc.forms import dim_cusp
from pentarc.hecke import trace_series
from pentarc.exactnum import bernoulli, falling_factorial
from pentarc.partitions import (
    PartitionTable,
    _weight_columns,
    _weight_numerator,
    bracket_weights,
    partition_table,
    pentagonal,
    pentagonal_numerator_sum,
    pentagonal_terms,
    recurrence_rhs,
    recurrence_weight,
    sigma,
)
from pentarc.qseries import IntQSeries


def test_pentagonal_values():
    assert pentagonal(1) == 2 and pentagonal(-1) == 1
    assert pentagonal(2) == 7 and pentagonal(-2) == 5
    assert pentagonal(0) == 0


def test_pentagonal_terms_against_brute_force():
    for n in range(401):
        # |k| <= n + 1 covers every omega(k) <= n, since omega(k) >= |k|
        want = sorted((pentagonal(k), k) for k in range(-n - 1, n + 2) if k and pentagonal(k) <= n)
        terms = pentagonal_terms(n)
        assert [(w, k) for k, w in terms] == want, n
        assert all(a[1] < b[1] for a, b in zip(terms, terms[1:])), n
    assert pentagonal_terms(0) == ()
    assert pentagonal_terms(1) == ((-1, 1),)
    assert pentagonal_terms(5) == ((-1, 1), (1, 2), (-2, 5))


def test_partition_table_values():
    t = partition_table(10)
    assert t.values[:6] == (1, 1, 2, 3, 5, 7)
    assert t.p(10) == 42
    assert partition_table(100).p(100) == 190569292
    assert t.p(-3) == 0


def test_partition_table_record_helpers():
    """A table is a one-field record, so the NamedTuple helpers work on it."""
    t = partition_table(10)
    assert len(t) == 1
    short = t._replace(values=(1, 1, 2))
    assert short.values == (1, 1, 2) and short.p(2) == 2
    assert PartitionTable._make([t.values]) == t
    with pytest.raises(ValueError, match="does not cover"):
        recurrence_rhs(6, 3, F(0), short)


def test_partition_table_vs_series_inverse():
    n = 200
    table = partition_table(n)
    pent = [0] * (n + 1)
    k = 0
    while pentagonal(k) <= n or pentagonal(-k) <= n:
        for kk in ((k, -k) if k else (0,)):
            if pentagonal(kk) <= n:
                pent[pentagonal(kk)] = -1 if kk % 2 else 1
        k += 1
    inv = IntQSeries(0, pent).invert()
    for i in range(n + 1):
        assert inv.coeff(i) == table.p(i)


def test_partition_table_monotone():
    values = partition_table(60).values
    assert all(values[n] > values[n - 1] for n in range(2, 61))


def test_sigma_values():
    assert sigma(3, 1) == 1
    assert sigma(3, 4) == 73
    assert sigma(11, 2) == 2049
    assert sigma(0, 720) == 30 and sigma(1, 97) == 98 and sigma(2, 2**10) == (4**11 - 1) // 3


def test_recurrence_weight_closed_forms():
    # order 2: 216 n^2 - 36 (6k+1)^2 n + (6k+1)^4
    for n, expect in ((1, 181), (2, 793), (3, 1837)):
        assert recurrence_weight(2, n, 0) == expect
    assert recurrence_weight(2, 1, 1) == 216 - 36 * 49 + 49**2 == 853
    for n in range(4):
        for k in range(-3, 4):
            assert recurrence_weight(0, n, k) == 1


def _weight_by_definition(nu, n, k):
    # the documented sum, one Fraction term per r
    u = (6 * k + 1) ** 2
    pref = (2 * nu - 1) * falling_factorial(2 * nu - 2, nu - 1) ** 2 / F(4) ** (nu - 1)
    return pref * sum(
        F(
            (-1) ** (nu + r) * (2 * nu - 2 * r - 1) * u**r * (24 * n - u) ** (nu - r),
            factorial(2 * r) * factorial(2 * nu - 2 * r),
        )
        for r in range(nu + 1)
    )


def test_recurrence_weight_matches_definition():
    for nu in range(15):
        for n in (0, 1, 2, 17, 240):
            for k in (-9, -1, 0, 1, 4):
                assert recurrence_weight(nu, n, k) == _weight_by_definition(nu, n, k), (nu, n, k)


def test_bracket_weights_share_the_prefactor():
    # nu = 0 and nu = 1 give the brackets 1 and 0 from the same formula
    assert bracket_weights(0) == ((-1,), F(-1))
    weights, factor = bracket_weights(1)
    assert weights == (-1, -1) and factor == F(1, 2)
    with pytest.raises(ValueError):
        bracket_weights(-1)


def test_recurrence_weight_k_dependence():
    # depends on k only through (6k+1)^2
    for nu in (2, 5, 9):
        for n in (1, 7):
            seen = {}
            for k in range(-10, 11):
                u = (6 * k + 1) ** 2
                val = recurrence_weight(nu, n, k)
                if u in seen:
                    assert seen[u] == val
                seen[u] = val


def test_weight_at_zero_never_vanishes():
    for nu in range(15):
        for n in range(1, 1001):
            assert recurrence_weight(nu, n, 0) != 0


def test_weight_at_zero_is_an_integer_polynomial_with_constant_term_minus_one():
    """The premises of recurrence_rhs's proof that W(n, 0) != 0 for n >= 1:
    W(n, 0) = Q(24n - 1) with Q(y) = sum_j w_j y^j, and w_0 = -1, so Q has
    no integer root beyond +-1."""
    for nu in range(MAX_NU + 1):
        weights, _ = bracket_weights(nu)
        assert weights[0] == -1, nu
    for nu in (0, 2, 7, 40, MAX_NU):
        weights, _ = bracket_weights(nu)
        for n in (1, 2, 99):
            assert _weight_numerator(weights, n, 0) == sum(w * (24 * n - 1) ** j for j, w in enumerate(weights))


def test_recurrence_rhs_basic_cases():
    table = partition_table(50)
    assert recurrence_rhs(2, 1, F(0), table) == 1
    tr6 = trace_series(6, 3)
    assert recurrence_rhs(6, 3, tr6.value(3), table) == 3
    tr12 = trace_series(12, 2)
    assert recurrence_rhs(12, 2, tr12.value(2), table) == 2


def test_recurrence_rhs_validation():
    table = partition_table(5)
    with pytest.raises(ValueError):
        recurrence_rhs(1, 1, F(0), table)
    with pytest.raises(ValueError):
        recurrence_rhs(2, 9, F(0), table)


def test_recurrence_reproduces_p_all_orders():
    """Every order nu in 2..13 reproduces p(n) exactly for n <= 40."""
    n_max = 40
    table = partition_table(n_max)
    for nu in range(2, 14):
        traces = trace_series(nu, n_max) if dim_cusp(2 * nu) else None
        for n in range(1, n_max + 1):
            trace = traces.value(n) if traces else F(0)
            value = recurrence_rhs(nu, n, trace, table)
            assert value.denominator == 1 and value == table.p(n), (nu, n)


def test_recurrence_rhs_detects_wrong_trace():
    table = partition_table(10)
    value = recurrence_rhs(6, 3, F(1, 7), table)
    assert value.denominator != 1


def _walk_by_horner(nu, n, table):
    """The pentagonal walk term by term, each weight by ``_weight_numerator``."""
    weights, _ = bracket_weights(nu)
    terms = [(k, w) for k, w in pentagonal_terms(len(table.values) - 1) if w <= n]
    return sum((1 if k % 2 else -1) * _weight_numerator(weights, n, k) * table.p(n - w) for k, w in terms)


def test_pentagonal_numerator_sum_matches_horner():
    tables = [partition_table(300), partition_table(37)]
    for nu in (0, 1, 2, 6, 12, 50, 200):
        for table in tables:
            n_max = len(table.values) - 1
            # n = n_max reads the table's last entry, where |D_i(n)| is largest;
            # order 200 walks one n in twenty of the long table, at its ends too
            ns = range(n_max + 1) if nu < 200 or n_max < 100 else (*range(0, n_max, 20), n_max - 1, n_max)
            for n in ns:
                assert pentagonal_numerator_sum(nu, n, table) == _walk_by_horner(nu, n, table), (nu, n_max, n)


def _slots(x: int, slots, bias: int, width: int) -> list[int]:
    """The signed value in each slot of a packed int, read as the walk reads them."""
    raw = (x + bias).to_bytes(width, "little")
    return [int.from_bytes(raw[start:end], "little") - half for start, end, half in slots]


def test_packed_weights_hold_every_partial_sum():
    """Slot i of the packed weights is sized by its documented bound, and
    holds D_i(n) = sum_m c_i(m) p(n - omega_m) for every n <= n_max."""
    for nu, n_max in ((0, 40), (1, 40), (2, 100), (6, 240), (12, 300), (50, 120), (200, 60)):
        omegas, keys, slots, bias, width = _weight_columns(nu, n_max)
        values = partition_table(n_max).values
        weights, _ = bracket_weights(nu)
        terms = pentagonal_terms(n_max)
        assert omegas == tuple(w for _, w in terms)
        # slots tile the packed int from its lowest byte, in the order of i
        assert [start for start, _, _ in slots] == [0, *(end for _, end, _ in slots[:-1])]
        assert slots[-1][1] == width and len(slots) == nu + 1
        assert bias == sum(half << (8 * start) for start, _, half in slots)
        rows = [_slots(key, slots, bias, width) for key in keys]  # rows[m][i] = c_i(m)
        for (k, w), row in zip(terms, rows):
            # the weight's coefficients in powers of 24n, checked at two n
            for n in (w, n_max):
                want = (1 if k % 2 else -1) * _weight_numerator(weights, n, k)
                assert sum(c * (24 * n) ** i for i, c in enumerate(row)) == want, (nu, k, n)
        columns = list(zip(*rows))
        for column, (start, end, half) in zip(columns, slots):
            assert end - start == (sum(map(abs, column)).bit_length() + values[-1].bit_length() + 8) // 8
            assert half == 1 << (8 * (end - start) - 1)
        for n in range(n_max + 1):
            ps = [values[n - w] for w in omegas if w <= n]
            partials = [sum(c * p for c, p in zip(column, ps)) for column in columns]
            assert all(abs(d) < half for d, (_, _, half) in zip(partials, slots)), (nu, n)
            assert _slots(sum(key * p for key, p in zip(keys, ps)), slots, bias, width) == partials, (nu, n)


def test_pentagonal_numerator_sum_rejects_n_past_the_table():
    """The walk reads no further than the table: past its end it raises,
    where it once dropped the terms with omega(k) beyond the table."""
    assert pentagonal_numerator_sum(6, 22, partition_table(22)) == -355461028044148174848
    for nu, n, n_max in ((6, 22, 21), (2, 26, 25), (6, 40, 20), (6, -1, 20)):
        with pytest.raises(ValueError, match="partition table covers n in 0.."):
            pentagonal_numerator_sum(nu, n, partition_table(n_max))


def _rhs_by_fractions(nu, n, trace, table):
    """The recurrence's right-hand side in Fraction arithmetic, term by term."""
    weights, factor = bracket_weights(nu)
    eis = -F(4 * nu) / bernoulli(2 * nu) * comb(2 * nu - 2, nu - 2) * sigma(2 * nu - 1, n)
    return (eis + trace + factor * _walk_by_horner(nu, n, table)) / (factor * _weight_numerator(weights, n, 0))


def test_recurrence_rhs_with_a_wrong_trace_matches_fractions():
    table = partition_table(60)
    for nu in (2, 6, 9, 12, 20):
        traces = trace_series(nu, 60) if dim_cusp(2 * nu) else None
        for n in (1, 2, 17, 60):
            trace = (traces.value(n) if traces else F(0)) + F(1, 7)
            value = recurrence_rhs(nu, n, trace, table)
            assert value == _rhs_by_fractions(nu, n, trace, table), (nu, n)
            assert value.denominator != 1, (nu, n)
