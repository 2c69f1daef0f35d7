"""Each ``verify`` suite fails when one value it checks is corrupted, so a
suite that passes has compared something."""

import pytest

from pentarc import dirichlet, forms, hecke, partitions, qseries, rankincohen, verify
from pentarc.cli import main


def _plus_one_at(series, e):
    """``series`` with 1 added to its coefficient at grid point e (q^e, or q^(e/24) on the 1/24 grid)."""
    coeffs = list(series.coeffs)
    coeffs[e - series.start] += series.den
    return type(series)._make(series.start, coeffs, series.den)


def _flip_kron12(monkeypatch):
    table = dirichlet._KRON12
    monkeypatch.setattr(dirichlet, "_KRON12", (table[0], -table[1], *table[2:]))


def _bump_cusp_multiplier(monkeypatch):
    monkeypatch.setitem(verify.CUSP_MULTIPLIERS, 6, verify.CUSP_MULTIPLIERS[6] + 1)


def _bump_partition(monkeypatch):
    real = partitions.partition_table

    def bumped(n_max):
        values = list(real(n_max).values)
        values[100] += 1
        return partitions.PartitionTable(tuple(values))

    monkeypatch.setattr(partitions, "partition_table", bumped)


def _shift_projection(monkeypatch):
    real = hecke.eigenform_projections
    monkeypatch.setattr(hecke, "eigenform_projections", lambda nu: (real(nu)[0] + 1, *real(nu)[1:]))


def _bump_column_bracket(monkeypatch):
    real = rankincohen.eta_bracket_from_partitions
    monkeypatch.setattr(rankincohen, "eta_bracket_from_partitions", lambda nu, prec: _plus_one_at(real(nu, prec), 7))


def _bump_order_one_bracket(monkeypatch):
    real = rankincohen.eta_bracket

    def bumped(nu, prec):
        return _plus_one_at(real(nu, prec), 7) if nu == 1 else real(nu, prec)

    monkeypatch.setattr(rankincohen, "eta_bracket", bumped)


def _bump_trace(monkeypatch):
    real = hecke.trace_series

    def bumped(nu, n_max):
        values = list(real(nu, n_max).values)
        values[5] += 1
        return real(nu, n_max)._replace(values=tuple(values))

    monkeypatch.setattr(hecke, "trace_series", bumped)


def _bump_tau(monkeypatch):
    real = forms.delta
    monkeypatch.setattr(forms, "delta", lambda prec: _plus_one_at(real(prec), 7))


def _bump_eta_product(monkeypatch):
    real = qseries.eta_product_expansion
    monkeypatch.setattr(qseries, "eta_product_expansion", lambda prec24: _plus_one_at(real(prec24), 49))


def _bump_e6(monkeypatch):
    real = forms.eisenstein

    def bumped(weight, prec):
        return _plus_one_at(real(weight, prec), 7) if weight == 6 else real(weight, prec)

    monkeypatch.setattr(forms, "eisenstein", bumped)


def _bump_eta_inverse(monkeypatch):
    real = qseries.eta_inverse_expansion
    monkeypatch.setattr(qseries, "eta_inverse_expansion", lambda prec24: _plus_one_at(real(prec24), 47))


def _bump_eigenvalue(monkeypatch):
    real = hecke.eigenforms

    def bumped(weight):
        if weight != 12:
            return real(weight)
        (f,) = real(weight)
        coeffs = list(f.coeffs)
        coeffs[7] += 1
        return (f._replace(coeffs=tuple(coeffs)),)

    monkeypatch.setattr(hecke, "eigenforms", bumped)


@pytest.mark.parametrize(
    "suite, corrupt",
    [
        ("kronecker", _flip_kron12),
        ("corollaries", _bump_cusp_multiplier),
        ("euler", _bump_partition),
        ("projections", _shift_projection),
        ("operator-series", _bump_column_bracket),
        ("bracket-degenerate", _bump_order_one_bracket),
        ("bracket-degenerate", _bump_column_bracket),
        ("trace-recurrence", _bump_trace),
        ("ramanujan-691", _bump_tau),
        ("pnt", _bump_eta_product),
        ("ramanujan-derivatives", _bump_e6),
        ("eta-log-derivative", _bump_eta_inverse),
        ("eigenforms", _bump_eigenvalue),
    ],
)
def test_suite_fails_on_a_corrupted_value(monkeypatch, capsys, suite, corrupt):
    assert verify.run_suite(suite)["ok"] is True
    corrupt(monkeypatch)
    assert verify.run_suite(suite)["ok"] is False
    assert main(["verify", suite]) == 1
    assert '"ok": false' in capsys.readouterr().out
