"""Each ``verify`` suite fails when one value it checks is corrupted, so a
suite that passes has compared something."""

import pytest

from pentarc import dirichlet, forms, hecke, partitions, rankincohen, verify
from pentarc.cli import main
from pentarc.qseries import IntQSeries


def _plus_one_at(series, n):
    """``series`` with 1 added to its coefficient at q^n."""
    coeffs = list(series.coeffs)
    coeffs[n - series.offset] += series.den
    return IntQSeries._make(series.offset, coeffs, series.den)


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


@pytest.mark.parametrize(
    "suite, corrupt",
    [
        ("kronecker", _flip_kron12),
        ("corollaries", _bump_cusp_multiplier),
        ("euler", _bump_partition),
        ("projections", _shift_projection),
        ("operator-series", _bump_column_bracket),
        ("bracket-degenerate", _bump_order_one_bracket),
        ("trace-recurrence", _bump_trace),
        ("ramanujan-691", _bump_tau),
    ],
)
def test_suite_fails_on_a_corrupted_value(monkeypatch, capsys, suite, corrupt):
    assert verify.run_suite(suite)["ok"] is True
    corrupt(monkeypatch)
    assert verify.run_suite(suite)["ok"] is False
    assert main(["verify", suite]) == 1
    assert '"ok": false' in capsys.readouterr().out
