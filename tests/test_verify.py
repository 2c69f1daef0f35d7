"""Each ``verify`` suite fails when one value it checks is corrupted, so a
suite that passes has compared something."""

import pytest

from pentarc import dirichlet, hecke, partitions, verify
from pentarc.cli import main


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


@pytest.mark.parametrize(
    "suite, corrupt",
    [
        ("kronecker", _flip_kron12),
        ("corollaries", _bump_cusp_multiplier),
        ("euler", _bump_partition),
        ("projections", _shift_projection),
    ],
)
def test_suite_fails_on_a_corrupted_value(monkeypatch, capsys, suite, corrupt):
    assert verify.run_suite(suite)["ok"] is True
    corrupt(monkeypatch)
    assert verify.run_suite(suite)["ok"] is False
    assert main(["verify", suite]) == 1
    assert '"ok": false' in capsys.readouterr().out
