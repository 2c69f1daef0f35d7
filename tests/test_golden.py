"""Golden outputs: each recorded request prints what ``tests/golden/`` holds,
byte for byte outside ``timings``, with the same stderr and exit code.

``tests/golden/record.py`` records the files from a trusted checkout; an
intended output change reruns it.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import pentarc
from golden import record
from golden.record import GOLDEN, KNOWN_WRONG_PN, golden_path, run, without_timings
from pentarc.partitions import partition_table


def _load(name: str) -> list[dict]:
    with open(golden_path(name), encoding="utf-8") as fh:
        return json.load(fh)


RECORDS = [(name, record) for name in GOLDEN for record in _load(name)]


@pytest.fixture(autouse=True)
def default_settings(monkeypatch):
    for name in [name for name in os.environ if name.startswith("PENTARC_")]:
        monkeypatch.delenv(name)


def test_golden_file_holds_every_request():
    for name, requests in GOLDEN.items():
        assert [record["argv"] for record in _load(name)] == requests, name


# ids are the argv alone: no request appears in two files
@pytest.mark.parametrize("name, golden", RECORDS, ids=[" ".join(record["argv"]) for _, record in RECORDS])
def test_request_prints_its_golden_output(name, golden):
    assert run(golden["argv"]) == golden


def test_recorded_partition_numbers_are_right_but_the_known_wrong():
    """Each recorded p(n) is p(n), except the Rademacher values that
    ``KNOWN_WRONG_PN`` marks, which are off by exactly their offset."""
    table = partition_table(300)
    wrong = {}
    for _, golden in RECORDS:
        if golden["exit"] or "--help" in golden["argv"] or "--format" in golden["argv"]:
            continue
        results = json.loads(golden["stdout"]).get("results")
        for result in results if isinstance(results, list) else ():
            n, value = result.get("n"), result.get("nearest", result.get("value"))
            if isinstance(value, int) and isinstance(n, int) and n <= 300 and value != table.p(n):
                wrong.setdefault(" ".join(golden["argv"]), {})[n] = value - table.p(n)
    assert wrong == KNOWN_WRONG_PN


def test_fresh_process_prints_its_golden_output():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PENTARC_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pentarc.__file__))
    for name, argv in [
        ("dirichlet.json", ["dirichlet", "6"]),
        ("brackets.json", ["partition", "5", "--method", "trace:6", "--cross-check"]),
    ]:
        (golden,) = [record for record in _load(name) if record["argv"] == argv]
        fresh = subprocess.run([sys.executable, "-m", "pentarc.cli", *argv], env=env, capture_output=True, text=True)
        got = {"argv": argv, "exit": fresh.returncode, "stderr": fresh.stderr}
        assert {**got, "stdout": without_timings(fresh.stdout, argv)} == golden


def test_check_mode_prints_a_diff_and_writes_nothing(monkeypatch, capsys, tmp_path):
    committed = pathlib.Path(golden_path("dirichlet.json")).read_bytes()
    (tmp_path / "dirichlet.json").write_bytes(committed)
    monkeypatch.setattr(record, "GOLDEN_DIR", str(tmp_path))
    monkeypatch.setattr(record, "GOLDEN", {"dirichlet.json": GOLDEN["dirichlet.json"][:1]})
    assert record.main(["--check"]) == 1
    diff = capsys.readouterr().out
    assert diff.startswith("--- dirichlet.json\n+++ dirichlet.json (now)\n")
    assert all(line[0] in " -@" for line in diff.splitlines()[2:])
    assert [p.name for p in tmp_path.iterdir()] == ["dirichlet.json"]
    assert (tmp_path / "dirichlet.json").read_bytes() == committed
    monkeypatch.setattr(record, "GOLDEN", {"dirichlet.json": GOLDEN["dirichlet.json"]})
    assert record.main(["--check"]) == 0 and capsys.readouterr().out == ""


def test_timings_are_dropped_at_every_depth():
    assert without_timings('{\n  "a": {\n    "timings": 1\n  },\n  "timings": 2\n}\n', []) == '{\n  "a": {}\n}\n'
    text = "results.euler.timings.seconds: 0.1\nresults.euler.ok: True\ntimings.seconds: 0.2\n"
    assert without_timings(text, ["--format", "text"]) == "results.euler.ok: True\n"
    assert without_timings("ok,timings.seconds\nTrue,0.1\n", ["--format", "csv"]) == "ok\nTrue\n"
    with pytest.raises(ValueError, match="canonical"):
        without_timings('{"timings": 1}', [])
