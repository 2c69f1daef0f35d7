"""Golden outputs: each recorded request prints what ``tests/golden/`` holds,
byte for byte outside ``timings``, with the same stderr and exit code.

``tests/golden/record.py`` records the file from a trusted checkout; an
intended output change reruns it.
"""

import json
import os
import subprocess
import sys

import pytest

import pentarc
from golden.record import GOLDEN_PATH, REQUESTS, run, without_timings

with open(GOLDEN_PATH, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@pytest.fixture(autouse=True)
def default_settings(monkeypatch):
    for name in [name for name in os.environ if name.startswith("PENTARC_")]:
        monkeypatch.delenv(name)


def test_golden_file_holds_every_request():
    assert [record["argv"] for record in GOLDEN] == REQUESTS


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda record: " ".join(record["argv"]))
def test_request_prints_its_golden_output(golden):
    assert run(golden["argv"]) == golden


def test_fresh_process_prints_its_golden_output():
    (golden,) = [record for record in GOLDEN if record["argv"] == ["dirichlet", "6"]]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PENTARC_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pentarc.__file__))
    fresh = subprocess.run([sys.executable, "-m", "pentarc.cli", *golden["argv"]], env=env, capture_output=True, text=True)
    got = {"argv": golden["argv"], "exit": fresh.returncode, "stderr": fresh.stderr}
    assert {**got, "stdout": without_timings(fresh.stdout, golden["argv"])} == golden


def test_timings_are_dropped_at_every_depth():
    assert without_timings('{\n  "a": {\n    "timings": 1\n  },\n  "timings": 2\n}\n', []) == '{\n  "a": {}\n}\n'
    text = "results.euler.timings.seconds: 0.1\nresults.euler.ok: True\ntimings.seconds: 0.2\n"
    assert without_timings(text, ["--format", "text"]) == "results.euler.ok: True\n"
    assert without_timings("ok,timings.seconds\nTrue,0.1\n", ["--format", "csv"]) == "ok\nTrue\n"
    with pytest.raises(ValueError, match="canonical"):
        without_timings('{"timings": 1}', [])
