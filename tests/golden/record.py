"""Record the golden outputs of the Dirichlet layer from this checkout.

Run from the root of a checkout whose outputs are trusted:

    PYTHONPATH=src python3 tests/golden/record.py

Each request runs in-process through ``cli.main``, and ``dirichlet.json``
keeps its argv, exit code, stderr, and stdout without its ``timings``, the
one part of the output that differs between runs.  ``tests/test_golden.py``
runs the same requests and compares.  An intended output change reruns this
script, and the diff of ``dirichlet.json`` records the change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "dirichlet.json")

REQUESTS = [
    ["dirichlet", "6"],
    ["dirichlet", "9"],
    ["dirichlet", "12"],
    ["dirichlet", "14"],
    ["--big-n", "61", "dirichlet", "12"],
    ["--big-n", "10000", "dirichlet", "6"],
    ["--float-mode", "wide:30", "dirichlet", "6"],
    ["--big-m", "3", "--float-mode", "wide:40", "dirichlet", "8"],
    ["verify", "all"],
    ["verify", "dirichlet"],
    ["--format", "text", "dirichlet", "12"],
    ["--format", "csv", "dirichlet", "6"],
    ["dirichlet", "7"],
    ["--big-n", "4", "dirichlet", "6"],
]


def _timed(key: str) -> bool:
    """Whether a flattened key, such as ``results[0].timings.seconds``, lies under a ``timings``."""
    return "timings" in re.split(r"[.\[\]]", key)


def _drop_timings(data):
    if isinstance(data, dict):
        return {k: _drop_timings(v) for k, v in data.items() if k != "timings"}
    if isinstance(data, list):
        return [_drop_timings(v) for v in data]
    return data


def without_timings(stdout: str, argv: list[str]) -> str:
    """``stdout`` with every ``timings`` key removed, at every depth, in the format ``argv`` asks for."""
    if not stdout:
        return stdout
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "text":
        return "".join(line for line in stdout.splitlines(True) if not _timed(line.split(": ", 1)[0]))
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        keep = [i for i, key in enumerate(rows[0]) if not _timed(key)]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([row[i] for i in keep] for row in rows)
        return buf.getvalue()
    data = json.loads(stdout)
    # the canonical form must give back the bytes printed, or dropping timings could hide a change
    if json.dumps(data, indent=2, sort_keys=True) + "\n" != stdout:
        raise ValueError(f"{' '.join(argv)}: stdout is not in the canonical JSON form")
    return json.dumps(_drop_timings(data), indent=2, sort_keys=True) + "\n"


def run(argv: list[str]) -> dict:
    """One request through ``cli.main``, as its golden record."""
    from pentarc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": without_timings(out.getvalue(), argv)}


def main() -> int:
    stray = sorted(name for name in os.environ if name.startswith("PENTARC_"))
    if stray:
        raise SystemExit(f"unset {', '.join(stray)}: the golden outputs use the default settings")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump([run(argv) for argv in REQUESTS], fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
