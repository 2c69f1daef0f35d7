"""Record the golden outputs of the CLI from this checkout.

Run from the root of a checkout whose outputs are trusted:

    PYTHONPATH=src python3 tests/golden/record.py          # rewrite every file
    PYTHONPATH=src python3 tests/golden/record.py --check  # diff, write nothing

``GOLDEN`` names each file of this directory and the requests it holds.
Each request runs in-process through ``cli.main``, and its file keeps the
argv, exit code, stderr, and stdout without its ``timings``, the one part
of the output that differs between runs.  A request that argparse ends
(``--help``, a malformed request) is recorded with the code it exits with,
its help and usage wrapped at 80 columns whatever the terminal.
``tests/test_golden.py`` runs the same requests and compares.  An intended output change reruns this script,
and the diff of the files records the change; ``--check`` prints that diff
as a unified diff and exits 1 when there is one.
"""

from __future__ import annotations

import contextlib
import csv
import difflib
import io
import json
import os
import re
import sys
from unittest import mock

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

_COMMANDS = ("partition", "pnu", "gpoly", "trace", "eigenforms", "dirichlet", "rademacher", "verify")
_PARTITION = ["partition", "1..240", "--method", "trace:6", "--cross-check"]

GOLDEN: dict[str, list[list[str]]] = {
    "dirichlet.json": [
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
    ],
    # the pentagonal recurrence, the brackets and their decomposition
    "brackets.json": [
        ["--prec", "120", "pnu", "12"],
        _PARTITION,
        ["trace", "6", "120"],
        *(["partition", "1..60", "--method", f"trace:{nu}"] for nu in (2, 7, 13, 20)),
        ["partition", "5", "--method", "trace:6", "--cross-check"],
        *(["pnu", nu] for nu in ("0", "1", "2", "24")),
        ["--prec", "200", "pnu", "12"],
        # large weight indices, where the bracket and the traces run to hundreds of digits
        ["--prec", "200", "pnu", "50"],
        ["trace", "100", "100"],
        ["gpoly", "6", "10", "--k", "-3..3"],
        ["trace", "12", "40"],
        ["--format", "csv", *_PARTITION],
        ["--format", "text", *_PARTITION],
        # README's example lines
        ["pnu", "6"],
        ["trace", "12", "5"],
        ["gpoly", "2", "1", "--k=-3..3"],
        ["partition", "1..20", "--method", "trace:6", "--cross-check"],
        # 4 x 4 and 7 x 7 exact solves in the decomposition
        ["pnu", "18"],
        ["pnu", "40"],
    ],
    # every other command's JSON, the help texts, and requests refused with exit 2
    "commands.json": [
        ["rademacher", "1..50"],
        ["rademacher", "236..250"],
        ["partition", "0..300", "--method", "euler"],
        ["partition", "1..120", "--method", "rademacher:30"],
        # K_c rows past the default depth, the x >= 1 Bessel branch at the
        # binary64 edge, and the one-term series
        ["--depth-c", "120", "rademacher", "1..30"],
        ["rademacher", "76716"],
        ["partition", "1..20", "--method", "rademacher:1"],
        ["eigenforms", "12"],
        ["eigenforms", "24"],
        ["--format", "text", "rademacher", "1..5"],
        # the flattened q-series and quadratic numbers of jsonable
        ["--format", "csv", "pnu", "12"],
        ["--format", "text", "pnu", "12"],
        ["--help"],
        *([command, "--help"] for command in _COMMANDS),
        ["partition"],
        ["--format", "xml", "pnu", "6"],
        ["rademacher", "0"],
        ["partition", "1..10", "--method", "trace:1"],
        ["eigenforms", "13"],
    ],
}

#: request -> {n: offset} for each recorded Rademacher p(n) that is p(n) plus
#: this offset, not p(n): the binary64 Kloosterman-Bessel sum's known wrong
#: answers at depth 50, among them p(76716), whose 303 digits binary64 holds
#: to about 17, and the one-term series, which leaves p(n) from n = 11 on
#: (ROADMAP item 1).  Every other recorded p(n) is p(n).
KNOWN_WRONG_PN = {
    "rademacher 236..250": {236: -1, 247: -1, 248: -1, 250: 1},
    "rademacher 76716": {76716: int(
        "834262979686982845859603760813367089451689467576630154655360948501272597799682395994520543234094"
        "813977049235510978120842754273962897294758473471688858969806731840688171183290334490389126693600"
        "573672101460265351991692239941290153039176391997745402644066286640083478659246341590230330101243"
        "94"
    )},
    "partition 1..20 --method rademacher:1": {n: (-1) ** (n + 1) for n in range(11, 21)},
}


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


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
    """``stdout`` with every ``timings`` key removed, at every depth, in the format ``argv`` asks for.
    A help text has no ``timings`` and is kept whole."""
    if not stdout or "--help" in argv:
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
    # argparse wraps help and usage to the terminal's width
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on --help and on a malformed request
            code = exc.code
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": without_timings(out.getvalue(), argv)}


def render(requests: list[list[str]]) -> str:
    """The text of one golden file: the record of each request, in order."""
    return json.dumps([run(argv) for argv in requests], indent=1) + "\n"


def main(argv: list[str]) -> int:
    stray = sorted(name for name in os.environ if name.startswith("PENTARC_"))
    if stray:
        raise SystemExit(f"unset {', '.join(stray)}: the golden outputs use the default settings")
    check = argv == ["--check"]
    if argv and not check:
        raise SystemExit("usage: record.py [--check]")
    differ = False
    for name, requests in GOLDEN.items():
        text = render(requests)
        if not check:
            with open(golden_path(name), "w", encoding="utf-8") as fh:
                fh.write(text)
            continue
        try:
            with open(golden_path(name), encoding="utf-8") as fh:
                committed = fh.read()
        except FileNotFoundError:
            committed = ""
        diff = list(difflib.unified_diff(committed.splitlines(True), text.splitlines(True), name, f"{name} (now)"))
        sys.stdout.writelines(diff)
        differ = differ or bool(diff)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
