"""Every function in ``src/pentarc`` is reached by a command, or is on a short
list that says why it stays.

One fresh interpreter runs README's CLI lines, the benchmark's requests and
a few format, float-mode and low-order requests through ``cli.main`` under a
call-event ``sys.settrace``, and reports the code objects it entered.  Each
``def`` is keyed by its file and first line; a decorated function's code
object starts at its first decorator, so that is the line read for it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_readme import CLI_REQUESTS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pentarc"
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"

#: requests besides README's and the benchmark's: the csv and text renderers,
#: the wide-float weights and the orders of pnu without a cusp part
EXTRA_REQUESTS = [
    ["--format", "csv", "partition", "1..5"],
    ["--format", "text", "trace", "12", "3"],
    ["--float-mode", "wide:30", "dirichlet", "6"],
    ["pnu", "0"],
    ["pnu", "1"],
    ["pnu", "2"],
]

#: "module.qualified_name" -> why it stays in src though no request enters it
ALLOWED = {
    "cli.entry": "the console script (pentarc = pentarc.cli:entry); the requests call main",
    "hecke.hecke_operator": "wrapped by name in perfbench/layers.py",
    "qseries.to_int_series": "wrapped by name in perfbench/layers.py",
    "rankincohen.rankin_cohen": "wrapped by name in perfbench/layers.py",
    "rankincohen._require_no_pole": "the argument check of rankin_cohen, which perfbench wraps",
    "qseries._Series.__init__": "the public constructor, which checks caller input; "
    "the package builds series through _make",
    "qseries._Series.__repr__": "a __repr__",
    "exactnum.QuadNum.__repr__": "a __repr__",
    "exactnum.QuadNum.__setattr__": "refuses assignment, which the package never makes",
    "qseries._Series.__setattr__": "refuses assignment, which the package never makes",
    "exactnum.QuadNum.__hash__": "QuadNum defines __eq__, so without it an immutable number is unhashable",
    "exactnum.QuadNum.__rsub__": "QuadNum keeps the whole arithmetic protocol: int - z as well as z - int",
}

SCAN = """
import contextlib, io, json, sys
requests = json.loads(sys.argv[1])
entered = set()

def tracer(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno))

sys.settrace(tracer)
import pentarc.cli as cli
codes = []
for argv in requests:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.settrace(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def package_defs() -> dict[str, tuple[str, int]]:
    """"module.qualified_name" -> (file path, first line) of every def in the package."""
    out: dict[str, tuple[str, int]] = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    assert name not in out, name
                    out[name] = (str(path), first)
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return out


def benchmark_requests() -> list[list[str]]:
    # executed from its source text, so nothing is written beside it
    namespace: dict = {}
    exec(compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec"), namespace)
    return [argv for workload in namespace["WORKLOADS"].values() for argv in workload["requests"]]


def test_every_function_is_reached_or_listed():
    requests = CLI_REQUESTS + benchmark_requests() + EXTRA_REQUESTS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", SCAN, json.dumps(requests)],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(run.stdout)
    assert report["codes"] == [0] * len(requests)
    entered = {(os.path.realpath(path), line) for path, line in report["entered"]}
    defs = {name: (os.path.realpath(path), line) for name, (path, line) in package_defs().items()}
    assert sorted(name for name, key in defs.items() if key not in entered and name not in ALLOWED) == []
    # the list stays short: each entry still names a def that no request enters
    assert sorted(name for name in ALLOWED if name not in defs or defs[name] in entered) == []
