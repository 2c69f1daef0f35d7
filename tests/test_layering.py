"""Module layering follows the math: each pentarc module imports only the
modules below it.  And every cache in the package is bounded: each
``lru_cache`` has an integer maxsize, and no function keeps a memo of its
own in a module-level list, dict or set.  Each benchmark workload's warm
pass finds what it reads in the caches.  What a cache returns is shared by
every caller, so it is a value: no caller can rebind its fields, it hashes,
and no record type declares a container that could fill in place.

Every module's package imports are read with ``ast``, without importing
anything, and compared with the dependency graph below.  A new edge, or a
dropped one, must be written here on purpose.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pentarc

PACKAGE = Path(pentarc.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

#: module -> the pentarc modules it may import (function-local imports included)
LAYERS = {
    "errors": set(),
    "exactnum": {"errors"},
    "qseries": {"errors"},
    "_coeffs": {"exactnum", "qseries"},
    "rademacher": {"errors", "exactnum"},
    "partitions": {"errors", "exactnum"},
    "serialize": {"exactnum", "qseries"},
    "forms": {"_coeffs", "errors", "exactnum", "qseries"},
    "rankincohen": {"errors", "exactnum", "partitions", "qseries"},
    "hecke": {"errors", "exactnum", "forms", "qseries", "rankincohen"},
    "dirichlet": {"errors", "exactnum", "forms", "hecke"},
    "verify": {
        "dirichlet", "exactnum", "forms", "hecke", "partitions", "qseries", "rademacher",
        "rankincohen",
    },
    "cli": {
        "dirichlet", "errors", "forms", "hecke", "partitions", "rademacher", "rankincohen",
        "serialize", "verify",
    },
    "__init__": {"dirichlet", "forms", "hecke", "partitions", "rademacher", "rankincohen"},
}


def package_imports(path: Path) -> set[str]:
    """Top-level pentarc modules that ``path`` imports, relatively or absolutely."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                # "from . import a, b" names modules; "from .a.b import c" names a
                out.update(module.split(".")[:1] if module else (a.name for a in node.names))
            elif module.split(".")[0] == "pentarc":
                out.update(module.split(".")[1:2] or (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pentarc":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def test_every_module_is_layered():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


def test_imports_follow_the_layers():
    for name, allowed in LAYERS.items():
        assert package_imports(PACKAGE / f"{name}.py") == allowed, name


def test_no_module_imports_sympy():
    """sympy is a test oracle (tests/test_oracles.py), never a dependency of the package."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "sympy" for name in names), f"{path.stem}:{node.lineno}"


def test_layers_are_acyclic():
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, f"import cycle {' -> '.join(path + (name,))}"
        if name not in done:
            for dep in LAYERS[name]:
                visit(dep, path + (name,))
            done.add(name)

    for name in LAYERS:
        visit(name, ())


def test_parser_sees_every_import_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import os\n"
        "from . import forms, hecke\n"
        "from .exactnum import kronecker_symbol\n"
        "def f():\n"
        "    from .errors import PrecisionError\n"
        "    import pentarc.qseries\n"
        "    from pentarc.partitions import sigma\n"
        "    from pentarc import verify\n",
        encoding="utf-8",
    )
    assert package_imports(source) == {
        "forms", "hecke", "exactnum", "errors", "qseries", "partitions", "verify",
    }


#: methods that change a list, dict or set in place
MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem", "clear",
    "remove", "discard", "__setitem__", "__delitem__",
}
CONTAINER_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
CONTAINER_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def module_state_writes(tree: ast.Module) -> list[str]:
    """Lines where a function changes module-level state: a mutating method
    called on, or an item stored into or deleted from, a module-level list,
    dict or set that the function does not shadow, and any ``global``."""
    containers = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        value = getattr(node, "value", None)
        called = isinstance(value, ast.Call) and ast.unparse(value.func).rpartition(".")[2] in CONTAINER_CALLS
        if isinstance(value, CONTAINER_LITERALS) or called:
            containers.update(t.id for t in targets if isinstance(t, ast.Name))
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
        shared = containers - local
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                out.append(f"{fn.name}:{node.lineno} global {', '.join(node.names)}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if isinstance(owner, ast.Name) and owner.id in shared and node.func.attr in MUTATORS:
                    out.append(f"{fn.name}:{node.lineno} {owner.id}.{node.func.attr}")
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                if isinstance(node.value, ast.Name) and node.value.id in shared:
                    out.append(f"{fn.name}:{node.lineno} {node.value.id}[...]")
    return out


def test_module_state_writes_are_seen():
    tree = ast.parse(
        "_memo = {}\n"
        "_seen = set()\n"
        "_rows: list = []\n"
        "_table = dict()\n"
        "TOTAL = 0\n"
        "def a(n):\n"
        "    _memo[n] = n\n"
        "    _memo.setdefault(n, 1)\n"
        "    _seen.add(n)\n"
        "    _rows.append(n)\n"
        "def b(n):\n"
        "    _table.update({n: n})\n"
        "    _memo[n] += 1\n"
        "    global TOTAL\n"
        "def c(_memo, n):\n"  # a parameter shadows the module name
        "    _memo[n] = n\n"
        "    rows = []\n"
        "    rows.append(_rows[n])\n"
        "    return _table.get(n)\n"
    )
    assert set(module_state_writes(tree)) == {
        "a:7 _memo[...]", "a:8 _memo.setdefault", "a:9 _seen.add", "a:10 _rows.append",
        "b:12 _table.update", "b:13 _memo[...]", "b:14 global TOTAL",
    }


def test_every_lru_cache_is_bounded():
    """Each cached function in the package has an integer maxsize, and no
    function memoizes into a module-level container, so a long-lived
    process keeps bounded memory."""
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert module_state_writes(tree) == [], path.stem
        for node in ast.walk(tree):
            callees = {ast.unparse(d).split("(")[0].rpartition(".")[2] for d in getattr(node, "decorator_list", ())}
            if callees & {"lru_cache", "cache"}:
                fn = getattr(importlib.import_module(f"pentarc.{path.stem}"), node.name)
                assert isinstance(fn.cache_parameters()["maxsize"], int), f"{path.stem}.{node.name}"


#: each workload's requests run twice on cleared caches; prints the misses of
#: the second pass, per workload and "module.function"
WARM_SCAN = """
import contextlib, io, json, sys
import pentarc.cli as cli
workloads = json.loads(sys.argv[1])
caches = {
    f"{modname[len('pentarc.'):]}.{name}": fn
    for modname, module in list(sys.modules.items()) if modname.startswith("pentarc.")
    for name, fn in vars(module).items()
    if getattr(fn, "__module__", None) == modname and hasattr(fn, "cache_clear")
}
report = {}
for workload, requests in workloads.items():
    for fn in caches.values():
        fn.cache_clear()
    for _ in range(2):
        before = {key: fn.cache_info().misses for key, fn in caches.items()}
        for argv in requests:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    report[workload] = {key: fn.cache_info().misses - before[key] for key, fn in caches.items()
                        if fn.cache_info().misses > before[key]}
print(json.dumps(report))
"""


def test_warm_benchmark_pass_misses_no_cache():
    """Every cache holds what its workload reads, so the benchmark's warm pass
    computes nothing again.  The one exception: ``verify all`` reads 10 n_max
    of ``partition_table``, whose 8 slots stay that small because an entry
    at n_max = 10^5 takes 12.2 MB."""
    workloads_py = ROOT / "perfbench" / "workloads.py"
    namespace: dict = {}  # executed from its source text, so nothing is written beside it
    exec(compile(workloads_py.read_text(encoding="utf-8"), str(workloads_py), "exec"), namespace)
    workloads = {name: spec["requests"] for name, spec in namespace["WORKLOADS"].items()}
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-c", WARM_SCAN, json.dumps(workloads)],
        capture_output=True, text=True, env=env, check=True,
    )
    misses = json.loads(run.stdout)
    assert misses == {
        **{name: {} for name in workloads},
        "verify": {"partitions.partition_table": 1},
    }


def test_cached_results_are_immutable():
    from pentarc import dirichlet, forms, hecke, partitions, rademacher, rankincohen

    fields = [
        (partitions.partition_table(10), "values"), (hecke.trace_series(12, 5), "values"),
        *((f, "coeffs") for f in hecke.eigenforms(24)), (forms.space_basis(24, 10), "basis"),
        (forms.space_basis(24, 10).basis[0], "coeffs"),
        (rankincohen.eta_bracket_from_partitions(6, 30), "coeffs"), (rankincohen.eta_bracket(6, 30), "coeffs"),
        (rademacher.kloosterman(5, -24, 24), "value"),
        (dirichlet.petersson_norm_estimate(12, 10, 50), "estimates"),
        (dirichlet.embedded_eigenforms(12, 50)[0], "terms"),
        (partitions._weight_columns(6, 40), "keys"),
        (hecke.eigenform_projections(6)[0], "a"),
    ]
    for result, field in fields:
        hash(result)
        with pytest.raises(AttributeError):
            setattr(result, field, None)
        with pytest.raises(AttributeError):
            result.extra = None


def test_no_record_declares_a_mutable_field():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(ast.unparse(b).endswith("NamedTuple") for b in node.bases):
                for field in node.body:
                    if isinstance(field, ast.AnnAssign):
                        container = ast.unparse(field.annotation).split("[")[0].rpartition(".")[2]
                        assert container.lower() not in {"dict", "list", "set"}, (
                            f"{path.stem}.{node.name}.{field.target.id}"
                        )


def test_partial_sums_retain_no_memory():
    """Partial sums at thousands of (N, s) on one cached eigenform keep
    nothing per (N, s): under 64 KB stays allocated."""
    from pentarc.dirichlet import dirichlet_partial, embedded_eigenforms

    (f,) = embedded_eigenforms(6, 2000)
    for N in range(5, 30):  # specialized untraced; traced from the start the loop runs several times slower
        dirichlet_partial(f, N, 13)
    tracemalloc.start()
    try:
        for N in range(5, 2001):
            for s in (13, 15, 17):
                dirichlet_partial(f, N, s)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024
