"""Module layering follows the math: each pentarc module imports only the
modules below it.  And every cache in the package is bounded.

Every module's package imports are read with ``ast``, without importing
anything, and compared with the dependency graph below.  A new edge, or a
dropped one, must be written here on purpose.
"""

import ast
import importlib
from pathlib import Path

import pentarc

PACKAGE = Path(pentarc.__file__).parent

#: module -> the pentarc modules it may import (function-local imports included)
LAYERS = {
    "errors": set(),
    "arith": set(),
    "exactnum": {"errors"},
    "qseries": {"errors"},
    "_coeffs": {"exactnum", "qseries"},
    "rademacher": {"arith", "errors"},
    "partitions": {"errors", "exactnum"},
    "serialize": {"exactnum", "qseries"},
    "forms": {"_coeffs", "errors", "exactnum", "qseries"},
    "rankincohen": {"errors", "exactnum", "partitions", "qseries"},
    "hecke": {"errors", "exactnum", "forms", "qseries", "rankincohen"},
    "dirichlet": {"arith", "errors", "exactnum", "forms", "hecke"},
    "verify": {
        "arith", "dirichlet", "exactnum", "forms", "hecke", "partitions", "qseries",
        "rademacher", "rankincohen",
    },
    "cli": {
        "dirichlet", "errors", "forms", "hecke", "partitions", "qseries", "rademacher",
        "rankincohen", "serialize", "verify",
    },
    "__init__": {
        "arith", "dirichlet", "exactnum", "forms", "hecke", "partitions", "qseries",
        "rademacher", "rankincohen",
    },
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
        "from .arith import kronecker_symbol\n"
        "def f():\n"
        "    from .errors import PrecisionError\n"
        "    import pentarc.qseries\n"
        "    from pentarc.partitions import sigma\n"
        "    from pentarc import verify\n",
        encoding="utf-8",
    )
    assert package_imports(source) == {
        "forms", "hecke", "arith", "errors", "qseries", "partitions", "verify",
    }


def test_every_lru_cache_is_bounded():
    """Each cached function in the package has an integer maxsize, so a
    long-lived process keeps bounded memory."""
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            callees = {ast.unparse(d).split("(")[0].rpartition(".")[2] for d in getattr(node, "decorator_list", ())}
            if callees & {"lru_cache", "cache"}:
                fn = getattr(importlib.import_module(f"pentarc.{path.stem}"), node.name)
                assert isinstance(fn.cache_parameters()["maxsize"], int), f"{path.stem}.{node.name}"
