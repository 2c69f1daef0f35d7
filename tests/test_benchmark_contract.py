"""The benchmark's tracer (``perfbench/layers.py``) wraps pentarc functions by
name from outside the program.  A rename or removal would leave a layer
untraced without failing the benchmark, so these tests fail instead.

``layers.py`` is executed from its source text, so nothing is written
beside it, and its tracer is never installed.
"""

import importlib
import types
from math import gcd
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    module = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS_PY.read_text(encoding="utf-8"), str(LAYERS_PY), "exec"), module.__dict__)
    return module


def _resolve(modname, name):
    module = importlib.import_module(modname)
    owner, _, attr = name.rpartition(".")
    if owner:
        return vars(getattr(module, owner))[attr]
    return getattr(module, attr)


def test_every_traced_name_resolves(layers):
    for layer, (modname, names) in layers.LAYERS.items():
        for name in names:
            assert callable(_resolve(modname, name)), (layer, name)
    for layer, name in layers.ENTRY_ONLY:
        assert name in layers.LAYERS[layer][1], (layer, name)


def test_hit_ratio_functions_are_traced_caches(layers):
    for layer, name in layers.HIT_RATIO:
        modname, names = layers.LAYERS[layer]
        assert name in names, (layer, name)
        assert hasattr(_resolve(modname, name), "cache_info"), (layer, name)


def test_traced_kloosterman_term_count_is_phi(layers):
    """The tracer reads ``term_count`` off the traced ``kloosterman``."""
    modname, names = layers.LAYERS["rademacher"]
    assert "kloosterman" in names
    kloosterman = _resolve(modname, "kloosterman")
    for c in (1, 2, 12, 49, 50, 51, 120):
        phi = sum(1 for d in range(c) if gcd(d, c) == 1)
        assert kloosterman(c, -24, 24 * 235).term_count == phi, c
