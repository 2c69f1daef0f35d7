"""Per-layer spans and work counts, installed from outside the program.

``install`` replaces each listed public function of a pentarc module by a
wrapper that records a span: its duration, minus the time of the wrapped
spans it contains, is the layer's self time.  The wrapper replaces every
binding of the function in every loaded pentarc module, because callers
bind functions at import with ``from .x import f``.  Nothing under ``src/``
changes.

Only layer boundaries are wrapped.  Helpers called from inner loops
(``partitions.pentagonal``, ``dirichlet.kronecker12``,
``rademacher.eta_multiplier``, per-coefficient accessors) and the
per-element arithmetic of ``exactnum`` stay unwrapped: their cost counts in
their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module, wrapped functions; "Class.method" for methods)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli": ("pentarc.cli", ("main",)),
    "serialize": ("pentarc.serialize", ("jsonable",)),
    "qseries": (
        "pentarc.qseries",
        (
            "QSeries24.__mul__", "QSeries24.invert", "QSeries24.pow",
            "IntQSeries.__mul__", "IntQSeries.invert", "IntQSeries.pow",
            "eta_expansion", "eta_product_expansion", "eta_inverse_expansion",
            "to_int_series",
        ),
    ),
    "partitions": (
        "pentarc.partitions",
        ("partition_table", "sigma", "recurrence_weight", "recurrence_rhs"),
    ),
    "rankincohen": (
        "pentarc.rankincohen",
        ("eta_bracket", "eta_bracket_from_partitions", "rankin_cohen"),
    ),
    "forms": (
        "pentarc.forms",
        ("eisenstein", "delta", "cusp_generator", "dim_modular", "dim_cusp", "space_basis", "decompose"),
    ),
    "hecke": (
        "pentarc.hecke",
        ("hecke_action", "hecke_operator", "eigenforms", "trace_series", "eigenform_projections"),
    ),
    "coeffs": ("pentarc._coeffs", ("cusp_monomial_coeffs",)),
    "dirichlet": (
        "pentarc.dirichlet",
        (
            "dirichlet_weight", "dirichlet_weight_float", "dirichlet_partial",
            "dirichlet_double_sum", "embedded_eigenforms", "petersson_norm_estimate",
        ),
    ),
    "rademacher": ("pentarc.rademacher", ("kloosterman", "bessel_i32", "rademacher_pn")),
    "verify": ("pentarc.verify", ("run_suite",)),
}

# jsonable recurses through its own module binding; wrapping that binding
# would open one span per element, so only callers' bindings are replaced
ENTRY_ONLY = {("serialize", "jsonable")}

HIT_RATIO = (
    ("partitions", "partition_table"),
    ("rankincohen", "eta_bracket"),
    ("hecke", "trace_series"),
    ("forms", "space_basis"),
    ("dirichlet", "embedded_eigenforms"),
)


def _series_len(args, kwargs, out):
    coeffs = getattr(out, "coeffs", None)
    return (("qseries.coeffs_out", len(coeffs)),) if coeffs is not None else ()


def _indices_len(signature):
    def work(args, kwargs, out):
        return (("coeffs.indices", len(signature.bind(*args, **kwargs).arguments["indices"])),)

    return work


def _kloosterman_terms(args, kwargs, out):
    return (("rademacher.kloosterman_terms", out.term_count),)


def _work_counters(layer: str, name: str, fn):
    """Work counts recorded after a call returns, keyed by metric name.

    ``qseries.coeffs_out`` counts the coefficients of the series returned by
    multiplication, inversion and down-conversion, the operations that
    compute coefficients; ``pow`` and the eta constructors are built from
    them and the pentagonal fill of ``eta_expansion`` is cached and sparse.
    """
    if layer == "qseries" and name.rpartition(".")[2] in ("__mul__", "invert", "to_int_series"):
        return _series_len
    if (layer, name) == ("coeffs", "cusp_monomial_coeffs"):
        return _indices_len(inspect.signature(fn))
    if (layer, name) == ("rademacher", "kloosterman"):
        return _kloosterman_terms
    return None


class Tracer:
    """Self time and call counts per (pass, layer), and work counts per pass."""

    def __init__(self):
        self.phase = "cold"
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._open: list[list[float]] = []
        self.caches: dict[str, list] = defaultdict(list)
        self.functions: dict[tuple[str, str], object] = {}

    def wrap(self, layer: str, name: str, fn):
        open_spans = self._open
        self_s, counts = self.self_s, self.counts
        work = _work_counters(layer, name, fn)
        calls_key = f"{layer}.calls"
        fn_key = f"{layer}.{name}.calls"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                phase = self.phase
                self_s[phase, layer] += elapsed - child[0]
                counts[phase, calls_key] += 1
                counts[phase, fn_key] += 1
            if work is not None:
                for key, n in work(args, kwargs, out):
                    counts[self.phase, key] += n
            return out

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(span, attr, getattr(fn, attr))
        return span

    def install(self) -> None:
        """Wrap every function in LAYERS; pentarc must already be imported."""
        loaded = [m for n, m in list(sys.modules.items()) if n == "pentarc" or n.startswith("pentarc.")]
        for layer, (modname, names) in LAYERS.items():
            module = importlib.import_module(modname)
            self.caches[layer] = [
                obj for obj in vars(module).values()
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == modname
            ]
            for name in names:
                owner, _, attr = name.rpartition(".")
                if owner:
                    cls = getattr(module, owner)
                    fn = vars(cls)[attr]
                    setattr(cls, attr, self.wrap(layer, name, fn))
                else:
                    fn = getattr(module, attr)
                    wrapped = self.wrap(layer, name, fn)
                    for mod in loaded:
                        if mod is module and (layer, name) in ENTRY_ONLY:
                            continue
                        for key in [k for k, v in vars(mod).items() if v is fn]:
                            setattr(mod, key, wrapped)
                self.functions[layer, name] = fn

    def cache_entries(self, layer: str) -> int:
        return sum(fn.cache_info().currsize for fn in self.caches[layer])

    def cache_info(self, layer: str, name: str):
        return self.functions[layer, name].cache_info()
