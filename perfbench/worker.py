"""One benchmark worker: a fresh interpreter that runs a request list cold, then warm.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds ``requests`` (CLI argv lists), ``outdir`` (scratch directory for
the ``--out`` files), ``trace`` (install the layer wrappers) and optionally
``warm_passes`` (an exact number of warm passes).  The worker imports
``pentarc.cli`` (with ``src`` on the path) and runs the requests in-process
through ``pentarc.cli.main``, one after the other: a cold pass on empty
caches, then warm passes of the same list until they have taken WARM_SHARE
times as long as the cold pass, at least WARM_MIN and at most WARM_MAX of
them.  A warm pass is often a tenth of the cold one or less; the warm phase
gives the warm median several samples, while keeping the worker short
enough that a run holds several cold passes.

RESULT receives per pass the time and every output text, the peak memory
and, when traced, the layer record.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

from layers import HIT_RATIO, LAYERS, Tracer

WARM_SHARE, WARM_MIN, WARM_MAX = 0.5, 3, 40


def _run_request(cli, argv: list[str], path: str) -> tuple[float, dict]:
    start = perf_counter()
    try:
        code = cli.main(argv + ["--out", path])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a traceback fails the request, not the run
        code = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    text = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
    return seconds, {"code": code, "text": text}


def _run_pass(cli, requests, outdir) -> dict:
    """busy_s: time inside the requests."""
    outputs, busy = [], 0.0
    for i, argv in enumerate(requests):
        seconds, output = _run_request(cli, argv, os.path.join(outdir, f"request-{i}.json"))
        busy += seconds
        outputs.append(output)
    return {"busy_s": busy, "outputs": outputs}


def _hit_ratios(tracer) -> dict:
    out = {}
    for layer, name in HIT_RATIO:
        info = tracer.cache_info(layer, name)
        lookups = info.hits + info.misses
        out[f"{layer}.{name}"] = info.hits / lookups if lookups else 0.0
    return out


def _layer_record(tracer, tables_built, hit_ratio) -> dict:
    return {
        "self_s": {f"{p}:{layer}": tracer.self_s[p, layer] for p in ("cold", "warm") for layer in LAYERS},
        "counts": {f"{p}:{key}": n for (p, key), n in tracer.counts.items()},
        "cache_entries": {layer: tracer.cache_entries(layer) for layer in LAYERS},
        "hit_ratio": hit_ratio,
        "tables_built": tables_built,
    }


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.abspath("src"))
    import pentarc.cli as cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    cold = _run_pass(cli, spec["requests"], spec["outdir"])
    passes = [cold]
    if tracer is not None:
        tables_built = tracer.cache_info("partitions", "partition_table").misses
        tracer.phase = "warm"
    lo = hi = spec.get("warm_passes")
    if lo is None:
        lo, hi = WARM_MIN, WARM_MAX
    warm_total = 0.0
    warm_target = WARM_SHARE * cold["busy_s"]
    while len(passes) <= lo or (warm_total < warm_target and len(passes) <= hi):
        passes.append(_run_pass(cli, spec["requests"], spec["outdir"]))
        warm_total += passes[-1]["busy_s"]
        if tracer is not None and len(passes) == 2:
            # over the cold pass and one warm pass, so the ratio does not
            # depend on how many warm passes ran
            hit_ratio = _hit_ratios(tracer)
    # ru_maxrss is in KiB on Linux
    result = {"passes": passes, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = _layer_record(tracer, tables_built, hit_ratio)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
