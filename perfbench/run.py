"""pentarc benchmark: cold and warm CLI request lists, judged by an oracle.

Run from the root of a pentarc checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run, one single-threaded process:

1. Set-up (untraced runs): ``import pentarc.cli`` in fresh interpreters,
   SETUP_IMPORTS of them before each worker and after the last one (a
   first, untimed, import compiles the bytecode); ``setup_s`` is the
   median.  Spread over the run, the imports see the same host as the
   workers, not only its first seconds.
2. Measurement, a closed loop with one client: fresh worker interpreters
   (worker.py) run one after the other until ``--seconds`` have passed,
   finishing the one in progress, and at least MIN_WORKERS of them.  Each
   runs the workload's requests in a cold pass on empty caches, then in
   warm passes of the same list (worker.py says how many).
   ``cold_s`` is the median of the cold passes and ``warm_s`` the median
   of the warm passes of all workers.  With ``--trace 1`` traced and
   untraced workers alternate; the traced ones give the per-layer metrics
   (layers.py) and the pair gives the tracing overhead.
3. Every output is judged by oracle.py; ``attempted`` and ``failed`` count
   results over all workers and passes.  ``rademacher.wrong_pn`` counts the
   results of a cold pass whose ``nearest`` is not p(n); the oracle accepts
   only the seed's known wrong values among them.

A fixed pure-Python loop and a fixed numpy loop are timed at the start and
end of the run as context for host-speed drift; they rescale nothing.

The last line of standard output is the JSON result; the lines before it
list the context and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import oracle
from layers import HIT_RATIO, LAYERS
from worker import WARM_MIN
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_IMPORTS = 3
# one cold pass of petersson takes most of a run, and a single one per run
# spread by 0.2 between runs; a traced run needs a traced and an untraced
# worker
MIN_WORKERS = 2
RUN_LIMIT_S = 170  # a run must end within 180 s
SCRATCH_PARENT = ".bench_build"

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import pentarc.cli; print(time.perf_counter() - t)"
)

# work counts of the cold pass: metric -> key in the worker's layer record
WORK_COUNTS = {
    "qseries.coeffs_out": "qseries.coeffs_out",
    "coeffs.indices": "coeffs.indices",
    "dirichlet.partial_sums": "dirichlet.dirichlet_partial.calls",
    "rademacher.kloosterman_calls": "rademacher.kloosterman.calls",
    "rademacher.kloosterman_terms": "rademacher.kloosterman_terms",
}


def host_probe() -> dict:
    """Seconds for a fixed pure-Python loop and a fixed numpy loop."""
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    python_s = perf_counter() - start
    a = np.arange(2048, dtype=np.int64) % 1021
    start = perf_counter()
    for _ in range(20):
        acc += int(np.convolve(a, a)[2047] % 7)
    return {"py": python_s, "np": perf_counter() - start}


def program_env() -> dict:
    """The environment without PENTARC_ overrides: the program receives only argv."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PENTARC_")}


def time_imports(count: int) -> list[float]:
    """Seconds of ``import pentarc.cli`` in each of ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, text=True, check=True, timeout=60, env=program_env(),
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_worker(
    requests, trace: bool, scratch: str, index: int,
    timeout: float = RUN_LIMIT_S, warm_passes: int | None = None,
) -> dict | None:
    """Run one worker; its result, or None if it did not finish in time.

    ``warm_passes``, if given, fixes the number of warm passes."""
    outdir = os.path.join(scratch, f"worker-{index}")
    os.makedirs(outdir)
    spec_path = os.path.join(scratch, f"spec-{index}.json")
    result_path = os.path.join(scratch, f"result-{index}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        spec = {"requests": requests, "outdir": outdir, "trace": trace}
        if warm_passes is not None:
            spec["warm_passes"] = warm_passes
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            capture_output=True, text=True, timeout=timeout, env=program_env(),
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: worker {index} stopped after {timeout:.0f} s\n")
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(f"perfbench: worker {index} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def judge_worker(requests, result, expected) -> tuple[int, int]:
    """(attempted, failed) results of one worker over all its passes.

    A warm result fails if the oracle rejects it or it differs from the
    cold result of the same request.
    """
    attempted = failed = 0
    passes = len(result["passes"]) if result else 1 + WARM_MIN
    for i, argv in enumerate(requests):
        count = len(expected[oracle.request_key(argv)]["results"])
        attempted += passes * count
        if result is None:
            failed += passes * count
            continue
        cold, *warms = (p["outputs"][i] for p in result["passes"])
        failed += oracle.judge(argv, cold, expected).count(False)
        for warm in warms:
            same = oracle.same_results(cold, warm, count)
            failed += sum(1 for ok, eq in zip(oracle.judge(argv, warm, expected), same) if not (ok and eq))
    return attempted, failed


def output_bytes(outputs) -> int:
    """Bytes of the outputs with their timings removed, so the count repeats."""
    total = 0
    for output in outputs:
        if output["text"] is not None:
            try:
                data = oracle.strip_timings(json.loads(output["text"]))
            except ValueError:
                continue
            total += len((json.dumps(data, indent=2, sort_keys=True) + "\n").encode())
    return total


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced workers of the run."""

    med = statistics.median
    records = [w["layers"] for w in traced]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med([r["self_s"][f"cold:{layer}"] for r in records]), "s")
        warm = [r["self_s"][f"warm:{layer}"] / (len(w["passes"]) - 1) for r, w in zip(records, traced)]
        metrics[f"{layer}.warm_self_s"] = (med(warm), "s")
        metrics[f"{layer}.calls"] = (med([r["counts"].get(f"cold:{layer}.calls", 0) for r in records]), "count")
        metrics[f"{layer}.cache_entries"] = (med([r["cache_entries"][layer] for r in records]), "count")
    for layer, name in HIT_RATIO:
        key = f"{layer}.{name}"
        metrics[f"{key}.cache_hit_ratio"] = (med([r["hit_ratio"][key] for r in records]), "ratio")
    for metric, key in WORK_COUNTS.items():
        metrics[metric] = (med([r["counts"].get(f"cold:{key}", 0) for r in records]), "count")
    metrics["partitions.tables_built"] = (med([r["tables_built"] for r in records]), "count")
    metrics["serialize.bytes"] = (med([output_bytes(w["passes"][0]["outputs"]) for w in traced]), "bytes")

    traced_cold = med([w["passes"][0]["busy_s"] for w in traced])
    metrics["trace.cold_s"] = (traced_cold, "s")
    if untraced:
        untraced_cold = med([w["passes"][0]["busy_s"] for w in untraced])
        metrics["trace.untraced_cold_s"] = (untraced_cold, "s")
        metrics["trace.overhead_ratio"] = (traced_cold / untraced_cold, "ratio")
    # cli.main encloses every other span, so the layers' self times always
    # sum to the traced requests; what the wrappers miss lands in cli's self
    # time, and this share of the traced cold pass stays near 0 while the
    # wrapped layers account for the work
    shares = [r["self_s"]["cold:cli"] / w["passes"][0]["busy_s"] for r, w in zip(records, traced)]
    metrics["trace.cli_self_share"] = (med(shares), "ratio")
    return metrics


def _another_worker(index: int, elapsed: float, last: float, args) -> bool:
    """Start workers until ``seconds`` have passed, and at least
    MIN_WORKERS.  A worker that would end after twice ``seconds`` is not
    started, which bounds a run on a slow host."""
    if index < MIN_WORKERS:
        return True
    return elapsed < args.seconds and elapsed + last <= 2 * args.seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="recorded; the request lists are fixed")
    parser.add_argument("--seconds", type=float, required=True, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the worker, finally removes scratch
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = perf_counter() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "pentarc", "cli.py")):
        sys.stderr.write("perfbench: run from the root of a pentarc checkout (src/pentarc is missing)\n")
        return 2
    import numpy

    requests = WORKLOADS[args.workload]["requests"]
    expected = oracle.load_expected()
    os.makedirs(SCRATCH_PARENT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="perfbench-", dir=SCRATCH_PARENT)
    traced, untraced = [], []
    attempted = failed = 0
    wrong_pn = []  # per worker: the n whose cold nearest is not p(n)
    try:
        probe_start = host_probe()
        setup_imports = 0 if args.trace else SETUP_IMPORTS
        time_imports(min(setup_imports, 1))  # writes the bytecode caches
        setup_times = []
        start = perf_counter()
        index, last = 0, 0.0
        while _another_worker(index, perf_counter() - start, last, args) and perf_counter() < deadline:
            trace = bool(args.trace) and index % 2 == 0
            setup_times += time_imports(setup_imports)
            begun = perf_counter()
            result = run_worker(requests, trace, scratch, index, timeout=deadline - begun)
            last = perf_counter() - begun
            a, f = judge_worker(requests, result, expected)
            attempted, failed = attempted + a, failed + f
            if result is not None:
                (traced if trace else untraced).append(result)
                wrong_pn.append(sorted(n for out in result["passes"][0]["outputs"] for n in oracle.wrong_pn(out)))
            index += 1
        setup_times += time_imports(setup_imports)
        probe_end = host_probe()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not (traced if args.trace else untraced):
        sys.stderr.write("perfbench: no worker finished\n")
        return 1

    context = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload]["why"],
        "requests": [" ".join(r) for r in requests],
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workers_traced": len(traced),
        "workers_untraced": len(untraced),
        "cold_passes_s": [w["passes"][0]["busy_s"] for w in untraced],
        "warm_passes_s": [[p["busy_s"] for p in w["passes"][1:]] for w in untraced],
        "fail_frac": failed / attempted,
        "rademacher.wrong_pn_n": wrong_pn[0],
        "host.calib_s": {"start": probe_start, "end": probe_end},
    }
    if args.trace:
        metrics = layer_metrics(traced, untraced)
        metrics["host.calib_py_start_s"] = (probe_start["py"], "s")
        metrics["host.calib_py_end_s"] = (probe_end["py"], "s")
        metrics["host.calib_np_start_s"] = (probe_start["np"], "s")
        metrics["host.calib_np_end_s"] = (probe_end["np"], "s")
        metrics["oracle.fail_frac"] = (failed / attempted, "ratio")
        metrics["rademacher.wrong_pn"] = (statistics.median(len(w) for w in wrong_pn), "count")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "cold_s": (statistics.median(w["passes"][0]["busy_s"] for w in untraced), "s"),
            "warm_s": (statistics.median(p["busy_s"] for w in untraced for p in w["passes"][1:]), "s"),
            "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in untraced), "MB"),
        }
    print("context " + json.dumps(context, sort_keys=True))
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.6g} ratio")
    print(f"rademacher.wrong_pn {len(wrong_pn[0])} count per cold pass (n = {wrong_pn[0]})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" if unit != "count" else f"{name} {value:.0f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
