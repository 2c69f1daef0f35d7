"""Record expected.json, the oracle's exact-field digests, from this checkout.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/record_expected.py

It runs one worker per workload, requires every warm output to equal its
cold output, and writes the digests of the cold outputs.  It also writes
the self-test fixture, the canonical output of ``dirichlet 6``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import oracle
from run import SCRATCH_PARENT, run_worker
from workloads import WORKLOADS

FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "dirichlet-6.json")


def main() -> int:
    expected, fixture = {}, None
    os.makedirs(SCRATCH_PARENT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="perfbench-", dir=SCRATCH_PARENT)
    try:
        for index, (name, workload) in enumerate(WORKLOADS.items()):
            result = run_worker(workload["requests"], False, scratch, index, warm_passes=1)
            if result is None:
                raise SystemExit(f"workload {name}: worker failed")
            cold, warm = (p["outputs"] for p in result["passes"])
            for argv, cold, warm in zip(workload["requests"], cold, warm):
                entry = oracle.expected_entry(cold)
                if not all(oracle.same_results(cold, warm, len(entry["results"]))):
                    raise SystemExit(f"{' '.join(argv)}: warm output differs from cold")
                expected[oracle.request_key(argv)] = entry
                if argv == ["dirichlet", "6"]:
                    fixture = oracle.canonical(cold["text"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
