"""Run every workload, untraced and then traced, in one command.

    python3 perfbench/all.py [SEED] [SECONDS]

from the root of a pentarc checkout.  Each run prints its context, every
metric by name and unit, and ``fail_frac``, as run.py does.
"""

from __future__ import annotations

import os
import subprocess
import sys

from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    seed = argv[0] if argv else "1"
    seconds = argv[1] if len(argv) > 1 else "15"
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    for name in WORKLOADS:
        for trace in ("0", "1"):
            print(f"== {name} --trace {trace}", flush=True)
            args = ["--workload", name, "--seed", seed, "--seconds", seconds, "--trace", trace]
            code = subprocess.run([sys.executable, run, *args]).returncode
            if code:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
