"""The benchmark's workloads: fixed lists of CLI requests.

Each request is the argv a user would pass to ``pentarc``.  The lists are
fixed, so every ``--seed`` gives the same inputs; the seed is only recorded
with each run.  The worker appends ``--out FILE`` to each request.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    "petersson": {
        "requests": [["dirichlet", "6"], ["dirichlet", "12"]],
        "why": "Only user of the _coeffs CRT tables (cold) and the dirichlet double sums (warm); "
        "the exact layers do under 0.5% of the work here.",
    },
    "brackets": {
        "requests": [
            ["--prec", "120", "pnu", "12"],
            ["partition", "1..240", "--method", "trace:6", "--cross-check"],
            ["trace", "6", "120"],
        ],
        "why": "Exact Fraction path at precision 120: qseries and rankincohen cold, partitions "
        "recurrences warm, no numpy layer; the trace request reads a sub-range of a built bracket.",
    },
    "rademacher": {
        "requests": [["rademacher", "1..50"], ["rademacher", "236..250"]],
        "why": "Almost all rademacher work: per-c pair tables cold, per-n Kloosterman phase sums warm; "
        "the second range holds the known wrong answers at n=236, 247, 248 and 250.",
    },
    "verify": {
        "requests": [["verify", "all"]],
        "why": "Many small series across every layer, so per-call overhead shows; "
        "the only caller of the verify layer.",
    },
}

