"""Output oracle: judges every result of every request.

A result is one output record: one ``n``, one eigenform, one verify check
or one ``pnu`` record.  A request that exits non-zero, or whose output is
missing or malformed, fails every result it should have produced.

* Exact fields (rationals, integers, quadratic numbers, p(n), coordinates,
  projections, the echoed configuration) must match the seed's output: the
  sha256 of each record without its float fields is compared with
  ``expected.json``.  Every ``timings`` key and the ``--out`` path are
  stripped first.
* Float fields are not byte-compared, because a change of summation order
  may move their last digits; they must stay within FLOAT_REFERENCE.
* Rademacher ``nearest`` must equal p(n), computed here independently of
  the program, or the seed's known wrong value (SEED_WRONG_PN), so any
  new wrong answer fails.  ``wrong_pn`` lists every n whose ``nearest`` is
  not p(n); the benchmark reports their count, so the known wrong answers
  stay visible and a fix shows.
* Every verify check must be ``ok``.
* A warm-pass result must equal the cold-pass result of the same request.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# fields judged by a rule below instead of by digest
JUDGED_FIELDS = {
    "dirichlet": ("double_sum", "norm_estimate"),
    "rademacher": ("estimate", "gap", "imag", "nearest"),
}

# (nu, eigenform) -> {field: (reference, absolute tolerance)}.  Weight 12
# uses the acceptance targets.  Weight 24 uses the seed values with a
# relative tolerance of 1e-9: reordering the compensated sums moves them by
# about 4e-16 relative, while dropping the last terms (N = 355 instead of
# 360) moves them by 2.3e-6 and 1.1e-5, so 1e-9 admits any summation order
# and catches a wrong coefficient, weight or truncation.
_REL24 = 1e-9
FLOAT_REFERENCE = {
    (6, 1): {"double_sum": (-49.608382, 1e-5), "norm_estimate": (1.035362e-6, 1e-9)},
    (12, 1): {
        "double_sum": (-1869261857645.771, _REL24 * 1869261857645.771),
        "norm_estimate": (0.00010781034821869855, _REL24 * 0.00010781034821869855),
    },
    (12, 2): {
        "double_sum": (-4182695338638.0947, _REL24 * 4182695338638.0947),
        "norm_estimate": (0.00012899533961372752, _REL24 * 0.00012899533961372752),
    },
}


def partition_numbers(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k, acc = 1, 0
        while (3 * k * k - k) // 2 <= n:
            sign = 1 if k % 2 else -1
            acc += sign * p[n - (3 * k * k - k) // 2]
            if (3 * k * k + k) // 2 <= n:
                acc += sign * p[n - (3 * k * k + k) // 2]
            k += 1
        p[n] = acc
    return p


_P = partition_numbers(1000)

# n -> nearest - p(n) of the seed's wrong Rademacher answers at depth 50
SEED_WRONG_PN = {236: -1, 247: -1, 248: -1, 250: 1}


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def canonical(text: str) -> dict:
    """The output without its timings and its ``--out`` path."""
    payload = strip_timings(json.loads(text))
    if not isinstance(payload, dict) or not isinstance(payload.get("config"), dict):
        raise ValueError("output is not a pentarc record")
    payload["config"]["out"] = None
    return payload


def split(payload: dict) -> tuple[dict, list]:
    """(fields shared by the request, list of result records)."""
    top = dict(payload)
    results = top.pop("results", None)
    if payload.get("command") == "verify" and isinstance(results, dict):
        results = dict(results)
        top["suite_report"] = results
        results = results.pop("checks", None)
    elif isinstance(results, dict):
        results = [results]
    if not isinstance(results, list):
        raise ValueError("output has no results")
    return top, results


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def exact_digest(command: str, record: dict) -> str:
    judged = JUDGED_FIELDS.get(command, ())
    return digest({k: v for k, v in record.items() if k not in judged})


def rule_ok(command: str, top: dict, record: dict) -> bool:
    if command == "dirichlet":
        reference = FLOAT_REFERENCE.get((top.get("nu"), record.get("eigenform")))
        if reference is None:
            return False
        return all(abs(float(record[f]) - ref) <= tol for f, (ref, tol) in reference.items())
    if command == "rademacher":
        n = record.get("n")
        if not (isinstance(n, int) and 0 <= n < len(_P)):
            return False
        return record.get("nearest") in (_P[n], _P[n] + SEED_WRONG_PN.get(n, 0))
    if command == "verify":
        return record.get("ok") is True
    return True


def parse(output: dict):
    """(top, results) of a worker output, or None if the request failed."""
    if output["code"] != 0 or output["text"] is None:
        return None
    try:
        return split(canonical(output["text"]))
    except (ValueError, KeyError, TypeError):
        return None


def judge(argv: list[str], output: dict, expected: dict) -> list[bool]:
    """One verdict per expected result of request ``argv``."""
    want = expected[request_key(argv)]
    failed_all = [False] * len(want["results"])
    parsed = parse(output)
    if parsed is None:
        return failed_all
    top, results = parsed
    command = top.get("command")
    if digest(top) != want["top"] or len(results) != len(want["results"]):
        return failed_all
    try:
        return [
            exact_digest(command, r) == d and rule_ok(command, top, r)
            for r, d in zip(results, want["results"])
        ]
    except (AttributeError, KeyError, TypeError, ValueError):
        return failed_all


def wrong_pn(output: dict) -> list[int]:
    """The n of a Rademacher output whose ``nearest`` is not p(n)."""
    parsed = parse(output)
    if parsed is None or parsed[0].get("command") != "rademacher":
        return []
    return [
        r["n"] for r in parsed[1]
        if isinstance(r.get("n"), int) and 0 <= r["n"] < len(_P) and r.get("nearest") != _P[r["n"]]
    ]


def same_results(cold: dict, warm: dict, count: int) -> list[bool]:
    """Per result: does the warm output equal the cold one (timings aside)?"""
    a, b = parse(cold), parse(warm)
    if a is None or b is None or a[0] != b[0] or len(a[1]) != len(b[1]) or len(a[1]) != count:
        return [False] * count
    return [x == y for x, y in zip(a[1], b[1])]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_entry(output: dict) -> dict:
    """The expected.json entry recorded from a trusted output."""
    parsed = parse(output)
    if parsed is None:
        raise ValueError(f"cannot record a failed request (exit {output['code']})")
    top, results = parsed
    return {"top": digest(top), "results": [exact_digest(top["command"], r) for r in results]}
