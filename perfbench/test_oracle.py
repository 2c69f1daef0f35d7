"""Self-test of the output oracle.

    python3 -m pytest perfbench/test_oracle.py

Feeds the oracle the seed's ``dirichlet 6`` output, unchanged and then
perturbed, and checks that each perturbation counts as a failure.
"""

from __future__ import annotations

import copy
import json

import oracle
from record_expected import FIXTURE_PATH

ARGV = ["dirichlet", "6"]


def _fixture() -> dict:
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _output(payload: dict, code: int = 0) -> dict:
    return {"code": code, "text": json.dumps(payload)}


def _judge(payload: dict, code: int = 0) -> list[bool]:
    return oracle.judge(ARGV, _output(payload, code), oracle.load_expected())


def test_seed_output_passes():
    assert _judge(_fixture()) == [True]


def test_changed_digit_in_exact_field_fails():
    payload = _fixture()
    exact = payload["results"][0]["projection_exact"]
    assert exact["a"] == "-33108590592/691"
    exact["a"] = "-33108590593/691"
    assert _judge(payload) == [False]


def test_float_outside_tolerance_fails():
    payload = _fixture()
    payload["results"][0]["double_sum"] = format(-49.608382 + 2e-5, ".17g")
    assert _judge(payload) == [False]
    payload = _fixture()
    payload["results"][0]["norm_estimate"] = format(1.035362e-6 + 2e-9, ".17g")
    assert _judge(payload) == [False]


def test_float_inside_tolerance_passes():
    payload = _fixture()
    payload["results"][0]["double_sum"] = format(-49.608382 + 5e-6, ".17g")
    assert _judge(payload) == [True]


def test_timings_and_out_path_are_ignored():
    payload = _fixture()
    payload["timings"] = {"seconds": "1.5"}
    payload["config"]["out"] = "elsewhere.json"
    assert _judge(payload) == [True]


def test_nonzero_exit_fails_every_result():
    assert _judge(_fixture(), code=1) == [False]


def test_warm_differing_from_cold_fails():
    cold = _fixture()
    warm = copy.deepcopy(cold)
    assert oracle.same_results(_output(cold), _output(warm), 1) == [True]
    warm["results"][0]["double_sum"] = format(-49.608382 + 5e-6, ".17g")
    assert oracle.same_results(_output(cold), _output(warm), 1) == [False]


def test_rademacher_nearest_is_checked_against_p_n():
    p = oracle.partition_numbers(250)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert p[100] == 190569292
    top = {"command": "rademacher"}
    assert oracle.rule_ok("rademacher", top, {"n": 236, "nearest": p[236]})
    # the seed's known wrong value passes; any other wrong value fails
    assert oracle.rule_ok("rademacher", top, {"n": 236, "nearest": p[236] - 1})
    assert not oracle.rule_ok("rademacher", top, {"n": 236, "nearest": p[236] + 1})
    assert not oracle.rule_ok("rademacher", top, {"n": 100, "nearest": p[100] - 1})


def test_wrong_pn_lists_every_n_off_p_n():
    p = oracle.partition_numbers(250)
    payload = {
        "command": "rademacher",
        "config": {"out": None},
        "results": [{"n": 235, "nearest": p[235]}, {"n": 236, "nearest": p[236] - 1}, {"n": 250, "nearest": p[250] + 1}],
    }
    assert oracle.wrong_pn(_output(payload)) == [236, 250]
    assert oracle.wrong_pn(_output(_fixture())) == []
