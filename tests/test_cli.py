import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pentarc
from pentarc import dirichlet as dmod
from pentarc import hecke, partitions, rankincohen, verify
from pentarc.cli import (
    MAX_BIG_M,
    MAX_DPS,
    MAX_GPOLY_K,
    MAX_GPOLY_K_COUNT,
    MAX_GPOLY_N,
    MAX_NU,
    MAX_PARTITION_N,
    MAX_PREC,
    MAX_TRACE_N,
    main,
)
from pentarc.rademacher import MAX_DEPTH_C, MAX_N


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out) if out else None


#: the documented domain lo..hi of each integer setting
DOMAINS = {"prec": (2, MAX_PREC), "big_m": (0, MAX_BIG_M), "big_n": (5, dmod.MAX_BIG_N), "depth_c": (1, MAX_DEPTH_C)}


def test_partition_euler(capsys):
    code, data = run_json(capsys, "partition", "5")
    assert code == 0
    assert data["results"][0]["value"] == "7"


def test_partition_methods_agree(capsys):
    code, data = run_json(capsys, "partition", "5", "--method", "trace:6", "--cross-check")
    assert code == 0
    assert data["results"][0]["value"] == "7"
    assert data["results"][0]["cross_check"]["agree"] is True
    code, data = run_json(capsys, "partition", "5", "--method", "rademacher:30", "--cross-check")
    assert code == 0
    rec = data["results"][0]
    assert rec["value"] == 7 and float(rec["gap"]) < 0.5


def test_partition_cross_check_failure_exits_1(capsys):
    # depth 1 is far too shallow for n = 30; rounding must go wrong
    code, data = run_json(capsys, "partition", "30", "--method", "rademacher:1", "--cross-check")
    assert code == 1
    assert data["results"][0]["cross_check"]["agree"] is False
    assert "diff" in data["results"][0]


def test_pnu_reports(capsys):
    code, data = run_json(capsys, "--prec", "8", "pnu", "6")
    assert code == 0
    res = data["results"]
    assert res["eisenstein_coefficient"] == "210"
    assert res["cusp_multiplier"] == "-33108590592/691"
    assert res["projections"][0]["a"] == "-33108590592/691"
    code, data = run_json(capsys, "--prec", "8", "pnu", "1")
    assert code == 0
    assert all(c == "0" for c in data["results"]["series"]["coeffs"])


def test_pnu_12_keeps_exact_values_as_strings(capsys):
    code, data = run_json(capsys, "--prec", "30", "pnu", "12")
    assert code == 0
    res = data["results"]
    assert res["eisenstein_coefficient"] == "646646"
    coeffs = res["series"]["coeffs"]
    assert len(coeffs) == 30 and all(isinstance(c, str) for c in coeffs)
    assert coeffs[0] == "646646"


def test_pnu_builds_one_bracket(capsys):
    """The projections read their traces from the cuspidal part ``pnu`` built."""
    for cached in (rankincohen.eta_bracket, hecke._longest_cusp, hecke.trace_series, hecke.eigenform_projections):
        cached.cache_clear()
    code, _ = run_json(capsys, "--prec", "120", "pnu", "12")
    assert code == 0
    assert rankincohen.eta_bracket.cache_info().misses == 1


def test_partition_builds_one_table(capsys):
    partitions.partition_table.cache_clear()
    code, data = run_json(capsys, "partition", "1..50", "--cross-check")
    assert code == 0 and len(data["results"]) == 50
    assert partitions.partition_table.cache_info().currsize == 1


@pytest.mark.parametrize(
    "argv, arg",
    [(["partition", "5..1"], "argument n"), (["rademacher", "3..2"], "argument n"),
     (["gpoly", "2", "1", "--k", "1..0"], "argument --k"), (["partition", "1..x"], "argument n"),
     (["partition", "5.."], "argument n"), (["gpoly", "2", "1", "--k=3.."], "argument --k"),
     (["partition", "-1..-5"], "argument n"), (["gpoly", "2", "1", "--k", "-1..x"], "argument --k")],
)
def test_empty_or_malformed_range_exits_2(capsys, argv, arg):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert arg in captured.err


@pytest.mark.parametrize(
    "content, named",
    [({"big_n": "60"}, "'big_n'"), ({"prec": True}, "'prec'"), ({"depth_c": 2.5}, "'depth_c'"),
     ({"fmt": "xml"}, "format"), ([1, 2], "JSON object")],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, content, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    code = main(["--config", str(cfg), "dirichlet", "6"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "bad configuration" in captured.err and named in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "content, line",
    [({"big_n": "x"}, "config key 'big_n' must be int | None, got 'x'"),
     ({"prec": True}, "config key 'prec' must be int, got True"),
     ({"fmt": 3}, "config key 'fmt' must be str, got 3")],
)
def test_config_type_error_lines(tmp_path, capsys, content, line):
    """The whole line, type names included: ``int | None`` is read from RunConfig's annotations."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    code = main(["--config", str(cfg), "dirichlet", "6"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pentarc: bad configuration: {line}\n"


def test_gpoly_values(capsys):
    code, data = run_json(capsys, "gpoly", "2", "1", "--k", "0..1")
    assert code == 0
    values = [r["value"] for r in data["results"]]
    assert values == ["181", "853"]


def test_trace_values(capsys):
    code, data = run_json(capsys, "trace", "6", "2")
    assert code == 0
    assert [r["value"] for r in data["results"]] == [
        "-33108590592/691",
        "794606174208/691",
    ]


def test_eigenforms_serialized(capsys):
    code, data = run_json(capsys, "eigenforms", "24")
    assert code == 0
    f1, f2 = data["results"]
    assert f1["d"] == 144169
    assert f1["coefficients"][2] == {"a": "540", "b": "-12", "d": 144169}
    assert f2["coefficients"][2] == {"a": "540", "b": "12", "d": 144169}


def test_dirichlet_small(capsys):
    code, data = run_json(capsys, "--big-m", "2", "--big-n", "60", "dirichlet", "6")
    assert code == 0
    rec = data["results"][0]
    assert rec["projection_exact"]["a"] == "-33108590592/691"
    assert data["big_m"] == 2 and data["big_n"] == 60
    assert float(rec["norm_estimate"]) > 0


@pytest.mark.parametrize("mode", ["wide:0", "wide:1", "wide:-3", "wide:x"])
def test_bad_float_mode_exits_2(capsys, mode):
    code = main(["--float-mode", mode, "dirichlet", "6"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--float-mode" in captured.err


@pytest.mark.parametrize("big_n", [0, 4, dmod.MAX_BIG_N + 1])
def test_big_n_out_of_range_exits_2(capsys, big_n):
    code = main(["--big-n", str(big_n), "dirichlet", "6"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--big-n" in captured.err


def test_corrupt_monomial_table_exits_3(capsys, monkeypatch):
    real = hecke.cusp_monomials

    def corrupted(weight, length):
        return [[v + 1 if m == 2 else v for m, v in enumerate(row)] for row in real(weight, length)]

    monkeypatch.setattr(hecke, "cusp_monomials", corrupted)
    dmod.embedded_eigenforms.cache_clear()
    try:
        code = main(["--big-m", "0", "--big-n", "61", "dirichlet", "6"])
    finally:
        dmod.embedded_eigenforms.cache_clear()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "internal assertion failed" in captured.err
    assert "Traceback" not in captured.err


def test_vanishing_recurrence_weight_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(partitions, "_weight_numerator", lambda weights, n, k: 0)
    code = main(["partition", "5", "--method", "trace:6"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "vanishing k=0 weight" in captured.err


def test_rademacher_range(capsys):
    code, data = run_json(capsys, "--depth-c", "20", "rademacher", "1..3")
    assert code == 0
    assert [r["nearest"] for r in data["results"]] == [1, 2, 3]
    assert all(r["depth"] == 20 for r in data["results"])


RADEMACHER_KEYS = {"n", "estimate", "nearest", "gap", "imag", "depth"}
PARTITION_KEYS = {"n", "method", "value", "estimate", "gap", "imag", "depth"}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["rademacher", "1..3"], RADEMACHER_KEYS),
        (["partition", "1..3", "--method", "rademacher:20"], PARTITION_KEYS),
        (["partition", "1..3", "--method", "rademacher:20", "--cross-check"], PARTITION_KEYS | {"cross_check"}),
    ],
)
def test_rademacher_record_fields(capsys, argv, keys):
    """Both commands' Rademacher records carry the same estimate fields."""
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert [set(r) for r in data["results"]] == [keys] * 3
    code, out = run_cli(capsys, "--format", "csv", *argv)
    assert code == 0
    flat = {"cross_check.agree", "cross_check.euler"} if "cross_check" in keys else set()
    assert out.splitlines()[0] == ",".join(sorted(keys - {"cross_check"} | flat))


def test_rademacher_beyond_binary64_exits_2(capsys):
    code = main(["rademacher", "80000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pentarc: argument n: n must lie in 1..{MAX_N}, got 80000\n"


def test_cli_import_loads_neither_numpy_nor_mpmath():
    """Nor the start-up costs no request needs: ``dataclasses`` (which loads ``inspect``), and
    ``csv``, which only ``--format csv`` reads.  Under -S no site hook can load or hide a module."""
    src = os.path.dirname(os.path.dirname(pentarc.__file__))
    unwanted = {"numpy", "mpmath", "dataclasses", "inspect", "csv"}
    probe = f"import sys, pentarc.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_verify_suite(capsys):
    code, data = run_json(capsys, "verify", "euler")
    assert code == 0
    assert data["results"]["ok"] is True


def test_verify_unknown_suite(capsys):
    code = main(["verify", "no-such-suite"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pentarc: unknown suite 'no-such-suite'; choose from {sorted(verify.SUITES)}\n"


#: each command, in help order, with its help line and every argument its usage names
HELP = {
    "partition": ("partition numbers by several methods", ["--method", "--cross-check", "n"]),
    "pnu": ("eta bracket with its exact decomposition", ["nu"]),
    "gpoly": ("recurrence weight polynomial values", ["--k", "nu", "n"]),
    "trace": ("exact trace values 1..N", ["nu", "n"]),
    "eigenforms": ("normalized Hecke eigenforms", ["weight"]),
    "dirichlet": ("truncated Dirichlet sums and norm estimates", ["nu"]),
    "rademacher": ("Kloosterman-Bessel partial sums for p(n)", ["n"]),
    "verify": ("run a named verification suite", ["suite"]),
}


def run_help(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    return captured.out


def test_help_lists_each_command_and_its_arguments(capsys):
    listed = re.findall(r"^    (\w+) +(\S.*)$", run_help(capsys), flags=re.MULTILINE)
    assert listed == [(name, text) for name, (text, _) in HELP.items()]
    for name, (_, arguments) in HELP.items():
        usage = run_help(capsys, name).split("\n\n", 1)[0]
        assert usage.startswith(f"usage: pentarc {name} ")
        assert set(arguments) <= set(re.findall(r"[\w-]+", usage)), name


def test_csv_columns_put_list_indices_in_numeric_order(capsys):
    code, out = run_cli(capsys, "--format", "csv", "pnu", "0")
    assert code == 0
    coeffs = [f"series.coeffs[{i}]" for i in range(60)]
    assert out.splitlines()[0].split(",") == ["eisenstein_coefficient", "nu", "prec", *coeffs,
                                              "series.offset", "series.prec"]


def test_usage_errors_exit_2(capsys):
    code, _ = run_cli(capsys, "partition", "5", "--method", "bogus")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_output_determinism(capsys):
    _, first = run_cli(capsys, "partition", "1..6", "--method", "trace:6")
    _, second = run_cli(capsys, "partition", "1..6", "--method", "trace:6")

    def strip_timing(text):
        data = json.loads(text)
        data.pop("timings")
        return json.dumps(data, sort_keys=True)

    assert strip_timing(first) == strip_timing(second)


def test_out_file_and_formats(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["--out", str(target), "partition", "4"])
    assert code == 0
    assert json.loads(target.read_text())["results"][0]["value"] == "5"
    code, out = run_cli(capsys, "--format", "csv", "gpoly", "2", "1", "--k", "0..2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["k", "n"]
    assert len(lines) == 4
    code, out = run_cli(capsys, "--format", "text", "partition", "3")
    assert code == 0
    assert "results[0].value: 3" in out


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["--out", str(target), "partition", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not target.exists()
    assert f"pentarc: cannot write --out {target}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name, raw", [("PENTARC_PREC", "abc"), ("PENTARC_FMT", "xml")])
def test_bad_environment_value_names_the_variable(capsys, monkeypatch, name, raw):
    monkeypatch.setenv(name, raw)
    code = main(["partition", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "bad configuration" in captured.err and name in captured.err
    assert "Traceback" not in captured.err


def test_env_and_config_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth_c": 5, "prec": 12}))
    monkeypatch.setenv("PENTARC_DEPTH_C", "7")
    code, data = run_json(capsys, "--config", str(cfg), "rademacher", "2")
    assert code == 0
    # env beats config
    assert data["results"][0]["depth"] == 7
    assert data["config"]["prec"] == 12
    # flag beats env
    code, data = run_json(capsys, "--config", str(cfg), "--depth-c", "9", "rademacher", "2")
    assert data["results"][0]["depth"] == 9


#: the message of each well-formed --method whose integer lies outside its domain
METHOD_OUTSIDE_DOMAIN = {
    "trace:1": "NU must lie in 2..200, got 1",
    "trace:201": "NU must lie in 2..200, got 201",
    "rademacher:0": "C must lie in 1..1000, got 0",
    "rademacher:1001": "C must lie in 1..1000, got 1001",
}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["partition", "3", "--method", method], "--method")
        for method in ("trace:x", "trace:", "trace:1", "rademacher:0", "foo")
    ]
    + [(["partition", "0", "--method", "trace:6"], "argument n")]
    + [
        (["partition", "3", "--method", method], "--method")
        for method in (f"trace:{MAX_NU + 1}", f"rademacher:{MAX_DEPTH_C + 1}")
    ]
    + [(["partition", "-3"], "argument n"), (["rademacher", "0"], "argument n")],
)
def test_bad_partition_method_exits_2(capsys, argv, named):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err
    if argv[-1] in METHOD_OUTSIDE_DOMAIN:
        assert captured.err == f"pentarc: argument --method: {METHOD_OUTSIDE_DOMAIN[argv[-1]]}\n"
    elif named == "--method":
        assert "trace:NU" in captured.err and "rademacher:C" in captured.err
    else:
        assert "n_max" not in captured.err


@pytest.mark.parametrize("argv", [["pnu", "X"], ["trace", "X", "5"], ["gpoly", "X", "1"]])
def test_nu_above_ceiling_exits_2(capsys, argv):
    lo = 2 if argv[0] == "trace" else 0
    argv = [str(MAX_NU + 1) if a == "X" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pentarc: argument nu: nu must lie in {lo}..{MAX_NU}, got {MAX_NU + 1}\n"


@pytest.mark.parametrize(
    "argv, named, message",
    [
        pytest.param(
            ["gpoly", str(MAX_NU), str(-MAX_GPOLY_N - 1)], "argument n",
            f"n must lie in {-MAX_GPOLY_N}..{MAX_GPOLY_N}, got {-MAX_GPOLY_N - 1}", id="argv0-argument n",
        ),
        pytest.param(
            ["gpoly", str(MAX_NU), "1", "--k", f"{MAX_GPOLY_K}..{MAX_GPOLY_K + 1}"], "argument --k",
            f"--k must lie in {-MAX_GPOLY_K}..{MAX_GPOLY_K}, got {MAX_GPOLY_K + 1}", id="argv1-argument --k",
        ),
        pytest.param(
            ["gpoly", str(MAX_NU), "1", f"--k={-MAX_GPOLY_K - 1}..{-MAX_GPOLY_K}"], "argument --k",
            f"--k must lie in {-MAX_GPOLY_K}..{MAX_GPOLY_K}, got {-MAX_GPOLY_K - 1}", id="argv2-argument --k",
        ),
        pytest.param(  # one value too many
            ["gpoly", str(MAX_NU), "1", f"--k=0..{MAX_GPOLY_K_COUNT}"], "argument --k",
            f"--k must hold 1..{MAX_GPOLY_K_COUNT} values, got {MAX_GPOLY_K_COUNT + 1}", id="argv3-argument --k",
        ),
    ],
)
def test_gpoly_argument_above_ceiling_exits_2(capsys, argv, named, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pentarc: {named}: {message}\n"


@pytest.mark.parametrize("n", [0, MAX_TRACE_N + 1])
def test_trace_n_outside_domain_exits_2(capsys, n):
    code = main(["trace", "6", str(n)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"pentarc: argument n: n must lie in 1..{MAX_TRACE_N}, got {n}" in captured.err


def test_trace_at_its_ceiling(capsys):
    # weight 14 has no cusp form, so the ceiling itself costs no bracket
    code, data = run_json(capsys, "trace", "7", str(MAX_TRACE_N))
    assert code == 0 and len(data["results"]) == MAX_TRACE_N


def test_gpoly_range_at_its_ceiling(capsys):
    code, data = run_json(capsys, "gpoly", "2", "1", f"--k=1..{MAX_GPOLY_K_COUNT}")
    assert code == 0 and len(data["results"]) == MAX_GPOLY_K_COUNT


def test_gpoly_at_its_ceilings_prints_every_digit(capsys):
    code, data = run_json(
        capsys, "gpoly", str(MAX_NU), str(-MAX_GPOLY_N), f"--k={-MAX_GPOLY_K}..{-MAX_GPOLY_K}"
    )
    assert code == 0 and len(data["results"][0]["value"]) > 4000


@pytest.mark.parametrize(
    "flag, key, ceiling, command",
    [("--prec", "prec", MAX_PREC, ["pnu", "6"]), ("--big-m", "big_m", MAX_BIG_M, ["dirichlet", "6"])],
)
def test_truncation_above_ceiling_exits_2(capsys, monkeypatch, tmp_path, flag, key, ceiling, command):
    value = ceiling + 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    env = "PENTARC_" + key.upper()
    # the flag, the environment and the config file all reach the same check
    for argv, env_value in (([flag, str(value)], None), ([], str(value)), (["--config", str(config)], None)):
        if env_value is None:
            monkeypatch.delenv(env, raising=False)
        else:
            monkeypatch.setenv(env, env_value)
        start = time.perf_counter()
        code = main(argv + command)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and elapsed < 1
        assert "pentarc: bad configuration: " in captured.err
        assert f"{flag} must lie in {DOMAINS[key][0]}..{ceiling}, got {value}" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "key, argv",
    [
        ("prec", ["--prec", str(MAX_PREC), "pnu", "0"]),
        ("big_m", ["--big-m", str(MAX_BIG_M), "--big-n", "5", "dirichlet", "6"]),
    ],
)
def test_truncation_at_its_ceiling(capsys, key, argv):
    code, data = run_json(capsys, *argv)
    assert code == 0 and data["config"][key] == int(argv[1])


MALFORMED_FLOAT_MODE = "--float-mode must be binary64 or wide:<dps> with integer dps in 15..1000"


@pytest.mark.parametrize(
    "mode, message",
    [
        (f"wide:{MAX_DPS + 1}", f"--float-mode dps must lie in 15..1000, got {MAX_DPS + 1}"),
        # int() refuses 5000 digits, and a superscript is no decimal digit: both are malformed
        ("wide:" + "9" * 5000, MALFORMED_FLOAT_MODE),
        ("wide:\u00b2", MALFORMED_FLOAT_MODE),
    ],
    ids=["ceiling+1", "5000-digits", "superscript"],
)
def test_float_mode_above_ceiling_exits_2(capsys, monkeypatch, tmp_path, mode, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"float_mode": mode}), encoding="utf-8")
    # the flag, the environment and the config file all reach the same check
    for argv, env_value in ((["--float-mode", mode], None), ([], mode), (["--config", str(config)], None)):
        if env_value is None:
            monkeypatch.delenv("PENTARC_FLOAT_MODE", raising=False)
        else:
            monkeypatch.setenv("PENTARC_FLOAT_MODE", env_value)
        start = time.perf_counter()
        code = main(argv + ["--big-m", "0", "--big-n", "5", "dirichlet", "6"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and elapsed < 1
        assert message in captured.err and "bad configuration" in captured.err
        assert "Traceback" not in captured.err


def test_float_mode_at_its_ceiling(capsys):
    code, data = run_json(capsys, "--float-mode", f"wide:{MAX_DPS}", "--big-m", "0", "--big-n", "5", "dirichlet", "6")
    assert code == 0 and data["config"]["float_mode"] == f"wide:{MAX_DPS}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", str(MAX_PARTITION_N + 1)], f"n must lie in 0..{MAX_PARTITION_N}, got {MAX_PARTITION_N + 1}"),
        (
            ["partition", f"1..{MAX_PARTITION_N + 1}", "--method", "rademacher:5"],
            f"n must lie in 1..{MAX_N}, got {MAX_PARTITION_N + 1}",
        ),
        (["partition", str(MAX_TRACE_N + 1), "--method", "trace:6"], f"n must lie in 1..{MAX_TRACE_N}, got {MAX_TRACE_N + 1}"),
    ],
    ids=["euler", "rademacher", "trace"],
)
def test_partition_n_above_ceiling_exits_2(capsys, argv, message):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and elapsed < 1
    assert captured.err == f"pentarc: argument n: {message}\n"


def test_partition_trace_method_at_its_ceiling(capsys):
    # weight 14 has no cusp form, so only the Euler table is built
    code, data = run_json(capsys, "partition", str(MAX_TRACE_N), "--method", "trace:7")
    assert code == 0 and data["results"][0]["n"] == MAX_TRACE_N


#: the documented domain lo..hi of each integer argument, in a request that puts it at X
ARGUMENTS = [
    (["partition", "X"], "n", 0, MAX_PARTITION_N),
    (["partition", "X", "--method", "trace:6"], "n", 1, MAX_TRACE_N),
    (["partition", "X", "--method", "rademacher:5"], "n", 1, MAX_N),
    (["pnu", "X"], "nu", 0, MAX_NU),
    (["gpoly", "X", "1"], "nu", 0, MAX_NU),
    (["gpoly", "2", "X"], "n", -MAX_GPOLY_N, MAX_GPOLY_N),
    (["gpoly", "2", "1", "--k=X"], "--k", -MAX_GPOLY_K, MAX_GPOLY_K),
    (["trace", "X", "5"], "nu", 2, MAX_NU),
    (["trace", "6", "X"], "n", 1, MAX_TRACE_N),
    (["rademacher", "X"], "n", 1, MAX_N),
    (["dirichlet", "X"], "nu", 6, 200),
    (["eigenforms", "X"], "weight", 12, 400),
]
#: the arguments that take a range a..b
RANGES = [case for case in ARGUMENTS if case[0][0] in ("partition", "rademacher") or case[1] == "--k"]


def outside_cases():
    """Each argument at lo - 1 and hi + 1, and each range argument with
    one end inside its domain and the other outside."""
    for argv, name, lo, hi in ARGUMENTS:
        for text, bad in ((str(lo - 1), lo - 1), (str(hi + 1), hi + 1)):
            yield pytest.param(argv, name, lo, hi, text, bad, id=f"{' '.join(argv)}:{text}")
    for argv, name, lo, hi in RANGES:
        for text, bad in ((f"{lo - 1}..{lo}", lo - 1), (f"{hi}..{hi + 1}", hi + 1)):
            yield pytest.param(argv, name, lo, hi, text, bad, id=f"{' '.join(argv)}:{text}")


@pytest.mark.parametrize("argv, name, lo, hi, text, bad", outside_cases())
def test_argument_outside_domain_exits_2_naming_it(capsys, argv, name, lo, hi, text, bad):
    code = main([a.replace("X", text) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pentarc: argument {name}: {name} must lie in {lo}..{hi}, got {bad}\n"


@pytest.mark.parametrize(
    "argv", [["pnu", "0"], ["trace", "2", "1"], ["trace", "2", str(MAX_TRACE_N)], ["gpoly", "0", "1"],
             ["partition", "0"], ["rademacher", str(MAX_N)], ["eigenforms", "12"], ["dirichlet", "6"]],
)
def test_argument_at_an_end_of_its_domain(capsys, argv):
    code, data = run_json(capsys, *argv)
    assert code == 0 and data["results"]


#: the integer inside a --method or --float-mode value, put at X, with the name its message
#: gives it and its domain lo..hi, written out
INNER_INTEGERS = [
    (["partition", "3", "--method", "trace:X"], "argument --method: NU", 2, 200),
    (["partition", "3", "--method", "rademacher:X"], "argument --method: C", 1, 1000),
    (["--float-mode", "wide:X", "--big-m", "0", "--big-n", "5", "dirichlet", "6"],
     "bad configuration: --float-mode dps", 15, 1000),
]


@pytest.mark.parametrize(
    "argv, name, lo, hi, bad",
    [
        pytest.param(argv, name, lo, hi, bad, id=f"{' '.join(argv)}:{bad}")
        for argv, name, lo, hi in INNER_INTEGERS
        for bad in (lo - 1, hi + 1)
    ],
)
def test_integer_inside_a_value_outside_its_domain_exits_2(capsys, argv, name, lo, hi, bad):
    code = main([a.replace("X", str(bad)) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pentarc: {name} must lie in {lo}..{hi}, got {bad}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", "-1..5"], "n must lie in 0..100000, got -1"),
        (["partition", "--", "-1..5"], "n must lie in 0..100000, got -1"),
        (["rademacher", "-3..2"], "n must lie in 1..76716, got -3"),
        (["partition", "-1..5", "--method", "trace:6"], "n must lie in 1..10000, got -1"),
    ],
)
def test_range_starting_below_zero_reaches_the_domain_check(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pentarc: argument n: {message}\n"


def test_gpoly_k_range_below_zero_as_a_separate_word(capsys):
    def without_timings(argv):
        code, data = run_json(capsys, *argv)
        data.pop("timings")
        return code, data

    code, data = without_timings(["gpoly", "2", "1", "--k", "-5..3"])
    assert code == 0 and [r["k"] for r in data["results"]] == list(range(-5, 4))
    assert (code, data) == without_timings(["gpoly", "2", "1", "--k=-5..3"])


@pytest.mark.parametrize("argv", [["rademacher", "1..80000"], ["partition", "1..80000", "--method", "rademacher:5"]])
def test_range_past_binary64_exits_2_before_any_work(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and elapsed < 1
    assert captured.err == f"pentarc: argument n: n must lie in 1..{MAX_N}, got 80000\n"


@pytest.mark.parametrize("n", ["3", "1..3000"])  # output inside and beyond stdout's buffer
def test_closed_stdout_exits_2_without_traceback(n):
    # stdout block-buffered, as on a plain pipe, so the flush at exit is exercised too
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pentarc.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pentarc.cli", "partition", n],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("pentarc: cannot write output: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("depth", [0, MAX_DEPTH_C + 1])
def test_depth_c_outside_domain_exits_2(capsys, monkeypatch, depth):
    for argv, env in ((["--depth-c", str(depth), "rademacher", "3"], None), (["rademacher", "3"], str(depth))):
        if env is not None:
            monkeypatch.setenv("PENTARC_DEPTH_C", env)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"--depth-c must lie in 1..{MAX_DEPTH_C}, got {depth}" in captured.err


SOURCES = ("config", "env", "flag")  # lowest precedence first


def grid(key):
    """Each integer setting at lo - 1, lo, hi and hi + 1, and at the smallest counts 0 and 1."""
    lo, hi = DOMAINS[key]
    return tuple(sorted({0, 1, lo - 1, lo, hi, hi + 1}))


def run_with_settings(config_path, given, command=("partition", "3")):
    """Run ``command`` with each value of ``given``, {(source, key): value},
    delivered by its source: a flag, a PENTARC_* variable or the config file."""
    argv, env, config = [], {}, {}
    for (source, key), value in given.items():
        if source == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        elif source == "env":
            env["PENTARC_" + key.upper()] = str(value)
        else:
            config[key] = value
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        code = main(["--config", str(config_path), *argv, *command])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("key, value", [(key, value) for key in DOMAINS for value in grid(key)])
def test_every_setting_is_checked_whatever_its_source(tmp_path, source, key, value):
    lo, hi = DOMAINS[key]
    code, out, err = run_with_settings(tmp_path / "config.json", {(source, key): value})
    if lo <= value <= hi:
        assert code == 0 and json.loads(out)["config"][key] == value
    else:
        assert code == 2 and out == ""
        assert "pentarc: bad configuration: " in err
        assert f"--{key.replace('_', '-')} must lie in {lo}..{hi}, got {value}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize(
    "key, value, command",
    [
        ("depth_c", 5000, ("partition", "3")),
        ("big_m", -1, ("rademacher", "3")),
        ("prec", 99999, ("dirichlet", "6")),
        ("prec", 1, ("pnu", "3")),
    ],
)
def test_setting_outside_domain_exits_2_whatever_the_command(tmp_path, source, key, value, command):
    code, out, err = run_with_settings(tmp_path / "config.json", {(source, key): value}, command)
    lo, hi = DOMAINS[key]
    assert code == 2 and out == ""
    assert f"--{key.replace('_', '-')} must lie in {lo}..{hi}, got {value}" in err


def test_out_has_no_environment_variable(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out.json"
    monkeypatch.setenv("PENTARC_OUT", str(target))
    code, data = run_json(capsys, "partition", "3")
    assert code == 0 and data["config"]["out"] is None and not target.exists()


@st.composite
def given_settings(draw):
    """Values for some (source, key) pairs, a key possibly from several sources."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(SOURCES), st.sampled_from(sorted(DOMAINS))), unique=True))
    return {(source, key): draw(st.sampled_from(grid(key))) for source, key in pairs}


SETTINGS_GRID = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@SETTINGS_GRID
@given(given_settings())
def test_exit_0_iff_every_given_setting_lies_in_its_domain(tmp_path_factory, given):
    config_path = tmp_path_factory.getbasetemp() / "settings-grid.json"
    code, out, err = run_with_settings(config_path, given)
    in_domain = all(DOMAINS[key][0] <= value <= DOMAINS[key][1] for (_, key), value in given.items())
    assert code == (0 if in_domain else 2) and "Traceback" not in err
    if in_domain:
        # the value echoed is the one of highest precedence
        echoed = json.loads(out)["config"]
        for (source, key), value in given.items():
            if all(SOURCES.index(other) <= SOURCES.index(source) for other, k in given if k == key):
                assert echoed[key] == value
    else:
        assert out == "" and "bad configuration" in err


@pytest.fixture
def change_first_eigenvector(monkeypatch):
    """Install a change of the first eigenvector that ``hecke.eigen_coordinates``
    returns; its readers' caches are cleared before and after."""
    real = hecke.eigen_coordinates
    readers = (dmod.embedded_eigenforms, hecke.eigenforms, hecke.eigenform_projections)

    def install(change):
        def changed(weight):
            d, coords = real(weight)
            return d, (change(coords[0]),) + coords[1:]

        monkeypatch.setattr(hecke, "eigen_coordinates", changed)
        for cached in readers:
            cached.cache_clear()

    yield install
    for cached in readers:
        cached.cache_clear()


def test_nonintegral_eigenform_coordinate_exits_3(capsys, change_first_eigenvector):
    change_first_eigenvector(lambda c: (c[0] + Fraction(1, 7),) + c[1:])
    code = main(["--big-m", "0", "--big-n", "61", "dirichlet", "12"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "internal assertion failed" in captured.err and "not an algebraic integer" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["eigenforms", "24"], ["pnu", "12"]])
@pytest.mark.parametrize(
    "change, message",
    [
        (lambda c: (c[0] + Fraction(1, 7),) + c[1:], "not an algebraic integer"),
        # a doubled eigenvector keeps every pair integral, so only the eigenform check sees it
        (lambda c: tuple(2 * x for x in c), "eigenform is not normalized"),
        # so does an integral shift between the coordinates, which keeps a(1) = 1
        (lambda c: (c[0] + 1, c[1] - 1), "T_2 eigenvector check failed"),
    ],
    ids=["nonintegral", "doubled", "shifted"],
)
def test_faulty_eigenvector_exits_3_on_every_reader(capsys, change_first_eigenvector, argv, change, message):
    change_first_eigenvector(change)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "internal assertion failed" in captured.err and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["eigenforms", "dirichlet"])
def test_huge_weight_exits_2_at_once(capsys, command):
    start = time.perf_counter()
    code = main([command, "100000000000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    domain = "weight: weight must lie in 12..400" if command == "eigenforms" else "nu: nu must lie in 6..200"
    assert captured.err == f"pentarc: argument {domain}, got 100000000000\n"
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dirichlet", "7"], "dim S_14 = 0 is not supported"),
        (["dirichlet", "18"], "dim S_36 = 3 is not supported"),
        (["eigenforms", "13"], "eigenforms needs an even weight >= 12"),
        (["eigenforms", "36"], "dim S_36 = 3 is not supported"),
    ],
)
def test_weight_in_domain_without_eigenforms_keeps_the_library_message(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"pentarc: {message}\n"


def test_flags_do_not_leak_between_requests(tmp_path):
    """One parser serves every request in a process; a flag given to one
    request leaves the next at its default."""

    def request(*argv):
        path = tmp_path / "out.json"
        assert main([*argv, "--out", str(path)]) == 0
        return json.loads(path.read_text(encoding="utf-8"))

    assert request("--big-n", "100", "dirichlet", "6")["big_n"] == 100
    assert request("dirichlet", "6")["big_n"] == 2000
    assert request("--prec", "30", "pnu", "6")["results"]["prec"] == 30
    assert request("pnu", "6")["results"]["prec"] == 60


def test_requests_sharing_partial_sums_print_what_fresh_processes_print(capsys):
    """A request that reads Dirichlet partial sums an earlier one summed, at
    another M or float mode, prints what it prints alone in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pentarc.__file__)))

    def without_timings(out):
        data = json.loads(out)
        data.pop("timings")
        return data

    for argv in (["dirichlet", "6"], ["--big-m", "50", "dirichlet", "6"], ["--float-mode", "wide:30", "dirichlet", "6"]):
        code, out = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "pentarc.cli", *argv], env=env, capture_output=True, text=True)
        assert (code, without_timings(out)) == (fresh.returncode, without_timings(fresh.stdout)), argv
        assert fresh.stderr == ""
