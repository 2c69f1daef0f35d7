import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import pentarc
from pentarc import dirichlet as dmod
from pentarc import partitions
from pentarc.cli import MAX_NU, main
from pentarc.rademacher import MAX_DEPTH_C


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out) if out else None


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


def test_partition_builds_one_table(capsys):
    partitions.partition_table.cache_clear()
    code, data = run_json(capsys, "partition", "1..50", "--cross-check")
    assert code == 0 and len(data["results"]) == 50
    assert partitions.partition_table.cache_info().currsize == 1


@pytest.mark.parametrize(
    "argv, arg",
    [(["partition", "5..1"], "argument n"), (["rademacher", "3..2"], "argument n"),
     (["gpoly", "2", "1", "--k", "1..0"], "argument --k"), (["partition", "1..x"], "argument n")],
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


@pytest.mark.parametrize("big_n", [0, dmod.MAX_BIG_N + 1])
def test_big_n_out_of_range_exits_2(capsys, big_n):
    code = main(["--big-n", str(big_n), "dirichlet", "6"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--big-n" in captured.err


def test_corrupt_monomial_table_exits_3(capsys, monkeypatch):
    real = dmod.cusp_monomial_coeffs

    def corrupted(dp, a4, b6, indices, mmax):
        values = real(dp, a4, b6, indices, mmax)
        return [v + 1 if m == 2 else v for m, v in zip(indices, values)]

    monkeypatch.setattr(dmod, "cusp_monomial_coeffs", corrupted)
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


def test_rademacher_beyond_binary64_exits_2(capsys):
    code = main(["rademacher", "80000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "p(80000)" in captured.err and "binary64" in captured.err
    assert "Traceback" not in captured.err


def test_cli_import_loads_neither_numpy_nor_mpmath():
    src = os.path.dirname(os.path.dirname(pentarc.__file__))
    probe = "import sys, pentarc.cli; print(sorted({'numpy', 'mpmath'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_verify_suite(capsys):
    code, data = run_json(capsys, "verify", "euler")
    assert code == 0
    assert data["results"]["ok"] is True


def test_verify_unknown_suite(capsys):
    code, _ = run_cli(capsys, "verify", "no-such-suite")
    assert code == 2


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
    assert first != second or first == second  # timings differ or collide; both fine


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
    ],
)
def test_bad_partition_method_exits_2(capsys, argv, named):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err
    if named == "--method":
        assert "trace:NU" in captured.err and "rademacher:C" in captured.err
    else:
        assert "n_max" not in captured.err


@pytest.mark.parametrize("argv", [["pnu", "X"], ["trace", "X", "5"], ["gpoly", "X", "1"]])
def test_nu_above_ceiling_exits_2(capsys, argv):
    argv = [str(MAX_NU + 1) if a == "X" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument nu" in captured.err and f"at most {MAX_NU}" in captured.err


@pytest.mark.parametrize("depth", [0, MAX_DEPTH_C + 1])
def test_depth_c_outside_domain_exits_2(capsys, monkeypatch, depth):
    for argv, env in ((["--depth-c", str(depth), "rademacher", "3"], None), (["rademacher", "3"], str(depth))):
        if env is not None:
            monkeypatch.setenv("PENTARC_DEPTH_C", env)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"--depth-c must lie in 1..{MAX_DEPTH_C}, got {depth}" in captured.err


def test_nonintegral_eigenform_coordinate_exits_3(capsys, monkeypatch):
    real = dmod._eigenform_monomial_coords

    def perturbed(nu):
        exps, coords = real(nu)
        first = (coords[0][0] + Fraction(1, 7),) + coords[0][1:]
        return exps, (first,) + coords[1:]

    monkeypatch.setattr(dmod, "_eigenform_monomial_coords", perturbed)
    dmod.embedded_eigenforms.cache_clear()
    try:
        code = main(["--big-m", "0", "--big-n", "61", "dirichlet", "12"])
    finally:
        dmod.embedded_eigenforms.cache_clear()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "internal assertion failed" in captured.err and "not an algebraic integer" in captured.err
    assert "Traceback" not in captured.err
