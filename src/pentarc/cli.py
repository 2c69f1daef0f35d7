"""Command-line interface.

Subcommands: partition, pnu, gpoly, trace, eigenforms, dirichlet, rademacher,
verify.  JSON is the canonical output format (exact rationals as strings,
floats as 17-significant-digit strings); csv and text are flattened views.
Every record echoes the RunConfig that produced it; timing lives in its own
"timings" key so the rest of the output is byte-deterministic.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import get_type_hints

from . import dirichlet as dmod
from . import forms, hecke, partitions, rademacher, rankincohen, verify
from .errors import InternalCancellationError, NotInSpaceError, PentarcError
from .qseries import DEFAULT_PREC
from .serialize import jsonable

ENV_PREFIX = "PENTARC_"
FORMATS = ("json", "csv", "text")
#: largest weight index nu accepted (``pnu``, ``trace``, ``gpoly`` and
#: ``--method trace:NU``): at 200, ``pnu`` takes about 5 s and
#: ``partition 3 --method trace:200`` about 1 s, both growing faster than nu^2
MAX_NU = 200


@dataclass(frozen=True)
class RunConfig:
    prec: int = DEFAULT_PREC
    big_m: int = dmod.DEFAULT_BIG_M
    big_n: int | None = None  # None -> per-weight default
    depth_c: int = 50
    float_mode: str = "binary64"
    fmt: str = "json"
    out: str | None = None

    @cached_property
    def dps(self) -> int | None:
        """Decimal digits of the wide float mode; None for binary64."""
        return _parse_float_mode(self.float_mode)


def _parse_float_mode(mode: str) -> int | None:
    if mode == "binary64":
        return None
    kind, _, digits = str(mode).partition(":")
    # below 15 digits mpmath is coarser than the binary64 weights it replaces
    if kind != "wide" or not digits.isdigit() or int(digits) < 15:
        raise ValueError(f"--float-mode must be binary64 or wide:<dps> with integer dps >= 15, got {mode!r}")
    return int(digits)


def _config_from(args: argparse.Namespace) -> RunConfig:
    """Flags win over environment variables, which win over the config file."""
    values = asdict(RunConfig())
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        types = get_type_hints(RunConfig)
        for key in values:
            if key in loaded:
                value, expected = loaded[key], types[key]
                # bool is an int subclass, but true/false is never a count
                if isinstance(value, bool) or not isinstance(value, expected):
                    name = expected.__name__ if isinstance(expected, type) else str(expected)
                    raise ValueError(f"config key {key!r} must be {name}, got {value!r}")
                values[key] = value
    env_keys = {
        "prec": int,
        "big_m": int,
        "big_n": int,
        "depth_c": int,
        "float_mode": _check_float_mode,
        "fmt": _check_fmt,
    }
    for key, conv in env_keys.items():
        name = ENV_PREFIX + key.upper()
        raw = os.environ.get(name)
        if raw is not None:
            try:
                values[key] = conv(raw)
            except ValueError as exc:
                raise ValueError(f"environment variable {name}: {exc}") from None
    for key in ("prec", "big_m", "big_n", "depth_c", "float_mode", "fmt", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(**values)
    cfg.dps  # parses --float-mode, so a bad value fails before any command runs
    _check_fmt(cfg.fmt)
    return cfg


def _check_float_mode(mode: str) -> str:
    _parse_float_mode(mode)
    return mode


def _check_fmt(fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    return fmt


def _flat(obj, prefix=""):
    items = {}
    if isinstance(obj, dict):
        for k in sorted(obj):
            items.update(_flat(obj[k], f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            items.update(_flat(v, f"{prefix}[{i}]"))
    else:
        items[prefix] = obj
    return items


def _render(payload: dict, fmt: str) -> str:
    data = jsonable(payload)
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        flat = _flat(data)
        return "".join(f"{k}: {v}\n" for k, v in flat.items())
    if fmt == "csv":
        rows = data.get("results", [])
        if isinstance(rows, dict):
            rows = [rows]
        flat_rows = [_flat(r) for r in rows]
        header = sorted({k for r in flat_rows for k in r})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for r in flat_rows:
            writer.writerow([r.get(k, "") for k in header])
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def _emit(payload: dict, cfg: RunConfig) -> None:
    text = _render(payload, cfg.fmt)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {cfg.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _int_range(text: str) -> range:
    """An index "n" or a nonempty inclusive range "a..b" (argparse type)."""
    lo, _, hi = text.partition("..")
    try:
        out = range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or a range a..b, got {text!r}") from None
    if not out:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: the end is below the start")
    return out


def _nu(text: str) -> int:
    """A weight index nu, at most MAX_NU (argparse type); the commands
    check the lower bound."""
    try:
        nu = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if nu > MAX_NU:
        raise argparse.ArgumentTypeError(f"nu must be at most {MAX_NU}, got {nu}")
    return nu


def _parse_method(method: str) -> tuple[str, int]:
    """--method as (kind, integer): ("euler", 0), ("trace", NU) with
    2 <= NU <= MAX_NU or ("rademacher", C) with 1 <= C <= MAX_DEPTH_C."""
    if method == "euler":
        return "euler", 0
    kind, _, raw = method.partition(":")
    bounds = {"trace": (2, MAX_NU), "rademacher": (1, rademacher.MAX_DEPTH_C)}.get(kind)
    try:
        value = int(raw)
    except ValueError:
        value = None
    if bounds is None or value is None or not bounds[0] <= value <= bounds[1]:
        raise ValueError(
            f"--method must be euler, trace:NU with integer NU in 2..{MAX_NU} or rademacher:C "
            f"with integer C in 1..{rademacher.MAX_DEPTH_C}, got {method!r}"
        )
    return kind, value


def _partition_by_method(n: int, method: str, kind: str, value: int, table, traces) -> dict:
    if kind == "euler":
        return {"n": n, "method": "euler", "value": Fraction(table.p(n))}
    if kind == "trace":
        trace = traces.value(n) if traces is not None else Fraction(0)
        return {"n": n, "method": method, "value": partitions.recurrence_rhs(value, n, trace, table)}
    est = rademacher.rademacher_pn(n, value)
    return {
        "n": n,
        "method": method,
        "value": est.nearest,
        "estimate": est.estimate,
        "gap": est.gap,
        "imag": est.imag,
        "depth": est.depth,
    }


def cmd_partition(args, cfg: RunConfig) -> tuple[dict, int]:
    ns = args.n
    kind, value = _parse_method(args.method)
    if kind != "euler" and ns[0] < 1:
        raise ValueError(f"argument n: --method {args.method} needs n >= 1, got {ns[0]}")
    table = traces = None
    if args.cross_check or kind != "rademacher":
        # one table serves every n of the request
        table = partitions.partition_table(max(ns))
    if kind == "trace" and forms.dim_cusp(2 * value):
        traces = hecke.trace_series(value, max(ns))
    results, code = [], 0
    for n in ns:
        record = _partition_by_method(n, args.method, kind, value, table, traces)
        if args.cross_check:
            baseline = Fraction(table.p(n))
            agree = Fraction(record["value"]) == baseline
            record["cross_check"] = {"euler": baseline, "agree": agree}
            if not agree:
                record["diff"] = Fraction(record["value"]) - baseline
                code = 1
        results.append(record)
    return {"command": "partition", "results": results}, code


def cmd_pnu(args, cfg: RunConfig) -> tuple[dict, int]:
    nu, prec = args.nu, cfg.prec
    bracket = rankincohen.eta_bracket(nu, prec)
    record: dict = {
        "nu": nu,
        "prec": prec,
        "series": bracket,
        "eisenstein_coefficient": bracket.coeff(0),
    }
    if nu >= 2:
        space = forms.space_basis(2 * nu, prec)
        record["monomial_coordinates"] = forms.decompose(bracket, space)
        c = comb(2 * nu - 2, nu - 2)
        cusp = bracket - forms.eisenstein(2 * nu, prec).scale(c)
        record["cusp_coordinates"] = [cusp.coeff(i + 1) for i in range(space.dim_cusp)]
        if space.dim_cusp == 1:
            record["cusp_multiplier"] = cusp.coeff(1)
        if space.dim_cusp in (1, 2):
            record["projections"] = list(hecke.eigenform_projections(nu))
    return {"command": "pnu", "results": record}, 0


def cmd_gpoly(args, cfg: RunConfig) -> tuple[dict, int]:
    results = [
        {"nu": args.nu, "n": args.n, "k": k, "value": partitions.recurrence_weight(args.nu, args.n, k)}
        for k in args.k
    ]
    return {"command": "gpoly", "results": results}, 0


def cmd_trace(args, cfg: RunConfig) -> tuple[dict, int]:
    series = hecke.trace_series(args.nu, args.n)
    results = [{"n": n, "value": series.value(n)} for n in range(1, args.n + 1)]
    return {"command": "trace", "nu": args.nu, "results": results}, 0


def cmd_eigenforms(args, cfg: RunConfig) -> tuple[dict, int]:
    fs = hecke.eigenforms(args.weight)
    results = [
        {"weight": f.weight, "d": f.disc, "coefficients": list(f.coeffs)} for f in fs
    ]
    return {"command": "eigenforms", "results": results}, 0


def cmd_dirichlet(args, cfg: RunConfig) -> tuple[dict, int]:
    nu = args.nu
    big_n = cfg.big_n if cfg.big_n is not None else dmod.default_big_n(nu)
    if not 1 <= big_n <= dmod.MAX_BIG_N:
        raise ValueError(f"--big-n must lie in 1..{dmod.MAX_BIG_N}, got {big_n}")
    est = dmod.petersson_norm_estimate(nu, cfg.big_m, big_n, cfg.dps)
    results = [
        {"eigenform": i + 1, "double_sum": value, "projection_exact": gamma, "norm_estimate": norm}
        for i, (value, gamma, norm) in enumerate(zip(est.double_sums, est.projections, est.estimates))
    ]
    payload = {
        "command": "dirichlet",
        "nu": nu,
        "big_m": cfg.big_m,
        "big_n": big_n,
        "results": results,
    }
    return payload, 0


def cmd_rademacher(args, cfg: RunConfig) -> tuple[dict, int]:
    if not 1 <= cfg.depth_c <= rademacher.MAX_DEPTH_C:
        raise ValueError(f"--depth-c must lie in 1..{rademacher.MAX_DEPTH_C}, got {cfg.depth_c}")
    results = []
    for n in args.n:
        est = rademacher.rademacher_pn(n, cfg.depth_c)
        results.append(
            {
                "n": n,
                "estimate": est.estimate,
                "nearest": est.nearest,
                "gap": est.gap,
                "imag": est.imag,
                "depth": est.depth,
            }
        )
    return {"command": "rademacher", "results": results}, 0


def cmd_verify(args, cfg: RunConfig) -> tuple[dict, int]:
    try:
        report = verify.run_suite(args.suite)
    except KeyError as exc:
        raise ValueError(str(exc)) from exc
    payload = {"command": "verify", "results": report}
    return payload, 0 if report["ok"] else 1


def _shared_options() -> argparse.ArgumentParser:
    # SUPPRESS keeps the subparser from clobbering flags given before the
    # subcommand with its own defaults
    S = argparse.SUPPRESS
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--prec", type=int, default=S, help="integer q-coefficients (default 60)")
    shared.add_argument("--big-m", dest="big_m", type=int, default=S, help="Dirichlet m-truncation")
    shared.add_argument(
        "--big-n", dest="big_n", type=int, default=S,
        help=f"Dirichlet n-truncation, 1..{dmod.MAX_BIG_N}",
    )
    shared.add_argument(
        "--depth-c", dest="depth_c", type=int, default=S,
        help=f"Kloosterman depth C, 1..{rademacher.MAX_DEPTH_C}",
    )
    shared.add_argument(
        "--float-mode", dest="float_mode", default=S,
        help="binary64 (default) or wide:<dps>, dps >= 15, for mpmath weight evaluation",
    )
    shared.add_argument("--format", dest="fmt", choices=FORMATS, default=S)
    shared.add_argument("--out", default=S, help="write output to a file instead of stdout")
    shared.add_argument("--config", default=S, help="optional JSON config file (flags win)")
    return shared


def build_parser() -> argparse.ArgumentParser:
    shared = _shared_options()
    parser = argparse.ArgumentParser(
        prog="pentarc",
        parents=[shared],
        description="Exact pentagonal partition recurrences, eta-bracket "
        "decompositions, twisted Dirichlet sums, and Kloosterman-Bessel p(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[shared])

    p = add("partition", "partition numbers by several methods")
    p.add_argument("n", type=_int_range, help="index or inclusive range a..b")
    p.add_argument("--method", default="euler", help="euler | trace:NU | rademacher:C")
    p.add_argument("--cross-check", action="store_true", dest="cross_check")
    p.set_defaults(func=cmd_partition)

    p = add("pnu", "eta bracket with its exact decomposition")
    p.add_argument("nu", type=_nu)
    p.set_defaults(func=cmd_pnu)

    p = add("gpoly", "recurrence weight polynomial values")
    p.add_argument("nu", type=_nu)
    p.add_argument("n", type=int)
    p.add_argument("--k", type=_int_range, default=range(1), help="index or inclusive range a..b")
    p.set_defaults(func=cmd_gpoly)

    p = add("trace", "exact trace values 1..N")
    p.add_argument("nu", type=_nu)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_trace)

    p = add("eigenforms", "normalized Hecke eigenforms")
    p.add_argument("weight", type=int)
    p.set_defaults(func=cmd_eigenforms)

    p = add("dirichlet", "truncated Dirichlet sums and norm estimates")
    p.add_argument("nu", type=int)
    p.set_defaults(func=cmd_dirichlet)

    p = add("rademacher", "Kloosterman-Bessel partial sums for p(n)")
    p.add_argument("n", type=_int_range, help="index or inclusive range a..b")
    p.set_defaults(func=cmd_rademacher)

    p = add("verify", "run a named verification suite")
    p.add_argument("suite", help="|".join(sorted(verify.SUITES)))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"pentarc: bad configuration: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        payload, code = args.func(args, cfg)
    except InternalCancellationError as exc:
        print(f"pentarc: internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except NotInSpaceError as exc:
        print(f"pentarc: verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, PentarcError) as exc:
        print(f"pentarc: {exc}", file=sys.stderr)
        return 2
    payload["config"] = asdict(cfg)
    payload["timings"] = {"seconds": time.perf_counter() - start}
    try:
        _emit(payload, cfg)
    except ValueError as exc:
        print(f"pentarc: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
