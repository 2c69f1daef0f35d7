"""Command-line interface.

Subcommands: the keys of ``COMMANDS``, in help order; each entry also holds the
command's help line, its handler, and its arguments with their argparse keywords
and domains.  JSON is the canonical output format (exact rationals as strings,
floats as 17-significant-digit strings); csv and text are flattened views.
Every record echoes the RunConfig that produced it; timing lives in its own
"timings" key so the rest of the output is byte-deterministic.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, get_type_hints

from . import dirichlet as dmod
from . import forms, hecke, partitions, rademacher, rankincohen, verify
from .errors import InternalCancellationError, NotInSpaceError, PentarcError
from .serialize import dumps, jsonable

ENV_PREFIX = "PENTARC_"
FORMATS = ("json", "csv", "text")
#: largest weight index nu accepted (``pnu``, ``trace``, ``gpoly`` and
#: ``--method trace:NU``): at 200, ``pnu`` takes about 0.4 s in-process (9 times
#: ``pnu 100``) and ``partition 3 --method trace:200`` 0.03 s, on 2 cores with Python 3.11
MAX_NU = 200
#: ceilings on |n| and |k| for ``gpoly``, whose value (``partitions.recurrence_weight``)
#: has a numerator at most |numerator of pref(nu)/(2nu)!| * sum |w_j| * (24|n| + (6k+1)^2)^nu.
#: At nu = MAX_NU, the worst nu, the first two factors are below 10^116 and 10^123 and the
#: base below 10^19.8, so every value has at most 4199 digits, inside Python's 4300-digit
#: limit on printing an int
MAX_GPOLY_N = 10**18
MAX_GPOLY_K = 10**9
#: values in one ``gpoly --k`` range: 3000 values at the n, k and nu ceilings take 2.1 s, 47 MB
MAX_GPOLY_K_COUNT = 3000
#: ``trace``'s n: ``trace 12 10000`` takes 2 s and 28 MB, ``trace 200 2000`` 6 s and 36 MB
MAX_TRACE_N = 10**4
#: ``partition``'s n: ``partition 100000`` takes 4.3 s and 30 MB, ``partition 40000`` 0.9 s
MAX_PARTITION_N = 10**5
#: ``--prec 10000 pnu 12`` takes 4 s and 28 MB, ``pnu 24`` 15 s, ``--prec 1000 pnu 200`` 22 s
MAX_PREC = 10**4
#: ``--big-m 10000 dirichlet 19`` takes 0.4 s and 74 MB, 1.7 s with ``--float-mode wide:30``
MAX_BIG_M = 10**4
#: dps of ``--float-mode wide:<dps>``: ``--big-m 10000 --float-mode wide:1000 dirichlet 19``
#: takes 2.2 s and 93 MB (1.7 s at wide:300); the weights are rounded to binary64 either way
MAX_DPS = 1000


class RunConfig(NamedTuple):
    prec: int = 60
    big_m: int = dmod.DEFAULT_BIG_M
    big_n: int | None = None  # None -> per-weight default
    depth_c: int = 50
    float_mode: str = "binary64"
    fmt: str = "json"
    out: str | None = None


def _parse_float_mode(mode: str) -> int | None:
    """The dps of ``--float-mode wide:<dps>``, whose domain ``_setting`` checks; None for binary64."""
    if mode == "binary64":
        return None
    kind, _, digits = str(mode).partition(":")
    try:
        if kind == "wide" and digits.isdecimal():
            return int(digits)
    except ValueError:  # int() refuses strings of over 4300 digits
        pass
    raise ValueError("--float-mode must be binary64 or wide:<dps> with integer dps in %d..%d, got %r"
                     % (*SETTINGS["dps"], mode))


#: each RunConfig field's type, read once: ``get_type_hints`` takes about 0.1 ms a call
_FIELD_TYPES = get_type_hints(RunConfig)
_TRACE_NU, _DEPTH_C = (2, MAX_NU), (1, rademacher.MAX_DEPTH_C)
#: the domain lo..hi of each integer setting, whatever the command ("dps" that of ``--float-mode
#: wide:<dps>``, below which mpmath is coarser than binary64).  ``big_n`` may also be None.
#: Each argument's domain is in ``COMMANDS``
SETTINGS = {"prec": (2, MAX_PREC), "big_m": (0, MAX_BIG_M), "big_n": (dmod.MIN_BIG_N, dmod.MAX_BIG_N),
            "depth_c": _DEPTH_C, "dps": (15, MAX_DPS)}


def _check_domain(name: str, value, domain: tuple, where: str = "") -> None:
    """``value``, an integer or a range (checked at both ends), in ``domain``: the one domain
    check of settings and arguments alike.  Its message names ``name``, after ``where``."""
    lo, hi, *count = domain
    for end in (value[0], value[-1]) if isinstance(value, range) else (value,):
        if not lo <= end <= hi:
            raise ValueError(f"{where}{name} must lie in {lo}..{hi}, got {end}")
    if count and len(value) > count[0]:
        raise ValueError(f"{where}{name} must hold 1..{count[0]} values, got {len(value)}")


def _setting(key: str, value):
    """``value`` as RunConfig field ``key``, if it lies in the field's domain.
    Every source of a setting passes through here, whatever the command."""
    if key == "float_mode" and (dps := _parse_float_mode(value)) is not None:
        _check_domain("--float-mode dps", dps, SETTINGS["dps"])
    elif key in SETTINGS and value is not None:
        _check_domain("--" + key.replace("_", "-"), value, SETTINGS[key])
    elif key == "fmt" and value not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {value!r}")
    return value


def _config_from(args: argparse.Namespace) -> RunConfig:
    """Flags win over environment variables, which win over the config file;
    a value is checked wherever it comes from, even when it is overridden."""
    values = RunConfig()._asdict()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, expected in _FIELD_TYPES.items():
            if key in loaded:
                value = loaded[key]
                # bool is an int subclass, but true/false is never a count
                if isinstance(value, bool) or not isinstance(value, expected):
                    name = expected.__name__ if isinstance(expected, type) else str(expected)
                    raise ValueError(f"config key {key!r} must be {name}, got {value!r}")
                try:
                    values[key] = _setting(key, value)
                except ValueError as exc:
                    raise ValueError(f"config key {key!r}: {exc}") from None
    for key in _FIELD_TYPES:
        name = ENV_PREFIX + key.upper()
        raw = os.environ.get(name) if key != "out" else None  # --out has no environment variable
        if raw is not None:
            try:
                values[key] = _setting(key, int(raw) if key in SETTINGS else raw)
            except ValueError as exc:
                raise ValueError(f"environment variable {name}: {exc}") from None
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _setting(key, flag)
    return RunConfig(**values)


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
    if fmt == "json":
        return dumps(payload)
    data = jsonable(payload)
    if fmt == "text":
        flat = _flat(data)
        return "".join(f"{k}: {v}\n" for k, v in flat.items())
    import csv  # csv, the one format left (_setting admits no other), loads only when asked for
    rows = data.get("results", [])
    if isinstance(rows, dict):
        rows = [rows]
    flat_rows = [_flat(r) for r in rows]
    # list indices compare as integers ([2] before [10]), the rest as the strings they are
    columns = {k for r in flat_rows for k in r}
    header = sorted(columns, key=lambda k: re.sub(r"(?<=\[)\d+(?=\])", lambda m: m[0].zfill(20), k))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in flat_rows:
        writer.writerow([r.get(k, "") for k in header])
    return buf.getvalue()


def _emit(payload: dict, cfg: RunConfig) -> None:
    text = _render(payload, cfg.fmt)
    try:
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if cfg.out:
            raise ValueError(f"cannot write --out {cfg.out}: {exc.strerror or exc}") from None
        # the reader is gone (a closed pipe): send what stdout still buffers,
        # and the flush at interpreter exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write output: {exc.strerror or exc}") from None


def _int_range(text: str) -> range:
    """An index "n" or a nonempty inclusive range "a..b" (argparse type)."""
    lo, dots, hi = text.partition("..")
    try:
        out = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or a range a..b, got {text!r}") from None
    if not out:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: the end is below the start")
    return out


def _parse_method(method: str) -> tuple[str, int]:
    """--method as (kind, integer): ("euler", 0), ("trace", NU) or ("rademacher", C).
    The integer's domain is checked with the other arguments'."""
    if method == "euler":
        return "euler", 0
    kind, _, raw = method.partition(":")
    try:
        if kind in ("trace", "rademacher"):
            return kind, int(raw)
    except ValueError:
        pass
    raise ValueError("--method must be euler, trace:NU with integer NU in %d..%d or rademacher:C "
                     "with integer C in %d..%d, got %r" % (*_TRACE_NU, *_DEPTH_C, method))


def _check_arguments(args: argparse.Namespace) -> None:
    """Every integer argument of the request in its ``COMMANDS`` domain, whatever the command,
    before the command does any work; --method is parsed here, once, into args.kind and .value."""
    arguments = COMMANDS[args.command][2]
    if "--method" in arguments:
        args.kind, args.value = _parse_method(args.method)
    for name, (_, domain) in arguments.items():
        if isinstance(domain, dict):  # one domain per --method kind
            domain = domain.get(args.kind)
        if domain and name == "--method":  # the domain of the NU or C inside it
            _check_domain("NU" if args.kind == "trace" else "C", args.value, domain, "argument --method: ")
        elif domain:
            _check_domain(name, getattr(args, name.lstrip("-")), domain, f"argument {name}: ")


def _rademacher_record(n: int, depth: int) -> dict:
    """Every field of ``rademacher_pn(n, depth)``, with n: the record of
    ``rademacher`` and of ``partition --method rademacher:C``."""
    return {"n": n, **rademacher.rademacher_pn(n, depth)._asdict()}


def _partition_by_method(n: int, method: str, kind: str, value: int, table, traces) -> dict:
    if kind == "euler":
        return {"n": n, "method": "euler", "value": Fraction(table.p(n))}
    if kind == "trace":
        return {"n": n, "method": method, "value": partitions.recurrence_rhs(value, n, traces.value(n), table)}
    record = _rademacher_record(n, value)
    record["method"], record["value"] = method, record.pop("nearest")
    return record


def cmd_partition(args, cfg: RunConfig) -> tuple[dict, int]:
    ns, kind, value = args.n, args.kind, args.value
    table = traces = None
    if args.cross_check or kind != "rademacher":
        # one table serves every n of the request
        table = partitions.partition_table(max(ns))
    if kind == "trace":
        traces = hecke.trace_series(value, max(ns))
    results, code = [], 0
    for n in ns:
        record = _partition_by_method(n, args.method, kind, value, table, traces)
        if args.cross_check:
            baseline = Fraction(table.p(n))
            agree = record["value"] == table.p(n)
            record["cross_check"] = {"euler": baseline, "agree": agree}
            if not agree:
                record["diff"] = record["value"] - baseline
                code = 1
        results.append(record)
    return {"results": results}, code


def cmd_pnu(args, cfg: RunConfig) -> tuple[dict, int]:
    nu, prec = args.nu, cfg.prec
    bracket = rankincohen.eta_bracket_from_partitions(nu, prec)
    record: dict = {
        "nu": nu,
        "prec": prec,
        "series": bracket,
        "eisenstein_coefficient": bracket.coeff(0),
    }
    if nu >= 2:
        record["monomial_coordinates"] = forms.decompose(bracket, forms.space_basis(2 * nu, prec))
        # the cusp coordinates are traces 1..dim_cusp, from the series the projections read
        dim_cusp = forms.dim_cusp(2 * nu)
        traces = hecke.trace_series(nu, max(dim_cusp, 1))
        record["cusp_coordinates"] = list(traces.values[1 : dim_cusp + 1])
        if dim_cusp == 1:
            record["cusp_multiplier"] = traces.value(1)
        if dim_cusp in (1, 2):
            record["projections"] = list(hecke.eigenform_projections(nu))
    return {"results": record}, 0


def cmd_gpoly(args, cfg: RunConfig) -> tuple[dict, int]:
    results = [{"nu": args.nu, "n": args.n, "k": k, "value": partitions.recurrence_weight(args.nu, args.n, k)}
               for k in args.k]
    return {"results": results}, 0


def cmd_trace(args, cfg: RunConfig) -> tuple[dict, int]:
    series = hecke.trace_series(args.nu, args.n)
    results = [{"n": n, "value": series.value(n)} for n in range(1, args.n + 1)]
    return {"nu": args.nu, "results": results}, 0


def cmd_eigenforms(args, cfg: RunConfig) -> tuple[dict, int]:
    fs = hecke.eigenforms(args.weight)
    return {"results": [{"weight": f.weight, "d": f.disc, "coefficients": list(f.coeffs)} for f in fs]}, 0


def cmd_dirichlet(args, cfg: RunConfig) -> tuple[dict, int]:
    est = dmod.petersson_norm_estimate(args.nu, cfg.big_m, cfg.big_n, _parse_float_mode(cfg.float_mode))
    results = [
        {"eigenform": i + 1, "double_sum": value, "projection_exact": gamma, "norm_estimate": norm}
        for i, (value, gamma, norm) in enumerate(zip(est.double_sums, est.projections, est.estimates))
    ]
    return {"nu": args.nu, "big_m": est.big_m, "big_n": est.big_n, "results": results}, 0


def cmd_rademacher(args, cfg: RunConfig) -> tuple[dict, int]:
    results = [_rademacher_record(n, cfg.depth_c) for n in args.n]
    return {"results": results}, 0


def cmd_verify(args, cfg: RunConfig) -> tuple[dict, int]:
    report = verify.run_suite(args.suite)
    return {"results": report}, 0 if report["ok"] else 1


_INT, _RANGE = {"type": int}, {"type": _int_range, "help": "index or inclusive range a..b"}
#: each subcommand, in help order: (help line, handler, {argument: (argparse keywords, domain)}).
#: A domain is lo..hi, with a third entry capping how many values a range holds (a range lies in
#: its domain at both ends), or None.  Partition's domains are per --method kind: that of
#: --method is the one of the NU in trace:NU (trace nu's) or the C in rademacher:C (--depth-c's),
#: checked before n's
COMMANDS = {
    "partition": ("partition numbers by several methods", cmd_partition, {
        "--method": ({"default": "euler", "help": "euler | trace:NU | rademacher:C"},
                     {"trace": _TRACE_NU, "rademacher": _DEPTH_C}),
        "n": (_RANGE, {"euler": (0, MAX_PARTITION_N), "trace": (1, MAX_TRACE_N),
                       "rademacher": (1, rademacher.MAX_N)}),
        "--cross-check": ({"action": "store_true"}, None)}),
    "pnu": ("eta bracket with its exact decomposition", cmd_pnu, {"nu": (_INT, (0, MAX_NU))}),
    "gpoly": ("recurrence weight polynomial values", cmd_gpoly, {
        "nu": (_INT, (0, MAX_NU)),
        "n": (_INT, (-MAX_GPOLY_N, MAX_GPOLY_N)),
        "--k": ({**_RANGE, "default": range(1)}, (-MAX_GPOLY_K, MAX_GPOLY_K, MAX_GPOLY_K_COUNT))}),
    "trace": ("exact trace values 1..N", cmd_trace, {"nu": (_INT, _TRACE_NU), "n": (_INT, (1, MAX_TRACE_N))}),
    "eigenforms": ("normalized Hecke eigenforms", cmd_eigenforms, {"weight": (_INT, (12, 2 * MAX_NU))}),
    "dirichlet": ("truncated Dirichlet sums and norm estimates", cmd_dirichlet, {"nu": (_INT, (6, MAX_NU))}),
    "rademacher": ("Kloosterman-Bessel partial sums for p(n)", cmd_rademacher,
                   {"n": (_RANGE, (1, rademacher.MAX_N))}),
    "verify": ("run a named verification suite", cmd_verify,
               {"suite": ({"help": "|".join(sorted(verify.SUITES))}, None)}),
}


def _shared_options() -> argparse.ArgumentParser:
    # SUPPRESS keeps the subparser from clobbering flags given before the
    # subcommand with its own defaults
    S = argparse.SUPPRESS
    shared = argparse.ArgumentParser(add_help=False)
    for key, text in (("prec", "q-coefficients (default 60)"), ("big_m", "Dirichlet M"),
                      ("big_n", "Dirichlet n-truncation"), ("depth_c", "Kloosterman depth C")):
        help_text = "%s, %d..%d" % (text, *SETTINGS[key])
        shared.add_argument("--" + key.replace("_", "-"), dest=key, type=int, default=S, help=help_text)
    shared.add_argument("--float-mode", dest="float_mode", default=S, help="binary64 (default) or "
                        "wide:<dps>, dps in %d..%d, for mpmath weight evaluation" % SETTINGS["dps"])
    shared.add_argument("--format", dest="fmt", choices=FORMATS, default=S)
    shared.add_argument("--out", default=S, help="write output to a file instead of stdout")
    shared.add_argument("--config", default=S, help="optional JSON config file (flags win)")
    return shared


class _Parser(argparse.ArgumentParser):
    """Reads "-" and a digit as a value, as no option starts so: "-1..5" is a range starting below 0."""
    def _parse_optional(self, arg):  # the subcommands' parsers are of this class too
        return None if arg[:1] == "-" and arg[1:2].isdigit() else super()._parse_optional(arg)


@lru_cache(maxsize=1)  # parsing leaves the parser as it is, so every request shares one
def build_parser() -> argparse.ArgumentParser:
    shared = _shared_options()
    parser = _Parser(
        prog="pentarc",
        parents=[shared],
        description="Exact pentagonal partition recurrences, eta-bracket "
        "decompositions, twisted Dirichlet sums, and Kloosterman-Bessel p(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[shared])
        for argument, (keywords, _) in arguments.items():
            p.add_argument(argument, **keywords)
        p.set_defaults(func=handler)
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
        _check_arguments(args)
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
    payload["command"], payload["config"] = args.command, cfg._asdict()
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
