"""Named verification suites over the module invariants.

Each check is a deterministic pass/fail predicate returning a short detail
string; suites group them for the CLI.  Checks are sized to finish the whole
run comfortably inside desk-scale time.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

from . import dirichlet as dmod
from . import forms, hecke, partitions, qseries, rademacher, rankincohen
from .exactnum import QuadNum, kronecker_symbol

#: the six exact cusp multipliers for the one-dimensional weights
CUSP_MULTIPLIERS = {
    6: Fraction(-33108590592, 691),
    8: Fraction(-187167592415232, 3617),
    9: Fraction(-28682634201661440, 43867),
    10: Fraction(-8294726176465158144, 174611),
    11: Fraction(-101475065073734516736, 77683),
    13: Fraction(-1195065734266339700244480, 657931),
}

_SEED = 723094


def check_euler() -> tuple[bool, str]:
    """Recurrence table vs generating-function inverse, 200 coefficients."""
    n = 200
    table = partitions.partition_table(n)
    series = qseries.euler_expansion(n + 1).invert()
    ok = all(series.coeff(i) == table.p(i) for i in range(n + 1))
    return ok, f"p(n) matches series inverse through n={n}"


def check_pentagonal_theorem() -> tuple[bool, str]:
    prec24 = 24 * 100
    ok = qseries.eta_expansion(prec24).agrees_with(qseries.eta_product_expansion(prec24))
    return ok, "eta sum form == eta product form to 100 q-coefficients"


def check_ramanujan_derivatives() -> tuple[bool, str]:
    prec = 60
    e2 = forms.eisenstein(2, prec)
    e4 = forms.eisenstein(4, prec)
    e6 = forms.eisenstein(6, prec)
    ok = (
        e2.deriv().agrees_with((e2 * e2 - e4).scale(Fraction(1, 12)))
        and e4.deriv().agrees_with((e2 * e4 - e6).scale(Fraction(1, 3)))
        and e6.deriv().agrees_with((e2 * e6 - e4 * e4).scale(Fraction(1, 2)))
    )
    return ok, "D(E2), D(E4), D(E6) identities to 60 coefficients"


def check_eta_log_derivative() -> tuple[bool, str]:
    prec24 = 24 * 40
    eta = qseries.eta_expansion(prec24)
    inv = qseries.eta_inverse_expansion(prec24)
    e2 = forms.eisenstein(2, 40).to_qseries24()
    ok = eta.deriv().agrees_with((e2 * eta).scale(Fraction(1, 24)))
    ok = ok and inv.deriv().agrees_with((e2 * inv).scale(Fraction(-1, 24)))
    return ok, "24 D(eta) = E2 eta and 24 D(1/eta) = -E2/eta"


def check_bracket_degenerate() -> tuple[bool, str]:
    ok = True
    for bracket in (rankincohen.eta_bracket, rankincohen.eta_bracket_from_partitions):
        p0, p1 = bracket(0, 60), bracket(1, 60)
        ok = ok and all(p0.coeff(n) == (1 if n == 0 else 0) for n in range(60)) and p1.is_zero()
    return ok, "order-0 bracket is 1, order-1 bracket is 0 (60 coefficients)"


def check_operator_series(nu_max: int = 6, prec: int = 40) -> tuple[bool, str]:
    for nu in range(nu_max + 1):
        if not rankincohen.eta_bracket(nu, prec).agrees_with(
            rankincohen.eta_bracket_from_partitions(nu, prec)
        ):
            return False, f"mismatch at nu={nu}"
    return True, f"operator == partition side for nu<={nu_max} ({prec} coefficients)"


def check_corollaries() -> tuple[bool, str]:
    # Eisenstein-only weights: no cuspidal part, so the bracket is C(2nu-2, nu-2) * E_{2nu}
    prec = 51
    for nu in (2, 3, 4, 5, 7):
        if not hecke.cusp_part(nu, prec).is_zero():
            return False, f"nu={nu} bracket is not a pure Eisenstein multiple"
    # one-dimensional weights: cuspidal part is the tabulated multiple
    for nu, beta in CUSP_MULTIPLIERS.items():
        prec_nu = 20
        cusp = hecke.cusp_part(nu, prec_nu)
        gen = forms.cusp_generator(2 * nu, prec_nu)
        if not cusp.agrees_with(gen.scale(beta)):
            return False, f"nu={nu} cusp multiplier mismatch"
    return True, "Eisenstein multiples and all six cusp multipliers exact"


def check_ramanujan_691() -> tuple[bool, str]:
    d = forms.delta(51)
    for n in range(1, 51):
        if (d.coeff(n) - partitions.sigma(11, n)) % 691:
            return False, f"congruence fails at n={n}"
    tr = hecke.trace_series(6, 50)
    beta = CUSP_MULTIPLIERS[6]
    ok = all(tr.value(n) == beta * d.coeff(n) for n in range(1, 51))
    return ok, "tau == sigma_11 mod 691 and weight-12 traces proportional to tau (n<=50)"


def check_trace_recurrence() -> tuple[bool, str]:
    ptable = partitions.partition_table(20)
    for nu in (2, 4, 6, 12):
        tr = hecke.trace_series(nu, 20)
        for n in range(1, 21):
            value = partitions.recurrence_rhs(nu, n, tr.value(n), ptable)
            if value != ptable.p(n):
                return False, f"nu={nu}, n={n}: got {value}"
    return True, "recurrence reproduces p(n) for nu in {2,4,6,12}, n<=20"


def check_eigenforms() -> tuple[bool, str]:
    for weight in (12, 24):
        for f in hecke.eigenforms(weight):
            for m in (2, 3, 5, 7):
                count = f.prec // m
                acted = hecke.hecke_action(f.coeffs, weight, m, count)
                lam = f.a(m)
                if any(acted[n] != lam * f.a(n) for n in range(1, count)):
                    return False, f"weight {weight}: T_{m} eigencheck failed"
    return True, "T_m eigenvector property for m in {2,3,5,7}, weights 12 and 24"


def check_projection_reconstruction() -> tuple[bool, str]:
    for nu in (6, 12):
        prec = 12
        cusp = hecke.cusp_part(nu, prec)
        gammas = hecke.eigenform_projections(nu)
        fs = hecke.eigenforms(2 * nu)
        for n in range(prec):
            acc = sum((g * f.a(n) for g, f in zip(gammas, fs)), QuadNum(0))
            if acc != QuadNum(cusp.coeff(n)):
                return False, f"nu={nu}: reconstruction fails at q^{n}"
    return True, "Eisenstein part + sum of projected eigenforms == bracket (nu=6,12)"


def check_kronecker() -> tuple[bool, str]:
    for n in range(1, 10001):
        chi = dmod.kronecker12(n)
        if chi != kronecker_symbol(12, n):
            return False, f"disagrees with general symbol at {n}"
        if chi != dmod.kronecker12(n + 12 * 7001):
            return False, f"not 12-periodic at {n}"
    rng = random.Random(_SEED)
    for _ in range(300):
        a, b = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        if gcd(a, 12) == 1 and gcd(b, 12) == 1:
            if dmod.kronecker12(a * b) != dmod.kronecker12(a) * dmod.kronecker12(b):
                return False, f"not multiplicative at {a}, {b}"
    return True, "periodicity, multiplicativity, and general-symbol agreement"


def check_dirichlet_small() -> tuple[bool, str]:
    f = dmod.embedded_eigenforms(6, 5)[0]
    v = dmod.dirichlet_partial(f, 5, 13)
    if v != -(5.0**-13):
        return False, "N=5 partial sum wrong"
    # M=0, N=2 double sum equals the hand-composed weight x partial products
    total = 0.0
    for j in range(5):
        total += dmod.dirichlet_weight_float(6, j, 0) * dmod.dirichlet_partial(f, 2, 13 + 2 * j)
    got = dmod.dirichlet_double_sum(f, 6, 0, 2)
    ok = abs(got - total) <= 1e-15 * max(1.0, abs(total))
    return ok, "exact small partial sums and hand-composed double sum"


def check_rademacher(n_max: int = 15, depth: int = 30) -> tuple[bool, str]:
    table = partitions.partition_table(n_max)
    for n in range(1, n_max + 1):
        r = rademacher.rademacher_pn(n, depth)
        if r.nearest != table.p(n) or r.gap >= 0.5:
            return False, f"n={n}: nearest={r.nearest}, gap={r.gap:.3g}"
        if r.imag > 1e-6 * max(1.0, abs(r.estimate)):
            return False, f"n={n}: imaginary residual {r.imag:.3g}"
    return True, f"rounds to p(n) for n<={n_max} at depth {depth}"


CHECKS = {
    "euler": check_euler,
    "pnt": check_pentagonal_theorem,
    "ramanujan-derivatives": check_ramanujan_derivatives,
    "eta-log-derivative": check_eta_log_derivative,
    "bracket-degenerate": check_bracket_degenerate,
    "operator-series": check_operator_series,
    "corollaries": check_corollaries,
    "ramanujan-691": check_ramanujan_691,
    "trace-recurrence": check_trace_recurrence,
    "eigenforms": check_eigenforms,
    "projections": check_projection_reconstruction,
    "kronecker": check_kronecker,
    "dirichlet": check_dirichlet_small,
    "rademacher": check_rademacher,
}

SUITES = {name: (name,) for name in CHECKS}
SUITES["all"] = tuple(CHECKS)


def run_suite(name: str) -> dict:
    """Run a named suite; returns a report with per-check timing."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for check_name in SUITES[name]:
        start = time.perf_counter()
        ok, detail = CHECKS[check_name]()
        results.append(
            {
                "name": check_name,
                "ok": ok,
                "detail": detail,
                "timings": {"seconds": time.perf_counter() - start},
            }
        )
    return {"suite": name, "ok": all(r["ok"] for r in results), "checks": results}
