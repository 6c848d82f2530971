"""The four benchmark workloads: set-up and one op each.

Every op turns plain seeded data (see ``inputs.py``) into program objects,
computes, and checks its results; it returns True when every check passed.
Ops reach the program only through the public names of ``superrep``,
``superrep.enveloping.ue_multiply`` and ``superrep.cli.main``, looked up at
call time, so that the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import operator
import os
from fractions import Fraction
from functools import reduce

import numpy as np

import superrep as sr
import superrep.cli as cli
import superrep.enveloping as enveloping

from inputs import CLI_COMMANDS, MALFORMED_FILE

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(BENCH_DIR, "fixtures", "bench.sexp")
MALFORMED = os.path.join(os.path.dirname(BENCH_DIR), MALFORMED_FILE)
GOLDEN = os.path.join(BENCH_DIR, "golden", "cli.json")

CERT_SLACK = 1e-12  # max_R ||rep_hat(R, a)|| <= prop33_bound(a) + CERT_SLACK
HOM_TOL = 1e-8  # rep_hat is a *-homomorphism to this operator-norm residual
ORBIT_H = 0.1
ORBIT_RATIO = (0.4, 0.6)  # halving h must halve the certified residual


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _gr(c) -> sr.GaussianRational:
    return sr.GaussianRational(Fraction(c[0], c[1]), Fraction(c[2], c[3]))


def _sum(items):
    return reduce(operator.add, items)


def _op_norm(mat) -> float:
    return float(np.linalg.norm(mat, 2))


# ---------------------------------------------------------------------------
# pbw
# ---------------------------------------------------------------------------


def _gl11(name: str, q: Fraction):
    """gl(1|1) on (N, E, psi+, psi-) with [psi+, psi-] = q E."""
    c = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    c[0][2][2], c[2][0][2] = Fraction(1), Fraction(-1)
    c[0][3][3], c[3][0][3] = Fraction(-1), Fraction(1)
    c[2][3][1] = c[3][2][1] = q
    return sr.build_superalgebra(name, ("N", "E", "psi+", "psi-"), (0, 0, 1, 1), c)


def _hc2(name: str, a: Fraction, b: Fraction):
    """hc2 on (z, x1, x2) with [x1, x1] = a z and [x2, x2] = b z."""
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[1][1][0], c[2][2][0] = a, b
    return sr.build_superalgebra(name, ("z", "x1", "x2"), (0, 1, 1), c)


def _pbw_checks(algebra, data) -> bool:
    ok = True
    for word in data["words"]:
        for order in ("decl", "oddmajor"):
            left = sr.normal_form(algebra, word, order=order, strategy="left")
            right = sr.normal_form(algebra, word, order=order, strategy="right")
            ok &= left == right
    a, b, c = (
        _sum(sr.normal_form(algebra, word, _gr(coeff)) for word, coeff in terms)
        for terms in data["elements"]
    )
    mul = enveloping.ue_multiply
    ab = mul(a, b)
    ok &= mul(ab, c) == mul(a, mul(b, c))
    ok &= sr.dagger(sr.dagger(a)) == a
    ok &= sr.dagger(ab) == mul(sr.dagger(b), sr.dagger(a))
    lam = _gr(data["scalar"])
    ok &= sr.dagger(a.scale(lam)) == sr.dagger(a).scale(lam.conjugate())
    return ok


def pbw_setup():
    # numbers the algebras: a name of its own makes every member fresh, also
    # when the timed loop runs the same seeded op again in a later round
    return itertools.count()


def pbw_op(serial, data) -> bool:
    q, a, b = (Fraction(*data[k]) for k in ("q", "a", "b"))
    n = next(serial)
    ok = _pbw_checks(_gl11(f"gl11q-{n}", q), data["gl11"])
    return _pbw_checks(_hc2(f"hc2ab-{n}", a, b), data["hc2"]) and ok


# ---------------------------------------------------------------------------
# finite_xp
# ---------------------------------------------------------------------------


def finite_xp_setup():
    return sr.parse(_read(FIXTURES)).pairs["s3perm"]


def _finite_function(pair, values):
    return sr.FiniteFunction(pair, {sr.GroupPoint(g, eps): _gr(c) for (g, eps), c in values})


def finite_xp_op(pair, data) -> bool:
    algebra = pair.algebra
    xp = sr.xp_multiply
    a, b, c = (
        _sum(sr.CrossedElement.tensor(pair, sr.normal_form(algebra, word),
                                      _finite_function(pair, values))
             for word, values in terms)
        for terms in data["elements"]
    )
    ab = xp(a, b)
    ok = xp(ab, c) == xp(a, xp(b, c))
    ok &= sr.xp_star(ab) == xp(sr.xp_star(b), sr.xp_star(a))
    ok &= sr.xp_star(sr.xp_star(a)) == a
    m = sr.mul_group(pair, sr.GroupPoint(*data["point"]))
    ok &= m.lam(ab) == xp(m.lam(a), b)
    ok &= m.rho(ab) == xp(a, m.rho(b))
    ok &= xp(a, m.lam(b)) == xp(m.rho(a), b)
    f = _finite_function(pair, data["f"])
    h = _finite_function(pair, data["h"])
    D = sr.normal_form(algebra, data["D"])
    lhs = sr.gamma_integral(pair, f, D, h)
    one_f = sr.CrossedElement.tensor(pair, sr.UEElement.unit(algebra), f)
    ok &= lhs == xp(one_f, sr.CrossedElement.tensor(pair, D, h))
    return ok


# ---------------------------------------------------------------------------
# line_cert
# ---------------------------------------------------------------------------


def line_cert_setup():
    ws = sr.load_catalog("hc")
    sr.parse(_read(FIXTURES), ws)
    return {
        name: (ws.pairs[name], [ws.reps[r] for r in ws.families[family]])
        for name, family in (("hcline", "hc-grid"), ("hc2line", "hc2-grid"))
    }


def _line_function(data):
    return _sum(
        sr.GaussianPoly.gaussian(rate, center, tuple(complex(*c) for c in coeffs), side)
        for side in ("plus", "eps")
        for rate, center, coeffs in data[side]
    )


def _line_checks(pair, family, elements) -> bool:
    algebra = pair.algebra
    a, b = (
        _sum(sr.CrossedElement.tensor(pair, sr.normal_form(algebra, word), _line_function(fn))
             for word, fn in terms)
        for terms in elements
    )
    ab = sr.xp_multiply(a, b)
    a_star = sr.xp_star(a)
    ok = True
    for elem in (a, b, ab):
        # the family maximum is computed here, not read back from
        # seminorm_interval, whose lower end is clamped to the bound
        bound = sr.prop33_bound(elem)
        family_max = max(_op_norm(sr.rep_hat(rep, elem)) for rep in family)
        ok &= family_max <= bound + CERT_SLACK
    for rep in family:
        ha, hb = sr.rep_hat(rep, a), sr.rep_hat(rep, b)
        ok &= _op_norm(sr.rep_hat(rep, ab) - ha @ hb) <= HOM_TOL
        ok &= _op_norm(sr.rep_hat(rep, a_star) - ha.conj().T) <= HOM_TOL
    r1 = sr.orbit_derivative_check(pair, a, ORBIT_H)
    r2 = sr.orbit_derivative_check(pair, a, ORBIT_H / 2)
    ok &= r1 == 0.0 or ORBIT_RATIO[0] <= r2 / r1 <= ORBIT_RATIO[1]
    return ok


def line_cert_op(pairs, data) -> bool:
    ok = True
    for name, (pair, family) in pairs.items():
        ok &= _line_checks(pair, family, data[name])
    return ok


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def load_golden(path: str = GOLDEN) -> list:
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    if [tuple(g["argv"]) for g in golden] != list(CLI_COMMANDS):
        raise ValueError(f"{path} does not match the command list; re-record it")
    return golden


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_setup():
    try:
        sr.parse(_read(MALFORMED))
    except sr.DslError:
        return load_golden()
    raise ValueError(f"{MALFORMED} parsed; it must be rejected")


def cli_op(golden, index) -> bool:
    expected = golden[index]
    code, stdout = run_cli(expected["argv"])
    return code == expected["exit"] and stdout == expected["stdout"]


WORKLOADS = {
    "pbw": (pbw_setup, pbw_op),
    "finite_xp": (finite_xp_setup, finite_xp_op),
    "line_cert": (line_cert_setup, line_cert_op),
    "cli": (cli_setup, cli_op),
}
