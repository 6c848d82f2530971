"""Command-line interface: workspace loading, dispatch, JSON emission.

Exit codes: 0 the requested check passed (or the command only computes a
value), 1 a validation/numeric check failed, 2 usage or input errors,
including an ``--out`` path that cannot be written.
JSON output is deterministic: keys in fixed order, floats printed through
their shortest round-trip form capped at 15 significant digits, complex
numbers as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

import numpy as np

from .catalog import CATALOG_NAMES, load_catalog
from .crossed import (
    CrossedElement,
    gamma_integral,
    element_sample_difference,
    orbit_derivative_check,
    xp_multiply,
    xp_star,
)
from .dsl import Workspace, parse_file, read_word
from .enveloping import UEElement, dagger as ue_dagger, normal_form
from .errors import DslError, SuperrepError
from .functions import FiniteFunction
from .groups import FINITE, GroupPoint
from .reps import (
    ccr_report,
    operator_norm,
    prop33_bound,
    reconstruct_pi,
    reconstruct_rho,
    rep_hat,
    seminorm_interval,
    taylor_norm_check,
    validate_rep,
)
from .groups import validate_pair
from .superalgebra import validate_superalgebra


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------


def _norm(value):
    """Normalize floats (15 significant digits) recursively for stable JSON."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, complex):
        return [_norm(value.real), _norm(value.imag)]
    if isinstance(value, dict):
        return {k: _norm(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    return value


def emit(doc: dict, out_path: str | None):
    text = json.dumps(_norm(doc), indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _matrix_json(mat: np.ndarray):
    return [[complex(z) for z in row] for row in mat]


def _function_json(f) -> dict:
    if isinstance(f, FiniteFunction):
        pair = f.pair
        names = pair.group.finite.element_names
        values = [
            {"point": [names[p.base], p.eps], "value": complex(v)}
            for p, v in sorted(f.values.items(), key=lambda kv: (kv[0].eps, kv[0].base))
        ]
        return {"kind": "finite", "values": values}
    def side(terms):
        return [
            {
                "rate": t.rate,
                "center": t.center,
                "coeffs": [complex(c) for c in t.coeffs],
            }
            for t in sorted(terms, key=lambda t: (t.rate, t.center))
        ]
    return {"kind": "line", "plus": side(f.plus), "eps": side(f.eps)}


def _element_json(a: CrossedElement) -> dict:
    names = a.pair.algebra.basis_names
    return {
        "terms": [
            {"word": [names[i] for i in w], "function": _function_json(a.terms[w])}
            for w in sorted(a.terms)
        ]
    }


def _ue_json(elem: UEElement) -> dict:
    names = elem.algebra.basis_names
    return {
        "terms": [
            {"word": [names[i] for i in w], "coeff": complex(c)}
            for w, c in sorted(elem.terms.items())
        ]
    }


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _load_workspace(args) -> Workspace:
    ws = Workspace()
    for name in args.catalog or []:
        load_catalog(name, workspace=ws)
    for path in args.file or []:
        parse_file(path, ws)
    return ws


def _family(ws: Workspace, name: str):
    return [ws.lookup("rep", r) for r in ws.lookup("family", name)]


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite number >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _step(text: str) -> float:
    """An ``--h`` value: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(ws: Workspace, args) -> tuple[dict, bool]:
    if args.pair:
        pair = ws.lookup("pair", args.pair)
        report = validate_pair(pair)
        alg_report = validate_superalgebra(pair.algebra)
        ok = report.ok and alg_report.ok
        return {
            "subject": args.pair,
            "ok": ok,
            "checks": report.to_dict()["checks"] + alg_report.to_dict()["checks"],
        }, ok
    algebra = ws.lookup("algebra", args.algebra)
    report = validate_superalgebra(algebra)
    return report.to_dict(), report.ok


def cmd_nf(ws: Workspace, args) -> tuple[dict, bool]:
    algebra = ws.lookup("algebra", args.algebra)
    word = read_word(algebra, args.word)
    result = normal_form(algebra, word, order=args.order)
    return {
        "algebra": args.algebra,
        "word": [algebra.basis_names[i] for i in word],
        "order": args.order,
        "normal_form": _ue_json(result),
    }, True


def cmd_dagger(ws: Workspace, args) -> tuple[dict, bool]:
    algebra = ws.lookup("algebra", args.algebra)
    word = read_word(algebra, args.word)
    result = ue_dagger(normal_form(algebra, word))
    return {
        "algebra": args.algebra,
        "word": [algebra.basis_names[i] for i in word],
        "dagger": _ue_json(result),
    }, True


def cmd_xp_mul(ws: Workspace, args) -> tuple[dict, bool]:
    a = ws.lookup("element", args.left)
    b = ws.lookup("element", args.right)
    product = xp_multiply(a, b)
    return {"left": args.left, "right": args.right,
            "product": _element_json(product)}, True


def cmd_xp_star(ws: Workspace, args) -> tuple[dict, bool]:
    a = ws.lookup("element", args.elem)
    return {"elem": args.elem, "star": _element_json(xp_star(a))}, True


def cmd_gamma_check(ws: Workspace, args) -> tuple[dict, bool]:
    pair = ws.lookup("pair", args.pair)
    f = ws.lookup("function", args.f)
    h = ws.lookup("function", args.h)
    ws.require_function_pair(args.f, args.pair, None)
    ws.require_function_pair(args.h, args.pair, None)
    word = read_word(pair.algebra, args.word)
    d = normal_form(pair.algebra, word)
    lhs = gamma_integral(pair, f, d, h)
    rhs = xp_multiply(
        CrossedElement.tensor(pair, UEElement.unit(pair.algebra), f),
        CrossedElement.tensor(pair, d, h),
    )
    if pair.group.kind == FINITE:
        deviation = 0.0 if (lhs - rhs).is_zero() else 1.0
    else:
        deviation = element_sample_difference(lhs, rhs)
    ok = deviation <= args.tol
    return {"pair": args.pair, "deviation": deviation, "tol": args.tol, "ok": ok}, ok


def cmd_rep_check(ws: Workspace, args) -> tuple[dict, bool]:
    rep = ws.lookup("rep", args.rep)
    report = validate_rep(rep)
    return report.to_dict(), report.ok


def cmd_hat(ws: Workspace, args) -> tuple[dict, bool]:
    rep = ws.lookup("rep", args.rep)
    a = ws.lookup("element", args.elem)
    mat = rep_hat(rep, a)
    return {
        "rep": args.rep,
        "elem": args.elem,
        "matrix": _matrix_json(mat),
        "operator_norm": operator_norm(mat),
    }, True


def cmd_bound(ws: Workspace, args) -> tuple[dict, bool]:
    a = ws.lookup("element", args.elem)
    names = a.pair.algebra.basis_names
    terms = []
    for w in sorted(a.terms):
        single = CrossedElement(a.pair, {w: a.terms[w]})
        terms.append({"word": [names[i] for i in w], "bound": prop33_bound(single)})
    return {"elem": args.elem, "upper": prop33_bound(a), "terms": terms}, True


def cmd_seminorm(ws: Workspace, args) -> tuple[dict, bool]:
    a = ws.lookup("element", args.elem)
    family = _family(ws, args.family)
    interval = seminorm_interval(a, family)
    doc = {"elem": args.elem, "family": args.family}
    doc.update(interval.to_dict())
    return doc, True


def cmd_roundtrip(ws: Workspace, args) -> tuple[dict, bool]:
    rep = ws.lookup("rep", args.rep)
    probe = ws.lookup("element", args.probe)
    pair = rep.pair
    rng = random.Random(args.seed)
    v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(rep.dim)])
    base = rep_hat(rep, probe) @ v
    if not np.any(np.abs(base) > 1e-14):
        raise DslError("probe image vanishes on the test vector")
    if pair.group.kind == FINITE:
        points = list(pair.points())
    else:
        points = [GroupPoint(0.5, False), GroupPoint(1.0, False), pair.epsilon_point()]
    pi_dev = 0.0
    for g in points:
        got = reconstruct_pi(rep, g, probe, v)
        want = rep.pi(g) @ base
        pi_dev = max(pi_dev, float(np.abs(got - want).max()))
    rho_dev = 0.0
    for i in range(pair.algebra.dim):
        got = reconstruct_rho(rep, i, probe, v)
        want = rep.rho[i] @ base
        rho_dev = max(rho_dev, float(np.abs(got - want).max()))
    ok = pi_dev <= args.tol and rho_dev <= args.tol
    return {
        "rep": args.rep,
        "probe": args.probe,
        "max_pi_deviation": pi_dev,
        "max_rho_deviation": rho_dev,
        "tol": args.tol,
        "ok": ok,
    }, ok


def cmd_ccr_report(ws: Workspace, args) -> tuple[dict, bool]:
    family = _family(ws, args.family)
    generators = [ws.lookup("element", nm) for nm in args.elem]
    doc = ccr_report(family, generators)
    doc = {"family": args.family, "generators": list(args.elem), **doc}
    return doc, True


def cmd_orbit_deriv(ws: Workspace, args) -> tuple[dict, bool]:
    pair = ws.lookup("pair", args.pair)
    a = ws.lookup("element", args.elem)
    r1 = orbit_derivative_check(pair, a, args.h)
    r2 = orbit_derivative_check(pair, a, args.h / 2.0)
    ratio = (r2 / r1) if r1 else 0.0
    ok = r1 == 0.0 or 0.4 <= ratio <= 0.6
    return {
        "pair": args.pair,
        "elem": args.elem,
        "h": args.h,
        "residual": r1,
        "residual_half": r2,
        "ratio": ratio,
        "ok": ok,
    }, ok


def cmd_taylor(ws: Workspace, args) -> tuple[dict, bool]:
    pair = ws.lookup("pair", args.pair)
    a = ws.lookup("element", args.elem)
    family = _family(ws, args.family)
    doc = taylor_norm_check(pair, a, family)
    doc = {"pair": args.pair, "elem": args.elem, "family": args.family, **doc}
    return doc, doc["ok"]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# values of the global flags when none is given; main parses into a copy
_DEFAULTS = {"file": None, "catalog": None, "out": None, "tol": 1e-8, "seed": 0}


def build_parser() -> argparse.ArgumentParser:
    # The workspace/IO flags are usable before or after the subcommand.  They
    # set nothing when absent, so the subcommand never overwrites a value the
    # top-level parser read; their defaults come from _DEFAULTS.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--file", action="append", help="DSL source file (repeatable)")
    common.add_argument("--catalog", action="append", choices=CATALOG_NAMES,
                        help="load a shipped catalog (repeatable)")
    common.add_argument("--out", help="write JSON here instead of stdout")
    common.add_argument("--tol", type=_tolerance, help="pass/fail tolerance of the "
                        "numeric deviations; only gamma-check and roundtrip read it")
    common.add_argument("--seed", type=int, help="seed for randomized probe vectors")
    parser = argparse.ArgumentParser(
        prog="superrep",
        description="crossed-product superalgebra toolkit",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_command("validate", "validate an algebra or a pair")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pair")
    g.add_argument("--algebra")
    p.set_defaults(func=cmd_validate)

    p = add_command("nf", "PBW normal form of a word")
    p.add_argument("--algebra", required=True)
    p.add_argument("--word", required=True, help="comma- or space-separated basis names")
    p.add_argument("--order", choices=("decl", "oddmajor"), default="decl")
    p.set_defaults(func=cmd_nf)

    p = add_command("dagger", "formal adjoint of a word")
    p.add_argument("--algebra", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_dagger)

    p = add_command("xp-mul", "twisted convolution product")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_xp_mul)

    p = add_command("xp-star", "involution of a crossed element")
    p.add_argument("--elem", required=True)
    p.set_defaults(func=cmd_xp_star)

    p = add_command("gamma-check", "integrated-action identity against the product")
    p.add_argument("--pair", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--word", default="", help="enveloping word for the D factor")
    p.set_defaults(func=cmd_gamma_check)

    p = add_command("rep-check", "representation axiom checks")
    p.add_argument("--rep", required=True)
    p.set_defaults(func=cmd_rep_check)

    p = add_command("hat", "matrix image of a crossed element")
    p.add_argument("--rep", required=True)
    p.add_argument("--elem", required=True)
    p.set_defaults(func=cmd_hat)

    p = add_command("bound", "certified operator-norm bound")
    p.add_argument("--elem", required=True)
    p.set_defaults(func=cmd_bound)

    p = add_command("seminorm", "seminorm interval over a family")
    p.add_argument("--elem", required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_seminorm)

    p = add_command("roundtrip", "group/algebra action recovered from the bridge")
    p.add_argument("--rep", required=True)
    p.add_argument("--probe", required=True)
    p.set_defaults(func=cmd_roundtrip)

    p = add_command("ccr-report", "finite-rank and structural flags")
    p.add_argument("--family", required=True)
    p.add_argument("--elem", action="append", required=True)
    p.set_defaults(func=cmd_ccr_report)

    p = add_command("orbit-deriv", "certified first-order orbit derivative residual")
    p.add_argument("--pair", required=True)
    p.add_argument("--elem", required=True)
    p.add_argument("--h", type=_step, default=0.1)
    p.set_defaults(func=cmd_orbit_deriv)

    p = add_command("taylor", "first-order Taylor norm bound check")
    p.add_argument("--pair", required=True)
    p.add_argument("--elem", required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_taylor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(**_DEFAULTS))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        ws = _load_workspace(args)
        doc, ok = args.func(ws, args)
        code = 0 if ok else 1
    except DslError as exc:
        doc, code = {"error": str(exc)}, 2
    except SuperrepError as exc:
        doc, code = {"error": str(exc)}, 1
    except OSError as exc:
        doc, code = {"error": str(exc)}, 2
    except Exception as exc:
        # a structured error, never a traceback
        doc, code = {"error": f"internal error: {type(exc).__name__}: {exc}"}, 1
    try:
        emit(doc, args.out)
    except OSError as exc:
        # an unwritable --out is an input error; report it on stdout
        emit({"error": str(exc)}, None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
