"""Command-line interface: one table of subcommands, their flags and the
workspace category of each name flag; name lookup, dispatch, JSON emission.

Exit codes: 0 the requested check passed (or the command only computes a
value), 1 a validation/numeric check failed or the result is not finite,
2 usage or input errors, including an ``--out`` path that cannot be written.
JSON output is deterministic and strict: keys in fixed order, floats printed
through their shortest round-trip form capped at 15 significant digits,
complex numbers as [re, im] pairs, and never NaN or Infinity.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

import numpy as np

from .catalog import CATALOG_NAMES, load_catalog
from .crossed import (CrossedElement, element_sample_difference, gamma_integral,
                      orbit_derivative_check, xp_multiply, xp_star)
from .dsl import Workspace, parse_file, read_word
from .enveloping import UEElement, dagger as ue_dagger, normal_form
from .errors import DslError, SuperrepError
from .functions import FiniteFunction
from .groups import FINITE, GroupPoint, validate_pair
from .reps import (ccr_report, operator_norm, prop33_bound, reconstruct_pi, reconstruct_rho,
                   rep_hat, seminorm_interval, taylor_norm_check, validate_rep)
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


# subcommand -> (help, flag, ...).  A flag (NAME, CATEGORY[, SETTINGS]) is a
# required name of a workspace definition; (NAME, SETTINGS) is a plain option.
# SETTINGS go to argparse.  Subcommand "x-y" runs cmd_x_y(args, *definitions),
# with one definition per name flag given, in this order.
_COMMANDS = {
    "validate": ("validate an algebra or a pair", ("--pair", "pair"), ("--algebra", "algebra")),
    "nf": ("PBW normal form of a word", ("--algebra", "algebra"),
           ("--word", {"required": True, "help": "comma- or space-separated basis names"}),
           ("--order", {"choices": ("decl", "oddmajor"), "default": "decl"})),
    "dagger": ("formal adjoint of a word", ("--algebra", "algebra"),
               ("--word", {"required": True})),
    "xp-mul": ("twisted convolution product", ("--left", "element"), ("--right", "element")),
    "xp-star": ("involution of a crossed element", ("--elem", "element")),
    "gamma-check": ("integrated-action identity against the product", ("--pair", "pair"),
                    ("--f", "function"), ("--h", "function"),
                    ("--word", {"default": "", "help": "enveloping word for the D factor"})),
    "rep-check": ("representation axiom checks", ("--rep", "rep")),
    "hat": ("matrix image of a crossed element", ("--rep", "rep"), ("--elem", "element")),
    "bound": ("certified operator-norm bound", ("--elem", "element")),
    "seminorm": ("seminorm interval over a family", ("--elem", "element"), ("--family", "family")),
    "roundtrip": ("group/algebra action recovered from the bridge", ("--rep", "rep"),
                  ("--probe", "element")),
    "ccr-report": ("finite-rank and structural flags", ("--family", "family"),
                   ("--elem", "element", {"action": "append"})),
    "orbit-deriv": ("certified first-order orbit derivative residual", ("--pair", "pair"),
                    ("--elem", "element"), ("--h", {"type": _step, "default": 0.1})),
    "taylor": ("first-order Taylor norm bound check", ("--pair", "pair"),
               ("--elem", "element"), ("--family", "family")),
}


def _resolve(ws: Workspace, args) -> list:
    """The definitions the name flags of ``args.command`` give, looked up in
    table order: a family gives its list of reps, a repeated flag a list of
    definitions.  An absent flag (one side of validate) gives none."""
    definitions = []
    for flag, kind, *_ in _COMMANDS[args.command][1:]:
        name = getattr(args, flag[2:])
        if isinstance(kind, dict) or name is None:  # a plain option, or absent
            continue
        if isinstance(name, list):
            definitions.append([ws.lookup(kind, n) for n in name])
        elif kind == "family":
            definitions.append([ws.lookup("rep", r) for r in ws.lookup("family", name)])
        else:
            definitions.append(ws.lookup(kind, name))
    if args.command == "gamma-check":
        ws.require_function_pair(args.f, args.pair, None)
        ws.require_function_pair(args.h, args.pair, None)
    return definitions


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args, subject) -> tuple[dict, bool]:
    if args.pair is not None:
        report = validate_pair(subject)
        alg_report = validate_superalgebra(subject.algebra)
        ok = report.ok and alg_report.ok
        return {
            "subject": args.pair,
            "ok": ok,
            "checks": report.to_dict()["checks"] + alg_report.to_dict()["checks"],
        }, ok
    report = validate_superalgebra(subject)
    return report.to_dict(), report.ok


def cmd_nf(args, algebra) -> tuple[dict, bool]:
    word = read_word(algebra, args.word)
    result = normal_form(algebra, word, order=args.order)
    return {
        "algebra": args.algebra,
        "word": [algebra.basis_names[i] for i in word],
        "order": args.order,
        "normal_form": _ue_json(result),
    }, True


def cmd_dagger(args, algebra) -> tuple[dict, bool]:
    word = read_word(algebra, args.word)
    result = ue_dagger(normal_form(algebra, word))
    return {
        "algebra": args.algebra,
        "word": [algebra.basis_names[i] for i in word],
        "dagger": _ue_json(result),
    }, True


def cmd_xp_mul(args, a, b) -> tuple[dict, bool]:
    return {"left": args.left, "right": args.right,
            "product": _element_json(xp_multiply(a, b))}, True


def cmd_xp_star(args, a) -> tuple[dict, bool]:
    return {"elem": args.elem, "star": _element_json(xp_star(a))}, True


def cmd_gamma_check(args, pair, f, h) -> tuple[dict, bool]:
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


def cmd_rep_check(args, rep) -> tuple[dict, bool]:
    report = validate_rep(rep)
    return report.to_dict(), report.ok


def cmd_hat(args, rep, a) -> tuple[dict, bool]:
    mat = rep_hat(rep, a)
    return {
        "rep": args.rep,
        "elem": args.elem,
        "matrix": _matrix_json(mat),
        "operator_norm": operator_norm(mat),
    }, True


def cmd_bound(args, a) -> tuple[dict, bool]:
    names = a.pair.algebra.basis_names
    a.pair.require_trivial_line_ad()  # refused even when a has no term
    # on every pair the bound accepts, each PBW monomial is its own odd-major
    # form, so prop33_bound(a) adds exactly these values in a.terms order
    bounds = {w: prop33_bound(CrossedElement(a.pair, {w: f})) for w, f in a.terms.items()}
    terms = [{"word": [names[i] for i in w], "bound": bounds[w]} for w in sorted(bounds)]
    return {"elem": args.elem, "upper": sum(bounds.values(), 0.0), "terms": terms}, True


def cmd_seminorm(args, a, family) -> tuple[dict, bool]:
    interval = seminorm_interval(a, family).to_dict()
    return {"elem": args.elem, "family": args.family, **interval}, True


def cmd_roundtrip(args, rep, probe) -> tuple[dict, bool]:
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


def cmd_ccr_report(args, family, generators) -> tuple[dict, bool]:
    doc = ccr_report(family, generators)
    return {"family": args.family, "generators": list(args.elem), **doc}, True


def cmd_orbit_deriv(args, pair, a) -> tuple[dict, bool]:
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


def cmd_taylor(args, pair, a, family) -> tuple[dict, bool]:
    doc = taylor_norm_check(pair, a, family)
    doc = {"pair": args.pair, "elem": args.elem, "family": args.family, **doc}
    return doc, doc["ok"]


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


# values of the global flags when none is given; main parses into a copy
_DEFAULTS = {"file": None, "catalog": None, "out": None, "tol": 1e-8, "seed": 0}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the command line, built once per process and shared by
    every ``main`` call; callers must not mutate it."""
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
    for command, (help_text, *flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, parents=[common])
        # validate takes exactly one of its two names
        names = p.add_mutually_exclusive_group(required=True) if command == "validate" else p
        for flag, kind, *settings in flags:
            if isinstance(kind, dict):
                p.add_argument(flag, **kind)
            else:
                names.add_argument(flag, required=command != "validate", **dict(*settings))
    return parser


@functools.cache
def _snapshot(name: str) -> Workspace:
    """The shipped catalog ``name``, parsed and validated once per process;
    every ``main`` call merges it into its own workspace, sharing the
    definitions (their memos grow), so callers must not mutate it."""
    return load_catalog(name)


def _json(doc: dict) -> str:
    """Deterministic strict JSON of ``doc``; a NaN or an infinity in it
    raises OverflowError."""
    try:
        return json.dumps(_norm(doc), indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise OverflowError(exc) from None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(**_DEFAULTS))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        ws = Workspace()
        for name in args.catalog or []:
            ws.merge(_snapshot(name))
        for path in args.file or []:
            parse_file(path, ws)
        definitions = _resolve(ws, args)
        # looked up here, so a handler rebound on the module is the one run
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        # an overflow or a NaN in the handler's numpy arithmetic is refused
        # as it happens, not warned of
        with np.errstate(over="raise", invalid="raise"):
            doc, ok = handler(args, *definitions)
        text, code = _json(doc), 0 if ok else 1
    except (DslError, OSError) as exc:
        text, code = _json({"error": str(exc)}), 2
    except SuperrepError as exc:
        text, code = _json({"error": str(exc)}), 1
    except (OverflowError, FloatingPointError) as exc:
        # a NaN or an infinity in the result, or a float overflow computing it
        text, code = _json({"error": f"non-finite result: {exc}"}), 1
    except Exception as exc:
        # a structured error, never a traceback
        text, code = _json({"error": f"internal error: {type(exc).__name__}: {exc}"}), 1
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        # an unwritable --out is an input error; report it on stdout
        sys.stdout.write(_json({"error": str(exc)}))
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
