"""Command-line interface: determinism, exit codes and output routing."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superrep import cli, crossed, dsl, groups, reps, superalgebra
from superrep.catalog import CATALOG_NAMES, catalog_source, load_catalog
from superrep.cli import main
from superrep.crossed import xp_multiply
from superrep.dsl import DslError, Workspace, parse, parse_file, print_workspace
from superrep.functions import GaussianPoly

from test_crossed import random_line_element
from test_dsl import MUTATION, mutated_source
from test_reps import HC2LINE_SOURCE, OCLINE_SOURCE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys):
    code, out = run(capsys, "--catalog", "hc", "validate", "--pair", "hcline")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_failed_check_exits_1(capsys):
    # a step size far outside the first-order regime breaks the halving ratio
    code, out = run(capsys, "--catalog", "hc", "orbit-deriv", "--pair", "hcline",
                    "--elem", "a0", "--h", "10")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_pair_mismatch_exits_2(capsys):
    # a name of another pair is an input error, as in gamma-check
    code, out = run(capsys, "--catalog", "hc", "--catalog", "podd",
                    "hat", "--rep", "reg4", "--elem", "a0")
    assert code == 2
    assert json.loads(out) == {
        "error": "element 'a0' is defined on pair 'hcline', not 'z2odd'"
    }


@pytest.mark.parametrize("argv", [
    ("orbit-deriv", "--pair", "hcline", "--elem", "bs"),
    ("taylor", "--pair", "hcline", "--elem", "bs", "--family", "hc-grid"),
])
def test_element_of_another_pair_exits_2(capsys, argv):
    code, out = run(capsys, "--catalog", "hc", "--catalog", "podd", *argv)
    assert code == 2
    assert json.loads(out) == {
        "error": "element 'bs' is defined on pair 'z2odd', not 'hcline'"
    }


@pytest.mark.parametrize("argv, error", [
    (("xp-mul", "--left", "bx", "--right", "ax"), "element 'ax' is defined on pair 'hcline', not 'z2odd'"),
    (("seminorm", "--elem", "ax", "--family", "z2-all"),
     "rep 'chi-pp' is defined on pair 'z2odd', not 'hcline'"),
    (("seminorm", "--elem", "ax", "--family", "mixed"),
     "rep 'reg4' is defined on pair 'z2odd', not 'hcline'"),
    (("ccr-report", "--family", "mixed", "--elem", "a0"),
     "rep 'reg4' is defined on pair 'z2odd', not 'hcline'"),
    (("ccr-report", "--family", "hc-grid", "--elem", "a0", "--elem", "bs"),
     "element 'bs' is defined on pair 'z2odd', not 'hcline'"),
    (("roundtrip", "--rep", "reg4", "--probe", "a0"),
     "element 'a0' is defined on pair 'hcline', not 'z2odd'"),
    (("gamma-check", "--pair", "hcline", "--f", "gauss1", "--h", "d1"),
     "function 'd1' is defined on pair 'z2odd', not 'hcline'"),
], ids=["xp-mul", "seminorm", "seminorm-mixed-family", "ccr-report-mixed-family",
        "ccr-report", "roundtrip", "gamma-check"])
def test_every_name_lives_on_the_pair_of_the_first(capsys, tmp_path, argv, error):
    src = tmp_path / "mixed.sexp"
    src.write_text("(family mixed hc-rep-1 reg4)\n")
    code, out = run(capsys, "--catalog", "hc", "--catalog", "podd", "--file", str(src), *argv)
    assert (code, json.loads(out)) == (2, {"error": error})


def test_invalid_pair_rejected_at_parse(capsys, tmp_path):
    src = tmp_path / "bad.sexp"
    src.write_text(
        "(superalgebra p (basis (x odd)))\n"
        "(pair pz2 p (finite (elements e s) (table (e s) (s e))"
        " (ad e ((1))) (ad s ((2)))))\n"
    )
    code, out = run(capsys, "--file", str(src), "validate", "--pair", "pz2")
    assert code == 2
    assert "error" in json.loads(out)


def test_unknown_name_exits_2(capsys):
    code, out = run(capsys, "--catalog", "hc", "bound", "--elem", "nope")
    assert code == 2
    assert "unknown" in json.loads(out)["error"]


def test_empty_pair_name_is_an_unknown_pair(capsys):
    # an empty --pair is looked up, not taken for the absent side of validate
    code, out = run(capsys, "--catalog", "hc", "validate", "--pair", "")
    assert code == 2
    assert json.loads(out) == {"error": "unknown pair ''"}


def test_roundtrip_with_a_vanishing_probe_image_exits_2(capsys):
    # x acts by zero in a character, so x (x) delta_s has a zero image
    code, out = run(capsys, "--catalog", "podd", "roundtrip", "--rep", "chi-pp", "--probe", "bx")
    assert code == 2
    assert json.loads(out) == {"error": "probe image vanishes on the test vector"}


def test_roundtrip_takes_a_small_probe_image(capsys, tmp_path):
    # an image of about 1e-8 is small, yet far above the vanishing rule's 1e-14
    src = tmp_path / "tiny.sexp"
    src.write_text("(element tiny hcline (tensor (ue (1)) (linefunc (plus (gauss 1 0 1e-8)))))")
    code, out = run(capsys, "--catalog", "hc", "--file", str(src), "roundtrip",
                    "--rep", "hc-rep-2", "--probe", "tiny")
    assert (code, json.loads(out)["ok"]) == (0, True)


def test_missing_file_exits_2(capsys):
    code, out = run(capsys, "--file", "/does/not/exist.sexp", "validate",
                    "--pair", "hcline")
    assert code == 2


def test_bad_usage_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_flags_before_or_after_subcommand(capsys):
    _, before = run(capsys, "--catalog", "hc", "--tol", "1e-6",
                    "bound", "--elem", "ax")
    _, after = run(capsys, "bound", "--elem", "ax", "--catalog", "hc",
                   "--tol", "1e-6")
    assert before == after


def test_unwritable_out_exits_2_without_traceback(capsys, tmp_path):
    target = str(tmp_path / "missing-dir" / "x.json")
    for extra in ((), ("--file", str(tmp_path / "missing.sexp"))):
        code = main(["--catalog", "hc", *extra, "--out", target,
                     "validate", "--pair", "hcline"])
        captured = capsys.readouterr()
        assert code == 2
        assert "x.json" in json.loads(captured.out)["error"]
        assert captured.err == ""


def test_empty_out_is_an_unwritable_path(capsys):
    code = main(["--catalog", "hc", "--out", "", "validate", "--pair", "hcline"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"error": "[Errno 2] No such file or directory: ''"}
    assert captured.err == ""


def test_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    src = tmp_path / "latin1.sexp"
    src.write_bytes(b"(superalgebra a (basis (z even)))\n; caf\xe9\n")
    code, out = run(capsys, "--file", str(src), "validate", "--algebra", "a")
    assert code == 2
    assert json.loads(out)["error"].startswith("2:")


def test_element_with_a_function_of_another_pair_exits_2(capsys, tmp_path):
    src = tmp_path / "cross.sexp"
    src.write_text("(element bad z2odd (tensor (ue (1 x)) gauss1))\n")
    code, out = run(capsys, "--catalog", "hc", "--catalog", "podd",
                    "--file", str(src), "xp-star", "--elem", "bad")
    assert code == 2
    assert json.loads(out) == {
        "error": "1:39: function 'gauss1' is defined on pair 'hcline', not 'z2odd'"
    }


def test_gamma_check_refuses_a_function_of_another_pair(capsys):
    code, out = run(capsys, "--catalog", "hc", "--catalog", "podd", "gamma-check",
                    "--pair", "z2odd", "--f", "d1", "--h", "gauss1")
    assert code == 2
    assert json.loads(out) == {
        "error": "function 'gauss1' is defined on pair 'hcline', not 'z2odd'"
    }


def test_gamma_check_with_a_nan_sample_is_non_finite(capsys, tmp_path):
    # both sides hold inf + nan j, so every sample of the plus part is NaN
    src = tmp_path / "big.sexp"
    src.write_text("(function big hcline (linefunc (plus (gauss 1 0 1.7e308))))\n"
                   "(function one hcline (linefunc (plus (gauss 1 0 1))))\n")
    code, out = run(capsys, "--catalog", "hc", "--file", str(src), "gamma-check",
                    "--pair", "hcline", "--f", "big", "--h", "one")
    assert (code, json.loads(out)) == (1, {
        "error": "non-finite result: Out of range float values are not JSON compliant: nan"})


def test_line_elements_print_line_functions(capsys):
    code, out = run(capsys, "--catalog", "hc", "xp-star", "--elem", "ax")
    assert code == 0
    [term] = json.loads(out)["star"]["terms"]
    assert term["word"] == ["x"]
    assert term["function"]["kind"] == "line"
    # x^dagger = -i x, and breve leaves the real centred Gaussian in place
    assert term["function"]["plus"] == [
        {"rate": 1.0, "center": 0.0, "coeffs": [[0.0, -1.0]]}
    ]
    assert term["function"]["eps"] == []


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(capsys, "--catalog", "hc", "--out", str(target),
                    "hat", "--rep", "hc-rep-2", "--elem", "ax")
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert "matrix" in doc


DETERMINISTIC_RUNS = [
    ("--catalog", "hc", "validate", "--pair", "hcline"),
    ("--catalog", "hc", "nf", "--algebra", "hc", "--word", "x,x,x"),
    ("--catalog", "hc", "dagger", "--algebra", "hc", "--word", "x"),
    ("--catalog", "podd", "xp-mul", "--left", "bx", "--right", "bs"),
    ("--catalog", "hc", "bound", "--elem", "axz"),
    ("--catalog", "hc", "seminorm", "--elem", "ax", "--family", "hc-grid"),
    ("--catalog", "hc", "--seed", "7", "roundtrip", "--rep", "hc-rep-2",
     "--probe", "a0"),
    ("--catalog", "podd", "--seed", "7", "roundtrip", "--rep", "reg4",
     "--probe", "b0"),
    ("--catalog", "hc", "gamma-check", "--pair", "hcline", "--f", "gauss1",
     "--h", "gauss2"),
    ("--catalog", "hc", "ccr-report", "--family", "hc-grid", "--elem", "a0",
     "--elem", "ax"),
    ("--catalog", "hc", "taylor", "--pair", "hcline", "--elem", "a0",
     "--family", "hc-grid"),
    ("validate", "--algebra", "gl11", "--catalog", "toys"),
    ("--catalog", "podd", "gamma-check", "--pair", "z2odd", "--f", "dmix",
     "--h", "ds", "--word", "x"),
    ("--catalog", "hc", "xp-mul", "--left", "axz", "--right", "ax"),
    ("--catalog", "hc", "xp-star", "--elem", "axz"),
]


@pytest.mark.parametrize("argv", DETERMINISTIC_RUNS, ids=lambda a: a[-3].lstrip("-"))
def test_repeated_runs_are_byte_identical(capsys, argv):
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)  # well-formed


def test_seed_changes_probe_but_not_verdict(capsys):
    code1, out1 = run(capsys, "--catalog", "hc", "--seed", "1", "roundtrip",
                      "--rep", "hc-rep-2", "--probe", "a0")
    code2, out2 = run(capsys, "--catalog", "hc", "--seed", "2", "roundtrip",
                      "--rep", "hc-rep-2", "--probe", "a0")
    assert code1 == code2 == 0
    assert json.loads(out1)["ok"] and json.loads(out2)["ok"]
    assert out1 != out2


TINY_LINE = (
    "(superalgebra tiny (basis (z even) (x odd)) (bracket x x (1 z)))\n"
    "(pair tinyline tiny (line z))\n"
)


def test_non_finite_rate_exits_2(capsys, tmp_path):
    src = tmp_path / "inf.sexp"
    src.write_text(TINY_LINE + "(element a tinyline"
                   " (tensor (ue (1 x)) (linefunc (plus (gauss 1e999 0 1)))))\n")
    code, out = run(capsys, "--file", str(src), "bound", "--elem", "a")
    assert code == 2
    assert json.loads(out) == {"error": "3:63: number '1e999' is not finite"}


TINY_FINITE = (
    "(superalgebra p (basis (x odd)))\n"
    "(pair z2 p (finite (elements e s) (table (e s) (s e)) (ad s ((-1)))))\n"
)


@pytest.mark.parametrize("depth", [2, 1200])
def test_a_nested_group_point_exits_2(capsys, tmp_path, depth):
    src = tmp_path / "nested.sexp"
    point = "(" * depth + "s" + " eps)" * depth
    src.write_text(TINY_FINITE + f"(function f z2 (finitefunc (delta {point} 1)))\n"
                   "(element w z2 (tensor (ue (1 x)) f))\n")
    code, out = run(capsys, "--file", str(src), "xp-star", "--elem", "w")
    assert code == 2
    assert json.loads(out) == {"error": "3:36: expected group element"}


@pytest.mark.parametrize("literal", ["9" * 5000, "1/" + "9" * 5000],
                         ids=["integer", "denominator"])
def test_a_literal_past_the_int_digit_limit_exits_2(capsys, tmp_path, literal):
    src = tmp_path / "long.sexp"
    src.write_text(TINY_LINE + f"(superalgebra big (basis (z even)) (bracket z z ({literal} z)))\n")
    code, out = run(capsys, "--file", str(src), "validate", "--algebra", "big")
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith("3:50: ") and "99999" not in error


def test_rep_matrix_larger_than_grading_exits_2(capsys, tmp_path):
    src = tmp_path / "shape.sexp"
    src.write_text(TINY_LINE + "(rep r tinyline (grading -1)\n"
                   "  (rho z ((1.0i 0.0) (0.0 1.0i))) (freq 1.0))\n")
    code, out = run(capsys, "--file", str(src), "validate", "--pair", "tinyline")
    assert code == 2
    assert json.loads(out) == {
        "error": "4:10: 2x2 matrix does not match the 1-entry grading"
    }


def test_unexpected_exception_is_a_structured_error(capsys, monkeypatch):
    def broken(ws, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    code = main(["--catalog", "hc", "validate", "--pair", "hcline"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": "internal error: RuntimeError: boom"}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("builder", ["build_superalgebra", "build_pair"])
def test_a_bug_in_a_builder_is_an_internal_error(capsys, monkeypatch, tmp_path, builder):
    """Only a SuperrepError from a builder is a located input error; any other
    exception is a bug, which parse lets through and main reports as such."""
    def broken(*args):
        raise TypeError("boom")

    monkeypatch.setattr(dsl, builder, broken)
    with pytest.raises(TypeError, match="boom"):
        parse(TINY_LINE)
    src = tmp_path / "tiny.sexp"
    src.write_text(TINY_LINE)
    code, out = run(capsys, "--file", str(src), "validate", "--pair", "tinyline")
    assert (code, json.loads(out)) == (1, {"error": "internal error: TypeError: boom"})


def test_freq_without_number_exits_2(capsys, tmp_path):
    src = tmp_path / "f.sexp"
    src.write_text(
        "(superalgebra hc (basis (z even) (x odd)) (bracket x x (1 z)))\n"
        "(pair hcline hc (line z))\n"
        "(rep r hcline (grading 1 -1) (freq))\n"
    )
    code, out = run(capsys, "--file", str(src), "validate", "--pair", "hcline")
    assert code == 2
    assert json.loads(out)["error"].startswith("3:30: expected (freq NUMBER)")


def test_freq_that_disagrees_with_rho_z_exits_2(capsys, tmp_path):
    src = tmp_path / "f.sexp"
    src.write_text(
        "(superalgebra hc (basis (z even) (x odd)) (bracket x x (1 z)))\n"
        "(pair hcline hc (line z))\n"
        "(rep r hcline (grading 1 -1) (rho z ((1i 0) (0 2i))) (freq 1))\n"
    )
    code, out = run(capsys, "--file", str(src), "validate", "--pair", "hcline")
    assert (code, json.loads(out)) == (2, {"error": "3:54: (freq ...) disagrees with (rho z ...)"})


def test_repeated_basis_name_exits_2_at_the_repeat(capsys, tmp_path):
    # x.x = [x,x]/2 = z/2, so a normal form of 0 would be wrong
    src = tmp_path / "twice.sexp"
    src.write_text("(superalgebra a (basis (z even) (x odd) (x odd)) (bracket x x (1 z)))\n")
    code, out = run(capsys, "--file", str(src), "nf", "--algebra", "a", "--word", "x,x")
    assert code == 2
    assert json.loads(out) == {
        "error": "1:42: basis element 'x' given twice (first at line 1, column 34)"
    }


@pytest.mark.parametrize("argv", [
    ("nf", "--algebra", "hc", "--word", "x,q"),
    ("dagger", "--algebra", "hc", "--word", "q"),
    ("gamma-check", "--pair", "hcline", "--f", "gauss1", "--h", "gauss2", "--word", "x,q"),
], ids=["nf", "dagger", "gamma-check"])
def test_unknown_word_name_exits_2(capsys, argv):
    code, out = run(capsys, "--catalog", "hc", *argv)
    assert code == 2
    assert json.loads(out) == {"error": "unknown basis element 'q'"}


@pytest.mark.parametrize("flags", [
    ("--tol", "nan", "gamma-check", "--pair", "hcline", "--f", "gauss1", "--h", "gauss2"),
    ("--tol", "-0.5", "roundtrip", "--rep", "hc-rep-2", "--probe", "a0"),
    ("rep-check", "--rep", "hc-rep-2", "--tol", "inf"),
    ("orbit-deriv", "--pair", "hcline", "--elem", "a0", "--h", "inf"),
    ("orbit-deriv", "--pair", "hcline", "--elem", "a0", "--h", "0"),
    ("orbit-deriv", "--pair", "hcline", "--elem", "a0", "--h", "-0.1"),
    ("orbit-deriv", "--pair", "hcline", "--elem", "a0", "--h", "nan"),
], ids=["tol-nan", "tol-negative", "tol-inf", "h-inf", "h-zero", "h-negative", "h-nan"])
def test_non_finite_or_out_of_range_flags_are_usage_errors(capsys, flags):
    code = main(["--catalog", "hc", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "usage:" in captured.err


def test_line_pair_with_nontrivial_adjoint_exits_1(capsys, tmp_path):
    src = tmp_path / "shear.sexp"
    src.write_text(
        "(superalgebra shear (basis (z even) (x1 odd) (x2 odd)) (bracket z x1 (1 x2)))\n"
        "(pair shearline shear (line z))\n"
        "(element a shearline (tensor (ue (1 x1)) (linefunc (plus (gauss 1 0 1)))))\n"
    )
    code, out = run(capsys, "--file", str(src), "xp-mul", "--left", "a", "--right", "a")
    assert code == 1
    assert "nontrivial adjoint action" in json.loads(out)["error"]


def test_repeated_set_once_clause_exits_2(capsys, tmp_path):
    src = tmp_path / "twice.sexp"
    src.write_text(
        "(superalgebra p (basis (x odd)))\n"
        "(pair q p (finite (elements e s) (table (e s) (s e)) (ad s ((-1))) (ad s ((1)))))\n"
    )
    code, out = run(capsys, "--file", str(src), "validate", "--pair", "q")
    assert code == 2
    assert json.loads(out) == {
        "error": "2:72: ad of group element 's' given twice (first at line 2, column 58)"
    }


def test_flag_after_the_subcommand_replaces_the_one_before(capsys):
    # a global flag given after the subcommand wins, also for repeatable ones
    _, seeded = run(capsys, "--catalog", "hc", "--seed", "2", "roundtrip",
                    "--rep", "hc-rep-2", "--probe", "a0")
    _, both = run(capsys, "--seed", "1", "--catalog", "hc", "roundtrip",
                  "--rep", "hc-rep-2", "--probe", "a0", "--seed", "2")
    assert both == seeded
    code, out = run(capsys, "--catalog", "podd", "validate", "--pair", "hcline",
                    "--catalog", "hc")
    assert code == 0 and json.loads(out)["ok"]
    code, out = run(capsys, "--catalog", "hc", "validate", "--pair", "hcline",
                    "--catalog", "podd")
    assert code == 2 and json.loads(out) == {"error": "unknown pair 'hcline'"}
    # defaults hold when no flag is given anywhere
    code, out = run(capsys, "--catalog", "hc", "gamma-check", "--pair", "hcline",
                    "--f", "gauss1", "--h", "gauss2")
    assert code == 0 and json.loads(out)["tol"] == 1e-8


def test_tol_help_names_the_commands_that_read_it(capsys):
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "only gamma-check and roundtrip read it" in text


# -- the exit-code and output contract over every command and name -----------

_WS = load_catalog()
# every name of every category, on either pair, and names nothing defines
_NAMES = st.sampled_from(sorted(
    {name for category in _WS._TABLES for name in _WS.table(category)} | {"nosuch", ""}
))
_WORDS = st.sampled_from(["", "x", "x,x,x", "z x", "x,,z", "q", "x,q", "z,x,x1,x2", " , "])
_STEPS = st.sampled_from(["0.1", "1e-3", "10", "0", "-0.1", "nan", "inf", "-inf", "1/2", "h"])
_TOLS = st.sampled_from(["1e-8", "0", "1", "-1e-9", "nan", "inf", "tol"])
_ORDERS = st.sampled_from(["decl", "oddmajor", "odd"])
# a name of the flag's own category half of the time, else any name
_CATEGORY = {"--pair": "pair", "--algebra": "algebra", "--left": "element",
             "--right": "element", "--elem": "element", "--probe": "element",
             "--f": "function", "--h": "function", "--rep": "rep", "--family": "family"}
_OWN_NAMES = {flag: st.one_of(st.sampled_from(sorted(_WS.table(category))), _NAMES)
              for flag, category in _CATEGORY.items()}
# each command with its flags
_COMMANDS = {
    "validate": (("--pair",), ("--algebra",)),
    "nf": (("--algebra", "--word", "--order"),),
    "dagger": (("--algebra", "--word"),),
    "xp-mul": (("--left", "--right"),),
    "xp-star": (("--elem",),),
    "gamma-check": (("--pair", "--f", "--h", "--word"),),
    "rep-check": (("--rep",),),
    "hat": (("--rep", "--elem"),),
    "bound": (("--elem",),),
    "seminorm": (("--elem", "--family"),),
    "roundtrip": (("--rep", "--probe"),),
    "ccr-report": (("--family", "--elem", "--elem"),),
    "orbit-deriv": (("--pair", "--elem", "--h"),),
    "taylor": (("--pair", "--elem", "--family"),),
}


_CATALOGS = [arg for name in CATALOG_NAMES for arg in ("--catalog", name)]


@st.composite
def _argv(draw, sources=_CATALOGS):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = draw(st.sampled_from(_COMMANDS[command]))
    values = {**_OWN_NAMES, "--word": _WORDS, "--order": _ORDERS}
    if command == "orbit-deriv":
        values["--h"] = _STEPS
    args = [command]
    for flag in flags:
        args += [flag, draw(values[flag])]
    extra = ["--tol", draw(_TOLS)] if draw(st.booleans()) else []
    # global flags go before or after the subcommand
    return sources + extra + args if draw(st.booleans()) else sources + args + extra


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _keeps_the_contract(argv):
    """Run argv and check the exit code and output contract; returns the
    run."""
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if out:
        # one JSON document and nothing after it
        _, end = json.JSONDecoder().raw_decode(out)
        assert out[end:] == "\n"
    else:
        # only an argv that does not parse leaves stdout empty
        assert code == 2 and "usage:" in err
    assert "internal error" not in out + err
    return code, out, err


@settings(max_examples=100)
@given(_argv())
def test_every_command_keeps_the_exit_code_and_output_contract(argv):
    first = _keeps_the_contract(argv)
    assert _run(argv) == first


@pytest.fixture(scope="module")
def source_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "mutated.sexp"


@settings(max_examples=100)
@given(st.sampled_from(CATALOG_NAMES), st.lists(MUTATION, max_size=3), st.data())
def test_mutated_catalog_files_keep_the_exit_code_and_output_contract(
        source_path, name, mutations, data):
    """A shipped catalog, intact or with tokens dropped, replaced or
    inserted, given with --file next to the other catalogs, parses or is
    refused within the contract."""
    source_path.write_text(mutated_source(name, mutations), encoding="utf-8")
    others = [arg for other in CATALOG_NAMES if other != name for arg in ("--catalog", other)]
    _keeps_the_contract(data.draw(_argv(others + ["--file", str(source_path)])))


# -- one definition table: required flags and lookup order -------------------

# the flags of _COMMANDS that may be left out; every other one is required
_OPTIONAL = {("nf", "--order"), ("gamma-check", "--word"), ("orbit-deriv", "--h")}


@pytest.mark.parametrize("command, flag", sorted(
    {(command, flag) for command, alternatives in _COMMANDS.items()
     for flags in alternatives for flag in flags} - _OPTIONAL))
def test_each_required_flag_omitted_is_a_usage_error(capsys, command, flag):
    # a value each plain option accepts; any name will do for the others
    values = {"--order": "decl", "--h": "0.1" if command == "orbit-deriv" else "a0"}
    for flags in _COMMANDS[command]:
        if flag not in flags:
            continue
        args = [arg for other in flags if other != flag
                for arg in (other, values.get(other, "a0"))]
        code = main(["--catalog", "hc", command, *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "required" in captured.err


@pytest.mark.parametrize("command", [
    "xp-mul", "gamma-check", "hat", "seminorm", "roundtrip", "ccr-report", "orbit-deriv",
    "taylor",
])
def test_names_resolve_in_flag_order(capsys, command):
    # every name unknown, given in reverse: the first name flag is looked up first
    [flags] = _COMMANDS[command]
    names = [flag for flag in flags
             if flag in _CATEGORY and (command, flag) not in _OPTIONAL]
    args = [arg for i, flag in reversed(list(enumerate(names))) for arg in (flag, f"no{i}")]
    code, out = run(capsys, "--catalog", "hc", "--catalog", "podd", command, *args)
    assert code == 2
    assert json.loads(out) == {"error": f"unknown {_CATEGORY[names[0]]} 'no0'"}


def test_gamma_check_looks_up_every_name_before_the_pair_check(capsys):
    code, out = run(capsys, "--catalog", "hc", "--catalog", "podd", "gamma-check",
                    "--pair", "z2odd", "--f", "gauss1", "--h", "nosuch")
    assert code == 2
    assert json.loads(out) == {"error": "unknown function 'nosuch'"}


# -- strict JSON: a non-finite result is an error -----------------------------

_OVERFLOWS = {
    # exp(-a t^2) with a = 1e308: the derivative's 2.0 * a * mu is inf * 0
    "nan-bound": ("(gauss 1e308 0 1)", ("bound", "--elem", "a")),
    # a subnormal rate: the bound overflows to infinity
    "inf-bound": ("(gauss 1e-320 0 1)", ("bound", "--elem", "a")),
    # a far centre overflows a moment's mu ** e
    "overflow-orbit": ("(gauss 1 1e300 1)", ("orbit-deriv", "--pair", "tinyline", "--elem", "a")),
    # coefficients near the float maximum multiply to inf - inf
    "nan-product": ("(gauss 1 0 1e308 1e308)", ("xp-mul", "--left", "a", "--right", "a")),
    # rate ** 2.5 underflows to 0.0, and the degree-4 moment overflows
    "inf-moment": ("(gauss 1e-300 0 0 0 0 0 1)", ("bound", "--elem", "a")),
}


@pytest.mark.parametrize("gauss, argv", _OVERFLOWS.values(), ids=_OVERFLOWS)
def test_non_finite_result_exits_1(capsys, tmp_path, gauss, argv):
    src = tmp_path / "big.sexp"
    src.write_text(TINY_LINE + f"(element a tinyline (tensor (ue (1 x)) (linefunc (plus {gauss}))))\n")
    code, out = run(capsys, "--file", str(src), *argv)
    assert code == 1
    [error] = json.loads(out).values()
    assert error.startswith("non-finite result: ")


def test_a_moment_too_small_to_form_bounds_above_zero(capsys, tmp_path):
    # rate ** 2.5 overflows, while the degree-4 moment is about 1e-750
    src = tmp_path / "steep.sexp"
    src.write_text(TINY_LINE + "(element a tinyline "
                   "(tensor (ue (1)) (linefunc (plus (gauss 1e300 0 0 0 0 0 1)))))\n")
    code, out = run(capsys, "--file", str(src), "bound", "--elem", "a")
    assert code == 0
    assert 0.0 < json.loads(out)["upper"] < 1e-300


def test_a_moment_too_small_to_form_reads_zero_in_fourier_values(capsys, tmp_path):
    # the Fourier value takes the nearest moment, 0.0, while the bound
    # keeps its upward rounding
    src = tmp_path / "steep.sexp"
    src.write_text("(element s hcline "
                   "(tensor (ue (1)) (linefunc (plus (gauss 1e300 0 0 0 0 0 1)))))\n")
    base = ("--catalog", "hc", "--file", str(src))
    code, out = run(capsys, *base, "hat", "--rep", "hc-rep-2", "--elem", "s")
    assert code == 0
    hat = json.loads(out)
    assert hat["matrix"] == [[[0.0, 0.0], [0.0, 0.0]]] * 2 and hat["operator_norm"] == 0.0
    code, out = run(capsys, *base, "seminorm", "--elem", "s", "--family", "hc-grid")
    assert code == 0
    assert json.loads(out)["lower"] == 0.0 and json.loads(out)["upper"] == 5e-324
    code, out = run(capsys, *base, "bound", "--elem", "s")
    assert (code, json.loads(out)["upper"]) == (0, 5e-324)


# a line coefficient that overflows after parsing, and the command that met it
_LATE_OVERFLOWS = {
    "scaled-by-ue": ("(element sc hcline (tensor (ue (2 x)) "
                     "(linefunc (plus (gauss 1 0 1e308)))))\n",
                     ("xp-star", "--elem", "sc"), "1:20: Gaussian coefficient is not finite"),
    "merged-in-a-linefunc": ("(element sc hcline (tensor (ue (1 x)) "
                             "(linefunc (plus (gauss 1 0 1e308) (gauss 1 0 1e308)))))\n",
                             ("bound", "--elem", "sc"),
                             "1:39: Gaussian coefficient is not finite"),
    "merged-across-tensors": ("(element sc hcline"
                              " (tensor (ue (1 x)) (linefunc (plus (gauss 1 0 1e308))))"
                              " (tensor (ue (1 x)) (linefunc (plus (gauss 1 0 1e308)))))\n",
                              ("bound", "--elem", "sc"),
                              "1:76: Gaussian coefficient is not finite"),
    "huge-ue-coefficient": (f"(element sc hcline (tensor (ue ({'9' * 400} x)) "
                            "(linefunc (plus (gauss 1 0 1)))))\n",
                            ("validate", "--pair", "hcline"),
                            "1:20: coefficient is too large for a float"),
}


@pytest.mark.parametrize("source, argv, error", _LATE_OVERFLOWS.values(), ids=_LATE_OVERFLOWS)
def test_a_coefficient_that_overflows_after_parsing_exits_2(capsys, tmp_path,
                                                             source, argv, error):
    src = tmp_path / "late.sexp"
    src.write_text(source)
    code, out = run(capsys, "--catalog", "hc", "--file", str(src), *argv)
    assert (code, json.loads(out)) == (2, {"error": error})


# an element whose bridge matrix is infinite on hc-rep-4 and hc-rep-8 only
_HUGE = "(element e hcline (tensor (ue (1 x)) (linefunc (plus (gauss 1 0 1e308 1e308)))))\n"
# a finite probe image whose pi and rho multiples overflow in roundtrip's own
# vector arithmetic, outside rep_hat
_NEAR_MAX = ("(element e hcline (tensor (ue (1)) "
             "(linefunc (plus (gauss 1 0 5e307)) (eps (gauss 1 0 5e307)))))\n")


@pytest.fixture
def huge(tmp_path):
    """A file defining the element of ``_HUGE``."""
    src = tmp_path / "huge.sexp"
    src.write_text(_HUGE)
    return str(src)


@pytest.mark.parametrize("argv", [
    ("seminorm", "--elem", "e", "--family", "hc-grid"),
    ("taylor", "--pair", "hcline", "--elem", "e", "--family", "hc-grid"),
    ("ccr-report", "--family", "hc-grid", "--elem", "e"),
    ("hat", "--rep", "hc-rep-4", "--elem", "e"),
    # a NaN probe image, not a vanishing one
    ("roundtrip", "--rep", "hc-rep-4", "--probe", "e"),
    # a finite probe image whose rho(z) multiple overflows: not a NaN left out
    # of the maximum deviation, and no numpy warning on the way
    pytest.param(("roundtrip", "--rep", "hc-rep-2", "--probe", "e"), id="roundtrip-rho-z"),
], ids=lambda argv: argv[0])
def test_non_finite_bridge_matrix_exits_1(capsys, huge, argv):
    code, out = run(capsys, "--catalog", "hc", "--file", huge, *argv)
    assert code == 1
    assert json.loads(out) == {"error": "non-finite result: matrix with a non-finite entry"}


# a line rep whose rho(z)^2 overflows in validate_rep's bracket witnesses
_OVERFLOWING_REP = """\
(superalgebra a (basis (z even) (x odd)) (bracket x x (1 z)))
(pair p a (line z))
(rep r p (grading 1 -1) (freq 1e300) (rho z ((1e300i 0) (0 1e300i))))
"""

# name: (file source, argv after --file, exit code, error)
_OVERFLOWS = {
    "rep-hat": (_HUGE, ("--catalog", "hc", "roundtrip", "--rep", "hc-rep-2", "--probe", "e"),
                1, "non-finite result: matrix with a non-finite entry"),
    "roundtrip-vectors": (_NEAR_MAX, ("--catalog", "hc", "--seed", "2", "roundtrip",
                                      "--rep", "hc-rep-1-4", "--probe", "e"),
                          1, "non-finite result: overflow encountered in matmul"),
    "validate-witness": (_OVERFLOWING_REP, ("validate", "--pair", "p"), 2,
                         "3:1: representation 'r' fails validation "
                         "(bracket_morphism: [z,z] (non-finite witness), [x,x])"),
}


def test_bridge_overflow_is_refused_without_a_warning(tmp_path):
    # under -W error a numpy warning would end as an internal error
    env = {**os.environ, "PYTHONPATH": os.path.join(_ROOT, "src")}
    for name, (source, argv, code, error) in _OVERFLOWS.items():
        src = tmp_path / f"{name}.sexp"
        src.write_text(source)
        done = subprocess.run([sys.executable, "-W", "error", "-m", "superrep.cli",
                               "--file", str(src), *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, json.loads(done.stdout), done.stderr) == (
            code, {"error": error}, ""), name


@pytest.mark.filterwarnings("error")
def test_roundtrip_vector_overflow_exits_1(tmp_path):
    # the deviation is not a maximum that silently dropped a NaN
    src = tmp_path / "near_max.sexp"
    src.write_text(_NEAR_MAX)
    assert _run(["--catalog", "hc", "--file", str(src), "--seed", "2", "roundtrip",
                 "--rep", "hc-rep-1-4", "--probe", "e"]) == (
        1, cli._json({"error": "non-finite result: overflow encountered in matmul"}), "")


def test_finite_bridge_matrix_near_the_float_maximum_is_printed(capsys, huge):
    code, out = run(capsys, "--catalog", "hc", "--file", huge, "hat", "--rep", "hc-rep-2",
                    "--elem", "e")
    assert code == 0
    assert 9e307 < json.loads(out)["operator_norm"] < 1e308


# -- one bridge matrix per reconstruction, one recursion per bound term -------


@pytest.mark.parametrize("catalog, rep, probe, points, generators", [
    ("hc", "hc-rep-2", "a0", 3, 2),  # t = 0.5, t = 1 and epsilon; z and x
    ("podd", "reg4", "b0", 4, 1),  # e, s and their epsilon points; x
])
def test_roundtrip_forms_one_bridge_matrix_per_reconstruction(
        capsys, monkeypatch, catalog, rep, probe, points, generators):
    calls, rep_hat = [], reps.rep_hat

    def counted(*args):
        calls.append(args)
        return rep_hat(*args)

    monkeypatch.setattr(reps, "rep_hat", counted)
    monkeypatch.setattr(cli, "rep_hat", counted)
    code, _ = run(capsys, "--catalog", catalog, "roundtrip", "--rep", rep, "--probe", probe)
    assert code == 0
    # the probe image, then one per group point and one per generator
    assert len(calls) == 1 + points + generators == 6


def test_bound_runs_the_recursion_once_per_term(capsys, monkeypatch):
    # one pass over the words, doing the work of one prop33_bound call
    calls, word_bounds, l1_bound = {"pass": 0, "l1_bound": 0}, cli._word_bounds, reps.l1_bound

    def counted_pass(a):
        calls["pass"] += 1
        return word_bounds(a)

    def counted_l1(f):
        calls["l1_bound"] += 1
        return l1_bound(f)

    monkeypatch.setattr(cli, "_word_bounds", counted_pass)
    monkeypatch.setattr(reps, "l1_bound", counted_l1)
    code, out = run(capsys, "--catalog", "hc", "bound", "--elem", "axz")
    assert code == 0 and len(json.loads(out)["terms"]) == 2
    by_cli, calls["l1_bound"] = calls["l1_bound"], 0
    reps.prop33_bound(cli._snapshot("hc").table("element")["axz"])
    assert (calls["pass"], by_cli) == (1, calls["l1_bound"]) == (1, 4)


def test_bound_reads_the_terms_as_they_are(capsys, monkeypatch):
    # no term is rebuilt as a one-term element: no straightening, no scaling
    run(capsys, "--catalog", "hc", "bound", "--elem", "axz")  # the snapshot, built once
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, call)

    counted(crossed, "normal_form")
    counted(GaussianPoly, "scale")
    code, out = run(capsys, "--catalog", "hc", "bound", "--elem", "axz")
    assert (code, len(json.loads(out)["terms"]), calls) == (0, 2, [])


def _upper(a) -> float:
    doc, _ = cli.cmd_bound(argparse.Namespace(elem="a"), a)
    return doc["upper"]


def test_bound_upper_is_the_bound_of_the_whole_element_bit_for_bit(hcline):
    # every shipped element; the bound accepts each of them
    elements = [a for name in CATALOG_NAMES for a in cli._snapshot(name).table("element").values()]
    assert len(elements) == 8
    # and products whose terms come in another order than the sorted one
    rng, pairs = random.Random(23), (hcline, parse(HC2LINE_SOURCE).pairs["hc2tline"])
    while len(elements) < 108:
        pair = rng.choice(pairs)
        a = xp_multiply(random_line_element(rng, pair), random_line_element(rng, pair))
        if len(a.terms) >= 3 and list(a.terms) != sorted(a.terms):
            elements.append(a)
    for a in elements:
        assert _upper(a).hex() == reps.prop33_bound(a).hex()


def test_bound_of_a_zero_element(capsys, tmp_path):
    src = tmp_path / "zero.sexp"
    src.write_text(
        "(element e0 hcline (tensor (ue) gauss1))\n"
        # z acts on the odd part by x -> x + t y: a line pair the bound refuses
        "(superalgebra shear (basis (z even) (x odd) (y odd)) (bracket z x (1 y)))\n"
        "(pair shearline shear (line z))\n"
        "(element s0 shearline (tensor (ue) (linefunc (plus (gauss 1 0 1)))))\n")
    code, out = run(capsys, "--catalog", "hc", "--file", str(src), "bound", "--elem", "e0")
    assert (code, out) == (0, '{\n  "elem": "e0",\n  "upper": 0.0,\n  "terms": []\n}\n')
    # refused even for an element with no term
    code, out = run(capsys, "--catalog", "hc", "--file", str(src), "bound", "--elem", "s0")
    assert (code, json.loads(out)) == (1, {"error": "shearline: line instances with a "
                                           "nontrivial adjoint action on the algebra are "
                                           "not supported"})


_OCLINE = OCLINE_SOURCE + """
(element big ocline (tensor (ue (1 x)) (linefunc (plus (gauss 1e-300 0 1e200)))))
(element g ocline (tensor (ue (1)) (linefunc (plus (gauss 1 0 1)))))
(rep oc-rep ocline (grading 1) (freq 1) (rho z ((1i))) (rho x ((0))))
(family oc-fam oc-rep)
"""


@pytest.fixture
def ocline_file(tmp_path):
    src = tmp_path / "oc.sexp"
    src.write_text(_OCLINE)
    return str(src)


def test_a_vanishing_odd_square_bounds_to_zero(capsys, ocline_file):
    code, out = run(capsys, "--file", ocline_file, "bound", "--elem", "big")
    assert (code, json.loads(out)) == (
        0, {"elem": "big", "upper": 0.0, "terms": [{"word": ["x"], "bound": 0.0}]})


def test_a_vanishing_product_forms_no_convolution(capsys, tmp_path):
    # x x = 0 on ocline, so the product is 0 and no convolution runs; the
    # convolution would have a rate that underflows to 0, which is refused
    src = tmp_path / "tiny.sexp"
    src.write_text(OCLINE_SOURCE + "(element tiny ocline "
                   "(tensor (ue (1 x)) (linefunc (plus (gauss 1e-300 0 1)))))\n")
    code, out = run(capsys, "--file", str(src), "xp-mul", "--left", "tiny", "--right", "tiny")
    assert (code, json.loads(out)["product"]) == (0, {"terms": []})


def test_a_term_with_a_zero_rho_word_adds_nothing_where_pi_overflows(capsys, ocline_file):
    # rho(x) = 0 in oc-rep, and pi(f) of big overflows: 0 * inf would be NaN
    code, out = run(capsys, "--file", ocline_file, "hat", "--rep", "oc-rep", "--elem", "big")
    assert (code, json.loads(out)["matrix"]) == (0, [[[0.0, 0.0]]])
    code, out = run(capsys, "--file", ocline_file, "ccr-report", "--family", "oc-fam",
                    "--elem", "big")
    assert code == 0
    assert json.loads(out)["representations"][0]["image_span_dim"] == 0


def test_ccr_flags_of_a_nilpotent_algebra_not_generated_by_its_odd_part(capsys, ocline_file):
    code, out = run(capsys, "--file", ocline_file, "ccr-report", "--family", "oc-fam",
                    "--elem", "g")
    assert code == 0
    assert json.loads(out)["flags"] == {"nilpotent": True, "odd_generated": False}


@pytest.mark.parametrize("argv", [
    ("--catalog", "hc", "gamma-check", "--pair", "hcline", "--f", "gauss1", "--h", "gauss2"),
    ("--catalog", "podd", "gamma-check", "--pair", "z2odd", "--f", "dmix", "--h", "ds",
     "--word", "x"),
], ids=["line", "finite"])
def test_gamma_check_fails_against_twice_the_integral(capsys, monkeypatch, argv):
    # both integrals are nonzero, so twice either one breaks the identity
    gamma_integral = cli.gamma_integral
    monkeypatch.setattr(cli, "gamma_integral", lambda *args: gamma_integral(*args).scale(2))
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert (code, doc["ok"]) == (1, False)
    assert doc["deviation"] > doc["tol"]
    if "z2odd" in argv:
        assert doc["deviation"] == 1.0


def test_taylor_fails_against_a_quarter_of_the_bound(capsys, monkeypatch):
    """For a0 on hc-grid the family maximum is 0.368 of the bound at every
    step; against a quarter of it, about 1.47, the check must fail."""
    prop33_bound = reps.prop33_bound
    monkeypatch.setattr(reps, "prop33_bound", lambda a: prop33_bound(a) / 4)
    code, out = run(capsys, "--catalog", "hc", "taylor", "--pair", "hcline", "--elem", "a0",
                    "--family", "hc-grid")
    doc = json.loads(out)
    assert (code, doc["ok"]) == (1, False)
    assert all(1.4 < row["family_max"] / row["bound"] < 1.5 for row in doc["steps"])


def test_taylor_compares_with_no_slack(capsys, monkeypatch):
    """A bound 1e-13 below the family maximum fails its step.  At t = 1e-3
    the ratio family_max / t is the largest of the three steps, so the
    other two keep their ok."""
    ws = load_catalog("hc")
    family = [ws.reps[name] for name in ws.families["hc-grid"]]
    last = reps.taylor_norm_check(ws.pairs["hcline"], ws.elements["a0"], family)["steps"][-1]
    m_const = 2 * (last["family_max"] - 1e-13) / last["t"]
    monkeypatch.setattr(reps, "prop33_bound", lambda a: m_const)
    code, out = run(capsys, "--catalog", "hc", "taylor", "--pair", "hcline", "--elem", "a0",
                    "--family", "hc-grid")
    doc = json.loads(out)
    assert (code, doc["ok"]) == (1, False)
    assert [row["ok"] for row in doc["steps"]] == [True, True, False]
    assert 0.9e-13 < doc["steps"][-1]["family_max"] - doc["steps"][-1]["bound"] < 1.1e-13


# -- a family maximum above the certified bound is refused --------------------

# Each representation passes rep-check, since validate_rep admits numpy's
# default rtol=1e-5, and its image of the element beats the Prop. 3.3 bound.
# name: (catalog, file source, element, family, representation,
#        bound, operator norm of the image, seminorm error)
BEATEN_BOUNDS = {
    "finite": ("podd",
               "(rep chi-loose z2odd (grading 1) (pi s ((1.000004))))\n"
               "(family loose-chars chi-loose)\n",
               "bs", "loose-chars", "chi-loose", 1.0, 1.000004, "1.000004 > 1.0"),
    # the bound is 0.0, and the representation does not kill the element
    "zero-bound": ("podd",
                   "(rep tiny z2odd (grading 1 -1) (rho x ((0 (c 7.0710678118654755e-06 "
                   "7.0710678118654755e-06)) ((c 7.0710678118654755e-06 "
                   "7.0710678118654755e-06) 0))) (pi s ((1 0) (0 -1))))\n"
                   "(family tinyfam tiny)\n",
                   "bx", "tinyfam", "tiny", 0.0, 1e-05, "1e-05 > 0.0"),
    "line": ("hc",
             "(rep loose hcline (grading 1.000004 -1) (freq 0.0))\n"
             "(family loose-fam loose)\n"
             "(element e0 hcline (tensor (ue (1)) (linefunc (eps (gauss 1 0 1)))))\n",
             "e0", "loose-fam", "loose", 1.77245385090552, 1.77246094072092,
             "1.7724609407209193 > 1.7724538509055159"),
}


@pytest.fixture(params=BEATEN_BOUNDS.values(), ids=BEATEN_BOUNDS)
def beaten(request, tmp_path):
    """The CLI prefix that loads one BEATEN_BOUNDS input, and its fields."""
    catalog, source, *fields = request.param
    src = tmp_path / "beaten.sexp"
    src.write_text(source)
    return ("--catalog", catalog, "--file", str(src)), fields


def test_seminorm_refuses_a_family_maximum_above_the_bound(capsys, beaten):
    base, (elem, family, _, _, _, numbers) = beaten
    code, out = run(capsys, *base, "seminorm", "--elem", elem, "--family", family)
    assert (code, json.loads(out)) == (
        1, {"error": f"seminorm interval must satisfy lower <= upper, got {numbers}"})


def test_bound_hat_and_rep_check_accept_what_seminorm_refuses(capsys, beaten):
    base, (elem, _, rep, bound, norm, _) = beaten
    code, out = run(capsys, *base, "bound", "--elem", elem)
    assert (code, json.loads(out)["upper"]) == (0, bound)
    code, out = run(capsys, *base, "hat", "--rep", rep, "--elem", elem)
    assert (code, json.loads(out)["operator_norm"]) == (0, norm)
    code, out = run(capsys, *base, "rep-check", "--rep", rep)
    assert (code, json.loads(out)["ok"]) == (0, True)


# -- one parser and one copy of each shipped catalog per process --------------

# an abelian algebra named like the shipped hc, in which x x is 0, not z/2
_REDEFINE_HC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "redefine_hc.sexp")

# each of these would see a leftover of the one before if the parser or a
# shipped catalog kept state
_SEQUENCE = [
    ("--catalog", "hc", "nf", "--algebra", "hc", "--word", "x", "--order", "bogus"),
    ("--help",),
    ("--catalog", "hc", "ccr-report", "--family", "hc-grid", "--elem", "a0", "--elem", "ax"),
    ("--catalog", "hc", "ccr-report", "--family", "hc-grid", "--elem", "a0"),
    ("--catalog", "hc", "--catalog", "podd", "validate", "--pair", "z2odd"),
    ("--catalog", "hc", "validate", "--pair", "z2odd"),
    ("--file", _REDEFINE_HC, "nf", "--algebra", "hc", "--word", "x,x"),
    ("--catalog", "hc", "nf", "--algebra", "hc", "--word", "x,x"),
    ("--catalog", "hc", "--file", _REDEFINE_HC, "nf", "--algebra", "hc", "--word", "x,x"),
    ("--catalog", "hc", "--catalog", "hc", "nf", "--algebra", "hc", "--word", "x,x"),
]


def test_the_shared_parser_keeps_no_state():
    first = []
    for argv in _SEQUENCE:
        # a new parser and new catalogs, as in a new process
        cli.build_parser.cache_clear()
        cli._snapshot.cache_clear()
        first.append(_run(list(argv)))
    parser, hc = cli.build_parser(), cli._snapshot("hc")
    assert [_run(list(argv)) for argv in _SEQUENCE] == first
    assert cli.build_parser() is parser and cli._snapshot("hc") is hc
    assert [code for code, _, _ in first] == [2, 0, 0, 0, 0, 2, 0, 0, 2, 2]
    assert first[6][1] != first[7][1]  # the file's hc, then the shipped one


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_a_snapshot_built_workspace_prints_as_a_fresh_catalog(name):
    ws = Workspace()
    ws.merge(cli._snapshot(name))
    assert print_workspace(ws) == print_workspace(load_catalog(name))


def test_merged_snapshots_are_the_catalogs_parsed_together():
    ws, fresh = Workspace(), load_catalog()
    for name in CATALOG_NAMES:
        ws.merge(cli._snapshot(name))
    assert print_workspace(ws) == print_workspace(fresh)
    assert list(ws._sites.items()) == list(fresh._sites.items())


@pytest.mark.parametrize("argv", [
    ("validate", "--pair", "hcline"),
    ("validate", "--algebra", "hc"),
    ("rep-check", "--rep", "hc-rep-2"),
], ids=lambda argv: " ".join(argv))
def test_validate_and_rep_check_validate_nothing_again(capsys, monkeypatch, argv):
    """From new snapshots, parsing validates each definition once, and the
    handler prints the reports kept then; a second run validates nothing."""
    hc = load_catalog("hc")
    calls = []  # (validator, definition name, whether inside the handler)
    in_handler = []

    def counted(module, name):
        # rebound on every superrep module that imports it by name
        real = getattr(module, name)
        wrapper = lambda x: calls.append((name, x.name, bool(in_handler))) or real(x)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "superrep"]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, wrapper)

    counted(superalgebra, "validate_superalgebra")
    counted(groups, "validate_pair")
    counted(reps, "validate_rep")
    handler = "cmd_" + argv[0].replace("-", "_")
    real_handler = getattr(cli, handler)

    def traced(*args):
        in_handler.append(True)
        try:
            return real_handler(*args)
        finally:
            in_handler.pop()

    monkeypatch.setattr(cli, handler, traced)
    cli._snapshot.cache_clear()
    try:
        assert run(capsys, "--catalog", "hc", *argv)[0] == 0
        assert sorted(calls) == sorted(
            [("validate_superalgebra", n, False) for n in hc.algebras]
            + [("validate_pair", n, False) for n in hc.pairs]
            + [("validate_rep", n, False) for n in hc.reps])
        calls.clear()
        assert run(capsys, "--catalog", "hc", *argv)[0] == 0
        assert calls == []
    finally:
        cli._snapshot.cache_clear()


def _fresh_reports():
    """(argv, the document validating afresh gives) for every shipped
    algebra, pair and rep."""
    out = []

    def case(catalog, command, flag, name, doc):
        argv = ("--catalog", catalog, command, flag, name)
        out.append(pytest.param(argv, doc, id=" ".join(argv[2:])))

    for catalog in CATALOG_NAMES:
        ws = load_catalog(catalog)
        for name, alg in ws.algebras.items():
            case(catalog, "validate", "--algebra", name,
                 superalgebra.validate_superalgebra(alg).to_dict())
        for name, pair in ws.pairs.items():
            both = [groups.validate_pair(pair), superalgebra.validate_superalgebra(pair.algebra)]
            case(catalog, "validate", "--pair", name,
                 {"subject": name, "ok": all(r.ok for r in both),
                  "checks": [c for r in both for c in r.to_dict()["checks"]]})
        for name, rep in ws.reps.items():
            case(catalog, "rep-check", "--rep", name, reps.validate_rep(rep).to_dict())
    return out


@pytest.mark.parametrize("argv, fresh", _fresh_reports())
def test_a_kept_report_prints_as_a_fresh_validation(capsys, argv, fresh):
    assert run(capsys, *argv) == (0, json.dumps(fresh, indent=2) + "\n")


def test_load_catalog_shares_nothing_with_the_snapshots():
    for name in CATALOG_NAMES:
        fresh, shared = load_catalog(name), cli._snapshot(name)
        for category in shared._TABLES:
            for key, value in shared.table(category).items():
                assert fresh.table(category)[key] is not value


@pytest.mark.parametrize("sources", [
    ("--catalog", "hc", "--catalog", "hc"),
    ("--catalog", "toys", "--catalog", "hc", "--catalog", "podd", "--catalog", "podd"),
    ("--catalog", "hc", "--file", _REDEFINE_HC),
], ids=["catalog-twice", "catalog-twice-among-others", "file-redefines-catalog"])
def test_a_name_clash_gives_the_error_of_a_real_parse(capsys, sources):
    # every source parsed into one workspace, as main did before snapshots
    ws = Workspace()
    with pytest.raises(DslError) as exc:
        for flag, name in zip(sources[::2], sources[1::2]):
            if flag == "--catalog":
                parse(catalog_source(name), ws)
            else:
                parse_file(name, ws)
    assert "duplicate algebra name" in str(exc.value)
    code, out = run(capsys, *sources, "nf", "--algebra", "hc", "--word", "x")
    assert (code, out) == (2, cli._json({"error": str(exc.value)}))


# -- the benchmark's golden output --------------------------------------------

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "bench", "golden", "cli.json"), encoding="utf-8") as _fh:
    _GOLDEN = json.load(_fh)


@pytest.mark.parametrize("entry", _GOLDEN, ids=[" ".join(g["argv"]) for g in _GOLDEN])
def test_golden_output(capsys, monkeypatch, entry):
    monkeypatch.chdir(_ROOT)  # one command names a relative path
    assert run(capsys, *entry["argv"]) == (entry["exit"], entry["stdout"])


def test_handlers_leave_the_shared_catalogs_unchanged(capsys, monkeypatch):
    monkeypatch.chdir(_ROOT)
    before = [print_workspace(cli._snapshot(name)) for name in CATALOG_NAMES]
    for _ in range(2):
        for entry in _GOLDEN:
            assert run(capsys, *entry["argv"]) == (entry["exit"], entry["stdout"])
    assert [print_workspace(cli._snapshot(name)) for name in CATALOG_NAMES] == before
    assert all(rep.report.ok for name in CATALOG_NAMES
               for rep in cli._snapshot(name).reps.values())


def test_golden_output_in_a_new_process():
    [entry] = [g for g in _GOLDEN if "bound" in g["argv"]]
    env = {**os.environ, "PYTHONPATH": os.path.join(_ROOT, "src")}
    done = subprocess.run([sys.executable, "-m", "superrep.cli", *entry["argv"]], cwd=_ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (entry["exit"], entry["stdout"])
