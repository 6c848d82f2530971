"""Command-line interface: determinism, exit codes and output routing."""

import json

import pytest

from superrep import cli
from superrep.cli import main


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


def test_pair_mismatch_exits_1(capsys):
    code, out = run(capsys, "--catalog", "hc", "--catalog", "podd",
                    "hat", "--rep", "reg4", "--elem", "a0")
    assert code == 1
    assert "different pairs" in json.loads(out)["error"]


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
