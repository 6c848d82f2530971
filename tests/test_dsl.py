"""Definition-file syntax: parsing, diagnostics and the canonical printer."""

import pytest

from superrep.catalog import CATALOG_NAMES, catalog_source, load_catalog
from superrep.dsl import DslError, Workspace, parse, print_workspace, read_forms
from superrep.reps import validate_rep

HC_SOURCE = """
(superalgebra tiny
  (basis (z even) (x odd))
  (bracket x x (1 z)))
(pair tinyline tiny (line z))
(function bump tinyline
  (linefunc (plus (gauss 1 0 1))))
(element a tinyline
  (tensor (ue (1 x)) bump)
  (tensor (ue (1/2 z x)) (linefunc (plus (gauss 2 0 1i)))))
"""


def test_catalog_sources_parse(workspace):
    assert set(workspace.algebras) >= {"hc", "podd", "hc2", "gl11"}
    assert set(workspace.pairs) == {"hcline", "z2odd"}
    assert "hc-grid" in workspace.families


def test_unknown_catalog_name():
    with pytest.raises(DslError, match="unknown catalog"):
        catalog_source("nope")


def test_inline_and_named_function_literals():
    ws = parse(HC_SOURCE)
    a = ws.elements["a"]
    assert len(a.terms) == 2
    assert ws._function_pairs["bump"] == "tinyline"


def test_duplicate_name_reports_both_sites():
    src = "(superalgebra a (basis (x odd)))\n(superalgebra a (basis (y odd)))"
    with pytest.raises(DslError) as exc:
        parse(src)
    msg = str(exc.value)
    assert "duplicate" in msg
    assert "line 1" in msg  # first definition site
    assert msg.startswith("2:")  # second definition site


def test_zero_denominator_is_a_lexical_error():
    with pytest.raises(DslError, match="zero denominator") as exc:
        read_forms("(superalgebra a (basis (x odd)) (bracket x x (1/0 x)))")
    assert exc.value.line == 1
    assert exc.value.col is not None


def test_non_finite_numbers_are_located_errors():
    for text in ("1e999", "-1e999", "1e999i"):
        with pytest.raises(DslError, match="is not finite") as exc:
            read_forms(f"(gauss 1.0 0.0\n  {text})")
        assert (exc.value.line, exc.value.col) == (2, 3)
    huge = "1" + "0" * 400
    with pytest.raises(DslError, match="too large for a float") as exc:
        parse(HC_SOURCE.replace("(gauss 1 0 1)", f"(gauss {huge} 0 1)"))
    assert exc.value.line == 7


def test_pi_matrix_checked_against_grading():
    src = (
        "(superalgebra p (basis (x odd)))\n"
        "(pair pz2 p (finite (elements e s) (table (e s) (s e))"
        " (ad e ((1))) (ad s ((-1)))))\n"
        "(rep wide pz2 (grading 1) (pi s ((1 0) (0 -1))))"
    )
    with pytest.raises(DslError, match="2x2 matrix does not match the 1-entry grading") as exc:
        parse(src)
    assert (exc.value.line, exc.value.col) == (3, 33)


def test_unknown_name_diagnostics():
    with pytest.raises(DslError, match="unknown algebra 'ghost'"):
        parse("(pair p ghost (line z))")
    with pytest.raises(DslError, match="unknown basis element 'w'"):
        parse("(superalgebra a (basis (x odd)) (bracket x w (1 x)))")
    with pytest.raises(DslError, match="parity must be"):
        parse("(superalgebra a (basis (x sideways)))")


def test_unbalanced_parens_located():
    with pytest.raises(DslError, match="unclosed"):
        read_forms("(superalgebra a\n  (basis (x odd))")
    with pytest.raises(DslError, match=r"unbalanced '\)'"):
        read_forms(")")


def test_structure_errors_become_dsl_errors():
    # graded Jacobi / skew violations surface with a source location
    src = "(superalgebra bad (basis (x odd) (y odd)) (bracket x y (1 x)))"
    with pytest.raises(DslError) as exc:
        parse(src)
    assert exc.value.line == 1


def test_invalid_rep_rejected_at_parse_time():
    src = (
        "(superalgebra p (basis (x odd)))\n"
        "(pair pz2 p (finite (elements e s) (table (e s) (s e))"
        " (ad e ((1))) (ad s ((-1)))))\n"
        "(rep broken pz2 (grading 1) (rho x ((1))) (pi e ((1))) (pi s ((1))))"
    )
    with pytest.raises(DslError, match="fails validation"):
        parse(src)


def test_print_parse_print_is_identity():
    for name in CATALOG_NAMES:
        ws = Workspace()
        parse(catalog_source(name), ws)
        once = print_workspace(ws)
        again = print_workspace(parse(once))
        assert once == again


def test_printed_reps_still_validate():
    ws = load_catalog("hc")
    reparsed = parse(print_workspace(ws))
    for rep in reparsed.reps.values():
        assert validate_rep(rep).ok


def test_comments_and_whitespace_ignored():
    ws = parse("; leading comment\n(superalgebra a ; inline\n  (basis (x odd)))")
    assert "a" in ws.algebras
