"""Definition-file syntax: parsing, diagnostics and the canonical printer."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superrep.catalog import CATALOG_NAMES, catalog_source, load_catalog
from superrep.dsl import DslError, Workspace, parse, parse_file, print_workspace, read_forms
from superrep.reps import rep_hat, validate_rep

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
    assert ws._sites["function", "bump"] == (6, 1, "tinyline")


def test_function_reference_must_share_the_element_pair():
    src = HC_SOURCE + (
        "(superalgebra p (basis (x odd)))\n"
        "(pair pz2 p (finite (elements e s) (table (e s) (s e)) (ad s ((-1)))))\n"
        "(pair qz2 p (finite (elements e s) (table (e s) (s e)) (ad s ((-1)))))\n"
        "(function d1 pz2 (finitefunc (delta e 1)))\n"
    )
    ws = parse(src)
    for pair, fname in (("pz2", "bump"), ("qz2", "d1"), ("tinyline", "d1")):
        with pytest.raises(DslError, match=f"function '{fname}' is defined on pair") as exc:
            parse(f"(element bad {pair}\n  (tensor (ue (1 x)) {fname}))", ws)
        assert (exc.value.line, exc.value.col) == (2, 22)
    parse("(element good qz2 (tensor (ue (1 x)) (finitefunc (delta s 1))))", ws)


def test_duplicate_name_reports_both_sites():
    src = "(superalgebra a (basis (x odd)))\n(superalgebra a (basis (y odd)))"
    with pytest.raises(DslError) as exc:
        parse(src)
    msg = str(exc.value)
    assert "duplicate" in msg
    assert "line 1" in msg  # first definition site
    assert msg.startswith("2:")  # second definition site


def _state(ws):
    return print_workspace(ws), list(ws._sites.items())


def test_merge_is_parsing_into_the_workspace():
    # merging a workspace parsed on its own gives what parsing its source in
    # gives: the same definitions, sites and order, or the same first error
    clash = "(superalgebra b (basis (w even)))\n\n  (pair tinyline b (line w))\n"
    for source in (HC_SOURCE, catalog_source("podd"), clash):
        merged, parsed = parse(HC_SOURCE), parse(HC_SOURCE)
        try:
            parse(source, parsed)
        except DslError as exc:
            with pytest.raises(DslError) as caught:
                merged.merge(parse(source))
            assert str(caught.value) == str(exc)
        else:
            merged.merge(parse(source))
            assert _state(merged) == _state(parsed)
    assert str(caught.value) == ("3:3: duplicate pair name 'tinyline' "
                                 "(first defined at line 5, column 1)")


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


def test_a_token_that_starts_like_a_number_but_is_none_is_a_symbol():
    (form,) = read_forms("(1x -y + 2)")
    assert [(a.kind, a.value, a.col) for a in form.items] == [
        ("symbol", "1x", 2), ("symbol", "-y", 5), ("symbol", "+", 8), ("rational", 2, 10),
    ]


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


def test_a_byte_that_is_not_utf8_is_located(tmp_path):
    src = tmp_path / "latin1.sexp"
    src.write_bytes(b"(superalgebra a (basis (z even)))\n; caf\xe9\n")
    with pytest.raises(DslError, match="byte 0xe9 is not UTF-8") as exc:
        parse_file(str(src))
    assert (exc.value.line, exc.value.col) == (2, 6)
    # lines end at \r\n and at a lone \r too, as when the file is valid
    src.write_bytes(b"(superalgebra a\r\n (basis (z even)))\r; \xff")
    with pytest.raises(DslError) as exc:
        parse_file(str(src))
    assert (exc.value.line, exc.value.col) == (3, 3)
    src.write_bytes(b"(superalgebra a\r\n (basis (z even)))\r(pair p a (line 1/0))")
    with pytest.raises(DslError, match="zero denominator") as exc:
        parse_file(str(src))
    assert (exc.value.line, exc.value.col) == (3, 17)


def test_freq_needs_a_number():
    src = HC_SOURCE + "(rep r tinyline (grading 1 -1)\n  (freq))"
    with pytest.raises(DslError, match=r"expected \(freq NUMBER\)") as exc:
        parse(src)
    assert (exc.value.line, exc.value.col) == (HC_SOURCE.count("\n") + 2, 3)


def test_explicit_skew_partner_is_checked_not_overwritten():
    # both orders on even h, x: [x,h] = x contradicts [h,x] = x
    src = ("(superalgebra a (basis (h even) (x even))\n"
           "  (bracket h x (1 x)) (bracket x h (1 x)))")
    with pytest.raises(DslError, match="super_skew_symmetry") as exc:
        parse(src)
    assert exc.value.line == 1
    # a consistent explicit partner is accepted
    ws = parse(src.replace("(bracket x h (1 x))", "(bracket x h (-1 x))"))
    alg = ws.algebras["a"]
    assert alg.constants[0][1] == (0, 1)
    assert alg.constants[1][0] == (0, -1)


def test_bracket_given_twice_names_first_site():
    src = ("(superalgebra a (basis (h even) (x even))\n"
           "  (bracket h x (1 x))\n"
           "  (bracket h x (2 x)))")
    with pytest.raises(DslError, match=r"bracket \[h,x\] given twice") as exc:
        parse(src)
    assert "line 2, column 3" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (3, 3)


def _tokens(source: str) -> list[str]:
    return re.findall(r"\(|\)|[^\s();]+", re.sub(r";[^\n]*", "", source))


CATALOG_TOKENS = {name: _tokens(catalog_source(name)) for name in CATALOG_NAMES}
TOKEN_POOL = sorted(
    {tok for toks in CATALOG_TOKENS.values() for tok in toks}
    | {"0", "-1", "1/0", "1e999", "2i", "eps", "c", "()"}
    # past Python's 4,300-digit limit on int conversion
    | {"9" * 4400, "1/" + "7" * 4400}
)
MUTATION = st.tuples(
    st.sampled_from(("drop", "replace", "insert")),
    st.integers(0, 10**6),
    st.sampled_from(TOKEN_POOL),
)
# an atom replaced by an atom: the parentheses stay, so most draws get past
# the reader and reach the builders
ATOM_MUTATION = st.tuples(
    st.just("atom"),
    st.integers(0, 10**6),
    st.sampled_from([tok for tok in TOKEN_POOL if tok not in ("(", ")", "()")]),
)
FREQ_ARGUMENT = CATALOG_TOKENS["hc"].index("freq") + 1


def mutated_source(name: str, mutations) -> str:
    """The shipped catalog with each (op, position, token) mutation applied
    in turn: a token dropped, replaced or inserted, or an atom replaced."""
    tokens = list(CATALOG_TOKENS[name])
    for op, pos, tok in mutations:
        if op == "atom":
            atoms = [k for k, t in enumerate(tokens) if t not in ("(", ")")]
            tokens[atoms[pos % len(atoms)]] = tok
            continue
        pos %= len(tokens) + (op == "insert")
        if op == "drop":
            del tokens[pos]
        elif op == "replace":
            tokens[pos] = tok
        else:
            tokens.insert(pos, tok)
    return " ".join(tokens)


def parses_or_is_located(source: str):
    """Parse ``source``; a refusal must be a DslError with a line and column."""
    try:
        parse(source)
    except DslError as exc:
        assert exc.line is not None and exc.col is not None, str(exc)


@settings(max_examples=150)
@example("hc", [("drop", FREQ_ARGUMENT, "")])
@given(st.sampled_from(CATALOG_NAMES), st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_catalogs_parse_or_raise_superrep_error(name, mutations):
    """Dropping, replacing or inserting tokens in a shipped catalog either
    leaves a valid source or ends in a located DslError, never anything else."""
    parses_or_is_located(mutated_source(name, mutations))


@settings(max_examples=150)
@given(st.sampled_from(CATALOG_NAMES), st.lists(ATOM_MUTATION, min_size=1, max_size=3))
def test_atom_replaced_catalogs_parse_or_raise_superrep_error(name, mutations):
    """Replacing atoms of a shipped catalog, which keeps its parentheses,
    either leaves a valid source or ends in a located DslError."""
    parses_or_is_located(mutated_source(name, mutations))


def _top_level_forms(tokens: list[str]) -> list[list[str]]:
    forms, depth = [[]], 0
    for tok in tokens:
        forms[-1].append(tok)
        depth += (tok == "(") - (tok == ")")
        if depth == 0:
            forms.append([])
    return forms[:-1]


ROUND_TRIP_SOURCES = {name: catalog_source(name) for name in CATALOG_NAMES}
ROUND_TRIP_SOURCES["bench-fixtures"] = (
    Path(__file__).parent.parent / "bench" / "fixtures" / "bench.sexp"
).read_text(encoding="utf-8")
ROUND_TRIP_FORMS = {
    name: _top_level_forms(_tokens(source)) for name, source in ROUND_TRIP_SOURCES.items()
}
SEPARATORS = (" ", "\n", "\n  ", "\t", " ; remark\n")
PLAIN_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")


@settings(max_examples=100)
@given(
    st.sampled_from(sorted(ROUND_TRIP_FORMS)),
    st.integers(0, 10**6),
    st.sampled_from(SEPARATORS),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), max_size=6),
)
def test_print_workspace_round_trips_byte_for_byte(name, cut, sep, values):
    """A prefix of a shipped catalog or fixture file, laid out with any
    separator and with drawn Gaussian centres and coefficients, prints to a
    text whose parse prints back byte-for-byte."""
    forms = ROUND_TRIP_FORMS[name]
    tokens = [tok for form in forms[: 1 + cut % len(forms)] for tok in form]
    # (gauss RATE CENTER COEF ...): the centre and the first coefficient
    slots = [
        k + j for k, tok in enumerate(tokens) if tok == "gauss"
        for j in (2, 3) if PLAIN_NUMBER.match(tokens[k + j])
    ]
    for slot, value in zip(slots, values):
        tokens[slot] = repr(value)
    once = print_workspace(parse(sep.join(tokens)))
    assert once == print_workspace(parse(" ".join(tokens)))
    assert print_workspace(parse(once)) == once


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_SOURCES))
def test_printing_gives_back_the_floats_read(name):
    """Parsing the printout reproduces every float of the workspace, not
    only the printed text."""
    ws = parse(ROUND_TRIP_SOURCES[name])
    again = parse(print_workspace(ws))

    def floats(rep):
        arrays = (rep.grading, *rep.rho, *(rep.pi_table or ()))
        return [m.tobytes() for m in arrays]

    assert {k: floats(r) for k, r in again.reps.items()} == {
        k: floats(r) for k, r in ws.reps.items()}
    assert again.elements == ws.elements


@pytest.mark.parametrize("source", [
    "(rep zr hcline (grading 1 -1) (rho z ((-0.0i 0) (0 -0.0i))))",
    "(rep zr hcline (grading 1 -1) (rho z (((c -0.0 -0.0) 0) (-0.0 0))))",
    "(rep zp z2odd (grading 1 -1) (pi s ((1.0 -0.0) (-0.0 1.0))))",
    "(rep zp z2odd (grading 1 -1) (pi s ((1.0 0.0) (0.0 (c 1.0 -0.0)))))",
], ids=["rho-negative-imaginary-zeros", "rho-both-parts-negative", "pi-negative-zeros",
        "pi-negative-imaginary-zero"])
def test_signed_zeros_of_a_matrix_survive_print_and_parse(source):
    """A matrix is left out of the printout only when its bytes are the
    builder's default, and every entry is printed so that it reads back with
    the signs of both of its zeros."""
    ws = load_catalog("hc", "podd")
    parse(source, ws)
    again = parse(print_workspace(ws))

    def arrays(rep):
        return [m.tobytes() for m in (rep.grading, *rep.rho, *(rep.pi_table or ()))]

    assert {k: arrays(r) for k, r in again.reps.items()} == {
        k: arrays(r) for k, r in ws.reps.items()}


# A line pair on lines 1-2 and a finite pair on lines 3-4; each malformed
# form below sits on line 5.
PRELUDE = (
    "(superalgebra tiny (basis (z even) (x odd)) (bracket x x (1 z)))\n"
    "(pair tl tiny (line z))\n"
    "(superalgebra p (basis (x odd)))\n"
    "(pair fz p (finite (elements e s) (table (e s) (s e)) (ad s ((-1)))))\n"
)
FINITE_HEAD = "(pair q p (finite (elements e s) (table (e s) (s e))"

DIAGNOSTICS = [
    # (source after the prelude, message, column on line 5)
    ("()", "empty form", 1),
    ("(element a tl (tensor (ue ((c 1) x)) (linefunc)))",
     r"expected an exact scalar \(rational, Ni, or \(c re im\)\)", 28),
    ("(element a tl (tensor (ue (1/2 x)) (linefunc (plus (gauss r 0 1)))))",
     "expected a real number", 59),
    ("(superalgebra a)", "superalgebra needs a name and a basis", 1),
    ("(superalgebra a (bases (x odd)))", r"expected \(basis ...\)", 17),
    ("(superalgebra a (basis (x odd)) (bracket x x (1.5 x)))",
     "bracket coefficients are exact rationals", 47),
    ("(pair q tiny)", r"pair is \(pair NAME ALGEBRA <group form>\)", 1),
    ("(pair q tiny (line))", r"line group is \(line GENERATOR\)", 14),
    (FINITE_HEAD + " (ad s)))", r"expected \(ad ELEMENT \(\(row\) ...\)\)", 54),
    (FINITE_HEAD + " (ad s ((-1.0)))))", "adjoint entries are exact rationals", 62),
    ("(pair q p (finite (elements e s)))",
     r"finite group needs \(elements ...\) and \(table ...\)", 11),
    ("(pair q p (finite (elements e s) (table (e t) (s e))))",
     "unknown group element 't'", 44),
    ("(pair q p (torus))", "unknown group kind 'torus'", 11),
    ("(function f fz (finitefunc (delta t 1)))", "unknown group element 't'", 35),
    ("(function f fz (finitefunc (delta (s ops) 1)))", r"expected \(ELEMENT eps\)", 35),
    ("(function f tl (finitefunc))", "finitefunc literal on a line pair", 16),
    ("(function f fz (linefunc))", "linefunc literal on a finite pair", 16),
    ("(function f tl (linefunc (minus (gauss 1 0 1))))",
     "component tag must be 'plus' or 'eps'", 26),
    ("(function f tl (linefunc (plus (gauss 1 0))))",
     r"expected \(gauss RATE CENTER COEF...\)", 32),
    ("(function f tl (linefunc (plus (gauss -1/2 0 1))))",
     "Gaussian rate must be positive", 39),
    ("(element a tl (tensor (eu (1 x)) (linefunc)))", r"expected \(ue ...\)", 23),
    ("(element a tl (tensor (ue ()) (linefunc)))", "empty enveloping term", 27),
    ("(element a tl (tensor (ue (1 x q)) (linefunc)))", "unknown basis element 'q'", 32),
    ("(rep r tl (grading 1 -1) (rho x ((0 1))) (freq 1))",
     "matrix must be square and nonempty", 33),
    ("(rep r tl)", "rep needs a name, a pair and clauses", 1),
    ("(rep r tl (grading 1) (rho q ((1))) (freq 1))", "unknown basis element 'q'", 28),
    ("(rep r tl (grading 1) (pi e ((1))))",
     r"\(pi ...\) clauses only apply to finite pairs", 23),
    ("(rep r fz (grading 1) (pi e))", r"expected \(pi ELEMENT MATRIX\)", 23),
    ("(rep r fz (grading 1) (pi t ((1))))", "unknown group element 't'", 27),
    ("(rep r fz (grading 1) (freq 1))", r"\(freq ...\) only applies to line pairs", 23),
    ("(rep r tl (freq 1))", r"rep needs a \(grading ...\) clause", 1),
    ("(rep r tl (grading 1 -1) (rho z ((1i 0) (0 1i))) (freq 2))",
     r"\(freq ...\) disagrees with \(rho z ...\)", 50),
    ("(family f)", r"family is \(family NAME REP ...\)", 1),
    ("(element a tl (tensor (ue ((c 1 0.5) x)) (linefunc)))",
     "expected rational component", 33),
    ("(superalgebra a (basis (x odd)) (bracket x x (1 y)))",
     "unknown basis element 'y'", 49),
    ("(family f nope)", "unknown rep 'nope'", 11),
    ("(element a tl (tensor (ue (1 x)) ghost))", "unknown function 'ghost'", 34),
    ("(rep r ghost (grading 1) (freq 1))", "unknown pair 'ghost'", 8),
    # every top-level form: item count, then name, then owner, then body,
    # then the duplicate-name check
    ("(function f tl)", r"function is \(function NAME PAIR <literal>\)", 1),
    ("(function f tl (linefunc) (linefunc))",
     r"function is \(function NAME PAIR <literal>\)", 1),
    ("(pair q)", r"pair is \(pair NAME ALGEBRA <group form>\)", 1),
    ("(pair q tiny (line z) x)", r"pair is \(pair NAME ALGEBRA <group form>\)", 1),
    ("(pair 3)", r"pair is \(pair NAME ALGEBRA <group form>\)", 1),
    ("(superalgebra 3 (basis (x odd)))", "expected algebra name", 15),
    ("(pair 3 tiny (line z))", "expected pair name", 7),
    ("(function (f) tl (linefunc))", "expected function name", 11),
    ("(function 3 ghost (linefunc))", "expected function name", 11),
    ("(element 1/2 tl (tensor (ue (1 x)) (linefunc)))", "expected element name", 10),
    ("(rep 2i tl (grading 1) (freq 1))", "expected rep name", 6),
    ("(family 3 r)", "expected family name", 9),
    ("(pair q 3 (line z))", "expected algebra name", 9),
    ("(function f (tl) (linefunc))", "expected pair name", 13),
    ("(element a 1.5 (tensor (ue (1 x)) (linefunc)))", "expected pair name", 12),
    ("(rep r (tl) (grading 1) (freq 1))", "expected pair name", 8),
    ("(pair q ghost (line z))", "unknown algebra 'ghost'", 9),
    ("(function f ghost (linefunc))", "unknown pair 'ghost'", 13),
    ("(element a ghost (tensor (eu) (linefunc)))", "unknown pair 'ghost'", 12),
    ("(pair tl tiny (torus))", "unknown group kind 'torus'", 15),
    ("(pair tl tiny (line z))",
     r"duplicate pair name 'tl' \(first defined at line 2, column 1\)$", 1),
    ("(superalgebra tiny (basis (z even)))",
     r"duplicate algebra name 'tiny' \(first defined at line 1, column 1\)$", 1),
    ("(function g tl (linefunc)) (function g fz (finitefunc))",
     r"duplicate function name 'g' \(first defined at line 5, column 1\)$", 28),
    ("(group g)", "unknown form 'group'; expected one of element, family, function, "
     "pair, rep, superalgebra$", 1),
    ("(3 g)", "expected form keyword$", 2),
    ("x", "expected '\\(' at top level", 1),
    # an atom is read before its place is checked
    ("1/0", "zero denominator in rational literal", 1),
]


@pytest.mark.parametrize("body, message, col", DIAGNOSTICS,
                         ids=[str(k) for k in range(len(DIAGNOSTICS))])
def test_each_diagnostic_has_its_message_and_location(body, message, col):
    with pytest.raises(DslError, match=f"^5:{col}: {message}") as exc:
        parse(PRELUDE + body)
    assert (exc.value.line, exc.value.col) == (5, col)


def test_exact_complex_scalar_round_trips():
    src = PRELUDE + "(function f fz (finitefunc (delta s (c 1 -1/2)) (delta (e eps) 1/3i)))\n"
    ws = parse(src)
    once = print_workspace(ws)
    assert "(delta s (c 1 -1/2))" in once and "(delta (e eps) 1/3i)" in once
    assert print_workspace(parse(once)) == once


@pytest.mark.parametrize("source, message, site", [
    ("(superalgebra a (basis (z even) (x odd)\n  (x odd)))",
     r"basis element 'x' given twice \(first at line 1, column 34\)", (2, 4)),
    ("(superalgebra p (basis (x odd)))\n"
     "(pair q p (finite (elements e s s) (table (e s) (s e))))",
     r"group element 's' given twice \(first at line 2, column 31\)", (2, 33)),
], ids=["basis", "elements"])
def test_declared_name_given_twice_names_first_site(source, message, site):
    with pytest.raises(DslError, match=message) as exc:
        parse(source)
    assert (exc.value.line, exc.value.col) == site


# Each source below repeats a set-once clause, or names an undeclared element
# in (ad ...), on line 5 after the prelude.
SET_ONCE = [
    # (source, message, column on line 5)
    (FINITE_HEAD + " (elements e s)))",
     r"clause 'elements' given twice \(first at line 5, column 20\)", 55),
    (FINITE_HEAD + " (table (e s) (s e))))",
     r"clause 'table' given twice \(first at line 5, column 35\)", 55),
    (FINITE_HEAD + " (ad s ((-1))) (ad s ((1)))))",
     r"ad of group element 's' given twice \(first at line 5, column 58\)", 72),
    (FINITE_HEAD + " (ad t ((-1)))))", "unknown group element 't'", 58),
    ("(pair q p (finite (ad t ((-1))) (elements e s) (table (e s) (s e))))",
     "unknown group element 't'", 23),
    ("(rep r tl (grading 1) (grading 1) (freq 0))",
     r"clause 'grading' given twice \(first at line 5, column 12\)", 24),
    ("(rep r tl (grading 1) (freq 0) (freq 0))",
     r"clause 'freq' given twice \(first at line 5, column 24\)", 33),
    ("(rep r tl (grading 1) (rho x ((0))) (rho x ((0))) (freq 0))",
     r"rho of basis element 'x' given twice \(first at line 5, column 28\)", 42),
    ("(rep r fz (grading 1) (pi s ((1))) (pi s ((1))))",
     r"pi of group element 's' given twice \(first at line 5, column 27\)", 40),
]


@pytest.mark.parametrize("body, message, col", SET_ONCE,
                         ids=["elements", "table", "ad", "ad-unknown", "ad-before-elements",
                              "grading", "freq", "rho", "pi"])
def test_set_once_clause_and_ad_name_are_checked(body, message, col):
    with pytest.raises(DslError, match=f"^5:{col}: {message}") as exc:
        parse(PRELUDE + body)
    assert (exc.value.line, exc.value.col) == (5, col)


def test_repeats_that_add_stay_sums():
    ws = parse(PRELUDE + "(function f fz (finitefunc (delta s 1) (delta s 1/2)))\n"
               "(function h tl (linefunc (plus (gauss 1 0 1)) (plus (gauss 1 0 2))))\n"
               "(element a fz (tensor (ue (1 x) (2 x)) f) (tensor (ue (1 x)) f))\n")
    assert print_workspace(ws).splitlines()[-4:] == [
        "(function f fz (finitefunc (delta s 3/2)))",
        "(function h tl (linefunc (plus (gauss 1.0 0.0 3.0))))",
        "(element a fz",
        "  (tensor (ue (1 x)) (finitefunc (delta s 6))))",
    ]


# Refusals that no other test reaches, each on line 5 after the prelude.
REFUSALS = [
    # (source after the prelude, message, column on line 5)
    ("(rep r tl (grading 1) (rho x (((c 1)))) (freq 1))", "expected a numeric entry", 32),
    ("(superalgebra a (basis (x odd)) (bracket x))",
     "expected (bracket X Y (coef Z) ...)", 33),
    (FINITE_HEAD + " (adj s ((-1)))))", "unknown finite-group clause 'adj'", 54),
    ("(element a tl)", "element is (element NAME PAIR (tensor UE FUNC) ...)", 1),
    ("(rep r tl (grading 1) (rho x) (freq 1))", "expected (rho BASIS MATRIX)", 23),
    ("(function f tl (gauss 1 0 1))", "expected finitefunc or linefunc", 16),
]


@pytest.mark.parametrize("body, message, col", REFUSALS,
                         ids=["matrix-entry", "bracket", "finite-group-clause", "short-element",
                              "rho-arity", "function-literal"])
def test_dsl_refusals(body, message, col):
    with pytest.raises(DslError) as exc:
        parse(PRELUDE + body)
    assert str(exc.value) == f"5:{col}: {message}"
    assert (exc.value.line, exc.value.col) == (5, col)


# Each clause whose head and item count are checked by one shape rule, refused
# once as an atom where a form belongs and once with the wrong shape, on line 5
# after the prelude; and every other "(a parenthesized form)" text.
SHAPES = [
    # (id, source after the prelude, message, column on line 5)
    ("basis-atom", "(superalgebra a x)", "expected (basis ...) (a parenthesized form)", 17),
    ("basis-head", "(superalgebra a (bracket x x))", "expected (basis ...)", 17),
    ("basis-empty", "(superalgebra a ())", "empty form", 17),
    ("entry-atom", "(superalgebra a (basis x))",
     "expected (name even|odd) (a parenthesized form)", 24),
    ("entry-short", "(superalgebra a (basis (x)))", "basis entry is (name even|odd)", 24),
    ("entry-long", "(superalgebra a (basis (x odd even)))",
     "basis entry is (name even|odd)", 24),
    ("bracket-atom", "(superalgebra a (basis (x odd)) x)",
     "expected (bracket ...) (a parenthesized form)", 33),
    ("bracket-head", "(superalgebra a (basis (x odd)) (brackets x x))",
     "expected (bracket X Y (coef Z) ...)", 33),
    ("bracket-term-atom", "(superalgebra a (basis (x odd)) (bracket x x 1))",
     "expected (coef basis) (a parenthesized form)", 46),
    ("bracket-term-short", "(superalgebra a (basis (x odd)) (bracket x x (1)))",
     "bracket term is (coef basis)", 46),
    ("group-atom", "(pair q tiny z)", "expected group form (a parenthesized form)", 14),
    ("line-long", "(pair q tiny (line z z))", "line group is (line GENERATOR)", 14),
    ("finite-clause-atom", FINITE_HEAD + " s))",
     "expected finite group clause (a parenthesized form)", 54),
    ("ad-long", FINITE_HEAD + " (ad s ((-1)) ((1)))))", "expected (ad ELEMENT ((row) ...))", 54),
    ("table-row-atom", "(pair q p (finite (elements e s) (table e)))",
     "expected table row (a parenthesized form)", 41),
    ("literal-atom", "(function f tl 3)", "expected function literal (a parenthesized form)", 16),
    ("delta-atom", "(function f fz (finitefunc s))",
     "expected (delta POINT COEF) (a parenthesized form)", 28),
    ("delta-short", "(function f fz (finitefunc (delta s)))", "expected (delta POINT COEF)", 28),
    ("delta-head", "(function f fz (finitefunc (delt s 1)))", "expected (delta POINT COEF)", 28),
    ("point-short", "(function f fz (finitefunc (delta (s) 1)))", "expected (ELEMENT eps)", 35),
    ("component-atom", "(function f tl (linefunc plus))",
     "expected (plus|eps (gauss ...) ...) (a parenthesized form)", 26),
    ("gauss-atom", "(function f tl (linefunc (plus 1)))",
     "expected (gauss RATE CENTER COEF...) (a parenthesized form)", 32),
    ("gauss-head", "(function f tl (linefunc (plus (gaus 1 0 1))))",
     "expected (gauss RATE CENTER COEF...)", 32),
    ("ue-atom", "(element a tl (tensor x (linefunc)))",
     "expected (ue (COEF names...) ...) (a parenthesized form)", 23),
    ("ue-head", "(element a tl (tensor (tensor) (linefunc)))", "expected (ue ...)", 23),
    ("ue-term-atom", "(element a tl (tensor (ue x) (linefunc)))",
     "expected (COEF basis names...) (a parenthesized form)", 27),
    ("ue-term-empty", "(element a tl (tensor (ue (1 x) ()) (linefunc)))",
     "empty enveloping term", 33),
    ("tensor-atom", "(element a tl x)", "expected (tensor UE FUNC) (a parenthesized form)", 15),
    ("tensor-short", "(element a tl (tensor (ue (1 x))))", "expected (tensor UE FUNC)", 15),
    ("tensor-head", "(element a tl (tens (ue (1 x)) (linefunc)))",
     "expected (tensor UE FUNC)", 15),
    ("element-literal-atom", "(element a tl (tensor (ue (1 x)) 3))",
     "expected function literal (a parenthesized form)", 34),
    ("rep-clause-atom", "(rep r tl (grading 1) x)", "expected rep clause (a parenthesized form)", 23),
    ("rho-long", "(rep r tl (grading 1) (rho x ((0)) ((0))) (freq 1))",
     "expected (rho BASIS MATRIX)", 23),
    ("matrix-atom", "(rep r tl (grading 1) (rho x 1) (freq 1))",
     "expected matrix (a parenthesized form)", 30),
    ("matrix-row-atom", "(rep r tl (grading 1) (rho x (1)) (freq 1))",
     "expected matrix row (a parenthesized form)", 31),
    ("pi-long", "(rep r fz (grading 1) (pi e ((1)) ((1))))", "expected (pi ELEMENT MATRIX)", 23),
    ("freq-short", "(rep r tl (grading 1) (freq))", "expected (freq NUMBER)", 23),
    ("freq-long", "(rep r tl (grading 1) (freq 1 2))", "expected (freq NUMBER)", 23),
]


@pytest.mark.parametrize("body, message, col", [row[1:] for row in SHAPES],
                         ids=[row[0] for row in SHAPES])
def test_each_clause_shape_refusal_is_pinned(body, message, col):
    with pytest.raises(DslError) as exc:
        parse(PRELUDE + body)
    assert str(exc.value) == f"5:{col}: {message}"
    assert (exc.value.line, exc.value.col) == (5, col)


@pytest.mark.parametrize("depth", [2, 3, 1200])
def test_a_group_point_is_an_element_or_an_element_with_eps(depth):
    # ((s eps) eps) once read as (s, eps); 1,200 levels exhausted the stack
    point = "(" * depth + "s" + " eps)" * depth
    with pytest.raises(DslError) as exc:
        parse(PRELUDE + f"(function f fz (finitefunc (delta {point} 1)))")
    assert str(exc.value) == "5:36: expected group element"


@pytest.mark.parametrize("literal", ["9" * 5000, "-9" + "0" * 5000 + "i",
                                     "1/" + "7" * 5000, "9" * 5000 + "/7"],
                         ids=["integer", "imaginary", "denominator", "numerator"])
def test_a_literal_past_the_int_digit_limit_is_refused_at_its_token(literal):
    with pytest.raises(DslError) as exc:
        parse(PRELUDE + f"(superalgebra a (basis (x odd)) (bracket x x ({literal} x)))")
    assert (exc.value.line, exc.value.col) == (5, 47)
    assert not re.search(r"\d{20}", str(exc.value))  # the literal is not echoed


# the longest integer literal the interpreter converts to a string by default
LONGEST = "9" * 4300


@pytest.mark.parametrize("body, col", [
    (f"(superalgebra a (basis (z even) (x odd)) (bracket x x ({LONGEST} z) ({LONGEST} z)))", 42),
    (f"(function f fz (finitefunc (delta s {LONGEST}) (delta s {LONGEST})))", 16),
    (f"(element a fz (tensor (ue ({LONGEST})) (finitefunc (delta e {LONGEST}))))", 15),
], ids=["bracket-sum", "function-sum", "tensor-product"])
def test_a_value_past_the_digit_limit_made_by_parsing_is_refused_where_made(body, col):
    """Each literal reads and prints; their sum or product has more digits than
    the printer converts, so parsing refuses it at the form that made it."""
    with pytest.raises(DslError) as exc:
        parse(PRELUDE + body)
    assert str(exc.value) == f"5:{col}: number has too many digits to print"
    assert (exc.value.line, exc.value.col) == (5, col)
    # with -1 for one literal the value stays within the limit and prints
    once = print_workspace(parse(PRELUDE + body.replace(LONGEST, "-1", 1)))
    assert print_workspace(parse(once)) == once


# rho(x) = exp(i pi/4) sqrt(nu/2) sigma_x at nu = 2, on the prelude's line pair
RHO_X_AT_2 = "(rho x ((0.0 (c 0.7071067811865476 0.7071067811865476)) " \
             "((c 0.7071067811865476 0.7071067811865476) 0.0)))"


def test_freq_rho_z_and_both_give_the_same_representation():
    """(freq NU) states rho(z) = i NU identity: alone it fills rho(z), and with
    (rho z ...) the two must agree; either way the representation is the same."""
    element = ("(element a tl (tensor (ue (1 x) (1 z x)) "
               "(linefunc (plus (gauss 1 0.5 1 2)) (eps (gauss 2 0 1)))))\n")
    spellings = ["(freq 2.0)", "(rho z ((2.0i 0.0) (0.0 2.0i)))",
                 "(rho z ((2i 0) (0 2i))) (freq 2)"]
    ws = [parse(PRELUDE + element + f"(rep r tl (grading 1 -1) {clauses} {RHO_X_AT_2})")
          for clauses in spellings]
    reps = [w.reps["r"] for w in ws]
    assert len({b"".join(m.tobytes() for m in rep.rho) for rep in reps}) == 1
    assert len({rep_hat(rep, w.elements["a"]).tobytes() for rep, w in zip(reps, ws)}) == 1
    with pytest.raises(DslError) as exc:
        parse(PRELUDE + "(rep r tl (grading 1 -1)\n"
              f"  (rho z ((2i 0) (0 2i))) (freq 1) {RHO_X_AT_2})")
    assert str(exc.value) == "6:27: (freq ...) disagrees with (rho z ...)"
    assert (exc.value.line, exc.value.col) == (6, 27)


@pytest.mark.parametrize("grading", ["1 -1", ""], ids=["2-dim", "0-dim"])
def test_a_line_rep_without_freq_or_rho_z_has_rho_z_zero(grading):
    ws = parse(PRELUDE + f"(rep r tl (grading {grading}))\n"
               "(element a tl (tensor (ue (1)) (linefunc (plus (gauss 1 0 1)))))")
    rep = ws.reps["r"]
    assert validate_rep(rep).ok
    assert not rep.rho[0].any()
    # the frequency-0 character pi(f) = integral of f on each diagonal entry
    assert np.allclose(rep_hat(rep, ws.elements["a"]), math.sqrt(math.pi) * np.eye(rep.dim))
