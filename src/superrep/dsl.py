"""S-expression definition language for algebras, pairs, functions,
elements, and representations.

A source file is a sequence of top-level forms:

    (superalgebra NAME (basis (z even) (x odd)) (bracket x x (1 z)) ...)
    (pair NAME ALGEBRA (line z))
    (pair NAME ALGEBRA (finite (elements e s) (table (e s) (s e))
                               (ad s ((-1)))))
    (function NAME PAIR <function literal>)
    (element NAME PAIR (tensor (ue (COEF x x) ...) <function>) ...)
    (rep NAME PAIR (grading 1 -1) (rho x ((...) ...)) (pi g M) ...)  ; finite pair
    (rep NAME PAIR (grading 1 -1) (rho x ((...) ...)) (freq 2))       ; line pair
    (family NAME REP ...)

On a line pair, `(freq NU)` states rho(z) = i NU times the identity for the
generator z: it fills a missing `(rho z ...)`, and a given one must equal it
entry for entry.

Function literals are `(finitefunc (delta g COEF) (delta (g eps) COEF) ...)`
for finite pairs and `(linefunc (plus (gauss RATE CENTER COEF...)) (eps ...))`
for line pairs; inside an element, `<function>` may be a literal or the name
of a previously defined function on the same pair.

A group point is `g` or `(g eps)`, with `g` an element name.  Scalars are
exact: `3`, `-1/2`, `2i`, `-1/3i`, or `(c RE IM)`.  Matrix and Gaussian
entries additionally accept decimal floats.  A number with more digits than
the interpreter converts to an int is refused at its token.

One shape rule, `_shaped`, checks every top-level form and every clause with
a fixed head or item count: a form where one is expected, then its head,
then its item count.  Every diagnostic carries a line and column.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .crossed import CrossedElement
from .enveloping import UEElement, normal_form
from .errors import DslError, SuperrepError
from .functions import FiniteFunction, GaussTerm, GaussianPoly
from .groups import (
    FINITE,
    LINE,
    FiniteGroup,
    GroupData,
    GroupPoint,
    Supergroup,
    build_pair,
)
from .reps import MatrixRep
from .scalars import GR_ZERO, GaussianRational
from .superalgebra import EVEN, ODD, build_superalgebra

import numpy as np

# ---------------------------------------------------------------------------
# lexer / reader
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""\(|\)|;[^\n]*|[^\s();]+""")
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?(i)?\Z")
_FLOAT = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?(i)?\Z")
# a byte that is not UTF-8, as the surrogateescape error handler reads it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class Atom(NamedTuple):
    kind: str  # "symbol" | "rational" | "float" | "imag-rational" | "imag-float"
    value: object
    line: int
    col: int


class SList(NamedTuple):
    items: tuple
    line: int
    col: int


def _classify(text: str, line: int, col: int) -> Atom:
    if not (text[0] in "+-." or text[0].isdecimal()):  # neither number pattern matches
        return Atom("symbol", text, line, col)
    m = _RATIONAL.match(text)
    if m:
        num, _, den = (text[:-1] if m.group(2) else text).partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # past the interpreter's limit on int conversion
            raise DslError("number has too many digits to read", line, col) from None
        if den == 0:
            raise DslError("zero denominator in rational literal", line, col)
        return Atom("imag-rational" if m.group(2) else "rational", Fraction(num, den),
                    line, col)
    m = _FLOAT.match(text)
    if m and any(ch in text for ch in ".eE"):
        body = text[:-1] if m.group(3) else text
        value = float(body)
        if not math.isfinite(value):
            raise DslError(f"number {text!r} is not finite", line, col)
        return Atom("imag-float" if m.group(3) else "float", value, line, col)
    return Atom("symbol", text, line, col)


def tokenize(source: str):
    """Yield ``(text, line, column)`` for each parenthesis and atom."""
    for lineno, line in enumerate(source.split("\n"), start=1):
        for m in _TOKEN.finditer(line):
            text = m.group(0)
            if text.startswith(";"):
                break
            yield text, lineno, m.start() + 1


def read_forms(source: str) -> list:
    """Read all top-level forms as nested Atom/SList trees."""
    stack: list[list] = []
    marks: list[tuple[int, int]] = []
    out: list = []
    for text, line, col in tokenize(source):
        if text == "(":
            stack.append([])
            marks.append((line, col))
        elif text == ")":
            if not stack:
                raise DslError("unbalanced ')'", line, col)
            node = SList(tuple(stack.pop()), *marks.pop())
            (stack[-1] if stack else out).append(node)
        else:
            atom = _classify(text, line, col)
            if not stack:
                raise DslError("expected '(' at top level", line, col)
            stack[-1].append(atom)
    if stack:
        line, col = marks[-1]
        raise DslError("unclosed '('", line, col)
    return out


# ---------------------------------------------------------------------------
# form helpers
# ---------------------------------------------------------------------------


def _shaped(node, what: str, usage: str = "", fewest=0, most=math.inf, head=None) -> SList:
    """``node`` as a form of ``fewest`` to ``most`` items headed by the symbol
    ``head`` (any head if None).  A node that is not a form is refused as
    ``what``; a wrong head, then a wrong item count, with ``usage``."""
    if not isinstance(node, SList):
        raise DslError(f"expected {what} (a parenthesized form)", node.line, node.col)
    if (head is not None and _head(node) != head) or not fewest <= len(node.items) <= most:
        raise DslError(usage, node.line, node.col)
    return node


def _expect_symbol(node, what: str) -> str:
    if not isinstance(node, Atom) or node.kind != "symbol":
        raise DslError(f"expected {what}", node.line, node.col)
    return node.value


def _head(form: SList) -> str:
    if not form.items:
        raise DslError("empty form", form.line, form.col)
    return _expect_symbol(form.items[0], "form keyword")


def _index(node, names, what: str, unknown: str) -> int:
    """Position of the symbol ``node`` among the declared ``names``."""
    nm = _expect_symbol(node, what)
    try:
        return names.index(nm)
    except ValueError:
        raise DslError(f"unknown {unknown} {nm!r}", node.line, node.col) from None


def _once(sites: dict, key, node, label: str):
    """Record ``key`` as given at ``node`` in ``sites`` (key -> node); a key
    given twice is refused at the repeat."""
    first = sites.get(key)
    if first is not None:
        raise DslError(f"{label} given twice (first at line {first.line}, "
                       f"column {first.col})", node.line, node.col)
    sites[key] = node


def _declare(sites: dict, node, what: str, kind: str) -> str:
    """Record the symbol ``node`` as a new name in ``sites`` (name -> node);
    a name given twice is refused at the repeat."""
    nm = _expect_symbol(node, what)
    _once(sites, nm, node, f"{kind} {nm!r}")
    return nm


def _rational(node, message: str) -> Fraction:
    if isinstance(node, Atom) and node.kind == "rational":
        return node.value
    raise DslError(message, node.line, node.col)


def _scalar(node) -> GaussianRational:
    """Exact Gaussian-rational literal."""
    if isinstance(node, Atom):
        if node.kind == "rational":
            return GaussianRational(node.value, Fraction(0))
        if node.kind == "imag-rational":
            return GaussianRational(Fraction(0), node.value)
    elif _head(node) == "c" and len(node.items) == 3:
        return GaussianRational(_rational(node.items[1], "expected rational component"),
                                _rational(node.items[2], "expected rational component"))
    raise DslError("expected an exact scalar (rational, Ni, or (c re im))",
                   node.line, node.col)


def _float(node: Atom) -> float:
    try:
        return float(node.value)
    except OverflowError:
        raise DslError("number is too large for a float", node.line, node.col) from None


def _number(node) -> float:
    if isinstance(node, Atom) and node.kind in ("rational", "float"):
        return _float(node)
    raise DslError("expected a real number", node.line, node.col)


def _complex_entry(node) -> complex:
    """Numeric literal allowing floats; used for matrices and Gaussians."""
    if isinstance(node, Atom):
        if node.kind in ("rational", "float"):
            return complex(_float(node))
        if node.kind in ("imag-rational", "imag-float"):
            return complex(0.0, _float(node))
        raise DslError("expected a numeric entry", node.line, node.col)
    if _head(node) == "c" and len(node.items) == 3:
        return complex(_number(node.items[1]), _number(node.items[2]))
    raise DslError("expected a numeric entry", node.line, node.col)


def _rows(node, entry) -> list[list]:
    """A matrix form ``((a b ...) ...)``, each entry read by ``entry``."""
    return [[entry(cell) for cell in _shaped(row, "matrix row").items]
            for row in _shaped(node, "matrix").items]


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------


class Workspace:
    """Named definitions parsed from one or more sources."""

    def __init__(self):
        self.algebras: dict[str, object] = {}
        self.pairs: dict[str, Supergroup] = {}
        self.functions: dict[str, object] = {}
        self.elements: dict[str, CrossedElement] = {}
        self.reps: dict[str, MatrixRep] = {}
        self.families: dict[str, list[str]] = {}
        # (category, name) -> (line, column, owner name or None) of its form
        self._sites: dict[tuple[str, str], tuple[int, int, str | None]] = {}

    _TABLES = {
        "algebra": "algebras",
        "pair": "pairs",
        "function": "functions",
        "element": "elements",
        "rep": "reps",
        "family": "families",
    }

    def table(self, category: str) -> dict:
        return getattr(self, self._TABLES[category])

    def _define(self, category: str, name: str, site: tuple, value):
        """Add ``value`` as ``name``, defined by the form at ``site`` (line,
        column, and the name of the algebra or pair it is over, or None); a
        name defined before is refused there."""
        key = (category, name)
        if key in self._sites:
            line, col, _ = self._sites[key]
            raise DslError(
                f"duplicate {category} name {name!r} (first defined at "
                f"line {line}, column {col})",
                *site[:2],
            )
        self._sites[key] = site
        self.table(category)[name] = value

    def merge(self, other: Workspace):
        """Add every definition of ``other``, a workspace parsed on its own, in
        its order of definition.  The definitions are shared, not copied.  A
        name defined here already is refused at ``other``'s first such site,
        the error that parsing ``other``'s source into this workspace gives."""
        for (category, name), site in other._sites.items():
            self._define(category, name, site, other.table(category)[name])

    def pair_of(self, category: str, name: str) -> str | None:
        """The pair the defined ``name`` of ``category`` lives on: a pair is on
        itself, a function, element or rep on its owner, anything else on none."""
        return name if category == "pair" else self._sites[category, name][2]

    def require_pair(self, category: str, name: str, pair_name: str | None, node=None):
        """Refuse the defined ``name`` of ``category`` unless it lives on the
        pair ``pair_name``; the error is located at ``node`` unless that is None."""
        defined_on = self.pair_of(category, name)
        if defined_on != pair_name:
            raise DslError(
                f"{category} {name!r} is defined on pair {defined_on!r}, not {pair_name!r}",
                getattr(node, "line", None),
                getattr(node, "col", None),
            )

    def lookup(self, category: str, name: str, node=None):
        """The definition ``name`` of ``category``; an unknown name is a
        DslError located at ``node`` unless that is None."""
        table = self.table(category)
        if name not in table:
            raise DslError(f"unknown {category} {name!r}",
                           getattr(node, "line", None), getattr(node, "col", None))
        return table[name]


def parse(source: str, workspace: Workspace | None = None) -> Workspace:
    ws = workspace or Workspace()
    for form in read_forms(source):  # each an SList: an atom there is refused
        head = _head(form)
        if head not in _FORMS:
            raise DslError(f"unknown form {head!r}; expected one of "
                           f"{', '.join(sorted(_FORMS))}", form.line, form.col)
        category, fewest, most, usage, owner_category, build = _FORMS[head]
        _shaped(form, "form", usage, fewest, most)
        name = _expect_symbol(form.items[1], f"{category} name")
        owner = owner_name = None
        if owner_category:
            node = form.items[2]
            owner_name = _expect_symbol(node, f"{owner_category} name")
            owner = ws.lookup(owner_category, owner_name, node)
        ws._define(category, name, (form.line, form.col, owner_name),
                   build(ws, form, name, owner))
    return ws


def parse_file(path: str, workspace: Workspace | None = None) -> Workspace:
    """Parse the UTF-8 file at ``path``; its first byte that is not UTF-8 is
    a DslError located at that byte."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        source = fh.read()
    bad = _ESCAPED_BYTE.search(source)
    if bad:
        at = bad.start()
        raise DslError(f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not UTF-8",
                       source.count("\n", 0, at) + 1, at - source.rfind("\n", 0, at))
    return parse(source, workspace)


def read_word(algebra, text: str) -> tuple[int, ...]:
    """Basis indices of a comma- or space-separated word of basis names; an
    unknown name is an unlocated DslError."""
    return tuple(_index(Atom("symbol", nm, None, None), algebra.basis_names,
                        "basis name", "basis element")
                 for nm in text.replace(",", " ").split())


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _build_superalgebra(ws: Workspace, form: SList, name: str, owner: None):
    basis_form = _shaped(form.items[2], "(basis ...)", "expected (basis ...)", head="basis")
    sites, parity = {}, []
    for entry in basis_form.items[1:]:
        entry = _shaped(entry, "(name even|odd)", "basis entry is (name even|odd)", 2, 2)
        _declare(sites, entry.items[0], "basis name", "basis element")
        par = _expect_symbol(entry.items[1], "parity")
        if par not in ("even", "odd"):
            raise DslError("parity must be 'even' or 'odd'", entry.items[1].line,
                           entry.items[1].col)
        parity.append(EVEN if par == "even" else ODD)
    names = tuple(sites)
    n = len(names)
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    given: dict[tuple[int, int], SList] = {}  # explicit brackets and their sites

    for entry in form.items[3:]:
        entry = _shaped(entry, "(bracket ...)", "expected (bracket X Y (coef Z) ...)", 3,
                        head="bracket")
        i, j = (_index(node, names, "basis name", "basis element")
                for node in entry.items[1:3])
        _once(given, (i, j), entry, f"bracket [{names[i]},{names[j]}]")
        vec = [Fraction(0)] * n
        for piece in entry.items[3:]:
            piece = _shaped(piece, "(coef basis)", "bracket term is (coef basis)", 2, 2)
            coef = _rational(piece.items[0], "bracket coefficients are exact rationals")
            vec[_index(piece.items[1], names, "basis name", "basis element")] += coef
        constants[i][j] = _printable(vec, entry)
    # fill the super-skew partner unless it was given explicitly; a given
    # partner is left for the super_skew_symmetry check
    for i, j in given:
        if (j, i) not in given:
            sign = -1 if (parity[i] and parity[j]) else 1
            constants[j][i] = [-sign * c for c in constants[i][j]]
    try:
        return build_superalgebra(name, names, parity, constants)
    except SuperrepError as exc:
        raise DslError(str(exc), form.line, form.col) from exc


def _build_pair(ws: Workspace, form: SList, name: str, algebra):
    gform = _shaped(form.items[3], "group form")
    kind = _head(gform)
    if kind == "line":
        _shaped(gform, "group form", "line group is (line GENERATOR)", 2, 2)
        group = GroupData(generator_name=_expect_symbol(gform.items[1], "generator"))
    elif kind == "finite":
        elements = table = None
        clauses, ad_sites = {}, {}  # sites of the set-once clauses and ad names
        ad: dict[str, list[list[Fraction]]] = {}
        for sub in gform.items[1:]:
            sub = _shaped(sub, "finite group clause")
            sk = _head(sub)
            if sk == "elements":
                _declare(clauses, sub.items[0], "clause", "clause")
                sites = {}
                elements = [_declare(sites, s, "element name", "group element")
                            for s in sub.items[1:]]
            elif sk == "table":
                _declare(clauses, sub.items[0], "clause", "clause")
                table = sub
            elif sk == "ad":
                _shaped(sub, "finite group clause", "expected (ad ELEMENT ((row) ...))", 3, 3)
                gname = _declare(ad_sites, sub.items[1], "element name", "ad of group element")
                ad[gname] = _rows(sub.items[2], lambda cell: _rational(
                    cell, "adjoint entries are exact rationals"))
            else:
                raise DslError(f"unknown finite-group clause {sk!r}", sub.line, sub.col)
        if elements is None or table is None:
            raise DslError("finite group needs (elements ...) and (table ...)",
                           gform.line, gform.col)
        rows = [
            tuple(_index(cell, elements, "element name", "group element")
                  for cell in _shaped(row, "table row").items)
            for row in table.items[1:]
        ]
        # an (ad ...) clause may come before (elements ...)
        for node in ad_sites.values():
            _index(node, elements, "element name", "group element")
        fg = FiniteGroup(f"{name}-group", tuple(elements), tuple(rows))
        identity_mat = tuple(map(tuple, linalg.identity_matrix(algebra.dim)))
        mats = tuple(tuple(map(tuple, ad[nm])) if nm in ad else identity_mat
                     for nm in elements)
        group = GroupData(finite=fg, ad_matrices=mats)
    else:
        raise DslError(f"unknown group kind {kind!r}", gform.line, gform.col)
    try:
        return build_pair(name, group, algebra)
    except SuperrepError as exc:
        raise DslError(str(exc), form.line, form.col) from exc


def _point(pair: Supergroup, node) -> GroupPoint:
    """A finite group point: `g` or `(g eps)`, with `g` an element name."""
    eps = isinstance(node, SList)
    if eps:
        node = _shaped(node, "(g eps)", "expected (ELEMENT eps)", 2, 2)
        if _expect_symbol(node.items[1], "'eps'") != "eps":
            raise DslError("expected (ELEMENT eps)", node.line, node.col)
        node = node.items[0]
    names = pair.group.finite.element_names
    return GroupPoint(_index(node, names, "group element", "group element"), eps)


def _function_literal(pair: Supergroup, node):
    node = _shaped(node, "function literal")
    head = _head(node)
    if head == "finitefunc":
        if pair.group.kind != FINITE:
            raise DslError("finitefunc literal on a line pair", node.line, node.col)
        values: dict[GroupPoint, GaussianRational] = {}
        for entry in node.items[1:]:
            entry = _shaped(entry, "(delta POINT COEF)", "expected (delta POINT COEF)", 3, 3,
                            head="delta")
            point = _point(pair, entry.items[1])
            coef = _scalar(entry.items[2])
            values[point] = values.get(point, GR_ZERO) + coef
        return _printable(FiniteFunction(pair, values), node)
    if head == "linefunc":
        if pair.group.kind != LINE:
            raise DslError("linefunc literal on a finite pair", node.line, node.col)
        plus: list[GaussTerm] = []
        eps: list[GaussTerm] = []
        for comp in node.items[1:]:
            comp = _shaped(comp, "(plus|eps (gauss ...) ...)")
            ck = _head(comp)
            if ck not in ("plus", "eps"):
                raise DslError("component tag must be 'plus' or 'eps'",
                               comp.line, comp.col)
            for term in comp.items[1:]:
                term = _shaped(term, "(gauss RATE CENTER COEF...)",
                               "expected (gauss RATE CENTER COEF...)", 4, head="gauss")
                rate = _number(term.items[1])
                if rate <= 0:
                    raise DslError("Gaussian rate must be positive",
                                   term.items[1].line, term.items[1].col)
                center = _number(term.items[2])
                coeffs = tuple(_complex_entry(c) for c in term.items[3:])
                (plus if ck == "plus" else eps).append(GaussTerm(coeffs, rate, center))
        return _printable(GaussianPoly(tuple(plus), tuple(eps)), node)
    raise DslError("expected finitefunc or linefunc", node.line, node.col)


def _printable(f, node):
    """f, refused at node if a value made after parsing cannot be printed: a
    line coefficient that is not finite, or a rational with more digits than
    the interpreter converts to a string.  f is a function or a bracket's
    coefficients, and its values may come from a merge of like terms, a sum of
    bracket coefficients or a scale by an enveloping coefficient."""
    if isinstance(f, GaussianPoly):
        if not all(cmath.isfinite(c) for t in f.plus + f.eps for c in t.coeffs):
            raise DslError("Gaussian coefficient is not finite", node.line, node.col)
        return f
    rationals = f if isinstance(f, list) else [q for v in f.values.values() for q in (v.re, v.im)]
    try:
        for q in rationals:
            str(q)  # as the printer writes it
    except ValueError:  # past the interpreter's limit on int conversion
        raise DslError("number has too many digits to print", node.line, node.col) from None
    return f


def _function_ref(ws: Workspace, pair: Supergroup, node):
    if isinstance(node, Atom) and node.kind == "symbol":
        func = ws.lookup("function", node.value, node)
        ws.require_pair("function", node.value, pair.name, node)
        return func
    return _function_literal(pair, node)


def _build_function(ws: Workspace, form: SList, name: str, pair: Supergroup):
    return _function_literal(pair, form.items[3])


def _ue_literal(pair: Supergroup, node) -> UEElement:
    node = _shaped(node, "(ue (COEF names...) ...)", "expected (ue ...)", head="ue")
    algebra = pair.algebra
    out = UEElement.zero(algebra)
    for term in node.items[1:]:
        term = _shaped(term, "(COEF basis names...)", "empty enveloping term", 1)
        coef = _scalar(term.items[0])
        word = tuple(_index(sym, algebra.basis_names, "basis name", "basis element")
                     for sym in term.items[1:])
        out = out + normal_form(algebra, word, coef)
    return out


def _build_element(ws: Workspace, form: SList, name: str, pair: Supergroup):
    total = CrossedElement.zero(pair)
    for term in form.items[3:]:
        term = _shaped(term, "(tensor UE FUNC)", "expected (tensor UE FUNC)", 3, 3,
                       head="tensor")
        ue = _ue_literal(pair, term.items[1])
        func = _function_ref(ws, pair, term.items[2])
        try:
            total = total + CrossedElement.tensor(pair, ue, func)
        except OverflowError:
            # an enveloping coefficient past the float range of a line function
            raise DslError("coefficient is too large for a float",
                           term.line, term.col) from None
        for f in total.terms.values():
            _printable(f, term)
    return total


def _matrix(node) -> np.ndarray:
    rows = _rows(node, _complex_entry)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise DslError("matrix must be square and nonempty", node.line, node.col)
    return np.array(rows, dtype=complex)


def _build_rep(ws: Workspace, form: SList, name: str, pair: Supergroup):
    algebra = pair.algebra
    grading = None
    rho: dict[int, np.ndarray] = {}
    pi_table: dict[int, np.ndarray] = {}
    freq = None
    matrix_nodes = []  # every rho/pi matrix, checked against the grading size
    clauses, rho_sites, pi_sites = {}, {}, {}  # sites of the set-once clauses
    for clause in form.items[3:]:
        clause = _shaped(clause, "rep clause")
        ck = _head(clause)
        if ck == "grading":
            _declare(clauses, clause.items[0], "clause", "clause")
            grading = np.diag([_number(c) for c in clause.items[1:]]).astype(complex)
        elif ck == "rho":
            _shaped(clause, "rep clause", "expected (rho BASIS MATRIX)", 3, 3)
            idx = _index(clause.items[1], algebra.basis_names, "basis name",
                         "basis element")
            _declare(rho_sites, clause.items[1], "basis name", "rho of basis element")
            rho[idx] = _matrix(clause.items[2])
            matrix_nodes.append(clause.items[2])
        elif ck == "pi":
            if pair.group.kind != FINITE:
                raise DslError("(pi ...) clauses only apply to finite pairs",
                               clause.line, clause.col)
            _shaped(clause, "rep clause", "expected (pi ELEMENT MATRIX)", 3, 3)
            g = _index(clause.items[1], pair.group.finite.element_names,
                       "group element", "group element")
            _declare(pi_sites, clause.items[1], "group element", "pi of group element")
            pi_table[g] = _matrix(clause.items[2])
            matrix_nodes.append(clause.items[2])
        elif ck == "freq":
            if pair.group.kind != LINE:
                raise DslError("(freq ...) only applies to line pairs",
                               clause.line, clause.col)
            _shaped(clause, "rep clause", "expected (freq NUMBER)", 2, 2)
            _declare(clauses, clause.items[0], "clause", "clause")
            freq = clause, _number(clause.items[1])
        else:
            raise DslError(f"unknown rep clause {ck!r}", clause.line, clause.col)
    if grading is None:
        raise DslError("rep needs a (grading ...) clause", form.line, form.col)
    dim = grading.shape[0]
    for node in matrix_nodes:
        size = len(node.items)
        if size != dim:
            raise DslError(f"{size}x{size} matrix does not match the {dim}-entry grading",
                           node.line, node.col)
    if freq:  # (freq NU) states rho(z) = i NU identity on a line pair
        clause, nu = freq
        z, stated = pair.generator_index, np.diag(np.full(dim, complex(0.0, nu)))
        if not np.array_equal(rho.setdefault(z, stated), stated):
            raise DslError(f"(freq ...) disagrees with (rho {pair.group.generator_name} ...)",
                           clause.line, clause.col)
    rho_list = tuple(rho.get(i, np.zeros((dim, dim), dtype=complex))
                     for i in range(algebra.dim))
    table = pair.group.finite and tuple(pi_table.get(g, np.eye(dim, dtype=complex))
                                        for g in range(pair.group.finite.size))
    rep = MatrixRep(name, pair, grading, rho_list, pi_table=table)
    if not rep.report.ok:
        raise DslError(f"representation {name!r} fails validation ({rep.report.summary()})",
                       form.line, form.col)
    return rep


def _build_family(ws: Workspace, form: SList, name: str, owner: None):
    members = []
    for node in form.items[2:]:
        nm = _expect_symbol(node, "rep name")
        ws.lookup("rep", nm, node)
        members.append(nm)
    return members


# head: (category, fewest and most items, the error for any other count, the
# category of the owner named at item 2 or None, builder)
_FORMS = {
    "superalgebra": ("algebra", 3, math.inf, "superalgebra needs a name and a basis",
                     None, _build_superalgebra),
    "pair": ("pair", 4, 4, "pair is (pair NAME ALGEBRA <group form>)",
             "algebra", _build_pair),
    "function": ("function", 4, 4, "function is (function NAME PAIR <literal>)",
                 "pair", _build_function),
    "element": ("element", 4, math.inf, "element is (element NAME PAIR (tensor UE FUNC) ...)",
                "pair", _build_element),
    "rep": ("rep", 4, math.inf, "rep needs a name, a pair and clauses", "pair", _build_rep),
    "family": ("family", 3, math.inf, "family is (family NAME REP ...)", None, _build_family),
}


# ---------------------------------------------------------------------------
# canonical printer
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """The shortest decimal that reads back as the same float."""
    return repr(float(x))


def _print_scalar(v: GaussianRational) -> str:
    if v.im == 0:
        return str(v.re)
    if v.re == 0:
        return f"{v.im}i"
    return f"(c {v.re} {v.im})"


def _plus_zero(x: float) -> bool:
    return x == 0 and math.copysign(1.0, x) > 0


def _print_entry(z: complex) -> str:
    """``z`` in the shortest form that reads back as its bits: a part left
    out of the form reads back as +0.0, so only a +0.0 part is left out."""
    if _plus_zero(z.imag):
        return format_float(z.real)
    if _plus_zero(z.real):
        return f"{format_float(z.imag)}i"
    return f"(c {format_float(z.real)} {format_float(z.imag)})"


def _print_point(pair: Supergroup, p: GroupPoint) -> str:
    nm = pair.group.finite.element_names[p.base]
    return f"({nm} eps)" if p.eps else nm


def _print_function(pair: Supergroup, f) -> str:
    if isinstance(f, FiniteFunction):
        entries = sorted(f.values.items(), key=lambda kv: (kv[0].eps, kv[0].base))
        body = " ".join(
            f"(delta {_print_point(pair, p)} {_print_scalar(v)})" for p, v in entries
        )
        return f"(finitefunc {body})" if body else "(finitefunc)"
    parts = []
    for tag, terms in (("plus", f.plus), ("eps", f.eps)):
        if not terms:
            continue
        body = " ".join(
            "(gauss {} {} {})".format(
                format_float(t.rate),
                format_float(t.center),
                " ".join(_print_entry(c) for c in t.coeffs),
            )
            for t in sorted(terms, key=lambda t: (t.rate, t.center))
        )
        parts.append(f"({tag} {body})")
    return "(linefunc " + " ".join(parts) + ")" if parts else "(linefunc)"


def print_workspace(ws: Workspace) -> str:
    """Canonical source text; parsing it back reproduces the workspace and
    printing again is byte-identical."""
    out: list[str] = []
    for name, alg in ws.algebras.items():
        basis = " ".join(
            f"({nm} {'odd' if p else 'even'})"
            for nm, p in zip(alg.basis_names, alg.parity)
        )
        lines = [f"(superalgebra {name} (basis {basis})"]
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                terms = alg.bracket_terms[i][j]
                if terms:
                    body = " ".join(f"({c} {alg.basis_names[k]})" for k, c in terms)
                    lines.append(
                        f"  (bracket {alg.basis_names[i]} {alg.basis_names[j]} {body})"
                    )
        out.append("\n".join(lines) + ")")
    for name, pair in ws.pairs.items():
        alg_name = pair.algebra.name
        if pair.group.kind == LINE:
            out.append(f"(pair {name} {alg_name} (line {pair.group.generator_name}))")
        else:
            fg = pair.group.finite
            elements = " ".join(fg.element_names)
            table = " ".join(
                "(" + " ".join(fg.element_names[v] for v in row) + ")"
                for row in fg.table
            )
            # ad_matrices hold tuples, so the identity must be one to compare
            ident = tuple(map(tuple, linalg.identity_matrix(pair.algebra.dim)))
            ads = []
            for g, mat in enumerate(pair.group.ad_matrices):
                if mat != ident:
                    rows = " ".join(
                        "(" + " ".join(str(c) for c in row) + ")" for row in mat
                    )
                    ads.append(f" (ad {fg.element_names[g]} ({rows}))")
            out.append(
                f"(pair {name} {alg_name} (finite (elements {elements}) "
                f"(table {table}){''.join(ads)}))"
            )
    for name, func in ws.functions.items():
        pname = ws.pair_of("function", name)
        out.append(f"(function {name} {pname} {_print_function(ws.pairs[pname], func)})")
    for name, elem in ws.elements.items():
        terms = []
        alg = elem.pair.algebra
        for w in sorted(elem.terms):
            word = " ".join(alg.basis_names[i] for i in w)
            ue = f"(ue (1 {word}))" if word else "(ue (1))"
            terms.append(f"  (tensor {ue} {_print_function(elem.pair, elem.terms[w])})")
        if not terms:  # the zero element, as one zero tensor
            zero = "(finitefunc)" if elem.pair.group.kind == FINITE else "(linefunc)"
            terms.append(f"  (tensor (ue) {zero})")
        out.append(f"(element {name} {elem.pair.name}\n" + "\n".join(terms) + ")")
    for name, rep in ws.reps.items():
        lines = [f"(rep {name} {rep.pair.name}"]
        diag = " ".join(format_float(v.real) for v in np.diag(rep.grading))
        lines.append(f"  (grading {diag})")
        # a matrix is left out only when its bytes are the default the rep
        # builder fills in, so that signed zeros are printed
        zeros = np.zeros((rep.dim, rep.dim), dtype=complex).tobytes()
        for i, mat in enumerate(rep.rho):
            if mat.tobytes() != zeros:
                lines.append(
                    f"  (rho {rep.pair.algebra.basis_names[i]} {_print_matrix(mat)})"
                )
        if rep.pair.group.kind == FINITE:
            eye = np.eye(rep.dim, dtype=complex).tobytes()
            for g, mat in enumerate(rep.pi_table):
                if mat.tobytes() != eye:
                    name_g = rep.pair.group.finite.element_names[g]
                    lines.append(f"  (pi {name_g} {_print_matrix(mat)})")
        out.append("\n".join(lines) + ")")
    for name, members in ws.families.items():
        out.append(f"(family {name} {' '.join(members)})")
    return "\n".join(out) + "\n"


def _print_matrix(mat: np.ndarray) -> str:
    rows = " ".join(
        "(" + " ".join(_print_entry(z) for z in row) + ")" for row in mat
    )
    return f"({rows})"
