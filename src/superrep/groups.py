"""Group realizations and the pairing with a superalgebra.

Two realizations are shipped: finite groups given by a Cayley table with an
adjoint matrix per element, and the real line acting through the truncated
exponential of the (nilpotent) adjoint of its even generator.  The Haar
measure of a finite group and of the real line is two-sided invariant, so
Delta = 1 for both kinds and appears in no formula.

Points of the epsilon-extension G x {1, eps} are (base, eps) pairs; eps is
central, squares to the identity, and acts on the algebra as the parity
flip.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, inf
from numbers import Real
from typing import NamedTuple

from . import linalg
from .enveloping import check_automorphism
from .errors import StructureError, UnsupportedInstanceError
from .superalgebra import EVEN, SuperAlgebra
from .validation import ValidationReport

FINITE = "finite"
LINE = "line"


class GroupPoint(NamedTuple):
    base: object  # element index (finite) or a real number (line)
    eps: bool = False

    def __repr__(self):
        return f"({self.base}{', eps' if self.eps else ''})"


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a Cayley table over element names."""

    name: str
    element_names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.element_names)

    def validate(self) -> ValidationReport:
        report = ValidationReport(f"group {self.name}")
        n = self.size
        shape_ok = len(self.table) == n and all(len(r) == n for r in self.table)
        report.add("table_shape", shape_ok)
        if not shape_ok:
            return report
        closed = all(0 <= v < n for r in self.table for v in r)
        report.add("closure", closed)
        if not closed:
            return report
        ident = self._identity
        report.add("identity", ident is not None, "no two-sided identity")
        assoc_bad = [
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]
        ]
        report.add("associativity", not assoc_bad, f"{len(assoc_bad)} violations")
        if ident is not None:
            report.add("inverses", None not in self._inverses)
        return report

    @cached_property
    def _identity(self) -> int | None:
        """The two-sided identity or None; this and ``_inverses`` are searched
        once per group and cached outside equality, hashing and repr."""
        t, n = self.table, self.size
        return next((e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None)

    @cached_property
    def _inverses(self) -> tuple[int | None, ...]:
        """The inverse of each element, None where there is none."""
        t, e, n = self.table, self.identity, self.size
        return tuple(next((b for b in range(n) if t[a][b] == e == t[b][a]), None) for a in range(n))

    @property
    def identity(self) -> int:
        if self._identity is None:
            raise StructureError(f"group {self.name} has no identity")
        return self._identity

    def inverse(self, a: int) -> int:
        b = self._inverses[a]
        if b is None:
            raise StructureError(f"group {self.name}: element {a} has no inverse")
        return b


@dataclass(frozen=True)
class GroupData:
    """Realization of G: a finite group with per-element adjoint matrices,
    or the real line generated by one even basis element."""

    kind: str
    _: KW_ONLY
    finite: FiniteGroup | None = None
    # adjoint matrix per finite group element, rows of rationals
    ad_matrices: tuple[tuple[tuple[Fraction, ...], ...], ...] | None = None
    generator_name: str | None = None


@dataclass(frozen=True)
class Supergroup:
    """A group realization paired with a validated superalgebra."""

    name: str
    group: GroupData
    algebra: SuperAlgebra
    # twisted products NF(left alpha_g(right)) of declaration-order words,
    # keyed by (left, g, right), filled by crossed._product: g is a finite
    # point, or (0, eps) on a line pair; outside equality, hashing and repr
    twist_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    # -- group operations on points of the epsilon-extension ----------------

    def identity_point(self) -> GroupPoint:
        base = self.group.finite.identity if self.group.kind == FINITE else Fraction(0)
        return GroupPoint(base, False)

    def epsilon_point(self) -> GroupPoint:
        return GroupPoint(self.identity_point().base, True)

    def multiply(self, p: GroupPoint, q: GroupPoint) -> GroupPoint:
        if self.group.kind == FINITE:
            return GroupPoint(self.group.finite.table[p.base][q.base], p.eps ^ q.eps)
        return GroupPoint(p.base + q.base, p.eps ^ q.eps)

    def require_point(self, point):
        """Refuse (StructureError) all but the pair's own points: a bool eps
        with an element index on a finite pair, with a finite real on a line."""
        kind = self.group.kind
        if not (isinstance(point, GroupPoint) and type(point.eps) is bool and (
                type(point.base) is int and 0 <= point.base < self.group.finite.size
                if kind == FINITE else isinstance(point.base, Real) and -inf < point.base < inf)):
            raise StructureError(f"{self.name}: {point!r} is not a point of the {kind} pair")

    def inverse(self, p: GroupPoint) -> GroupPoint:
        if self.group.kind == FINITE:
            return GroupPoint(self.group.finite.inverse(p.base), p.eps)
        return GroupPoint(-p.base, p.eps)

    def points(self):
        """All points of the epsilon-extension (finite groups only)."""
        if self.group.kind != FINITE:
            raise UnsupportedInstanceError("cannot enumerate points of a line group")
        for eps in (False, True):
            for g in range(self.group.finite.size):
                yield GroupPoint(g, eps)

    # -- adjoint action ------------------------------------------------------

    @property
    def generator_index(self) -> int:
        if self.group.kind != LINE:
            raise UnsupportedInstanceError("generator_index only exists for line groups")
        return self.algebra.index(self.group.generator_name)

    @cached_property
    def line_ad_terms(self):
        """The nonzero (ad z)^k / k! for k >= 1, so that Ad(exp(t z)) is
        1 + sum t^k M_k; None when ad z is not nilpotent.  Computed once per
        pair and, as a cached attribute, outside equality, hashing and repr."""
        n = self.algebra.dim
        # column j of ad z is [z, b_j]
        adz = linalg.transpose(self.algebra.constants[self.generator_index])
        terms = []
        power = linalg.identity_matrix(n)
        for k in range(1, n + 1):
            power = linalg.mat_mul(adz, power)
            if linalg.is_zero_matrix(power):
                return tuple(terms)
            terms.append(tuple(tuple(v / factorial(k) for v in row) for row in power))
        return None

    @cached_property
    def report(self) -> ValidationReport:
        """``validate_pair(self)``, computed once per pair and cached outside
        equality, hashing and repr; ``build_pair`` raises from it, and the
        CLI's ``validate`` prints it."""
        return validate_pair(self)

    def line_ad_matrix(self, t: Fraction):
        """Ad(exp(t z)), the exponential series of t * ad z, which ends
        because ad z is nilpotent."""
        terms = self.line_ad_terms
        if terms is None:
            raise UnsupportedInstanceError(f"{self.name}: ad z is not nilpotent")
        t = Fraction(t)
        out = linalg.identity_matrix(self.algebra.dim)
        for k, term in enumerate(terms, start=1):
            scale = t ** k
            out = [[a + scale * b for a, b in zip(ra, rb)] for ra, rb in zip(out, term)]
        return out

    def ad_point(self, p: GroupPoint):
        """Exact adjoint matrix of a point of the epsilon-extension."""
        if self.group.kind == FINITE:
            mat = [list(r) for r in self.group.ad_matrices[p.base]]
        else:
            mat = self.line_ad_matrix(p.base)
        if p.eps:
            # right-multiplying by the parity matrix diag(+-1) negates the
            # odd columns
            par = self.algebra.parity
            mat = [[-v if par[j] else v for j, v in enumerate(row)] for row in mat]
        return mat

    def require_trivial_line_ad(self):
        if self.group.kind == LINE and self.line_ad_terms != ():
            raise UnsupportedInstanceError(
                f"{self.name}: line instances with a nontrivial adjoint action "
                "on the algebra are not supported"
            )


def validate_pair(pair: Supergroup) -> ValidationReport:
    """Check the compatibility axioms between the group realization and the
    superalgebra afresh; ``Supergroup.report`` keeps the first result."""
    report = ValidationReport(f"pair {pair.name}")
    algebra = pair.algebra
    group = pair.group
    n = algebra.dim

    if group.kind == FINITE:
        fg = group.finite
        if fg is None or group.generator_name is not None:
            report.add("group_table", False, "finite pair needs a finite group" if fg is None
                       else "finite pair takes no generator")
            return report
        grp_report = fg.validate()
        report.add("group_table", grp_report.ok, grp_report.summary())
        if not grp_report.ok:
            return report
        report.add("even_part_trivial", not algebra.even_indices(),
                   "a finite group has a zero Lie algebra but the even part is nonzero")
        mats = group.ad_matrices
        if mats is None or len(mats) != fg.size or any(
            len(m) != n or any(len(r) != n for r in m) for m in mats
        ):
            report.add("ad_shape", False, "one adjoint matrix per group element required")
            return report
        report.add("ad_shape", True)
        hom_bad = [
            (a, b)
            for a in range(fg.size)
            for b in range(fg.size)
            if linalg.mat_mul(mats[a], mats[b]) != [list(r) for r in mats[fg.table[a][b]]]
        ]
        report.add("ad_homomorphism", not hom_bad, f"Ad(gh) != Ad(g)Ad(h) for pairs {hom_bad}")
        autos = [check_automorphism(algebra, linalg.transpose(m)).checks for m in mats]
        parity_bad = [g for g, (parity, _) in enumerate(autos) if not parity.ok]
        report.add("ad_parity", not parity_bad, f"parity broken by elements {parity_bad}")
        bracket_bad = [
            f"Ad({fg.element_names[g]}) breaks {bracket.detail}"
            for g, (_, bracket) in enumerate(autos) if not bracket.ok
        ]
        report.add("ad_bracket", not bracket_bad, "; ".join(bracket_bad))
        ident_ok = [list(r) for r in mats[fg.identity]] == linalg.identity_matrix(n)
        report.add("ad_identity", ident_ok)
        return report

    if group.kind == LINE:
        report.add("even_part_line", len(algebra.even_indices()) == 1,
                   "the even part of a line pair must be 1-dimensional")
        if group.finite is not None or group.ad_matrices is not None:
            report.add("generator", False, "line pair takes no finite group"
                       if group.finite is not None else "line pair takes no adjoint matrices")
            return report
        try:
            z = algebra.index(group.generator_name)
        except StructureError as exc:
            report.add("generator", False, str(exc))
            return report
        report.add("generator_even", algebra.parity[z] == EVEN,
                   f"generator {group.generator_name} is odd")
        terms = pair.line_ad_terms
        report.add("ad_generator_nilpotent", terms is not None,
                   "ad z is not nilpotent; the exact exponential is unavailable")
        if terms is None:
            return report
        # the first-order term M_1 of Ad(exp tz) is ad z: column j is [z, b_j]
        m1 = terms[0] if terms else ((0,) * n,) * n
        deriv_bad = [
            algebra.basis_names[j] for j in range(n)
            if [row[j] for row in m1] != list(algebra.constants[z][j])
        ]
        report.add("ad_derivative_matches_bracket", not deriv_bad, ", ".join(deriv_bad))
        # the exponential of a bracket derivation preserves bracket and parity
        sample = linalg.transpose(pair.line_ad_matrix(Fraction(1)))
        parity, bracket = check_automorphism(algebra, sample).checks
        report.add("ad_parity", parity.ok)
        report.add("ad_bracket", bracket.ok, bracket.detail)
        hom_ok = linalg.mat_mul(pair.line_ad_matrix(Fraction(1, 2)),
                                pair.line_ad_matrix(Fraction(1, 3))) == pair.line_ad_matrix(
            Fraction(5, 6))
        report.add("ad_one_parameter", hom_ok)
        return report

    report.add("kind", False, f"unknown group kind {group.kind!r}")
    return report


def build_pair(name: str, group: GroupData, algebra: SuperAlgebra) -> Supergroup:
    pair = Supergroup(name, group, algebra)
    pair.report.raise_if_failed()
    return pair
