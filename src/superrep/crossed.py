"""The crossed-product *-algebra of enveloping-algebra-valued test functions.

Elements are finite sums D_k (x) f_k; every stored term pairs one PBW monomial
in declaration order with one function, scalars folded in, and a reader takes
each word as it stands.  Finite instances are exact; on line instances every
twist needs the group to act trivially on the algebra (the epsilon flip is
the only twist), which keeps the Gaussian-polynomial class closed, and every
line point twists as (0, eps).  ``_product`` refuses any other line pair
when it forms a twist, so an operation with nothing to twist, such as a
right translation, runs on every pair.

Every product, star and integral below is one twisted-convolution loop for
both function classes: ``f.twist_split()`` cuts f into pieces on which the
adjoint action is constant, and ``_product`` forms NF(D_a alpha_g(D_b)) for
two PBW words, memoized per (word, point, word) on the pair; ``_twist``
applies alpha_g alone.  A product that vanishes takes no convolution.

Group elements and Lie-algebra elements act as multipliers: pairs of
left/right maps represented symbolically and evaluated on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from typing import Callable

from . import linalg
from .enveloping import (DECL_ORDER, UEElement, _accumulate, apply_auto, dagger, normal_form,
                         ue_multiply)
from .errors import MismatchError, UnsupportedInstanceError
from .functions import (
    FiniteFunction, GaussianPoly, _checked_slack, _l1_row, breve, convolve, left_translate,
    right_translate,
)
from .groups import LINE, GroupPoint, Supergroup
from .scalars import GR_ONE

Word = tuple[int, ...]


def _product(pair: Supergroup, left: Word, g: GroupPoint, right: Word) -> UEElement:
    """NF(left alpha_g(right)) for two PBW words in declaration order,
    memoized on the pair, keyed by (left, g, right) with g as ``twist_split``
    gives it: a finite point, or (0, eps) on a line pair.  The key holds no
    order, since every crossed caller holds declaration order (``tensor``
    and ``_check_ue`` refuse any other).  An entry with an empty ``left`` is
    the image of one monomial, formed by ``apply_auto``, which checks the
    adjoint map on every miss, once a line pair with a nontrivial adjoint is
    refused, so that it stores nothing; any other entry is ``left`` times it."""
    memo = pair.twist_memo
    probe = (left, g, right)
    entry = memo.get(probe)
    if entry is None:
        algebra = pair.algebra
        if left:
            entry = ue_multiply(UEElement(algebra, {left: GR_ONE}),
                                _product(pair, (), g, right))
        else:
            pair.require_trivial_line_ad()
            phi = linalg.transpose(pair.ad_point(g))
            entry = apply_auto(algebra, phi, UEElement(algebra, {right: GR_ONE}))
        memo[probe] = entry
    return entry


def _twist(pair: Supergroup, g: GroupPoint, D: UEElement) -> UEElement:
    """alpha_g(D), the automorphism induced by Ad(g), for D in declaration
    order: the sum of the memo entries with an empty left word."""
    out = UEElement.zero(pair.algebra)
    for w, c in D.terms.items():
        for ww, cc in _product(pair, (), g, w).terms.items():
            _accumulate(out.terms, ww, c * cc)
    return out


def _check_function(pair: Supergroup, f):
    """Refuse f unless it is a function of ``pair``: a ``FiniteFunction`` of
    that pair on a finite pair, a ``GaussianPoly`` on a line pair."""
    if pair.group.kind == LINE:
        if not isinstance(f, GaussianPoly):
            raise MismatchError("a line pair takes GaussianPoly functions")
    elif not isinstance(f, FiniteFunction) or (f.pair is not pair and f.pair != pair):
        raise MismatchError("a finite pair takes FiniteFunctions of that pair")


def _check_ue(pair: Supergroup, element: UEElement):
    """Refuse an enveloping element of another algebra or in another order."""
    if element.algebra != pair.algebra:
        raise MismatchError("enveloping element belongs to a different algebra")
    if element.order != DECL_ORDER:
        raise MismatchError("enveloping element is not in declaration order")


@dataclass(init=False, repr=False)
class CrossedElement:
    """Finite sum of (PBW monomial) (x) (function) terms; equal by pair and
    terms, unhashable.  The constructor straightens each word it is given
    and refuses a basis index out of range (StructureError)."""

    __slots__ = ("pair", "terms")
    pair: Supergroup
    terms: dict[Word, object]

    def __init__(self, pair: Supergroup, terms=None):
        self.pair = pair
        self.terms = {}
        for w, f in (terms or {}).items():
            _check_function(pair, f)
            self._add_ue(normal_form(pair.algebra, w), f)

    @staticmethod
    def zero(pair: Supergroup) -> "CrossedElement":
        return CrossedElement(pair)

    @staticmethod
    def tensor(pair: Supergroup, element: UEElement, f) -> "CrossedElement":
        """D (x) f for an enveloping element D in declaration order."""
        _check_ue(pair, element)
        _check_function(pair, f)
        out = CrossedElement(pair)
        out._add_ue(element, f)
        return out

    def _check(self, other: "CrossedElement"):
        if self.pair is not other.pair and self.pair != other.pair:
            raise MismatchError("crossed elements live over different pairs")

    def _add_ue(self, element: UEElement, f):
        for w, c in element.terms.items():
            _accumulate(self.terms, w, f.scale(c))

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        out = CrossedElement(self.pair)
        out.terms.update(self.terms)
        for w, f in other.terms.items():
            _accumulate(out.terms, w, f)
        return out

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return self + other.scale(-1)

    def scale(self, scalar) -> "CrossedElement":
        out = CrossedElement(self.pair)
        for w, f in self.terms.items():
            _accumulate(out.terms, w, f.scale(scalar))
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        names = self.pair.algebra.basis_names
        parts = []
        for w in sorted(self.terms):
            mono = "*".join(names[i] for i in w) if w else "1"
            parts.append(f"{mono} (x) {self.terms[w]!r}")
        return "CrossedElement[" + "; ".join(parts) + "]" if parts else "CrossedElement[0]"


def xp_multiply(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """Twisted convolution product: (D_a (x) f_a)(D_b (x) f_b) sums
    D_a alpha_g(D_b) (x) (piece * f_b) over the twist pieces of f_a; a
    product D_a alpha_g(D_b) that vanishes takes no convolution."""
    a._check(b)
    pair = a.pair
    out = CrossedElement.zero(pair)
    for wa, fa in a.terms.items():
        split = fa.twist_split()
        for wb, fb in b.terms.items():
            for g, piece in split:
                product = _product(pair, wa, g, wb)
                if product.terms:
                    out._add_ue(product, convolve(piece, fb))
    return out


def xp_star(a: CrossedElement) -> CrossedElement:
    """The involution: apply breve to the function, then the dagger of the
    monomial twisted by each point of the result."""
    pair = a.pair
    algebra = pair.algebra
    out = CrossedElement.zero(pair)
    for w, f in a.terms.items():
        dag = dagger(UEElement(algebra, {w: GR_ONE}))
        for g, piece in breve(f).twist_split():
            out._add_ue(_twist(pair, g, dag), piece)
    return out


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


@dataclass
class Multiplier:
    """A symbolic multiplier: a pair of maps evaluated on demand.  Equality
    of multipliers is extensional (compare actions on probe elements)."""

    name: str
    lam: Callable[[CrossedElement], CrossedElement]
    rho: Callable[[CrossedElement], CrossedElement]

    def __repr__(self):
        return f"Multiplier({self.name})"


def mul_group(pair: Supergroup, g: GroupPoint) -> Multiplier:
    """Left/right translation multiplier attached to a group point; its
    left map twists at g on a finite pair and at (0, g.eps) on a line pair."""
    pair.require_point(g)
    tg = GroupPoint(0, g.eps) if pair.group.kind == LINE else g

    def lam(a: CrossedElement) -> CrossedElement:
        out = CrossedElement.zero(pair)
        for w, f in a.terms.items():
            out._add_ue(_product(pair, (), tg, w), left_translate(g, f))
        return out

    def rho(a: CrossedElement) -> CrossedElement:
        out = CrossedElement.zero(pair)
        gi = pair.inverse(g)
        for w, f in a.terms.items():
            _accumulate(out.terms, w, right_translate(gi, f))
        return out

    return Multiplier(f"group{g!r}", lam, rho)


def mul_lie(pair: Supergroup, coords) -> Multiplier:
    """Multiplier attached to a Lie algebra element (coordinate vector over
    the basis; a basis index in range is also accepted)."""
    algebra = pair.algebra
    make = UEElement.generator if isinstance(coords, int) else UEElement.from_vector
    x_elem = make(algebra, coords)

    def lam(a: CrossedElement) -> CrossedElement:
        out = CrossedElement.zero(pair)
        for w, f in a.terms.items():
            mono = UEElement(algebra, {w: GR_ONE})
            out._add_ue(ue_multiply(x_elem, mono), f)
        return out

    def rho(a: CrossedElement) -> CrossedElement:
        out = CrossedElement.zero(pair)
        for w, f in a.terms.items():
            mono = UEElement(algebra, {w: GR_ONE})
            for g, piece in f.twist_split():
                out._add_ue(ue_multiply(mono, _twist(pair, g, x_elem)), piece)
        return out

    return Multiplier("lie", lam, rho)


def mul_compose(m1: Multiplier, m2: Multiplier) -> Multiplier:
    return Multiplier(
        f"{m1.name}*{m2.name}",
        lambda a: m1.lam(m2.lam(a)),
        lambda a: m2.rho(m1.rho(a)),
    )


def mul_star(m: Multiplier) -> Multiplier:
    """(lam, rho)* = (rho*, lam*) with phi*(a) = phi(a*)*."""
    return Multiplier(
        f"{m.name}^*",
        lambda a: xp_star(m.rho(xp_star(a))),
        lambda a: xp_star(m.lam(xp_star(a))),
    )


# ---------------------------------------------------------------------------
# integral identities and derivative checks
# ---------------------------------------------------------------------------


def gamma_integral(pair: Supergroup, f, D: UEElement, h) -> CrossedElement:
    """The integral over the group of g -> f(g) alpha_g(D) (x) L_g h, which
    must equal (1 (x) f)(D (x) h); D, f and h are checked as ``tensor`` does."""
    _check_ue(pair, D)
    _check_function(pair, f)
    _check_function(pair, h)
    out = CrossedElement.zero(pair)
    for g, piece in f.twist_split():
        out._add_ue(_twist(pair, g, D), convolve(piece, h))
    return out


def element_sample_difference(a: CrossedElement, b: CrossedElement) -> float:
    """Max pointwise deviation between matching monomial terms, over both
    components at 21 points on [-3, 3]; line instances only.  A NaN sample
    makes the deviation NaN, whatever the other samples are."""
    a._check(b)
    if a.pair.group.kind != LINE:
        raise UnsupportedInstanceError("sample difference requires a line instance")
    points = [(-3.0 + 0.3 * k) for k in range(21)]
    worst = 0.0
    for w in set(a.terms) | set(b.terms):
        fa = a.terms.get(w, GaussianPoly())
        fb = b.terms.get(w, GaussianPoly())
        for eps in (False, True):
            for t in points:
                d = abs(fa.value(t, eps) - fb.value(t, eps))
                if isnan(d):
                    return d
                worst = max(worst, d)
    return worst


def orbit_derivative_check(pair: Supergroup, a: CrossedElement, h: float) -> float:
    """Certified L1 residual of the finite-difference quotient of
    t -> lambda_{exp(t z)}(a) against the symbolic derivative D (x) R_z f.

    The quotient minus the derivative equals the Taylor integral remainder
    (1/h) int_0^h (h - s) (T_s f'') ds per term, so its L1 seminorm is at
    most (h/2) times an L1 bound on f'' valid over all shifts up to h.
    The returned value therefore decreases linearly in h.
    """
    if a.pair != pair:
        raise MismatchError("element and pair live over different pairs")
    if pair.group.kind != LINE:
        raise UnsupportedInstanceError("orbit derivative requires a line instance")
    pair.require_trivial_line_ad()
    h = float(h)
    residual = 0.0
    for f in a.terms.values():
        # the L1 bound of f'' over every shift by at most |h|, refused as
        # l1_bound refuses a slack that is not finite
        residual += 0.5 * abs(h) * _l1_row(f, 2, 0, _checked_slack(abs(h)))[0]
    return residual
