"""The crossed-product *-algebra of enveloping-algebra-valued test functions.

Elements are finite sums D_k (x) f_k, canonicalized so that every stored
term pairs a single PBW monomial with one function (scalar coefficients are
folded into the functions).  Finite instances are exact; on line instances
every twist needs the group to act trivially on the algebra (the epsilon flip
is the only twist), which keeps the Gaussian-polynomial class closed.
``Supergroup.twist_point`` refuses any other line pair, so an operation
with nothing to twist, such as a right translation, runs on every pair.

Every product, star and integral below is one twisted-convolution loop for
both function classes: ``f.twist_split()`` cuts f into pieces on which the
adjoint action is constant, and ``_twist`` applies that action alpha_g,
memoized per monomial on the pair.

Group elements and Lie-algebra elements act as multipliers: pairs of
left/right maps represented symbolically and evaluated on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import linalg
from .enveloping import UEElement, _accumulate, apply_auto, dagger, ue_multiply
from .errors import MismatchError, UnsupportedInstanceError
from .functions import GaussianPoly, breve, convolve, l1_bound, left_translate, right_translate
from .groups import LINE, GroupPoint, Supergroup
from .scalars import GR_ONE

Word = tuple[int, ...]


def _twist(pair: Supergroup, g: GroupPoint, D: UEElement) -> UEElement:
    """alpha_g(D), the automorphism induced by Ad(g).  The image of each
    monomial is memoized on the pair, keyed by (twist_point(g), word,
    order), so points with one adjoint action share their entries."""
    algebra = pair.algebra
    memo = pair.twist_memo
    g = pair.twist_point(g)
    out = UEElement.zero(algebra, D.order)
    for w, c in D.terms.items():
        probe = (g, w, D.order)
        image = memo.get(probe)
        if image is None:
            phi = linalg.transpose(pair.ad_point(g))
            mono = UEElement(algebra, {w: GR_ONE}, D.order)
            image = memo[probe] = apply_auto(algebra, phi, mono, checked=True)
        for ww, cc in image.terms.items():
            _accumulate(out.terms, ww, c * cc)
    return out


class CrossedElement:
    """Finite sum of (PBW monomial) (x) (function) terms."""

    __slots__ = ("pair", "terms")

    def __init__(self, pair: Supergroup, terms=None):
        self.pair = pair
        self.terms: dict[Word, object] = {}
        for w, f in (terms or {}).items():
            if not f.is_zero():
                self.terms[w] = f

    @staticmethod
    def zero(pair: Supergroup) -> "CrossedElement":
        return CrossedElement(pair)

    @staticmethod
    def tensor(pair: Supergroup, element: UEElement, f) -> "CrossedElement":
        """D (x) f for a general enveloping element D."""
        if element.algebra != pair.algebra:
            raise MismatchError("enveloping element belongs to a different algebra")
        out = CrossedElement(pair)
        out._add_ue(element, f)
        return out

    def _check(self, other: "CrossedElement"):
        if self.pair is not other.pair and self.pair != other.pair:
            raise MismatchError("crossed elements live over different pairs")

    def _add_ue(self, element: UEElement, f):
        for w, c in element.terms.items():
            _accumulate(self.terms, w, f.scale(c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return self.pair == other.pair and self.terms == other.terms

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        out = CrossedElement(self.pair, self.terms)
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
    D_a alpha_g(D_b) (x) (piece * f_b) over the twist pieces of f_a."""
    a._check(b)
    pair = a.pair
    algebra = pair.algebra
    out = CrossedElement.zero(pair)
    for wa, fa in a.terms.items():
        mono_a = UEElement(algebra, {wa: GR_ONE})
        split = fa.twist_split()
        for wb, fb in b.terms.items():
            mono_b = UEElement(algebra, {wb: GR_ONE})
            for g, piece in split:
                product = ue_multiply(mono_a, _twist(pair, g, mono_b))
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
    """Left/right translation multiplier attached to a group point."""
    algebra = pair.algebra

    def lam(a: CrossedElement) -> CrossedElement:
        out = CrossedElement.zero(pair)
        for w, f in a.terms.items():
            mono = UEElement(algebra, {w: GR_ONE})
            out._add_ue(_twist(pair, g, mono), left_translate(g, f))
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
    must equal (1 (x) f)(D (x) h)."""
    out = CrossedElement.zero(pair)
    for g, piece in f.twist_split():
        out._add_ue(_twist(pair, g, D), convolve(piece, h))
    return out


def element_sample_difference(a: CrossedElement, b: CrossedElement) -> float:
    """Max pointwise deviation between matching monomial terms (line case),
    over both components at 21 points on [-3, 3]."""
    a._check(b)
    points = [(-3.0 + 0.3 * k) for k in range(21)]
    worst = 0.0
    for w in set(a.terms) | set(b.terms):
        fa = a.terms.get(w, GaussianPoly())
        fb = b.terms.get(w, GaussianPoly())
        for eps in (False, True):
            for t in points:
                worst = max(worst, abs(fa.value(t, eps) - fb.value(t, eps)))
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
    for w, f in a.terms.items():
        second = f.derivative().derivative()
        residual += 0.5 * abs(h) * l1_bound(second, center_slack=abs(h))
    return residual
