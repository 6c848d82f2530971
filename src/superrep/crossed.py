"""The crossed-product *-algebra of enveloping-algebra-valued test functions.

Elements are finite sums D_k (x) f_k, canonicalized so that every stored
term pairs a single PBW monomial with one function (scalar coefficients are
folded into the functions).  Finite instances are exact; line instances
require the group to act trivially on the algebra (the epsilon flip is the
only twist), which keeps the Gaussian-polynomial class closed.

Group elements and Lie-algebra elements act as multipliers: pairs of
left/right maps represented symbolically and evaluated on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .enveloping import (
    UEElement,
    dagger,
    normal_form,
    parity_flip,
    ue_multiply,
)
from .errors import MismatchError, StructureError, UnsupportedInstanceError
from .functions import (
    FiniteFunction,
    GaussianPoly,
    l1_bound,
    left_translate,
    right_translate,
)
from .groups import FINITE, LINE, GroupPoint, Supergroup
from .scalars import GR_ONE, GR_ZERO, GaussianRational

Word = tuple[int, ...]


def _phi_from_matrix(mat):
    """Adjoint matrices act on column vectors; apply_auto wants the list of
    image vectors per basis index."""
    n = len(mat)
    return [[mat[k][j] for k in range(n)] for j in range(n)]


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
        for w, c in element.terms.items():
            out._add_term(w, _scale_function(f, c))
        return out

    def _check(self, other: "CrossedElement"):
        if self.pair is not other.pair and self.pair != other.pair:
            raise MismatchError("crossed elements live over different pairs")

    def _add_term(self, word: Word, f):
        if f.is_zero():
            return
        cur = self.terms.get(word)
        if cur is None:
            self.terms[word] = f
        else:
            total = cur + f
            if total.is_zero():
                del self.terms[word]
            else:
                self.terms[word] = total

    def _add_ue(self, element: UEElement, f):
        for w, c in element.terms.items():
            self._add_term(w, _scale_function(f, c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return self.pair == other.pair and self.terms == other.terms

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check(other)
        out = CrossedElement(self.pair, self.terms)
        for w, f in other.terms.items():
            out._add_term(w, f)
        return out

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return self + other.scale(-1)

    def scale(self, scalar) -> "CrossedElement":
        out = CrossedElement(self.pair)
        for w, f in self.terms.items():
            out._add_term(w, _scale_function(f, scalar))
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def monomial_words(self):
        return sorted(self.terms)

    def __repr__(self):
        names = self.pair.algebra.basis_names
        parts = []
        for w in sorted(self.terms):
            mono = "*".join(names[i] for i in w) if w else "1"
            parts.append(f"{mono} (x) {self.terms[w]!r}")
        return "CrossedElement[" + "; ".join(parts) + "]" if parts else "CrossedElement[0]"


def _scale_function(f, scalar):
    if isinstance(f, FiniteFunction):
        return f.scale(scalar)
    if isinstance(f, GaussianPoly):
        if isinstance(scalar, GaussianRational):
            scalar = complex(scalar)
        return f.scale(scalar)
    raise MismatchError("unsupported function class")


def _require_supported(pair: Supergroup):
    if pair.group.kind == LINE:
        pair.require_trivial_line_ad()


def xp_multiply(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """Twisted convolution product."""
    a._check(b)
    pair = a.pair
    _require_supported(pair)
    algebra = pair.algebra
    out = CrossedElement.zero(pair)

    if pair.group.kind == FINITE:
        from .enveloping import apply_auto

        for wa, fa in a.terms.items():
            for wb, fb in b.terms.items():
                mono_b = UEElement(algebra, {wb: GR_ONE})
                for g, val in fa.values.items():
                    phi = _phi_from_matrix(pair.ad_point(g))
                    twisted = apply_auto(algebra, phi, mono_b, checked=True)
                    product = ue_multiply(
                        UEElement(algebra, {wa: GR_ONE}), twisted
                    )
                    func = left_translate(pair, g, fb).scale(val)
                    out._add_ue(product, func)
        return out

    # line instance: the group part acts trivially, epsilon flips parity
    for wa, fa in a.terms.items():
        mono_a = UEElement(algebra, {wa: GR_ONE})
        for wb, fb in b.terms.items():
            mono_b = UEElement(algebra, {wb: GR_ONE})
            plain = ue_multiply(mono_a, mono_b)
            flipped = ue_multiply(mono_a, parity_flip(mono_b))
            # contribution of the G-part of fa (no twist on D_2)
            part0 = GaussianPoly(
                _conv_terms(fa.plus, fb.plus), _conv_terms(fa.plus, fb.eps)
            )
            out._add_ue(plain, part0)
            # contribution of the eps-part of fa (parity flip on D_2,
            # component swap from the group law)
            part1 = GaussianPoly(
                _conv_terms(fa.eps, fb.eps), _conv_terms(fa.eps, fb.plus)
            )
            out._add_ue(flipped, part1)
    return out


def _conv_terms(f_terms, h_terms):
    from .functions import _convolve_sides

    return _convolve_sides(f_terms, h_terms)


def xp_star(a: CrossedElement) -> CrossedElement:
    """The involution: conjugate, invert the argument, twist the monomial
    and apply the dagger."""
    pair = a.pair
    _require_supported(pair)
    algebra = pair.algebra
    out = CrossedElement.zero(pair)

    if pair.group.kind == FINITE:
        from .enveloping import apply_auto

        for w, f in a.terms.items():
            dag = dagger(UEElement(algebra, {w: GR_ONE}))
            for g0, val in f.values.items():
                g = pair.inverse(g0)  # the result is supported where f(g^{-1}) != 0
                phi = _phi_from_matrix(pair.ad_point(g))
                twisted = apply_auto(algebra, phi, dag, checked=True)
                delta_inv = GaussianRational.of(1 / pair.modular(g0))
                func = FiniteFunction(pair, {g: val.conjugate() * delta_inv})
                out._add_ue(twisted, func)
        return out

    for w, f in a.terms.items():
        dag = dagger(UEElement(algebra, {w: GR_ONE}))
        reflected = f.conjugate().reflect()
        out._add_ue(dag, GaussianPoly(reflected.plus, ()))
        out._add_ue(parity_flip(dag), GaussianPoly((), reflected.eps))
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
    from .enveloping import apply_auto

    algebra = pair.algebra

    def lam(a: CrossedElement) -> CrossedElement:
        _require_supported(pair)
        out = CrossedElement.zero(pair)
        phi = _phi_from_matrix(pair.ad_point(g))
        for w, f in a.terms.items():
            mono = UEElement(algebra, {w: GR_ONE})
            twisted = apply_auto(algebra, phi, mono, checked=True)
            out._add_ue(twisted, left_translate(pair, g, f))
        return out

    def rho(a: CrossedElement) -> CrossedElement:
        _require_supported(pair)
        out = CrossedElement.zero(pair)
        gi = pair.inverse(g)
        delta_inv = 1 / pair.modular(g)
        for w, f in a.terms.items():
            func = _scale_function(right_translate(pair, gi, f), GaussianRational.of(delta_inv))
            out._add_term(w, func)
        return out

    return Multiplier(f"group{g!r}", lam, rho)


def mul_lie(pair: Supergroup, coords) -> Multiplier:
    """Multiplier attached to a Lie algebra element (coordinate vector over
    the basis; a bare index is also accepted)."""
    algebra = pair.algebra
    if isinstance(coords, int):
        vec = [GR_ZERO] * algebra.dim
        vec[coords] = GR_ONE
        coords = vec
    coords = [GaussianRational.of(c) for c in coords]
    x_elem = UEElement.from_vector(algebra, coords)

    def lam(a: CrossedElement) -> CrossedElement:
        out = CrossedElement.zero(pair)
        for w, f in a.terms.items():
            mono = UEElement(algebra, {w: GR_ONE})
            out._add_ue(ue_multiply(x_elem, mono), f)
        return out

    def rho(a: CrossedElement) -> CrossedElement:
        _require_supported(pair)
        out = CrossedElement.zero(pair)
        if pair.group.kind == FINITE:
            for w, f in a.terms.items():
                mono = UEElement(algebra, {w: GR_ONE})
                for g, val in f.values.items():
                    mat = pair.ad_point(g)
                    twisted_x = UEElement.from_vector(
                        algebra,
                        [
                            sum(
                                (GaussianRational.of(mat[k][j]) * coords[j]
                                 for j in range(algebra.dim)),
                                GR_ZERO,
                            )
                            for k in range(algebra.dim)
                        ],
                    )
                    out._add_ue(
                        ue_multiply(mono, twisted_x),
                        FiniteFunction(pair, {g: val}),
                    )
            return out
        flipped = [
            -c if algebra.parity[k] else c for k, c in enumerate(coords)
        ]
        x_flip = UEElement.from_vector(algebra, flipped)
        for w, f in a.terms.items():
            mono = UEElement(algebra, {w: GR_ONE})
            out._add_ue(ue_multiply(mono, x_elem), GaussianPoly(f.plus, ()))
            out._add_ue(ue_multiply(mono, x_flip), GaussianPoly((), f.eps))
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
    _require_supported(pair)
    algebra = pair.algebra
    out = CrossedElement.zero(pair)

    if pair.group.kind == FINITE:
        from .enveloping import apply_auto

        for g, val in f.values.items():
            phi = _phi_from_matrix(pair.ad_point(g))
            twisted = apply_auto(algebra, phi, D, checked=True)
            out._add_ue(twisted, left_translate(pair, g, h).scale(val))
        return out

    # line: integrate the G-part (plain convolution) and the eps-part
    # (parity twist plus component swap) separately
    out._add_ue(
        D,
        GaussianPoly(_conv_terms(f.plus, h.plus), _conv_terms(f.plus, h.eps)),
    )
    out._add_ue(
        parity_flip(D),
        GaussianPoly(_conv_terms(f.eps, h.eps), _conv_terms(f.eps, h.plus)),
    )
    return out


def element_sample_difference(a: CrossedElement, b: CrossedElement, points=None) -> float:
    """Max pointwise deviation between matching monomial terms (line case)."""
    from .functions import max_sample_difference

    a._check(b)
    worst = 0.0
    for w in set(a.terms) | set(b.terms):
        fa = a.terms.get(w, GaussianPoly())
        fb = b.terms.get(w, GaussianPoly())
        worst = max(worst, max_sample_difference(fa, fb, points))
    return worst


def orbit_derivative_check(pair: Supergroup, a: CrossedElement, h: float) -> float:
    """Certified L1 residual of the finite-difference quotient of
    t -> lambda_{exp(t z)}(a) against the symbolic derivative D (x) R_z f.

    The quotient minus the derivative equals the Taylor integral remainder
    (1/h) int_0^h (h - s) (T_s f'') ds per term, so its L1 seminorm is at
    most (h/2) times an L1 bound on f'' valid over all shifts up to h.
    The returned value therefore decreases linearly in h.
    """
    if pair.group.kind != LINE:
        raise UnsupportedInstanceError("orbit derivative requires a line instance")
    _require_supported(pair)
    h = float(h)
    residual = 0.0
    for w, f in a.terms.items():
        second = f.derivative().derivative()
        residual += 0.5 * abs(h) * l1_bound(second, center_slack=abs(h))
    return residual
