"""The universal enveloping algebra with PBW normal ordering.

Monomials are words of basis indices that are weakly increasing in a fixed
total order, with odd indices appearing at most once (odd squares straighten
to half the self-bracket).  Elements are finite Gaussian-rational linear
combinations of such monomials.

Two total orders are used: ``decl`` (declaration order of the basis, the
default normal form, which crossed-product terms hold) and ``oddmajor`` (all
odd generators before all even ones).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchError, StructureError
from .scalars import GR_HALF, GR_MINUS_I, GR_MINUS_ONE, GR_ONE, GR_ZERO, GaussianRational
from .superalgebra import ODD, SuperAlgebra
from .validation import ValidationReport

Word = tuple[int, ...]

DECL_ORDER = "decl"
ODD_MAJOR_ORDER = "oddmajor"


def _order_key(algebra: SuperAlgebra, order: str):
    if order == DECL_ORDER:
        return lambda i: i
    if order == ODD_MAJOR_ORDER:
        return lambda i: (0 if algebra.parity[i] == ODD else 1, i)
    raise ValueError(f"unknown basis order {order!r}")


def _straighten(algebra: SuperAlgebra, word: Word, order: str, strategy: str):
    """Rewrite ``word`` into PBW normal form; returns ((word, coeff), ...).

    ``strategy`` picks which violation to reduce first ('left' or 'right');
    both must give the same result (confluence), which the tests check.
    Results are memoized on the algebra itself, so a probe hashes only the
    small key and the memo is freed together with its algebra.
    """
    memo = algebra.straighten_memo
    probe = (word, order, strategy)
    hit = memo.get(probe)
    if hit is None:
        hit = memo[probe] = _straighten_uncached(algebra, word, order, strategy)
    return hit


def _straighten_uncached(algebra: SuperAlgebra, word: Word, order: str, strategy: str):
    key = _order_key(algebra, order)
    par = algebra.parity

    squares = []
    swaps = []
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a == b and par[a] == ODD:
            squares.append(i)
        elif key(a) > key(b):
            swaps.append(i)
    if not squares and not swaps:
        return ((word, GR_ONE),)

    # odd-square rule takes priority; it strictly shortens the word, which
    # keeps the rewriting terminating with strictly increasing odd letters
    positions = squares if squares else swaps
    i = positions[0] if strategy == "left" else positions[-1]
    a, b = word[i], word[i + 1]
    acc: dict[Word, GaussianRational] = {}
    if squares:
        # x*x = (1/2)[x,x]
        for k, c in algebra.bracket_terms[a][a]:
            _fold(acc, algebra, word[:i] + (k,) + word[i + 2:],
                  GR_HALF * GaussianRational.of(c), order, strategy)
    else:
        sign = GR_MINUS_ONE if (par[a] and par[b]) else GR_ONE
        _fold(acc, algebra, word[:i] + (b, a) + word[i + 2:], sign, order, strategy)
        for k, c in algebra.bracket_terms[a][b]:
            _fold(acc, algebra, word[:i] + (k,) + word[i + 2:],
                  GaussianRational.of(c), order, strategy)
    return tuple(sorted(acc.items()))


def _fold(acc: dict, algebra: SuperAlgebra, word: Word, coeff: GaussianRational,
          order: str, strategy: str = "left"):
    """acc += coeff * NF(word), for a word of valid basis indices."""
    for w, c in _straighten(algebra, word, order, strategy):
        _accumulate(acc, w, coeff * c)


def _accumulate(acc: dict, word: Word, coeff):
    """acc[word] += coeff, keeping no zero entry.  coeff is a Gaussian
    rational, or a function for the crossed-product terms."""
    if coeff.is_zero():
        return
    cur = acc.get(word)
    if cur is None:
        acc[word] = coeff
    else:
        total = cur + coeff
        if total.is_zero():
            del acc[word]
        else:
            acc[word] = total


@dataclass(init=False, repr=False)
class UEElement:
    """Element of the enveloping algebra in PBW normal form; equal by
    algebra, order and terms (its terms are normal forms in that order),
    unhashable."""

    __slots__ = ("algebra", "terms", "order")
    algebra: SuperAlgebra
    terms: dict[Word, GaussianRational]
    order: str

    def __init__(self, algebra: SuperAlgebra, terms=None, order: str = DECL_ORDER):
        self.algebra = algebra
        self.order = order
        self.terms = dict(terms or {})

    @staticmethod
    def zero(algebra, order=DECL_ORDER) -> "UEElement":
        return UEElement(algebra, {}, order)

    @staticmethod
    def unit(algebra, order=DECL_ORDER) -> "UEElement":
        return UEElement(algebra, {(): GR_ONE}, order)

    @staticmethod
    def generator(algebra, index: int, order=DECL_ORDER) -> "UEElement":
        if not 0 <= index < algebra.dim:
            raise StructureError(f"basis index {index} out of range")
        return UEElement(algebra, {(index,): GR_ONE}, order)

    @staticmethod
    def from_vector(algebra, coords, order=DECL_ORDER) -> "UEElement":
        """Degree-one element with the given coordinates, one per basis element."""
        if len(coords) != algebra.dim:
            raise StructureError(f"expected {algebra.dim} coordinates, got {len(coords)}")
        out = UEElement.zero(algebra, order)
        for i, c in enumerate(coords):
            _accumulate(out.terms, (i,), GaussianRational.of(c))
        return out

    def _check(self, other: "UEElement"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise MismatchError("elements live over different algebras")
        if self.order != other.order:
            raise MismatchError("elements use different PBW orders")

    def __add__(self, other: "UEElement") -> "UEElement":
        self._check(other)
        out = UEElement(self.algebra, self.terms, self.order)
        for w, c in other.terms.items():
            _accumulate(out.terms, w, c)
        return out

    def __sub__(self, other: "UEElement") -> "UEElement":
        return self + -other

    def __neg__(self) -> "UEElement":
        return self.scale(GR_MINUS_ONE)

    def scale(self, scalar) -> "UEElement":
        scalar = GaussianRational.of(scalar)
        if scalar.is_zero():
            return UEElement.zero(self.algebra, self.order)
        return UEElement(
            self.algebra, {w: scalar * c for w, c in self.terms.items()}, self.order
        )

    def __mul__(self, other):
        if isinstance(other, UEElement):
            return ue_multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = self.algebra.basis_names
        parts = []
        for w, c in sorted(self.terms.items()):
            mono = "*".join(names[i] for i in w) if w else "1"
            parts.append(f"({c})·{mono}")
        return " + ".join(parts)


def normal_form(algebra: SuperAlgebra, word, coeff=GR_ONE, order=DECL_ORDER,
                strategy="left") -> UEElement:
    """Straighten an arbitrary word of basis indices into PBW normal form."""
    word = tuple(word)
    for i in word:
        if not 0 <= i < algebra.dim:
            raise StructureError(f"basis index {i} out of range")
    out = UEElement.zero(algebra, order)
    _fold(out.terms, algebra, word, GaussianRational.of(coeff), order, strategy)
    return out


def ue_multiply(a: UEElement, b: UEElement) -> UEElement:
    a._check(b)
    out = UEElement.zero(a.algebra, a.order)
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            _fold(out.terms, a.algebra, wa + wb, ca * cb, a.order)
    return out


def dagger(a: UEElement) -> UEElement:
    """The anti-linear anti-automorphism with x -> -x on even generators and
    x -> -i*x on odd generators."""
    par = a.algebra.parity
    out = UEElement.zero(a.algebra, a.order)
    for w, c in a.terms.items():
        factor = GR_ONE
        for i in w:
            factor = factor * (GR_MINUS_I if par[i] == ODD else GR_MINUS_ONE)
        _fold(out.terms, a.algebra, w[::-1], c.conjugate() * factor, a.order)
    return out


def check_automorphism(algebra: SuperAlgebra, phi) -> ValidationReport:
    """Verify that phi (list of image coordinate vectors per basis index)
    preserves parity and the bracket on all basis pairs."""
    report = ValidationReport("automorphism")
    n = algebra.dim
    if len(phi) != n or any(len(v) != n for v in phi):
        report.add("shape", False, f"expected {n} image vectors of length {n}")
        return report
    phi = [[GaussianRational.of(c) for c in v] for v in phi]

    parity_bad = [
        f"{algebra.basis_names[i]} -> {algebra.basis_names[k]}"
        for i in range(n)
        for k in range(n)
        if phi[i][k] and algebra.parity[k] != algebra.parity[i]
    ]
    report.add("parity_preserving", not parity_bad, ", ".join(parity_bad))

    bracket_bad = []
    for i in range(n):
        for j in range(n):
            lhs = algebra.bracket(phi[i], phi[j])
            rhs = [GR_ZERO] * n
            for k, c in algebra.bracket_terms[i][j]:
                for m in range(n):
                    rhs[m] = rhs[m] + c * phi[k][m]
            if lhs != rhs:
                bracket_bad.append(
                    f"[{algebra.basis_names[i]},{algebra.basis_names[j]}]"
                )
    report.add("bracket_homomorphism", not bracket_bad, ", ".join(bracket_bad))
    return report


def apply_auto(algebra: SuperAlgebra, phi, a: UEElement) -> UEElement:
    """Apply the algebra automorphism induced by the bracket- and
    parity-preserving linear map phi (image vectors per basis index)."""
    check_automorphism(algebra, phi).raise_if_failed()
    out = UEElement.zero(algebra, a.order)
    for w, c in a.terms.items():
        piece = UEElement(algebra, {(): c}, a.order)
        for i in w:
            piece = ue_multiply(piece, UEElement.from_vector(algebra, phi[i], a.order))
        for ww, cc in piece.terms.items():
            _accumulate(out.terms, ww, cc)
    return out


def parity_flip(a: UEElement) -> UEElement:
    """The automorphism induced by negating every odd generator."""
    par = a.algebra.parity
    out = UEElement.zero(a.algebra, a.order)
    for w, c in a.terms.items():
        odd_letters = sum(1 for i in w if par[i] == ODD)
        out.terms[w] = -c if odd_letters % 2 else c
    return out
