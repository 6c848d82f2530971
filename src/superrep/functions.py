"""Exactly-representable test functions on the epsilon-extension.

Finite groups carry arbitrary functions (finitely many values, exact
Gaussian-rational arithmetic).  On the real line the class is sums of
polynomial-times-Gaussian terms p(t) * exp(-a (t - mu)^2) with a > 0, stored
per epsilon-component.  That class is closed under convolution, involution,
translation, differentiation and pointwise multiplication, and every
integral the algebra needs has a closed form.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import comb, exp, gamma, pi, sqrt

from .errors import MismatchError, StructureError
from .groups import FINITE, GroupPoint, Supergroup
from .scalars import GR_MINUS_ONE, GR_ONE, GR_ZERO, GaussianRational

# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


class FiniteFunction:
    """Function on the epsilon-extension of a finite group, with exact
    Gaussian-rational values."""

    __slots__ = ("pair", "values")

    def __init__(self, pair: Supergroup, values=None):
        if pair.group.kind != FINITE:
            raise MismatchError("FiniteFunction requires a finite group")
        self.pair = pair
        self.values: dict[GroupPoint, GaussianRational] = {}
        for p, v in (values or {}).items():
            v = GaussianRational.of(v)
            if not v.is_zero():
                self.values[p] = v

    @staticmethod
    def delta(pair: Supergroup, point: GroupPoint) -> "FiniteFunction":
        return FiniteFunction(pair, {point: GR_ONE})

    def __call__(self, point: GroupPoint) -> GaussianRational:
        return self.values.get(point, GR_ZERO)

    def support(self):
        return self.values.keys()

    def _check(self, other: "FiniteFunction"):
        if self.pair is not other.pair and self.pair != other.pair:
            raise MismatchError("functions live on different groups")

    def __add__(self, other: "FiniteFunction") -> "FiniteFunction":
        self._check(other)
        out = dict(self.values)
        for p, v in other.values.items():
            out[p] = out.get(p, GR_ZERO) + v
        return FiniteFunction(self.pair, out)

    def __sub__(self, other: "FiniteFunction") -> "FiniteFunction":
        return self + other.scale(GR_MINUS_ONE)

    def scale(self, scalar) -> "FiniteFunction":
        scalar = GaussianRational.of(scalar)
        return FiniteFunction(self.pair, {p: scalar * v for p, v in self.values.items()})

    def twist_split(self):
        """Pairs (g, piece) whose pieces sum to f, every point of supp(piece)
        acting on the algebra as g does: one delta piece per support point."""
        return [(p, FiniteFunction(self.pair, {p: v})) for p, v in self.values.items()]

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteFunction)
            and self.pair == other.pair
            and self.values == other.values
        )

    def __repr__(self):
        return "FiniteFunction(" + ", ".join(f"{p}: {v}" for p, v in sorted(
            self.values.items(), key=lambda kv: (kv[0].eps, kv[0].base))) + ")"


# ---------------------------------------------------------------------------
# Gaussian-polynomial functions on the line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussTerm:
    """p(t) * exp(-rate (t - center)^2); coeffs[k] is the t^k coefficient."""

    coeffs: tuple[complex, ...]
    rate: float
    center: float = 0.0

    def __post_init__(self):
        if self.rate <= 0:
            raise StructureError("Gaussian rate must be strictly positive")

    def __call__(self, t: float) -> complex:
        p = sum(c * t**k for k, c in enumerate(self.coeffs))
        return p * exp(-self.rate * (t - self.center) ** 2)


def _poly_trim(coeffs) -> tuple[complex, ...]:
    coeffs = [complex(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_shift(coeffs, shift: complex) -> tuple[complex, ...]:
    """Coefficients of p(t + shift) given those of p(t)."""
    n = len(coeffs)
    out = [0j] * n
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        for k in range(j + 1):
            out[k] += c * comb(j, k) * shift ** (j - k)
    return _poly_trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0j] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _poly_trim(out)


def _abs_moment(k: int, rate: float) -> float:
    """integral of |t|^k exp(-rate t^2) dt over the line."""
    return gamma((k + 1) / 2.0) / rate ** ((k + 1) / 2.0)


def _gauss_moment(k: int, rate: float) -> float:
    """integral of t^k exp(-rate t^2) dt over the line (zero for odd k)."""
    return 0.0 if k % 2 else _abs_moment(k, rate)


class GaussianPoly:
    """Function on the epsilon-extension of the line: a pair of
    Gaussian-polynomial sums (component on G, component on G*eps)."""

    __slots__ = ("plus", "eps")

    def __init__(self, plus=(), eps=()):
        self.plus = _merge_terms(plus)
        self.eps = _merge_terms(eps)

    @classmethod
    def _keyed(cls, plus, eps) -> "GaussianPoly":
        """Build from terms whose (rate, center) keys are pairwise distinct
        on each component, as every key-preserving map of a merged function
        leaves them: input order is kept and empty polynomials are dropped,
        with no merge pass."""
        out = object.__new__(cls)
        out.plus = tuple(t for t in plus if t.coeffs)
        out.eps = tuple(t for t in eps if t.coeffs)
        return out

    @staticmethod
    def gaussian(rate=1.0, center=0.0, coeffs=(1.0,), component="plus") -> "GaussianPoly":
        term = GaussTerm(_poly_trim(coeffs), float(rate), float(center))
        return GaussianPoly(plus=(term,)) if component == "plus" else GaussianPoly(eps=(term,))

    def __call__(self, point: GroupPoint) -> complex:
        terms = self.eps if point.eps else self.plus
        t = float(point.base)
        return sum((term(t) for term in terms), 0j)

    def value(self, t: float, eps: bool = False) -> complex:
        return self(GroupPoint(float(t), eps))

    def __add__(self, other: "GaussianPoly") -> "GaussianPoly":
        return GaussianPoly(self.plus + other.plus, self.eps + other.eps)

    def __sub__(self, other: "GaussianPoly") -> "GaussianPoly":
        return self + other.scale(-1.0)

    def scale(self, scalar) -> "GaussianPoly":
        scalar = complex(scalar)
        if scalar == 0:
            return GaussianPoly()
        scale_one = lambda terms: tuple(
            GaussTerm(_poly_trim(c * scalar for c in t.coeffs), t.rate, t.center)
            for t in terms
        )
        return GaussianPoly._keyed(scale_one(self.plus), scale_one(self.eps))

    def conjugate(self) -> "GaussianPoly":
        conj = lambda terms: tuple(
            GaussTerm(_poly_trim(c.conjugate() for c in t.coeffs), t.rate, t.center)
            for t in terms
        )
        return GaussianPoly._keyed(conj(self.plus), conj(self.eps))

    def reflect(self) -> "GaussianPoly":
        """t -> -t on both components."""
        ref = lambda terms: tuple(
            GaussTerm(
                _poly_trim(c * (-1) ** k for k, c in enumerate(t.coeffs)),
                t.rate,
                -t.center,
            )
            for t in terms
        )
        return GaussianPoly._keyed(ref(self.plus), ref(self.eps))

    def twist_split(self):
        """Pairs (g, piece) whose pieces sum to f, every point of supp(piece)
        acting on the algebra as g does: the plus part with the identity,
        then the eps part with epsilon.  Valid only because every caller
        guards with ``require_trivial_line_ad``, so that exp(t z) acts as the
        identity and (t, eps) as the parity flip."""
        out = []
        if self.plus:
            out.append((GroupPoint(0, False), GaussianPoly(self.plus, ())))
        if self.eps:
            out.append((GroupPoint(0, True), GaussianPoly((), self.eps)))
        return out

    def swap_components(self) -> "GaussianPoly":
        return GaussianPoly._keyed(self.eps, self.plus)

    def translate(self, tau: float) -> "GaussianPoly":
        """t -> t - tau (left translation by tau on each component)."""
        tau = float(tau)
        tr = lambda terms: tuple(
            GaussTerm(_poly_shift(t.coeffs, -tau), t.rate, t.center + tau)
            for t in terms
        )
        return GaussianPoly(tr(self.plus), tr(self.eps))

    def derivative(self) -> "GaussianPoly":
        def d(term: GaussTerm) -> GaussTerm:
            p = term.coeffs
            dp = tuple(k * p[k] for k in range(1, len(p)))
            # -2a(t - mu) p(t)
            lin = _poly_mul(p, (2.0 * term.rate * term.center, -2.0 * term.rate))
            n = max(len(dp), len(lin))
            total = tuple(
                (dp[k] if k < len(dp) else 0) + (lin[k] if k < len(lin) else 0)
                for k in range(n)
            )
            return GaussTerm(_poly_trim(total), term.rate, term.center)

        return GaussianPoly._keyed(
            tuple(d(t) for t in self.plus), tuple(d(t) for t in self.eps)
        )

    def is_zero(self) -> bool:
        return not self.plus and not self.eps

    def __repr__(self):
        def side(terms):
            return " + ".join(
                f"poly{list(t.coeffs)}*exp(-{t.rate}(t-{t.center})^2)" for t in terms
            ) or "0"

        return f"GaussianPoly(plus: {side(self.plus)}; eps: {side(self.eps)})"


def _merge_terms(terms) -> tuple[GaussTerm, ...]:
    """Combine terms sharing (rate, center) and drop zero polynomials."""
    merged: dict[tuple[float, float], list[complex]] = {}
    order: list[tuple[float, float]] = []
    for t in terms:
        key = (t.rate, t.center)
        if key not in merged:
            merged[key] = []
            order.append(key)
        acc = merged[key]
        for k, c in enumerate(t.coeffs):
            while len(acc) <= k:
                acc.append(0j)
            acc[k] += c
    out = []
    for key in order:
        coeffs = _poly_trim(merged[key])
        if coeffs:
            out.append(GaussTerm(coeffs, key[0], key[1]))
    return tuple(out)


def _bivariate_from_poly(coeffs, cu: complex, cs: complex, c0: complex):
    """p(cu*u + cs*s + c0) as a dict {(i, j): coefficient of u^i s^j}."""
    out: dict[tuple[int, int], complex] = {}
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        # expand (cu*u + cs*s + c0)^k multinomially
        for i in range(k + 1):
            for j in range(k - i + 1):
                m = k - i - j
                w = (
                    c
                    * comb(k, i)
                    * comb(k - i, j)
                    * cu**i
                    * cs**j
                    * c0**m
                )
                if w != 0:
                    out[(i, j)] = out.get((i, j), 0j) + w
    return out


def _term_convolve(a: GaussTerm, b: GaussTerm) -> GaussTerm | None:
    """Closed-form line convolution of two Gaussian-polynomial terms."""
    p, q = a.rate, b.rate
    A = p + q
    alpha = (p * a.center - q * b.center) / A
    beta = q / A
    # t = u + alpha + beta*s inside f, and s - t = -u + (p/A)s - alpha in h
    fa = _bivariate_from_poly(a.coeffs, 1.0, beta, alpha)
    fb = _bivariate_from_poly(b.coeffs, -1.0, p / A, -alpha)
    prod: dict[tuple[int, int], complex] = {}
    for (i1, j1), c1 in fa.items():
        for (i2, j2), c2 in fb.items():
            key = (i1 + i2, j1 + j2)
            prod[key] = prod.get(key, 0j) + c1 * c2
    max_j = max((j for _, j in prod), default=0)
    out = [0j] * (max_j + 1)
    for (i, j), c in prod.items():
        m = _gauss_moment(i, A)
        if m:
            out[j] += c * m
    coeffs = _poly_trim(out)
    return GaussTerm(coeffs, p * q / A, a.center + b.center) if coeffs else None


def _convolve_sides(f_terms, h_terms):
    out = []
    for a in f_terms:
        for b in h_terms:
            t = _term_convolve(a, b)
            if t is not None:
                out.append(t)
    return tuple(out)


def _term_fourier(term: GaussTerm, freq: float) -> complex:
    """integral of p(t) exp(-a (t-mu)^2) exp(i freq t) dt, in closed form:
    p(t + mu + i freq/2a) against the moments of the centered Gaussian."""
    a, mu = term.rate, term.center
    coeffs = term.coeffs
    shift = 1j * freq / (2.0 * a) + mu
    shifted = [0j] * len(coeffs)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        for k in range(j + 1):
            shifted[k] += c * comb(j, k) * shift ** (j - k)
    while shifted and shifted[-1] == 0:
        shifted.pop()
    total = sum([c * _gauss_moment(k, a) for k, c in enumerate(shifted)])
    return cmath.exp(1j * freq * mu) * exp(-freq * freq / (4.0 * a)) * total


def _term_l1_bound(term: GaussTerm, center_slack: float = 0.0) -> float:
    """Certified upper bound on the L1 norm of one term via moment bounds.
    ``center_slack`` widens the bound so it also covers every translate of
    the term by at most that amount."""
    a, mu = term.rate, abs(term.center) + center_slack
    moments = [_abs_moment(j, a) for j in range(len(term.coeffs))]
    total = 0.0
    for k, c in enumerate(term.coeffs):
        if c == 0:
            continue
        # |t|^k <= sum_j C(k,j) |mu|^(k-j) |u|^j with u = t - center
        total += abs(c) * sum([comb(k, j) * mu ** (k - j) * moments[j] for j in range(k + 1)])
    return total


# ---------------------------------------------------------------------------
# module-level operations dispatching on the function class
# ---------------------------------------------------------------------------


def convolve(f, h):
    """Convolution over the epsilon-extension."""
    if isinstance(f, FiniteFunction) and isinstance(h, FiniteFunction):
        f._check(h)
        pair = f.pair
        out: dict[GroupPoint, GaussianRational] = {}
        for g, fv in f.values.items():
            for g2, hv in h.values.items():
                target = pair.multiply(g, g2)
                out[target] = out.get(target, GR_ZERO) + fv * hv
        return FiniteFunction(pair, out)
    if isinstance(f, GaussianPoly) and isinstance(h, GaussianPoly):
        plus = _convolve_sides(f.plus, h.plus) + _convolve_sides(f.eps, h.eps)
        eps = _convolve_sides(f.plus, h.eps) + _convolve_sides(f.eps, h.plus)
        return GaussianPoly(plus, eps)
    raise MismatchError("convolution requires two functions of the same class")


def breve(f):
    """The involution f -> Delta(g)^{-1} conj(f(g^{-1})); Delta = 1 drops out,
    as finite groups and the real line have two-sided invariant Haar measure."""
    if isinstance(f, FiniteFunction):
        p = f.pair
        return FiniteFunction(p, {p.inverse(g): v.conjugate() for g, v in f.values.items()})
    if isinstance(f, GaussianPoly):
        return f.conjugate().reflect()
    raise MismatchError("unsupported function class")


def left_translate(g: GroupPoint, f):
    """L_g f (g') = f(g^{-1} g')."""
    if isinstance(f, FiniteFunction):
        p = f.pair
        out = {p.multiply(g, q): v for q, v in f.values.items()}
        return FiniteFunction(p, out)
    if isinstance(f, GaussianPoly):
        out = f.translate(float(g.base))
        if g.eps:
            out = out.swap_components()
        return out
    raise MismatchError("unsupported function class")


def right_translate(g: GroupPoint, f):
    """R_g f (g') = f(g' g)."""
    if isinstance(f, FiniteFunction):
        p = f.pair
        gi = p.inverse(g)
        out = {p.multiply(q, gi): v for q, v in f.values.items()}
        return FiniteFunction(p, out)
    if isinstance(f, GaussianPoly):
        out = f.translate(-float(g.base))
        if g.eps:
            out = out.swap_components()
        return out
    raise MismatchError("unsupported function class")


def right_derivative(pair: Supergroup, index: int, f):
    """R_x f for an even basis element x; line groups only.  For the line
    generator z this is -d/dt on each component."""
    if pair.algebra.parity[index] != 0:
        raise StructureError(
            f"right derivative requires an even basis element, got "
            f"{pair.algebra.basis_names[index]}"
        )
    if not isinstance(f, GaussianPoly):
        raise StructureError("right derivative only exists on line instances")
    if index != pair.generator_index:
        raise StructureError("the line instance has a single even generator")
    return f.derivative().scale(-1.0)


def l1_bound(f, center_slack: float = 0.0) -> float:
    """Certified upper bound on the L1 norm over the epsilon-extension."""
    if isinstance(f, FiniteFunction):
        return float(sum(abs(v) for v in f.values.values()))
    if isinstance(f, GaussianPoly):
        return sum(_term_l1_bound(t, center_slack) for t in f.plus) + sum(
            _term_l1_bound(t, center_slack) for t in f.eps
        )
    raise MismatchError("unsupported function class")


def fourier_at(f: GaussianPoly, freq: float, component: str = "plus") -> complex:
    """integral of f(t) e^{i freq t} dt over one component of the line."""
    if not isinstance(f, GaussianPoly):
        raise MismatchError("fourier_at is a line-instance operation")
    terms = f.plus if component == "plus" else f.eps
    freq = float(freq)
    return sum([_term_fourier(t, freq) for t in terms], 0j)


def factor_gaussian(rate: float, center: float = 0.0):
    """Write exp(-rate (t-center)^2) as a convolution f1 * h1 within the
    class, by rate doubling: conv of two rate-2a Gaussians has rate a."""
    scale = 2.0 * sqrt(rate / pi)
    f1 = GaussianPoly.gaussian(2.0 * rate, center, (scale,))
    h1 = GaussianPoly.gaussian(2.0 * rate, 0.0, (1.0,))
    return f1, h1


def max_sample_difference(f: GaussianPoly, h: GaussianPoly) -> float:
    """Max pointwise deviation over both components at 21 points on [-3, 3]."""
    points = [(-3.0 + 0.3 * k) for k in range(21)]
    worst = 0.0
    for eps in (False, True):
        for t in points:
            worst = max(worst, abs(f.value(t, eps) - h.value(t, eps)))
    return worst
