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
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from math import comb, exp, gamma, inf, isnan, nextafter, pi, sqrt
from numbers import Real

from .errors import MismatchError, StructureError
from .groups import FINITE, GroupPoint, Supergroup
from .scalars import GR_MINUS_ONE, GR_ONE, GR_ZERO, GaussianRational

# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


@dataclass(init=False, repr=False)
class FiniteFunction:
    """Function on the epsilon-extension of a finite group, with exact
    Gaussian-rational values; equal by pair and values, unhashable."""

    __slots__ = ("pair", "values")
    pair: Supergroup
    values: dict[GroupPoint, GaussianRational]

    def __init__(self, pair: Supergroup, values=None):
        if pair.group.kind != FINITE:
            raise MismatchError("FiniteFunction requires a finite group")
        self.pair = pair
        self.values = {}
        for p, v in (values or {}).items():
            pair.require_point(p)
            v = GaussianRational.of(v)
            if not v.is_zero():
                self.values[p] = v

    @classmethod
    def _raw(cls, pair: Supergroup, values: dict) -> "FiniteFunction":
        """Wrap ``values`` as they are: nonzero ``GaussianRational``s on the
        points of the finite pair of an existing function; skips __init__."""
        out = object.__new__(cls)
        out.pair = pair
        out.values = values
        return out

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
        return FiniteFunction._raw(self.pair, _nonzero(out))

    def __sub__(self, other: "FiniteFunction") -> "FiniteFunction":
        return self + other.scale(GR_MINUS_ONE)

    def scale(self, scalar) -> "FiniteFunction":
        scalar = GaussianRational.of(scalar)
        if scalar.is_zero():
            return FiniteFunction._raw(self.pair, {})
        # a product of nonzero values is nonzero
        return FiniteFunction._raw(self.pair, {p: scalar * v for p, v in self.values.items()})

    def twist_split(self):
        """Pairs (g, piece) whose pieces sum to f, every point of supp(piece)
        acting on the algebra as g does: one delta piece per support point."""
        return [(p, FiniteFunction._raw(self.pair, {p: v})) for p, v in self.values.items()]

    def is_zero(self) -> bool:
        return not self.values

    def __repr__(self):
        return "FiniteFunction(" + ", ".join(f"{p}: {v}" for p, v in sorted(
            self.values.items(), key=lambda kv: (kv[0].eps, kv[0].base))) + ")"


def _nonzero(values: dict) -> dict:
    """``values`` without the zeros a sum of canonical values can leave."""
    return {p: v for p, v in values.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# Gaussian-polynomial functions on the line
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class GaussTerm:
    """p(t) * exp(-rate (t - center)^2); coeffs[k] is the t^k coefficient.
    Immutable, hashable and equal by value."""

    __slots__ = ("coeffs", "rate", "center")
    coeffs: tuple[complex, ...]
    rate: float
    center: float

    def __init__(self, coeffs: tuple[complex, ...], rate: float, center: float = 0.0):
        if rate <= 0:
            raise StructureError("Gaussian rate must be strictly positive")
        # false for a NaN rate or center as well as for an infinite one
        if not (rate < inf and -inf < center < inf):
            raise StructureError("Gaussian rate and center must be finite")
        _set_coeffs(self, coeffs)
        _set_rate(self, rate)
        _set_center(self, center)

    def __reduce__(self):
        # the frozen __setattr__ would refuse the default slot restore
        return (GaussTerm, (self.coeffs, self.rate, self.center))

    def __call__(self, t: float) -> complex:
        p = sum(c * t**k for k, c in enumerate(self.coeffs))
        return p * exp(-self.rate * (t - self.center) ** 2)


_set_coeffs = GaussTerm.coeffs.__set__
_set_rate = GaussTerm.rate.__set__
_set_center = GaussTerm.center.__set__


def _term(coeffs: tuple[complex, ...], rate: float, center: float) -> GaussTerm:
    """A term from the rate and center of an existing term, which are
    already valid; skips __init__ and its checks."""
    t = object.__new__(GaussTerm)
    _set_coeffs(t, coeffs)
    _set_rate(t, rate)
    _set_center(t, center)
    return t


def _computed_term(coeffs: tuple[complex, ...], rate: float, center: float) -> GaussTerm:
    """A term from a computed rate and center, checked once: a rate that
    underflows to 0 or overflows, or a center that overflows, has left the
    float range (OverflowError), where ``GaussTerm`` refuses bad input."""
    if not (0 < rate < inf and -inf < center < inf):
        raise OverflowError("Gaussian rate or center outside the float range")
    return _term(coeffs, rate, center)


def _poly_trim(coeffs: list[complex]) -> tuple[complex, ...]:
    """A list of complex coefficients without its trailing zeros, as a
    tuple; the list is consumed."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_shift(coeffs, shift: complex) -> tuple[complex, ...]:
    """Coefficients of p(t + shift) given those of p(t); each power of
    ``shift`` is formed once."""
    n = len(coeffs)
    powers = [shift ** e for e in range(n)]
    out = [0j] * n
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        for k in range(j + 1):
            out[k] += c * comb(j, k) * powers[j - k]
    return _poly_trim(out)


# 40 digits with no exponent limit, and pi to 46 digits
_WIDE = Context(prec=40, Emin=MIN_EMIN, Emax=MAX_EMAX)
_PI = Decimal("3.141592653589793238462643383279502884197169399")


def _abs_moment(k: int, rate: float, up: bool = True) -> float:
    """integral of |t|^k exp(-rate t^2) dt over the line.  In range it is the
    direct quotient, not yet rounded outward.  Where that quotient cannot be
    formed (rate ** e or the gamma value out of range), it is the nearest
    float to the moment, stepped up once with ``up``: then never 0.0 and no
    smaller than the true moment.  Either way inf where it overflows."""
    e = (k + 1) / 2.0
    try:
        return gamma(e) / rate ** e
    except (OverflowError, ZeroDivisionError):
        # Gamma(n + 1/2) / rate^(n + 1/2) = sqrt(pi / rate) prod_{j < n} (j + 1/2) / rate
        # for k = 2n, and Gamma(n + 1) / rate^(n + 1) = (1 / rate) prod_{j < n} (j + 1) / rate
        # for k = 2n + 1, formed to 40 digits, so that rounding it gives the nearest float
        with localcontext(_WIDE):
            r = Decimal(rate)
            m, half = (1 / r, 1) if k % 2 else ((_PI / r).sqrt(), Decimal("0.5"))
            for j in range(k // 2):
                m = m * (j + half) / r
        return nextafter(float(m), inf) if up else float(m)


def _gauss_moment(k: int, rate: float) -> float:
    """integral of t^k exp(-rate t^2) dt over the line (zero for odd k).
    Where the direct quotient cannot be formed, it is the nearest float to
    the moment: 0.0 where it underflows and inf where it overflows."""
    return 0.0 if k % 2 else _abs_moment(k, rate, up=False)


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

    def _map(self, term_map) -> "GaussianPoly":
        """``term_map`` applied to every term of both components, in order;
        the map must keep (rate, center) keys pairwise distinct."""
        return GaussianPoly._keyed(map(term_map, self.plus), map(term_map, self.eps))

    @staticmethod
    def gaussian(rate=1.0, center=0.0, coeffs=(1.0,), component="plus") -> "GaussianPoly":
        coeffs = _poly_trim([complex(c) for c in coeffs])
        if not all(map(cmath.isfinite, coeffs)):
            raise StructureError("Gaussian coefficients must be finite")
        term = GaussTerm(coeffs, float(rate), float(center))
        if component == "plus":
            return GaussianPoly(plus=(term,))
        if component == "eps":
            return GaussianPoly(eps=(term,))
        raise StructureError(f"component must be 'plus' or 'eps', not {component!r}")

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
        return self._map(lambda t: _term(
            _poly_trim([c * scalar for c in t.coeffs]), t.rate, t.center))

    def conjugate(self) -> "GaussianPoly":
        return self._map(lambda t: _term(
            _poly_trim([c.conjugate() for c in t.coeffs]), t.rate, t.center))

    def reflect(self) -> "GaussianPoly":
        """t -> -t on both components."""
        return self._map(lambda t: _term(
            _poly_trim([c * (-1) ** k for k, c in enumerate(t.coeffs)]), t.rate, -t.center))

    def twist_split(self):
        """Pairs (g, piece) whose pieces sum to f, every point of supp(piece)
        acting on the algebra as g does: the plus part with the identity,
        then the eps part with epsilon.  Valid only because the crossed
        layer forms a twist only where exp(t z) acts as the identity, so
        that (t, eps) acts as the parity flip, and refuses any other line
        pair."""
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

        def shift(t: GaussTerm) -> GaussTerm:
            return _computed_term(_poly_shift(t.coeffs, -tau), t.rate, t.center + tau)

        # c + tau can round two centers together, so the result is merged
        return GaussianPoly(map(shift, self.plus), map(shift, self.eps))

    def derivative(self) -> "GaussianPoly":
        """d/dt on each component."""

        def d(term: GaussTerm) -> GaussTerm:
            p, a, mu = term.coeffs, term.rate, term.center
            dp = [k * p[k] for k in range(1, len(p))]
            # -2a(t - mu) p(t) = (2a mu - 2a t) p(t)
            c0, c1 = 2.0 * a * mu, -2.0 * a
            lin = [0j] * (len(p) + 1)
            for k, c in enumerate(p):
                lin[k] += c * c0
                lin[k + 1] += c * c1
            lin = _poly_trim(lin)
            return _term(_poly_trim([
                (dp[k] if k < len(dp) else 0) + (lin[k] if k < len(lin) else 0)
                for k in range(max(len(dp), len(lin)))
            ]), a, mu)

        return self._map(d)

    def is_zero(self) -> bool:
        return not self.plus and not self.eps

    def __eq__(self, other) -> bool:
        """Equal merged terms on each component, in any order, so that equal
        exact results compare equal; like ``FiniteFunction``, the class is
        unhashable."""
        return (
            isinstance(other, GaussianPoly)
            and _by_key(self.plus) == _by_key(other.plus)
            and _by_key(self.eps) == _by_key(other.eps)
        )

    def __repr__(self):
        def side(terms):
            return " + ".join(f"poly{list(t.coeffs)}*exp(-{t.rate}(t-{t.center})^2)"
                              for t in sorted(terms, key=lambda t: (t.rate, t.center))) or "0"

        return f"GaussianPoly(plus: {side(self.plus)}; eps: {side(self.eps)})"


def _by_key(terms) -> dict:
    """Merged terms as a mapping from (rate, center) to coefficients."""
    return {(t.rate, t.center): t.coeffs for t in terms}


def _merge_terms(terms) -> tuple[GaussTerm, ...]:
    """Combine terms sharing (rate, center) and drop zero polynomials."""
    merged: dict[tuple[float, float], list[complex]] = {}
    for t in terms:
        acc = merged.setdefault((t.rate, t.center), [])
        for k, c in enumerate(t.coeffs):
            while len(acc) <= k:
                acc.append(0j)
            acc[k] += c
    out = []
    for (rate, center), acc in merged.items():
        coeffs = _poly_trim(acc)
        if coeffs:
            out.append(_term(coeffs, rate, center))
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
    return _computed_term(coeffs, p * q / A, a.center + b.center) if coeffs else None


def _convolve_sides(f_terms, h_terms):
    out = []
    for a in f_terms:
        for b in h_terms:
            t = _term_convolve(a, b)
            if t is not None:
                out.append(t)
    return tuple(out)


def _term_l1_bound(term: GaussTerm, center_slack: float = 0.0) -> float:
    """Certified upper bound on the L1 norm of one term via moment bounds.
    ``center_slack`` widens the bound so it also covers every translate of
    the term by at most that amount."""
    a, mu = term.rate, abs(term.center) + center_slack
    n = len(term.coeffs)
    moments = [_abs_moment(j, a) for j in range(n)]
    powers = [mu ** e for e in range(n)]
    total = 0.0
    for k, c in enumerate(term.coeffs):
        if c == 0:
            continue
        # |t|^k <= sum_j C(k,j) |mu|^(k-j) |u|^j with u = t - center
        total += abs(c) * sum([comb(k, j) * powers[k - j] * moments[j] for j in range(k + 1)])
    return total


# ---------------------------------------------------------------------------
# module-level operations dispatching on the function class
# ---------------------------------------------------------------------------


def convolve(f, h):
    """Convolution over the epsilon-extension."""
    if isinstance(f, FiniteFunction) and isinstance(h, FiniteFunction):
        f._check(h)
        pair = f.pair
        table = pair.group.finite.table
        out: dict[GroupPoint, GaussianRational] = {}
        for (g, e), fv in f.values.items():
            row = table[g]
            for (g2, e2), hv in h.values.items():
                # the product (g, e)(g2, e2) of the epsilon-extension
                target = GroupPoint(row[g2], e ^ e2)
                out[target] = out.get(target, GR_ZERO) + fv * hv
        return FiniteFunction._raw(pair, _nonzero(out))
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
        return FiniteFunction._raw(p, {p.inverse(g): v.conjugate() for g, v in f.values.items()})
    if isinstance(f, GaussianPoly):
        return f.conjugate().reflect()
    raise MismatchError("unsupported function class")


def left_translate(g: GroupPoint, f):
    """L_g f (g') = f(g^{-1} g')."""
    if isinstance(f, FiniteFunction):
        p = f.pair
        return FiniteFunction._raw(p, {p.multiply(g, q): v for q, v in f.values.items()})
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
        return FiniteFunction._raw(p, {p.multiply(q, gi): v for q, v in f.values.items()})
    # the line is abelian, so R_g = L_{g^-1}; negating the float keeps the
    # sign of a zero shift
    return left_translate(GroupPoint(-float(g.base), g.eps), f)


def l1_bound(f, center_slack: float = 0.0) -> float:
    """Certified upper bound on the L1 norm over the epsilon-extension; a
    ``center_slack`` that is not a finite number >= 0 is refused."""
    if not (isinstance(center_slack, Real) and 0 <= center_slack < inf):
        raise StructureError("center slack must be a finite number >= 0")
    if isinstance(f, FiniteFunction):
        return float(sum(abs(v) for v in f.values.values()))
    if isinstance(f, GaussianPoly):
        total = sum((_term_l1_bound(t, center_slack) for t in f.plus), 0.0) + sum(
            (_term_l1_bound(t, center_slack) for t in f.eps), 0.0
        )
        # every stored coefficient starts finite, so a NaN comes from an
        # overflow (inf - inf, or inf * 0 in a derivative), and inf bounds it
        return inf if isnan(total) else total
    raise MismatchError("unsupported function class")


def fourier_at(f: GaussianPoly, freq: float, component: str = "plus") -> complex:
    """integral of f(t) e^{i freq t} dt over one component of the line, in
    one loop over its terms with i freq and -freq^2 formed once: a term
    p(t) exp(-a (t-mu)^2) gives p(t + mu + i freq/2a) against the moments of
    the centered Gaussian.  A constant term c needs no shift and gives c
    times the zeroth moment; that differs from the shifted form at most in
    the sign of a zero part, which the sum from 0j drops."""
    if not isinstance(f, GaussianPoly):
        raise MismatchError("fourier_at is a line-instance operation")
    if component == "plus":
        terms = f.plus
    elif component == "eps":
        terms = f.eps
    else:
        raise StructureError(f"component must be 'plus' or 'eps', not {component!r}")
    freq = float(freq)
    ifreq, neg_freq2 = 1j * freq, -freq * freq
    values = []
    for term in terms:
        coeffs, a, mu = term.coeffs, term.rate, term.center
        if len(coeffs) == 1:
            total = coeffs[0] * _gauss_moment(0, a)
        else:
            shifted = _poly_shift(coeffs, ifreq / (2.0 * a) + mu)
            total = sum([c * _gauss_moment(k, a) for k, c in enumerate(shifted)])
        values.append(cmath.exp(ifreq * mu) * exp(neg_freq2 / (4.0 * a)) * total)
    return sum(values, 0j)


def factor_gaussian(rate: float, center: float = 0.0):
    """Write exp(-rate (t-center)^2) as a convolution f1 * h1 within the
    class, by rate doubling: conv of two rate-2a Gaussians has rate a."""
    scale = 2.0 * sqrt(rate / pi)
    f1 = GaussianPoly.gaussian(2.0 * rate, center, (scale,))
    h1 = GaussianPoly.gaussian(2.0 * rate, 0.0, (1.0,))
    return f1, h1
