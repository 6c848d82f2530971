"""Closed-form Gaussian-polynomial calculus against a quadrature oracle."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from superrep import functions
from superrep.functions import (
    FiniteFunction,
    GaussTerm,
    GaussianPoly,
    breve,
    convolve,
    factor_gaussian,
    fourier_at,
    l1_bound,
    left_translate,
    right_derivative,
    right_translate,
)
from superrep.groups import GroupPoint


def quad_complex(func, a=-30.0, b=30.0):
    re = quad(lambda t: func(t).real, a, b, limit=200)[0]
    im = quad(lambda t: func(t).imag, a, b, limit=200)[0]
    return complex(re, im)


def random_gauss(rng, component="plus"):
    coeffs = tuple(
        complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for _ in range(rng.randint(1, 3))
    )
    return GaussianPoly.gaussian(
        rng.uniform(0.3, 3.0), rng.uniform(-1.5, 1.5), coeffs, component
    )


# -- exact identities --------------------------------------------------------


def test_gaussian_self_convolution():
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    g = convolve(f, f)
    # closed form: sqrt(pi/2) exp(-t^2/2)
    for t in (-2.0, -0.5, 0.0, 1.0, 3.0):
        expected = math.sqrt(math.pi / 2) * math.exp(-t * t / 2)
        assert g.value(t) == pytest.approx(expected, abs=1e-14)


def test_convolution_against_quadrature(rng):
    for _ in range(10):
        f = random_gauss(rng)
        h = random_gauss(rng)
        g = convolve(f, h)
        for t in (-1.0, 0.3, 2.0):
            oracle = quad_complex(lambda s: f.value(s) * h.value(t - s))
            assert g.value(t) == pytest.approx(oracle, abs=1e-9)


def test_convolution_epsilon_components(rng):
    # eps * eps lands back on the plus component
    f = random_gauss(rng, "eps")
    h = random_gauss(rng, "eps")
    g = convolve(f, h)
    assert g.eps == ()
    oracle = quad_complex(lambda s: f.value(s, True) * h.value(0.7 - s, True))
    assert g.value(0.7) == pytest.approx(oracle, abs=1e-9)


def test_fourier_against_quadrature(rng):
    for _ in range(10):
        f = random_gauss(rng)
        freq = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
        oracle = quad_complex(lambda t: f.value(t) * complex(math.cos(freq * t), math.sin(freq * t)))
        assert fourier_at(f, freq) == pytest.approx(oracle, abs=1e-9)


def test_fourier_standard_gaussian():
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    assert fourier_at(f, 2.0) == pytest.approx(math.sqrt(math.pi) * math.exp(-1.0), abs=1e-14)


def test_l1_bound_dominates_quadrature(rng):
    for _ in range(20):
        f = random_gauss(rng)
        oracle = quad(lambda t: abs(f.value(t)), -30, 30, limit=200)[0]
        bound = l1_bound(f)
        assert bound + 1e-12 >= oracle
        # and it is not wildly loose for a single term
        assert bound <= len(f.plus[0].coeffs) * max(1.0, oracle) * 10


def test_fourier_dominated_by_l1(rng):
    # |f^(freq)| <= ||f||_1 on 50 random (function, frequency) pairs
    for _ in range(50):
        f = random_gauss(rng)
        freq = rng.uniform(-8, 8)
        assert abs(fourier_at(f, freq)) <= l1_bound(f) + 1e-12


def test_derivative_matches_difference_quotient(rng):
    f = random_gauss(rng)
    df = f.derivative()
    t = 0.4
    for h in (1e-3, 1e-4, 1e-5):
        approx = (f.value(t + h) - f.value(t - h)) / (2 * h)
        assert abs(approx - df.value(t)) <= 10 * abs(h) ** 2 * 1e3 + 1e-8


def test_fourier_of_derivative(rng):
    # integral of f' e^{i freq t} = -i freq * integral of f e^{i freq t}
    for _ in range(10):
        f = random_gauss(rng)
        freq = rng.uniform(-4, 4)
        lhs = fourier_at(f.derivative(), freq)
        rhs = -1j * freq * fourier_at(f, freq)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_translation_and_reflection(rng):
    f = random_gauss(rng)
    g = left_translate(GroupPoint(0.8, False), f)
    assert g.value(1.0) == pytest.approx(f.value(0.2), abs=1e-14)
    h = right_translate(GroupPoint(0.8, False), f)
    assert h.value(1.0) == pytest.approx(f.value(1.8), abs=1e-14)
    r = breve(f)
    assert r.value(-0.3) == pytest.approx(f.value(0.3).conjugate(), abs=1e-14)


def test_eps_translation_swaps_components(rng):
    f = random_gauss(rng, "plus")
    g = left_translate(GroupPoint(0.0, True), f)
    assert g.plus == ()
    assert g.value(0.5, True) == pytest.approx(f.value(0.5), abs=1e-14)


def test_factorization_within_class():
    # every Gaussian factors as a convolution of two class members
    f1, h1 = factor_gaussian(1.0, 0.0)
    g = convolve(f1, h1)
    for t in (-1.0, 0.0, 0.5, 2.0):
        assert g.value(t) == pytest.approx(math.exp(-t * t), abs=1e-12)


def test_right_derivative_is_negative_ddt(hcline):
    f = GaussianPoly.gaussian(1.0, 0.3, (1.0, 0.5))
    rd = right_derivative(hcline, hcline.generator_index, f)
    df = f.derivative()
    for t in (-1.0, 0.0, 1.2):
        assert rd.value(t) == pytest.approx(-df.value(t), abs=1e-14)


def test_richardson_derivative_trend(hcline):
    # the translation quotient converges to the right derivative at first order
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    rd = right_derivative(hcline, hcline.generator_index, f)
    errors = []
    for h in (0.1, 0.05, 0.025):
        shifted = left_translate(GroupPoint(h, False), f)
        worst = 0.0
        for t in [-2 + 0.4 * k for k in range(11)]:
            q = (shifted.value(t) - f.value(t)) / h
            worst = max(worst, abs(q - rd.value(t)))
        errors.append(worst)
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] / errors[0] == pytest.approx(0.5, abs=0.1)


# -- key-preserving maps skip the merge pass ---------------------------------


def test_key_preserving_maps_match_merged_construction(rng, monkeypatch):
    def no_merge(terms):
        raise AssertionError("a key-preserving map ran the merge pass")

    for _ in range(20):
        f = sum(
            (random_gauss(rng, side) for side in ("plus", "eps", "plus", "eps")),
            GaussianPoly.gaussian(1.5, 0.0, (0.5, -1j), "plus"),
        )
        with monkeypatch.context() as m:
            m.setattr(functions, "_merge_terms", no_merge)
            maps = (
                f.scale(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))),
                f.conjugate(),
                f.reflect(),
                f.derivative(),
                f.swap_components(),
            )
        for out in maps:
            merged = GaussianPoly(out.plus, out.eps)
            assert out.plus == merged.plus and out.eps == merged.eps


def test_scale_underflow_drops_term():
    f = GaussianPoly.gaussian(1.0, 0.0, (1e-300,)) + GaussianPoly.gaussian(2.0, 0.5, (1.0,))
    out = f.scale(1e-300)
    assert [(t.rate, t.center) for t in out.plus] == [(2.0, 0.5)]
    assert out.plus[0].coeffs == (1e-300 + 0j,)


def test_translate_merges_centers_that_round_together():
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,)) + GaussianPoly.gaussian(1.0, 1e-17, (2.0,))
    assert len(f.plus) == 2
    out = f.translate(1.0)
    assert [(t.rate, t.center, t.coeffs) for t in out.plus] == [(1.0, 1.0, (3.0 + 0j,))]


# -- finite functions --------------------------------------------------------


def test_finite_convolution_unit(z2odd):
    d1 = FiniteFunction.delta(z2odd, z2odd.identity_point())
    ds = FiniteFunction.delta(z2odd, GroupPoint(1, False))
    assert convolve(d1, ds) == ds
    assert convolve(ds, ds) == d1


def test_finite_breve_involutive(z2odd, rng):
    from fractions import Fraction

    from superrep.scalars import GaussianRational

    values = {
        p: GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        for p in z2odd.points()
    }
    f = FiniteFunction(z2odd, values)
    assert breve(breve(f)) == f


def test_gauss_term_requires_positive_rate():
    from superrep.errors import StructureError

    with pytest.raises(StructureError):
        GaussTerm((1.0,), -1.0)


# -- the term maps against the term-by-term reference ------------------------
#
# Local copies of the per-method loops, ``_poly_mul`` and the ordered merge
# that the shared term map replaced; every coefficient is compared by
# ``float.hex``, so a signed zero that moves counts as a difference.


def _ref_trim(coeffs):
    coeffs = [complex(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _ref_poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0j] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ref_trim(out)


def _ref_merge(terms):
    merged, order = {}, []
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
        coeffs = _ref_trim(merged[key])
        if coeffs:
            out.append(GaussTerm(coeffs, key[0], key[1]))
    return tuple(out)


def _ref_keyed(f, term_map):
    return tuple(
        tuple(t for t in map(term_map, side) if t.coeffs) for side in (f.plus, f.eps)
    )


def _ref_derivative_term(term):
    p = term.coeffs
    dp = tuple(k * p[k] for k in range(1, len(p)))
    lin = _ref_poly_mul(p, (2.0 * term.rate * term.center, -2.0 * term.rate))
    n = max(len(dp), len(lin))
    total = tuple(
        (dp[k] if k < len(dp) else 0) + (lin[k] if k < len(lin) else 0)
        for k in range(n)
    )
    return GaussTerm(_ref_trim(total), term.rate, term.center)


def _ref_scale(f, scalar):
    scalar = complex(scalar)
    if scalar == 0:
        return (), ()
    return _ref_keyed(f, lambda t: GaussTerm(
        _ref_trim(c * scalar for c in t.coeffs), t.rate, t.center))


def _ref_translate(f, tau):
    tau = float(tau)
    return tuple(
        _ref_merge(GaussTerm(functions._poly_shift(t.coeffs, -tau), t.rate, t.center + tau)
                   for t in side)
        for side in (f.plus, f.eps)
    )


def _hexed(sides):
    return [
        [(tuple((c.real.hex(), c.imag.hex()) for c in t.coeffs), t.rate.hex(), t.center.hex())
         for t in side]
        for side in sides
    ]


_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1e-300, 1.0, -2.5]),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)
_coeffs = st.builds(complex, _parts, _parts)
# few keys, so that terms share (rate, center) and the merge has work to do
_terms = st.lists(
    st.builds(
        GaussTerm,
        st.lists(_coeffs, max_size=4).map(tuple),
        st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.1, 4.0)),
        st.one_of(st.sampled_from([0.0, -0.0, 1e-17, -0.75]), st.floats(-3.0, 3.0)),
    ),
    max_size=5,
)
_shifts = st.one_of(st.sampled_from([0.0, -0.0, 1e-17, 1.0]), st.floats(-5.0, 5.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_terms, _terms, _coeffs, _shifts)
def test_term_maps_match_the_reference_bit_for_bit(plus, eps, scalar, tau):
    f = GaussianPoly(plus, eps)
    sides = lambda g: (g.plus, g.eps)
    assert _hexed(sides(f)) == _hexed((_ref_merge(plus), _ref_merge(eps)))
    assert _hexed(sides(f.derivative())) == _hexed(_ref_keyed(f, _ref_derivative_term))
    assert _hexed(sides(f.scale(scalar))) == _hexed(_ref_scale(f, scalar))
    assert _hexed(sides(f.conjugate())) == _hexed(_ref_keyed(f, lambda t: GaussTerm(
        _ref_trim(c.conjugate() for c in t.coeffs), t.rate, t.center)))
    assert _hexed(sides(f.reflect())) == _hexed(_ref_keyed(f, lambda t: GaussTerm(
        _ref_trim(c * (-1) ** k for k, c in enumerate(t.coeffs)), t.rate, -t.center)))
    assert _hexed(sides(f.translate(tau))) == _hexed(_ref_translate(f, tau))
