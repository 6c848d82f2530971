"""Closed-form Gaussian-polynomial calculus against a quadrature oracle."""

import cmath
import copy
import math
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from superrep import functions
from superrep.catalog import load_catalog
from superrep.dsl import parse
from superrep.errors import MismatchError, StructureError
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
    right_translate,
)
from superrep.groups import GroupPoint
from superrep.scalars import GR_ZERO, GaussianRational


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


@pytest.mark.parametrize("component", ["Plus", "bogus", ""])
def test_an_unknown_component_is_refused(component):
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    with pytest.raises(StructureError, match="component"):
        fourier_at(f, 1.0, component)
    with pytest.raises(StructureError, match="component"):
        GaussianPoly.gaussian(1.0, 0.0, (1.0,), component)
    assert fourier_at(f, 1.0, "eps") == 0j
    assert GaussianPoly.gaussian(1.0, 0.0, (1.0,), "eps").plus == ()


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


def test_richardson_derivative_trend():
    # the translation quotient converges to the right derivative R_z f = -f'
    # at first order
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    rd = f.derivative().scale(-1.0)
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
    assert convolve(d1 - ds, ds) == ds - d1


def test_finite_breve_involutive(z2odd, rng):
    from fractions import Fraction

    from superrep.scalars import GaussianRational

    values = {
        p: GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        for p in z2odd.points()
    }
    f = FiniteFunction(z2odd, values)
    assert breve(breve(f)) == f


@pytest.mark.parametrize("rate, center", [
    (-1.0, 0.0), (0.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
])
def test_gauss_term_requires_positive_rate(rate, center):
    # a NaN rate made prop33_bound NaN and an infinite one certified 0.0
    with pytest.raises(StructureError):
        GaussTerm((1.0,), rate, center)
    with pytest.raises(StructureError):
        GaussianPoly.gaussian(rate, center)


@pytest.mark.parametrize("make", [
    lambda: convolve(GaussianPoly.gaussian(1e-200), GaussianPoly.gaussian(1e-200)),
    lambda: convolve(GaussianPoly.gaussian(1e300, 1e300), GaussianPoly.gaussian(1e300, 1e300)),
    lambda: convolve(GaussianPoly.gaussian(1.0, 1e308), GaussianPoly.gaussian(1.0, 1e308)),
    lambda: GaussianPoly.gaussian(1.0, 1e308).translate(1e308),
], ids=["convolved-rate-underflows", "convolved-rate-overflows", "convolved-center-overflows",
        "translated-center-overflows"])
def test_a_computed_term_outside_the_float_range_overflows(make):
    """A rate or center computed from valid terms that leaves the float
    range is a float overflow, not a refusal of the input."""
    with pytest.raises(OverflowError, match="outside the float range"):
        make()


@pytest.mark.parametrize("coeffs", [(math.nan,), (1.0, math.inf), (complex(0.0, -math.inf),)])
def test_gaussian_refuses_non_finite_coefficients(coeffs):
    with pytest.raises(StructureError, match="coefficients must be finite"):
        GaussianPoly.gaussian(1.0, 0.0, coeffs)


def test_gaussian_poly_equality_compares_merged_terms():
    f = GaussianPoly.gaussian(1.0, 0.5, (1.0, 2j)) + GaussianPoly.gaussian(2.0, 0.0, (3.0,), "eps")
    assert f == f.scale(1) == GaussianPoly(f.plus, f.eps)
    assert f == GaussianPoly.gaussian(1.0, 0.5, (0.5, 1j)).scale(2) + GaussianPoly(eps=f.eps)
    assert f != f.swap_components() and f != f.scale(2) and f != f.plus
    with pytest.raises(TypeError):
        hash(f)
    # a sum keeps the order of its terms, equality does not look at it
    g, h = GaussianPoly.gaussian(1.0), GaussianPoly.gaussian(2.0, 0.5, (3.0,))
    assert (g + h).plus != (h + g).plus
    assert g + h == h + g and g + h != g + h.scale(2)
    assert (g + h) - h == g and g - g == GaussianPoly()


def test_gaussian_poly_repr_lists_terms_by_rate_and_center():
    g, h = GaussianPoly.gaussian(1.0), GaussianPoly.gaussian(2.0, 0.5)
    k = GaussianPoly.gaussian(1.0, -1.0, (2.0,), "eps")
    assert repr(g + h + k) == repr(k + h + g) == (
        "GaussianPoly(plus: poly[(1+0j)]*exp(-1.0(t-0.0)^2) + "
        "poly[(1+0j)]*exp(-2.0(t-0.5)^2); eps: poly[(2+0j)]*exp(-1.0(t--1.0)^2))")


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
    return tuple(tuple(t for t in map(term_map, side) if t.coeffs) for side in (f.plus, f.eps))


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


@settings(max_examples=300)
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


# the Fourier and L1 term kernels as they were before the moments were
# memoized and each power of the shift was formed once


def _ref_abs_moment(k, rate):
    return math.gamma((k + 1) / 2.0) / rate ** ((k + 1) / 2.0)


def _ref_term_fourier(term, freq):
    a, mu = term.rate, term.center
    coeffs = term.coeffs
    shift = 1j * freq / (2.0 * a) + mu
    shifted = [0j] * len(coeffs)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        for k in range(j + 1):
            shifted[k] += c * math.comb(j, k) * shift ** (j - k)
    while shifted and shifted[-1] == 0:
        shifted.pop()
    total = sum([c * (0.0 if k % 2 else _ref_abs_moment(k, a)) for k, c in enumerate(shifted)])
    return cmath.exp(1j * freq * mu) * math.exp(-freq * freq / (4.0 * a)) * total


def _ref_term_l1_bound(term, center_slack):
    a, mu = term.rate, abs(term.center) + center_slack
    moments = [_ref_abs_moment(j, a) for j in range(len(term.coeffs))]
    total = 0.0
    for k, c in enumerate(term.coeffs):
        if c == 0:
            continue
        total += abs(c) * sum([math.comb(k, j) * mu ** (k - j) * moments[j] for j in range(k + 1)])
    return total


# rates at both ends of the float range: rate ** e underflows to 0.0 or
# overflows from degree 2 on, and the gamma value overflows from degree 342 on
_EXTREME_RATES = [5e-324, 1e-310, 1e-300, 1e-200, 1e-120, 1.0, 1e120, 1e200, 1e300,
                  sys.float_info.max]


def _true_moment(k, rate):
    """Gamma((k+1)/2) / rate^((k+1)/2) at 300 bits."""
    e = mpmath.mpf(k + 1) / 2
    with mpmath.workprec(300):
        return mpmath.gamma(e) / mpmath.mpf(rate) ** e


def _nearest_float(x):
    """The float nearest to the positive mpf x, inf past the largest one."""
    man, exp = x.man_exp
    try:
        # an integer quotient is correctly rounded, subnormals included
        return float(Fraction(man) * Fraction(2) ** exp)
    except OverflowError:
        return math.inf


def test_abs_moment_at_extreme_rates_keeps_the_quotient_or_bounds_it():
    fallbacks = set()
    for k in [*range(12), 341, 342, 400, 401]:
        for rate in _EXTREME_RATES:
            got, nearest = functions._abs_moment(k, rate), functions._abs_moment(k, rate, up=False)
            try:
                expected = _ref_abs_moment(k, rate)
            except (OverflowError, ZeroDivisionError):
                true = _true_moment(k, rate)
                assert nearest == _nearest_float(true)
                # one step above the nearest float: never 0.0, and never
                # below the true moment
                assert got == math.nextafter(nearest, math.inf) and 0.0 < got
                assert got == math.inf or mpmath.mpf(got) >= true
                fallbacks.add((k % 2, "inf" if got == math.inf else "finite"))
            else:
                assert got.hex() == expected.hex() and nearest.hex() == expected.hex()
    assert fallbacks == {(0, "inf"), (0, "finite"), (1, "inf"), (1, "finite")}


# degree 342 at rate 1e3 overflows the gamma value, and the nearest float to
# its moment lies below it; at degree 400 it lies above it
@pytest.mark.parametrize("k, below", [(342, True), (343, True), (400, False), (401, False)])
def test_l1_bound_past_the_gamma_range_is_one_step_above_the_nearest_moment(k, below):
    f = GaussianPoly.gaussian(1e3, 0.0, (0.0,) * k + (1.0,))
    true = _true_moment(k, 1e3)
    nearest = _nearest_float(true)
    assert (mpmath.mpf(nearest) < true) == below
    assert l1_bound(f) == math.nextafter(nearest, math.inf) and mpmath.mpf(l1_bound(f)) >= true


# eight rates from 1e-3 to 1e3, evenly spaced in log
_MODERATE_RATES = [10.0 ** (-3 + 6 * i / 7) for i in range(8)]


# the direct quotient is not rounded outward yet: flips once it is
@pytest.mark.xfail(strict=True, reason="the in-range moment is not yet rounded outward")
def test_in_range_abs_moment_is_no_smaller_than_the_true_moment():
    below = [(k, rate) for k in range(60) for rate in _MODERATE_RATES
             if mpmath.mpf(functions._abs_moment(k, rate)) < _true_moment(k, rate)]
    assert below == []


def test_gauss_moment_out_of_range_is_the_nearest_float():
    # the Fourier and convolution values read this moment; only the L1
    # bound reads _abs_moment's step above it.  A rate of 1e3 leaves the
    # gamma value of degree 342 on overflowing and the moment normal; a rate
    # of 1e124 makes the degree-4 moment subnormal.
    results = set()
    for k in [*range(0, 12, 2), 340, 342, 400]:
        for rate in [*_EXTREME_RATES, 1e3, 1e124]:
            got = functions._gauss_moment(k, rate)
            assert functions._gauss_moment(k + 1, rate) == 0.0
            try:
                expected = _ref_abs_moment(k, rate)
            except (OverflowError, ZeroDivisionError):
                expected = _nearest_float(_true_moment(k, rate))
                results.add("inf" if expected == math.inf else "0" if expected == 0.0
                            else "normal" if expected >= sys.float_info.min else "subnormal")
                if 0.0 < expected < math.inf:
                    # the bound is one step above it, with no further slack
                    assert functions._abs_moment(k, rate) == math.nextafter(expected, math.inf)
            assert got.hex() == expected.hex()
    assert results == {"0", "subnormal", "normal", "inf"}


@pytest.mark.parametrize("rate", [1e-300, 1e300])
def test_a_moment_out_of_range_leaves_a_finite_or_infinite_bound(rate):
    # degree 4: rate ** 2.5 underflows to 0.0 (1e-300) or overflows (1e300)
    f = GaussianPoly.gaussian(rate, 0.0, (0.0, 0.0, 0.0, 0.0, 1.0))
    bound = l1_bound(f)
    if rate < 1.0:
        assert bound == math.inf
    else:
        # the true L1 norm is about 1e-750; the Fourier value reads the
        # nearest moment, which is 0.0
        assert 0.0 < bound < 1e-300
        assert fourier_at(f, 1.0) == 0


# up to degree 7, where a power formed by repeated products would differ
_long_terms = st.lists(
    st.builds(GaussTerm, st.lists(_coeffs, max_size=8).map(tuple),
              st.floats(0.1, 4.0), st.floats(-3.0, 3.0)),
    max_size=3,
)
# one coefficient each, which the Fourier kernel takes without a shift
_constant_terms = st.lists(
    st.builds(
        GaussTerm,
        _coeffs.map(lambda c: (c,)),
        st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.1, 4.0)),
        st.one_of(st.sampled_from([0.0, -0.0, 1e-17, -0.75]), st.floats(-3.0, 3.0)),
    ),
    max_size=5,
)
_freqs = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-12.0, 12.0))


@settings(max_examples=200)
@given(_long_terms, _terms, _constant_terms, st.lists(_freqs, min_size=1, max_size=4),
       st.sampled_from([0.0, 0.5, 2.0]))
def test_fourier_and_l1_kernels_match_the_reference_bit_for_bit(plus, eps, constant, freqs, slack):
    # several frequencies per function, so that memoized moments are reused
    f = GaussianPoly(plus + constant, eps)
    # the merge leaves no -0.0 part in a coefficient, and the conjugate can
    for g in (f, f.conjugate()):
        for freq in freqs:
            for component, side in (("plus", g.plus), ("eps", g.eps)):
                got = fourier_at(g, freq, component)
                expected = sum([_ref_term_fourier(t, freq) for t in side], 0j)
                assert (got.real.hex(), got.imag.hex()) == (
                    expected.real.hex(), expected.imag.hex())
    expected = sum((_ref_term_l1_bound(t, slack) for t in f.plus), 0.0) + sum(
        (_ref_term_l1_bound(t, slack) for t in f.eps), 0.0)
    got = l1_bound(f, slack)
    # a float for the empty function too
    assert type(got) is float and got.hex() == expected.hex()


def test_gauss_term_is_an_immutable_value():
    t = GaussTerm((1 + 2j, -0.5j), 1.5, -0.25)
    same = GaussTerm((1 + 2j, -0.5j), 1.5, -0.25)
    assert t == same and hash(t) == hash(same) and len({t, same}) == 1
    assert hash(t) == hash(((1 + 2j, -0.5j), 1.5, -0.25))
    assert t != GaussTerm((1 + 2j, -0.5j), 1.5, 0.25)
    assert t != ((1 + 2j, -0.5j), 1.5, -0.25)
    for name in ("coeffs", "rate", "center"):
        with pytest.raises(AttributeError):
            setattr(t, name, 2.0)
        with pytest.raises(AttributeError):
            delattr(t, name)
    with pytest.raises(AttributeError):
        t.degree = 1
    assert repr(t) == "GaussTerm(coeffs=((1+2j), (-0-0.5j)), rate=1.5, center=-0.25)"
    assert repr(GaussTerm((1.0,), 2.0)) == "GaussTerm(coeffs=(1.0,), rate=2.0, center=0.0)"
    assert pickle.loads(pickle.dumps(t)) == t and copy.deepcopy(t) == t
    # the terms a map builds without the checks are equal to checked ones
    assert GaussianPoly((t,)).scale(1).plus == (t,)


S3PERM = parse((Path(__file__).parent.parent / "bench" / "fixtures" / "bench.sexp").read_text(),
               load_catalog("hc")).pairs["s3perm"]


def _ref_function(pair, pairs):
    """The function of ``(point, value)`` pairs built by the checked
    constructor, which converts every value and drops every zero."""
    out = {}
    for p, v in pairs:
        out[p] = out.get(p, GR_ZERO) + v
    return FiniteFunction(pair, out)


def _items(f):
    return list(f.values.items())


def test_finite_maps_keep_values_and_dict_order():
    # the S3 epsilon-extension is not abelian, and values in {-1, 0, 1} + i{-1, 0, 1}
    # make sums cancel
    pair = S3PERM
    rng = random.Random(1515)
    points = list(pair.points())
    parts = [-1, 0, 1]
    for _ in range(60):
        f, h = (FiniteFunction(pair, {
            p: GaussianRational(rng.choice(parts), rng.choice(parts))
            for p in rng.sample(points, rng.randint(0, 12))}) for _ in range(2))
        g = rng.choice(points)
        gi = pair.inverse(g)
        assert _items(convolve(f, h)) == _items(_ref_function(pair, [
            (pair.multiply(p, q), fv * hv) for p, fv in f.values.items()
            for q, hv in h.values.items()]))
        assert _items(f + h) == _items(_ref_function(pair, _items(f) + _items(h)))
        assert (f + f.scale(-1)).is_zero() and f.scale(0).is_zero()
        assert _items(f.scale(GaussianRational(0, 1))) == _items(
            _ref_function(pair, [(p, GaussianRational(0, 1) * v) for p, v in _items(f)]))
        assert [(p, _items(piece)) for p, piece in f.twist_split()] == [
            (p, [(p, v)]) for p, v in _items(f)]
        assert _items(breve(f)) == [(pair.inverse(p), v.conjugate()) for p, v in _items(f)]
        assert _items(left_translate(g, f)) == [(pair.multiply(g, p), v) for p, v in _items(f)]
        assert _items(right_translate(g, f)) == [(pair.multiply(p, gi), v) for p, v in _items(f)]


def _finite(ws):
    return FiniteFunction.delta(ws.pairs["z2odd"], GroupPoint(1))


def _l1_with_slack(slack):
    """l1_bound of t exp(-t^2), whose L1 norm is 1, widened by ``slack``."""
    return l1_bound(GaussianPoly.gaussian(1.0, 0.0, (0.0, 1.0)), center_slack=slack)


SLACK_REFUSED = "center slack must be a finite number >= 0"


@pytest.mark.parametrize("call, error, message", [
    (lambda ws: FiniteFunction(ws.pairs["hcline"]),
     MismatchError, "FiniteFunction requires a finite group"),
    (lambda ws: _finite(ws) + FiniteFunction.delta(S3PERM, GroupPoint(1)),
     MismatchError, "functions live on different groups"),
    (lambda ws: convolve(_finite(ws), GaussianPoly.gaussian()),
     MismatchError, "convolution requires two functions of the same class"),
    (lambda ws: breve(1.0), MismatchError, "unsupported function class"),
    (lambda ws: left_translate(GroupPoint(0), 1.0), MismatchError, "unsupported function class"),
    (lambda ws: l1_bound(1.0), MismatchError, "unsupported function class"),
    (lambda ws: _l1_with_slack(-1.0), StructureError, SLACK_REFUSED),
    (lambda ws: _l1_with_slack(-0.5), StructureError, SLACK_REFUSED),
    (lambda ws: _l1_with_slack(math.nan), StructureError, SLACK_REFUSED),
    (lambda ws: _l1_with_slack(math.inf), StructureError, SLACK_REFUSED),
    (lambda ws: _l1_with_slack("1"), StructureError, SLACK_REFUSED),
    (lambda ws: fourier_at(_finite(ws), 1.0),
     MismatchError, "fourier_at is a line-instance operation"),
    # each was accepted: convolve then raised an IndexError, the point -1
    # acted as 1 but compared unequal to it, and the repr of a plain tuple
    # key raised an AttributeError
    (lambda ws: FiniteFunction(ws.pairs["z2odd"], {GroupPoint(99): 1}),
     StructureError, "z2odd: (99) is not a point of the finite pair"),
    (lambda ws: FiniteFunction(ws.pairs["z2odd"], {GroupPoint(-1): 1}),
     StructureError, "z2odd: (-1) is not a point of the finite pair"),
    (lambda ws: FiniteFunction(ws.pairs["z2odd"], {(1, False): 1}),
     StructureError, "z2odd: (1, False) is not a point of the finite pair"),
    (lambda ws: FiniteFunction.delta(ws.pairs["z2odd"], GroupPoint(1, 1)),
     StructureError, "z2odd: (1, eps) is not a point of the finite pair"),
], ids=["finite-function-on-line-pair", "sum-of-two-pairs", "convolve-two-classes",
        "breve-non-function", "left-translate-non-function", "l1-bound-non-function",
        "slack-minus-1", "slack-minus-half", "slack-nan", "slack-inf", "slack-not-a-number",
        "fourier-of-finite-function", "point-out-of-range", "negative-point", "plain-tuple-point",
        "integer-eps"])
def test_functions_refusals(workspace, call, error, message):
    with pytest.raises(error) as exc:
        call(workspace)
    assert str(exc.value) == message
