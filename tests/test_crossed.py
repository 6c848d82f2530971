"""Twisted convolution algebra: product, star, multipliers, integral identity."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from superrep.crossed import (
    CrossedElement,
    element_sample_difference,
    gamma_integral,
    mul_compose,
    mul_group,
    mul_lie,
    mul_star,
    orbit_derivative_check,
    xp_multiply,
    xp_star,
)
from superrep.dsl import parse
from superrep.enveloping import ODD_MAJOR_ORDER, UEElement, normal_form
from superrep.errors import MismatchError, StructureError, UnsupportedInstanceError
from superrep.functions import FiniteFunction, GaussianPoly
from superrep.groups import GroupPoint
from superrep.reps import prop33_bound, reconstruct_pi, taylor_norm_check
from superrep.scalars import GR_ONE, GR_ZERO, GaussianRational

from test_functions import S3PERM


def random_finite_function(rng, pair):
    values = {
        p: GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        for p in pair.points()
        if rng.random() < 0.7
    }
    return FiniteFunction(pair, values)


def random_finite_element(rng, pair, max_deg=1):
    out = CrossedElement.zero(pair)
    for _ in range(rng.randint(1, 2)):
        word = tuple(
            rng.randrange(pair.algebra.dim) for _ in range(rng.randint(0, max_deg))
        )
        mono = normal_form(pair.algebra, word)
        out = out + CrossedElement.tensor(pair, mono, random_finite_function(rng, pair))
    return out


def random_line_function(rng):
    def side():
        if rng.random() < 0.5:
            return ()
        coeffs = tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(rng.randint(1, 2))
        )
        return (GaussianPoly.gaussian(
            rng.uniform(0.5, 2.0), rng.uniform(-1, 1), coeffs
        ).plus[0],)

    plus, eps = side(), side()
    if not plus and not eps:
        plus = (GaussianPoly.gaussian(1.0, 0.0, (1.0,)).plus[0],)
    return GaussianPoly(plus, eps)


def random_line_element(rng, pair, max_deg=2):
    out = CrossedElement.zero(pair)
    for _ in range(rng.randint(1, 2)):
        word = tuple(
            rng.randrange(pair.algebra.dim) for _ in range(rng.randint(0, max_deg))
        )
        mono = normal_form(pair.algebra, word)
        out = out + CrossedElement.tensor(pair, mono, random_line_function(rng))
    return out


# -- ring laws ---------------------------------------------------------------


def test_finite_associativity_and_star_200(z2odd):
    rng = random.Random(101)
    for _ in range(200):
        a = random_finite_element(rng, z2odd)
        b = random_finite_element(rng, z2odd)
        c = random_finite_element(rng, z2odd)
        assert xp_multiply(xp_multiply(a, b), c).terms == xp_multiply(
            a, xp_multiply(b, c)
        ).terms
        assert xp_star(xp_multiply(a, b)).terms == xp_multiply(
            xp_star(b), xp_star(a)
        ).terms
        assert xp_star(xp_star(a)).terms == a.terms


def test_line_associativity_and_star(hcline):
    rng = random.Random(102)
    for _ in range(25):
        a = random_line_element(rng, hcline)
        b = random_line_element(rng, hcline)
        c = random_line_element(rng, hcline)
        lhs = xp_multiply(xp_multiply(a, b), c)
        rhs = xp_multiply(a, xp_multiply(b, c))
        assert element_sample_difference(lhs, rhs) <= 1e-8
        lhs = xp_star(xp_multiply(a, b))
        rhs = xp_multiply(xp_star(b), xp_star(a))
        assert element_sample_difference(lhs, rhs) <= 1e-8
        assert element_sample_difference(xp_star(xp_star(a)), a) <= 1e-10


def test_unit_element_finite(z2odd):
    rng = random.Random(103)
    unit = CrossedElement.tensor(
        z2odd,
        UEElement.unit(z2odd.algebra),
        FiniteFunction.delta(z2odd, z2odd.identity_point()),
    )
    for _ in range(20):
        a = random_finite_element(rng, z2odd)
        assert xp_multiply(unit, a).terms == a.terms
        assert xp_multiply(a, unit).terms == a.terms


def test_clifford_square_line(hcline):
    # (x (x) f)^2 = (1/2) z (x) (f * f)
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    x = UEElement.generator(hcline.algebra, 1)
    a = CrossedElement.tensor(hcline, x, f)
    sq = xp_multiply(a, a)
    assert set(sq.terms) == {(0,)}
    g = sq.terms[(0,)]
    for t in (-1.0, 0.0, 0.7):
        expected = 0.5 * math.sqrt(math.pi / 2) * math.exp(-t * t / 2)
        assert g.value(t) == pytest.approx(expected, abs=1e-12)


def test_ad_twist_in_finite_product(z2odd):
    # delta_s twists x by Ad(s) = -1 when it passes across
    ds = FiniteFunction.delta(z2odd, GroupPoint(1, False))
    d1 = FiniteFunction.delta(z2odd, z2odd.identity_point())
    x = UEElement.generator(z2odd.algebra, 0)
    a = CrossedElement.tensor(z2odd, UEElement.unit(z2odd.algebra), ds)
    b = CrossedElement.tensor(z2odd, x, d1)
    prod = xp_multiply(a, b)
    assert prod.terms == {(0,): ds.scale(GaussianRational.of(-1))}


def test_sums_and_products_cancel_to_zero(z2odd, hcline):
    rng = random.Random(104)
    for a in (random_finite_element(rng, z2odd), random_line_element(rng, hcline)):
        assert not a.is_zero()
        assert (a + a.scale(-1)).terms == {}
        assert (a - a).terms == {}
    # f takes equal values at 1 and at a point acting as -1 on x (s on z2odd,
    # eps on hcline), so in (1 (x) f)(x (x) f) the two twist pieces cancel
    cases = [
        (z2odd, 0, FiniteFunction(z2odd, {z2odd.identity_point(): 1, GroupPoint(1, False): 1})),
        (hcline, 1, GaussianPoly.gaussian(1.0, 0.0, (1.0,))
         + GaussianPoly.gaussian(1.0, 0.0, (1.0,), "eps")),
    ]
    for pair, x, f in cases:
        one = CrossedElement.tensor(pair, UEElement.unit(pair.algebra), f)
        odd = CrossedElement.tensor(pair, UEElement.generator(pair.algebra, x), f)
        assert xp_multiply(one, odd).terms == {}


# -- multipliers -------------------------------------------------------------


def test_group_multiplier_relations(z2odd):
    rng = random.Random(104)
    s = GroupPoint(1, False)
    eps = z2odd.epsilon_point()
    for g, h in [(s, s), (s, eps), (eps, eps)]:
        mg, mh = mul_group(z2odd, g), mul_group(z2odd, h)
        mgh = mul_group(z2odd, z2odd.multiply(g, h))
        comp = mul_compose(mg, mh)
        for _ in range(25):
            a = random_finite_element(rng, z2odd)
            assert comp.lam(a).terms == mgh.lam(a).terms
            assert comp.rho(a).terms == mgh.rho(a).terms


def test_group_multiplier_unitary(z2odd):
    # (lam_g, rho_g)* = (lam_{g^-1}, rho_{g^-1})
    rng = random.Random(105)
    for g in [GroupPoint(1, False), z2odd.epsilon_point(), GroupPoint(1, True)]:
        star = mul_star(mul_group(z2odd, g))
        inv = mul_group(z2odd, z2odd.inverse(g))
        for _ in range(25):
            a = random_finite_element(rng, z2odd)
            assert star.lam(a).terms == inv.lam(a).terms
            assert star.rho(a).terms == inv.rho(a).terms


def test_lie_multiplier_star_rule(z2odd):
    # (lam_x, rho_x)* = (lam_{x*}, rho_{x*}) with x* = -i x for odd x
    rng = random.Random(106)
    star = mul_star(mul_lie(z2odd, 0))
    xstar = mul_lie(z2odd, [GaussianRational(Fraction(0), Fraction(-1))])
    for _ in range(25):
        a = random_finite_element(rng, z2odd)
        assert star.lam(a).terms == xstar.lam(a).terms
        assert star.rho(a).terms == xstar.rho(a).terms


def test_multiplier_left_right_compatibility(z2odd):
    # rho(a) b products associate with lam: (a . m) b = a (m . b)
    rng = random.Random(107)
    for mult in [mul_group(z2odd, GroupPoint(1, False)), mul_lie(z2odd, 0)]:
        for _ in range(25):
            a = random_finite_element(rng, z2odd)
            b = random_finite_element(rng, z2odd)
            lhs = xp_multiply(mult.rho(a), b)
            rhs = xp_multiply(a, mult.lam(b))
            assert lhs.terms == rhs.terms


def test_conjugation_identity_finite(z2odd):
    # lam_g lam_x lam_{g^-1} = lam_{Ad(g) x} as multipliers
    rng = random.Random(108)
    g = GroupPoint(1, False)  # Ad(s) x = -x
    conj = mul_compose(
        mul_group(z2odd, g), mul_compose(mul_lie(z2odd, 0), mul_group(z2odd, z2odd.inverse(g)))
    )
    target = mul_lie(z2odd, [GaussianRational.of(-1)])
    for _ in range(25):
        a = random_finite_element(rng, z2odd)
        assert conj.lam(a).terms == target.lam(a).terms
        assert conj.rho(a).terms == target.rho(a).terms


def test_conjugation_identity_eps_line(hcline):
    # lam_eps lam_x lam_eps = lam_{-x} for odd x on the line
    rng = random.Random(109)
    eps = hcline.epsilon_point()
    conj = mul_compose(
        mul_group(hcline, eps), mul_compose(mul_lie(hcline, 1), mul_group(hcline, eps))
    )
    target = mul_lie(hcline, [GaussianRational(), GaussianRational.of(-1)])
    for _ in range(10):
        a = random_line_element(rng, hcline)
        assert element_sample_difference(conj.lam(a), target.lam(a)) <= 1e-12
        assert element_sample_difference(conj.rho(a), target.rho(a)) <= 1e-12


# -- the integrated-action identity ------------------------------------------


def test_gamma_identity_finite_exact(z2odd):
    rng = random.Random(110)
    for _ in range(50):
        f = random_finite_function(rng, z2odd)
        h = random_finite_function(rng, z2odd)
        word = tuple(rng.randrange(1) for _ in range(rng.randint(0, 1)))
        d = normal_form(z2odd.algebra, word)
        lhs = gamma_integral(z2odd, f, d, h)
        rhs = xp_multiply(
            CrossedElement.tensor(z2odd, UEElement.unit(z2odd.algebra), f),
            CrossedElement.tensor(z2odd, d, h),
        )
        assert lhs.terms == rhs.terms


def test_gamma_identity_line_vs_quadrature(hcline):
    # the group integral of f(g) alpha_g(D) (x) L_g h computed by quadrature
    # must match the closed-form product (1 (x) f)(D (x) h) to 1e-6
    f = GaussianPoly.gaussian(1.0, 0.2, (1.0, 0.3))
    h = GaussianPoly.gaussian(1.5, -0.4, (0.5,))
    d = normal_form(hcline.algebra, (1,))  # D = x
    closed = gamma_integral(hcline, f, d, h)
    assert set(closed.terms) == {(1,)}
    g = closed.terms[(1,)]
    for t in (-1.0, 0.0, 0.8):
        oracle = quad(
            lambda s: (f.value(s) * h.value(t - s)).real, -30, 30, limit=200
        )[0]
        assert g.value(t).real == pytest.approx(oracle, abs=1e-6)
        assert g.value(t).imag == pytest.approx(0.0, abs=1e-6)
    # and the identity itself holds against the product
    rhs = xp_multiply(
        CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f),
        CrossedElement.tensor(hcline, d, h),
    )
    assert element_sample_difference(closed, rhs) <= 1e-10


def test_gamma_identity_line_eps_component(hcline):
    f = GaussianPoly((), GaussianPoly.gaussian(1.0, 0.0, (1.0,)).plus)
    h = GaussianPoly.gaussian(2.0, 0.5, (1.0,))
    d = normal_form(hcline.algebra, (1,))
    lhs = gamma_integral(hcline, f, d, h)
    rhs = xp_multiply(
        CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f),
        CrossedElement.tensor(hcline, d, h),
    )
    assert element_sample_difference(lhs, rhs) <= 1e-10


def test_sample_difference_reads_the_peak_at_zero(hcline):
    # t = 0.0 is the 11th of the 21 sample points, where e^{-t^2} is 1.0
    x = UEElement.generator(hcline.algebra, 1)
    a = CrossedElement.tensor(hcline, x, GaussianPoly.gaussian())
    assert element_sample_difference(a, CrossedElement.zero(hcline)) == 1.0


def test_a_nan_sample_makes_the_deviation_nan(hcline):
    # f * h overflows to inf + nan j on both sides of the identity; the eps
    # component's samples, read after the NaN ones, are all 0.0
    big = GaussianPoly.gaussian(1.0, 0.0, (1.7e308,))
    one = GaussianPoly.gaussian()
    unit = UEElement.unit(hcline.algebra)
    lhs = gamma_integral(hcline, big, unit, one)
    rhs = xp_multiply(CrossedElement.tensor(hcline, unit, big),
                      CrossedElement.tensor(hcline, unit, one))
    [coeff] = lhs.terms[()].plus[0].coeffs
    assert math.isinf(coeff.real) and math.isnan(coeff.imag)
    assert math.isnan(element_sample_difference(lhs, rhs))
    # a finite deviation of 1.0 on another word leaves it NaN
    x = UEElement.generator(hcline.algebra, 1)
    assert math.isnan(element_sample_difference(lhs + CrossedElement.tensor(hcline, x, one), rhs))


def test_sample_difference_refuses_a_finite_pair(workspace):
    bx = workspace.elements["bx"]
    with pytest.raises(UnsupportedInstanceError, match="requires a line instance"):
        element_sample_difference(bx, bx)


# -- orbit derivative ---------------------------------------------------------


def test_orbit_derivative_certified_residual_decays(hcline):
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    a = CrossedElement.tensor(hcline, UEElement.generator(hcline.algebra, 1), f)
    r1 = orbit_derivative_check(hcline, a, 0.1)
    r2 = orbit_derivative_check(hcline, a, 0.05)
    assert r1 > 0
    assert 0.4 <= r2 / r1 <= 0.6


def test_orbit_residual_bounds_sampled_defect(hcline):
    # the certified residual dominates the actual sampled L-infinity defect
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    a = CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f)
    h = 0.01
    moved = mul_group(hcline, GroupPoint(h, False)).lam(a)
    quotient = (moved - a).scale(1.0 / h)
    z = hcline.generator_index
    deriv = mul_lie(hcline, z).lam(a)  # lam_z(1 (x) f) = z (x) f
    # compare the function parts pointwise: quotient has word (), deriv (z,)
    q = quotient.terms[()]
    worst = 0.0
    for t in [-2 + 0.2 * k for k in range(21)]:
        # d/dt of the orbit at 0 equals -f'(t) = (R_z f)(t)
        target = -f.derivative().value(t)
        worst = max(worst, abs(q.value(t) - target))
    assert worst <= orbit_derivative_check(hcline, a, h)


# Ad(exp tz) moves x1 towards x2, so the line acts nontrivially on the algebra.
SHEAR_LINE = """
(superalgebra shear (basis (z even) (x1 odd) (x2 odd)) (bracket z x1 (1 x2)))
(pair shearline shear (line z))
(element a shearline (tensor (ue (1 x1)) (linefunc (plus (gauss 1 0 1)))))
"""


@pytest.mark.parametrize("operation", [
    lambda pair, a: xp_multiply(a, a),
    lambda pair, a: xp_star(a),
    lambda pair, a: mul_group(pair, GroupPoint(0.5, False)).lam(a),
    lambda pair, a: mul_lie(pair, 1).rho(a),
    lambda pair, a: gamma_integral(pair, a.terms[(1,)], UEElement.unit(pair.algebra),
                                   a.terms[(1,)]),
    lambda pair, a: prop33_bound(a),
    lambda pair, a: orbit_derivative_check(pair, a, 0.1),
    lambda pair, a: taylor_norm_check(pair, a, []),
], ids=["xp_multiply", "xp_star", "mul_group.lam", "mul_lie.rho", "gamma_integral",
        "prop33_bound", "orbit_derivative_check", "taylor_norm_check"])
def test_twisting_refuses_a_line_with_nontrivial_adjoint(operation):
    ws = parse(SHEAR_LINE)
    pair = ws.pairs["shearline"]
    assert pair.line_ad_terms != ()
    with pytest.raises(UnsupportedInstanceError) as err:
        operation(pair, ws.elements["a"])
    assert str(err.value) == ("shearline: line instances with a nontrivial adjoint "
                              "action on the algebra are not supported")
    # a refused twist stores nothing
    assert not pair.twist_memo


@pytest.mark.parametrize("operation", [
    lambda pair, a: xp_multiply(a, a),
    lambda pair, a: xp_star(a),
    lambda pair, a: mul_group(pair, GroupPoint(0.5, False)).lam(a),
    lambda pair, a: mul_lie(pair, 1).rho(a),
], ids=["xp_multiply", "xp_star", "mul_group.lam", "mul_lie.rho"])
def test_nothing_to_twist_gives_zero_on_a_nontrivial_line(operation):
    pair = parse(SHEAR_LINE).pairs["shearline"]
    assert operation(pair, CrossedElement.zero(pair)).is_zero()


# The same line pair with the bracket that makes the adjoint nontrivial dropped.
FLAT_LINE = """
(superalgebra flat (basis (z even) (x1 odd) (x2 odd)))
(pair flatline flat (line z))
"""
TWIN_TERMS = """
  (tensor (ue (1 x1)) (linefunc (plus (gauss 1 0 1))))
  (tensor (ue (2 z x2) (1/2)) (linefunc (plus (gauss 2 -1/2 1 0.5)) (eps (gauss 1 1 1i))))
  (tensor (ue (-1 x1 x2)) (linefunc (eps (gauss 1/2 0 0 1)))))
"""


@pytest.mark.parametrize("g", [GroupPoint(0.5, False), GroupPoint(-1.25, True),
                               GroupPoint(Fraction(0), False)])
def test_right_translation_ignores_the_adjoint(g):
    shear = parse(SHEAR_LINE + "(element b shearline" + TWIN_TERMS)
    flat = parse(FLAT_LINE + "(element b flatline" + TWIN_TERMS)
    got = mul_group(shear.pairs["shearline"], g).rho(shear.elements["b"])
    want = mul_group(flat.pairs["flatline"], g).rho(flat.elements["b"])
    assert len(got.terms) == 4
    assert got.terms == want.terms
    assert not shear.pairs["shearline"].twist_memo


def test_line_checks_refuse_an_element_of_another_pair(workspace, hc_grid):
    hcline, bs = workspace.pairs["hcline"], workspace.elements["bs"]
    with pytest.raises(MismatchError, match="different pairs"):
        orbit_derivative_check(hcline, bs, 0.1)
    with pytest.raises(MismatchError, match="different pairs"):
        taylor_norm_check(hcline, bs, hc_grid)


def test_mul_lie_refuses_an_index_out_of_range(hcline):
    for i in (-1, hcline.algebra.dim):
        with pytest.raises(StructureError, match="out of range"):
            mul_lie(hcline, i)


@pytest.mark.parametrize("coords", [[GR_ONE], [GR_ZERO, GR_ZERO, GR_ONE]], ids=["short", "long"])
def test_mul_lie_refuses_a_vector_of_another_length(hcline, coords):
    # a short vector was read as if padded with zeros, a long one failed
    # with an IndexError only when used
    with pytest.raises(StructureError, match="expected 2 coordinates"):
        mul_lie(hcline, coords)


@pytest.mark.parametrize("point", [GroupPoint(99), GroupPoint(-1), GroupPoint(1.0),
                                   GroupPoint(True), GroupPoint(1, 1), (1, False)],
                         ids=["base-99", "base-minus-1", "float-base", "bool-base", "int-eps",
                              "plain-tuple"])
def test_mul_group_refuses_a_point_not_of_the_finite_pair(z2odd, point):
    # GroupPoint(5) on z2odd used to fail with an IndexError only when used
    with pytest.raises(StructureError) as exc:
        mul_group(z2odd, point)
    assert str(exc.value) == f"z2odd: {point!r} is not a point of the finite pair"


@pytest.mark.parametrize("point", [
    GroupPoint(math.nan), GroupPoint(math.inf), GroupPoint(-math.inf), GroupPoint("abc"),
    GroupPoint(None), GroupPoint(1.0, 1), (1.0, False),
], ids=["nan-base", "inf-base", "minus-inf-base", "str-base", "none-base", "int-eps",
        "plain-tuple"])
def test_mul_group_refuses_a_point_not_of_the_line_pair(workspace, point):
    # a NaN or an infinite base failed only in the Gaussian terms it made, a
    # str or None base with a ValueError or TypeError
    hcline, ax = workspace.pairs["hcline"], workspace.elements["ax"]
    message = f"hcline: {point!r} is not a point of the line pair"
    with pytest.raises(StructureError) as exc:
        mul_group(hcline, point).lam(ax)
    assert str(exc.value) == message
    with pytest.raises(StructureError) as exc:
        reconstruct_pi(workspace.reps["hc-rep-2"], point, ax, np.ones(2))
    assert str(exc.value) == message


@pytest.mark.parametrize("base", [0, Fraction(1, 2), np.float64(-0.25), 1e300],
                         ids=["int", "fraction", "numpy-float", "large"])
def test_mul_group_takes_any_finite_real_on_the_line_pair(workspace, base):
    hcline, ax = workspace.pairs["hcline"], workspace.elements["ax"]
    moved = mul_group(hcline, GroupPoint(base, True)).lam(ax)
    assert moved == mul_group(hcline, GroupPoint(float(base), True)).lam(ax)


def test_mul_lie_index_acts_as_its_unit_vector(workspace):
    for name, a in workspace.elements.items():
        dim = a.pair.algebra.dim
        for i in range(dim):
            unit = [GR_ZERO] * dim
            unit[i] = GR_ONE
            by_index, by_vector = mul_lie(a.pair, i), mul_lie(a.pair, unit)
            assert by_index.lam(a) == by_vector.lam(a), (name, i)
            assert by_index.rho(a) == by_vector.rho(a), (name, i)


def test_line_elements_compare_exactly(workspace):
    hcline, ax = workspace.pairs["hcline"], workspace.elements["ax"]
    assert ax.pair == hcline
    assert ax == ax.scale(1)
    assert mul_lie(hcline, 0).lam(ax) == mul_lie(hcline, 0).lam(ax)
    assert ax != ax.scale(2)
    one = UEElement.unit(hcline.algebra)
    f, g = GaussianPoly.gaussian(1.0), GaussianPoly.gaussian(2.0, 0.5, (3.0,))
    fg = CrossedElement.tensor(hcline, one, f) + CrossedElement.tensor(hcline, one, g)
    gf = CrossedElement.tensor(hcline, one, g) + CrossedElement.tensor(hcline, one, f)
    assert fg == gf and fg != gf.scale(2)


def test_a_raw_word_is_straightened_at_construction(hcline):
    # hc: z (0) even and central, x (1) odd; every word is stored as its
    # PBW normal form, with the coefficient folded into the function
    hc, (z, x) = hcline.algebra, (0, 1)
    f, g = GaussianPoly.gaussian(1.0), GaussianPoly.gaussian(2.0, 0.5, (3.0,))
    assert CrossedElement(hcline, {(x, x): f}) == CrossedElement.tensor(
        hcline, normal_form(hc, (x, x)), f)
    a = CrossedElement(hcline, {(x, z): f, (z, x): g})
    assert a == CrossedElement.tensor(hcline, normal_form(hc, (z, x)), f + g)
    assert list(a.terms) == [(z, x)]
    assert CrossedElement(hcline, {(x, z): f}) - CrossedElement(hcline, {(z, x): f}) == (
        CrossedElement.zero(hcline))


@pytest.mark.parametrize("word", [(7,), (-1,), (0, 2)])
def test_a_basis_index_out_of_range_is_refused_at_construction(hcline, word):
    with pytest.raises(StructureError, match="out of range"):
        CrossedElement(hcline, {word: GaussianPoly.gaussian()})


def test_tensor_refuses_an_element_in_odd_major_order(hcline):
    mono = normal_form(hcline.algebra, (0, 1), order=ODD_MAJOR_ORDER)
    with pytest.raises(MismatchError, match="not in declaration order"):
        CrossedElement.tensor(hcline, mono, GaussianPoly.gaussian())


def test_a_sum_keeps_the_functions_it_holds(hcline):
    # copied as they are, not re-straightened: a product with 1+0j can turn
    # a -0.0 part of a coefficient into +0.0
    x = UEElement.generator(hcline.algebra, 1)
    a = CrossedElement.tensor(hcline, x, GaussianPoly.gaussian())
    total = a + CrossedElement.zero(hcline)
    assert total.terms[(1,)] is a.terms[(1,)]


FINITE_MESSAGE = "a finite pair takes FiniteFunctions of that pair"


@pytest.mark.parametrize("pair_name, make_f, message", [
    ("z2odd", lambda ws: GaussianPoly.gaussian(1.0), FINITE_MESSAGE),
    ("z2odd", lambda ws: FiniteFunction.delta(S3PERM, GroupPoint(5)), FINITE_MESSAGE),
    ("hcline", lambda ws: ws.functions["d1"], "a line pair takes GaussianPoly functions"),
], ids=["line-function-on-finite-pair", "function-of-another-finite-pair",
        "finite-function-on-line-pair"])
def test_crossed_element_refuses_a_function_of_another_pair_or_class(
        workspace, pair_name, make_f, message):
    pair, f = workspace.pairs[pair_name], make_f(workspace)
    with pytest.raises(MismatchError) as exc:
        CrossedElement.tensor(pair, UEElement.unit(pair.algebra), f)
    assert str(exc.value) == message
    with pytest.raises(MismatchError) as exc:
        CrossedElement(pair, {(): f})
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda ws: CrossedElement.tensor(ws.pairs["hcline"], UEElement.unit(ws.algebras["podd"]),
                                      GaussianPoly.gaussian()),
     "enveloping element belongs to a different algebra"),
    (lambda ws: xp_multiply(ws.elements["ax"], ws.elements["bx"]),
     "crossed elements live over different pairs"),
], ids=["tensor-other-algebra", "product-of-two-pairs"])
def test_crossed_refusals(workspace, call, message):
    with pytest.raises(MismatchError) as exc:
        call(workspace)
    assert str(exc.value) == message


def _gamma_args(ws, f=None, D=None, h=None):
    """(f, D, h) on hcline, with each one not given taken as a valid one."""
    gauss = GaussianPoly.gaussian()
    return (gauss if f is None else f, UEElement.unit(ws.algebras["hc"]) if D is None else D,
            gauss if h is None else h)


@pytest.mark.parametrize("pair_name, make, message", [
    ("hcline", lambda ws: _gamma_args(ws, D=normal_form(ws.algebras["hc"], (0, 1),
                                                         order=ODD_MAJOR_ORDER)),
     "enveloping element is not in declaration order"),
    ("hcline", lambda ws: _gamma_args(ws, D=UEElement.generator(ws.algebras["gl11"], 3)),
     "enveloping element belongs to a different algebra"),
    ("hcline", lambda ws: _gamma_args(ws, D=UEElement.generator(ws.algebras["oddcenter"], 1)),
     "enveloping element belongs to a different algebra"),
    ("hcline", lambda ws: _gamma_args(ws, f=ws.functions["d1"]),
     "a line pair takes GaussianPoly functions"),
    ("hcline", lambda ws: _gamma_args(ws, h=ws.functions["d1"]),
     "a line pair takes GaussianPoly functions"),
    ("z2odd", lambda ws: (ws.functions["d1"], UEElement.unit(ws.algebras["podd"]),
                          FiniteFunction.delta(S3PERM, GroupPoint(5))), FINITE_MESSAGE),
], ids=["odd-major-D", "D-of-gl11", "D-of-oddcenter", "finite-f-on-line-pair",
        "finite-h-on-line-pair", "h-of-another-finite-pair"])
def test_gamma_integral_refuses_what_tensor_refuses(workspace, pair_name, make, message):
    # an odd-major D used to give the word (1, 0), out of declaration order;
    # a D of gl11 an IndexError; a D of oddcenter a silent result
    f, D, h = make(workspace)
    with pytest.raises(MismatchError) as exc:
        gamma_integral(workspace.pairs[pair_name], f, D, h)
    assert str(exc.value) == message


def test_reprs_spell_out_each_term(workspace):
    one = "poly[(1+0j)]*exp(-{}(t-0.0)^2)"
    assert repr(workspace.elements["axz"]) == (
        f"CrossedElement[z*x (x) GaussianPoly(plus: {one.format(2.0)}; eps: 0); "
        f"x (x) GaussianPoly(plus: {one.format(1.0)}; eps: 0)]")
    assert repr(workspace.elements["bmix"]) == (
        "CrossedElement[1 (x) FiniteFunction((0): 1, (1): -1/2, (1, eps): 1i); "
        "x (x) FiniteFunction((0, eps): 1)]")
    assert repr(CrossedElement(workspace.pairs["hcline"])) == "CrossedElement[0]"
    hc = workspace.algebras["hc"]
    assert repr(UEElement.generator(hc, 1) - UEElement.unit(hc).scale(2)) == "(-2)·1 + (1)·x"
    assert repr(UEElement.zero(hc)) == "0"
    assert repr(mul_group(workspace.pairs["hcline"], GroupPoint(1))) == "Multiplier(group(1))"
