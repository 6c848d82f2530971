"""Twisted convolution algebra: product, star, multipliers, integral identity."""

import math
import random
from fractions import Fraction

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
from superrep.enveloping import UEElement, normal_form
from superrep.errors import MismatchError, StructureError, UnsupportedInstanceError
from superrep.functions import FiniteFunction, GaussianPoly, fourier_at
from superrep.groups import GroupPoint
from superrep.reps import prop33_bound, taylor_norm_check
from superrep.scalars import GR_ONE, GR_ZERO, GaussianRational


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
    assert not pair.line_ad_is_trivial()
    with pytest.raises(UnsupportedInstanceError, match="nontrivial adjoint action"):
        operation(pair, ws.elements["a"])


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
    assert got.terms.keys() == want.terms.keys() and len(got.terms) == 4
    for w, f in got.terms.items():
        assert (f.plus, f.eps) == (want.terms[w].plus, want.terms[w].eps)


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


def test_mul_lie_index_acts_as_its_unit_vector(workspace):
    def exact(a):
        return {w: (f.plus, f.eps) if isinstance(f, GaussianPoly) else f
                for w, f in a.terms.items()}

    for name, a in workspace.elements.items():
        dim = a.pair.algebra.dim
        for i in range(dim):
            unit = [GR_ZERO] * dim
            unit[i] = GR_ONE
            by_index, by_vector = mul_lie(a.pair, i), mul_lie(a.pair, unit)
            assert exact(by_index.lam(a)) == exact(by_vector.lam(a)), (name, i)
            assert exact(by_index.rho(a)) == exact(by_vector.rho(a)), (name, i)
