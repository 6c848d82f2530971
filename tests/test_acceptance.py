"""Acceptance gate.

Eleven end-to-end criteria, each printing a single pass/fail line.  Run with
``pytest -v -s tests/test_acceptance.py`` to see the lines as they complete.
Tolerances are pinned per criterion and stated next to each assertion.
"""

import functools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from superrep.cli import main as cli_main
from superrep.crossed import (
    CrossedElement,
    gamma_integral,
    mul_compose,
    mul_group,
    mul_lie,
    mul_star,
    xp_multiply,
    xp_star,
)
from superrep.enveloping import (
    DECL_ORDER,
    ODD_MAJOR_ORDER,
    UEElement,
    dagger,
    normal_form,
    ue_multiply,
)
from superrep.functions import FiniteFunction, GaussianPoly
from superrep.groups import GroupPoint
from superrep.reps import (
    operator_norm,
    prop33_bound,
    reconstruct_pi,
    reconstruct_rho,
    rep_hat,
    seminorm_interval,
    taylor_norm_check,
)
from superrep.scalars import GaussianRational

from conftest import make_hc_rep
from test_crossed import (
    random_finite_element,
    random_finite_function,
    random_line_element,
)
from test_enveloping import random_element, random_word

LAMBDAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def criterion(number):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL")
                raise
            print(f"criterion {number}: PASS")

        return run

    return wrap


@criterion(1)
def test_criterion_1_algebraic_soundness(workspace):
    """200 randomized exact cases per catalog algebra."""
    for name, algebra in workspace.algebras.items():
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(200):
            w = random_word(rng, algebra)
            for order in (DECL_ORDER, ODD_MAJOR_ORDER):
                left = normal_form(algebra, w, order=order, strategy="left")
                right = normal_form(algebra, w, order=order, strategy="right")
                assert left.terms == right.terms
            a = random_element(rng, algebra, terms=2, max_len=3)
            b = random_element(rng, algebra, terms=2, max_len=3)
            c = random_element(rng, algebra, terms=2, max_len=2)
            assert ue_multiply(ue_multiply(a, b), c) == ue_multiply(
                a, ue_multiply(b, c)
            )
            assert dagger(dagger(a)) == a
            assert dagger(ue_multiply(a, b)) == ue_multiply(dagger(b), dagger(a))


@criterion(2)
def test_criterion_2_crossed_product_star_algebra(z2odd, hcline):
    rng = random.Random(2)
    for _ in range(200):  # finite case: exact
        a = random_finite_element(rng, z2odd)
        b = random_finite_element(rng, z2odd)
        c = random_finite_element(rng, z2odd)
        assert xp_multiply(xp_multiply(a, b), c) == xp_multiply(a, xp_multiply(b, c))
        assert xp_star(xp_multiply(a, b)) == xp_multiply(xp_star(b), xp_star(a))
    rep = make_hc_rep(hcline, 2.0)
    for _ in range(20):  # line case: 1e-8 in a faithful matrix image
        a = random_line_element(rng, hcline)
        b = random_line_element(rng, hcline)
        c = random_line_element(rng, hcline)
        lhs = rep_hat(rep, xp_multiply(xp_multiply(a, b), c))
        rhs = rep_hat(rep, xp_multiply(a, xp_multiply(b, c)))
        assert operator_norm(lhs - rhs) <= 1e-8
        lhs = rep_hat(rep, xp_star(xp_multiply(a, b)))
        rhs = rep_hat(rep, xp_multiply(xp_star(b), xp_star(a)))
        assert operator_norm(lhs - rhs) <= 1e-8


@criterion(3)
def test_criterion_3_multiplier_laws(z2odd):
    rng = random.Random(3)
    s = GroupPoint(1, False)
    points = list(z2odd.points())
    for _ in range(50):
        a = random_finite_element(rng, z2odd)
        b = random_finite_element(rng, z2odd)
        for g in points:
            m = mul_group(z2odd, g)
            # defining relations: module maps compatible with the product
            assert m.lam(xp_multiply(a, b)) == xp_multiply(m.lam(a), b)
            assert m.rho(xp_multiply(a, b)) == xp_multiply(a, m.rho(b))
            assert xp_multiply(a, m.lam(b)) == xp_multiply(m.rho(a), b)
            # unitarity: star gives the inverse point
            inv = mul_group(z2odd, z2odd.inverse(g))
            assert mul_star(m).lam(a) == inv.lam(a)
            assert mul_compose(m, inv).lam(a) == a
        # star rule for the odd generator: x* = -i x
        mx = mul_lie(z2odd, 0)
        minus_ix = mul_lie(z2odd, [GaussianRational(Fraction(0), Fraction(-1))])
        assert mul_star(mx).lam(a) == minus_ix.lam(a)
        # conjugation: lam_g lam_x lam_{g^-1} = lam_{Ad(g) x}, Ad(s) x = -x
        ms = mul_group(z2odd, s)
        conj = mul_compose(ms, mul_compose(mx, ms))
        minus_x = mul_lie(z2odd, [GaussianRational.of(-1)])
        assert conj.lam(a) == minus_x.lam(a)


@criterion(4)
def test_criterion_4_hat_is_star_homomorphism(z2odd, reg4, z2_chars, hcline):
    rng = random.Random(4)
    for rep in [reg4] + z2_chars:  # finite: exact
        for _ in range(100):
            a = random_finite_element(rng, z2odd)
            b = random_finite_element(rng, z2odd)
            assert np.allclose(
                rep_hat(rep, xp_multiply(a, b)), rep_hat(rep, a) @ rep_hat(rep, b),
                atol=0,
            )
            assert np.allclose(
                rep_hat(rep, xp_star(a)), rep_hat(rep, a).conj().T, atol=0
            )
    for lam in (0.5, 2.0):  # line: 1e-8 operator-norm residual
        rep = make_hc_rep(hcline, lam)
        for _ in range(100):
            a = random_line_element(rng, hcline)
            b = random_line_element(rng, hcline)
            assert operator_norm(
                rep_hat(rep, xp_multiply(a, b)) - rep_hat(rep, a) @ rep_hat(rep, b)
            ) <= 1e-8
            assert operator_norm(
                rep_hat(rep, xp_star(a)) - rep_hat(rep, a).conj().T
            ) <= 1e-8


@criterion(5)
def test_criterion_5_integrated_action_identity(z2odd, hcline):
    rng = random.Random(5)
    for _ in range(50):  # finite: exact
        f = random_finite_function(rng, z2odd)
        h = random_finite_function(rng, z2odd)
        D = normal_form(z2odd.algebra, random_word(rng, z2odd.algebra, 2))
        lhs = gamma_integral(z2odd, f, D, h)
        one_f = CrossedElement.tensor(z2odd, UEElement.unit(z2odd.algebra), f)
        rhs = xp_multiply(one_f, CrossedElement.tensor(z2odd, D, h))
        assert lhs == rhs
    # line: against scipy quadrature to 1e-6
    f = GaussianPoly.gaussian(1.0, 0.2, (1.0, 0.5))
    h = GaussianPoly.gaussian(2.0, -0.3, (1.0,))
    D = UEElement.generator(hcline.algebra, 1)
    result = gamma_integral(hcline, f, D, h)
    (word, func), = result.terms.items()
    assert word == (1,)
    for t in (-1.0, 0.0, 0.7, 2.0):
        oracle_re = quad(lambda s: (f.value(s) * h.value(t - s)).real, -30, 30,
                         limit=200)[0]
        oracle_im = quad(lambda s: (f.value(s) * h.value(t - s)).imag, -30, 30,
                         limit=200)[0]
        assert func.value(t) == pytest.approx(complex(oracle_re, oracle_im),
                                              abs=1e-6)
    one_f = CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f)
    product = xp_multiply(one_f, CrossedElement.tensor(hcline, D, h))
    for t in (-1.0, 0.0, 0.7, 2.0):
        assert func.value(t) == pytest.approx(
            product.terms[(1,)].value(t), abs=1e-12
        )


@criterion(6)
def test_criterion_6_certified_norm_bound(hcline, z2odd, reg4, z2_chars):
    rng = random.Random(6)
    count = 0
    line_reps = [make_hc_rep(hcline, lam) for lam in LAMBDAS]
    for _ in range(40):
        a = random_line_element(rng, hcline)
        m = prop33_bound(a)
        for rep in line_reps:
            assert operator_norm(rep_hat(rep, a)) <= m + 1e-12
            count += 1
    for _ in range(20):
        a = random_finite_element(rng, z2odd)
        m = prop33_bound(a)
        for rep in [reg4] + z2_chars:
            assert operator_norm(rep_hat(rep, a)) <= m + 1e-12
            count += 1
    assert count >= 300


@criterion(7)
def test_criterion_7_reconstruction_roundtrip(z2odd, reg4, hcline):
    probe = CrossedElement.tensor(
        z2odd,
        UEElement.unit(z2odd.algebra),
        FiniteFunction.delta(z2odd, z2odd.identity_point()),
    )
    rng = random.Random(7)
    v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)])
    base = rep_hat(reg4, probe) @ v
    for g in z2odd.points():  # all group generators and epsilon: exact
        assert np.allclose(reconstruct_pi(reg4, g, probe, v),
                           reg4.pi(g) @ base, atol=0)
    for i in range(z2odd.algebra.dim):
        assert np.allclose(reconstruct_rho(reg4, i, probe, v),
                           reg4.rho[i] @ base, atol=0)
    rep = make_hc_rep(hcline, 2.0)
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    probe = CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f)
    v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)])
    base = rep_hat(rep, probe) @ v
    for g in (GroupPoint(1.0, False), GroupPoint(0.5, False),
              hcline.epsilon_point()):
        dev = np.abs(reconstruct_pi(rep, g, probe, v) - rep.pi(g) @ base).max()
        assert dev <= 1e-10
    for i in range(hcline.algebra.dim):
        dev = np.abs(reconstruct_rho(rep, i, probe, v) - rep.rho[i] @ base).max()
        assert dev <= 1e-10


@criterion(8)
def test_criterion_8_taylor_norm_bound(hcline, hc_grid):
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    for D in (UEElement.unit(hcline.algebra),
              UEElement.generator(hcline.algebra, 1)):
        a = CrossedElement.tensor(hcline, D, f)
        doc = taylor_norm_check(hcline, a, hc_grid)
        assert doc["ok"]
        assert [row["t"] for row in doc["steps"]] == [1e-1, 1e-2, 1e-3]
        for row in doc["steps"]:
            assert row["family_max"] <= 0.5 * doc["m_const"] * row["t"] + 1e-12
        for ratio in doc["decay_ratios"]:
            assert 0.05 <= ratio <= 0.15


@criterion(9)
def test_criterion_9_kernel_and_seminorm(z2odd, z2_chars):
    rng = random.Random(9)
    points = list(z2odd.points())
    for _ in range(25):
        f = random_finite_function(rng, z2odd)
        if f.is_zero():
            continue
        a = CrossedElement.tensor(z2odd, UEElement.generator(z2odd.algebra, 0), f)
        interval = seminorm_interval(a, z2_chars)
        assert interval.kernel_flag and interval.lower == 0.0
        b = CrossedElement.tensor(z2odd, UEElement.unit(z2odd.algebra), f)
        interval = seminorm_interval(b, z2_chars)
        best = 0.0  # oracle: all four characters of Z2 x Z2
        for s_sign in (1, -1):
            for e_sign in (1, -1):
                total = sum(
                    complex(f(p)) * (s_sign ** p.base) * (e_sign ** int(p.eps))
                    for p in points
                )
                best = max(best, abs(total))
        assert interval.lower == pytest.approx(best, abs=1e-12)


@criterion(10)
def test_criterion_10_structural_predicates(workspace):
    expected = {
        "hc": (True, True),
        "hc2": (True, True),
        "podd": (True, True),
        "oddcenter": (True, False),
        "gl11": (False, False),
        "affine2": (False, False),
    }
    from superrep.superalgebra import is_nilpotent, is_odd_generated

    for name, (nilp, oddgen) in expected.items():
        algebra = workspace.algebras[name]
        assert is_nilpotent(algebra) is nilp, name
        assert is_odd_generated(algebra) is oddgen, name


SCENARIOS = [
    ("--catalog", "hc", "validate", "--pair", "hcline"),
    ("--catalog", "podd", "validate", "--pair", "z2odd"),
    ("--catalog", "hc", "nf", "--algebra", "hc", "--word", "x,x,x"),
    ("--catalog", "hc", "dagger", "--algebra", "hc", "--word", "x,z"),
    ("--catalog", "podd", "xp-mul", "--left", "bx", "--right", "bs"),
    ("--catalog", "podd", "xp-star", "--elem", "bmix"),
    ("--catalog", "hc", "gamma-check", "--pair", "hcline", "--f", "gauss1",
     "--h", "gauss2"),
    ("--catalog", "hc", "rep-check", "--rep", "hc-rep-2"),
    ("--catalog", "hc", "hat", "--rep", "hc-rep-2", "--elem", "ax"),
    ("--catalog", "hc", "bound", "--elem", "axz"),
    ("--catalog", "hc", "seminorm", "--elem", "ax", "--family", "hc-grid"),
    ("--catalog", "podd", "seminorm", "--elem", "bx", "--family", "z2-chars"),
    ("--catalog", "hc", "--seed", "11", "roundtrip", "--rep", "hc-rep-2",
     "--probe", "a0"),
    ("--catalog", "podd", "--seed", "11", "roundtrip", "--rep", "reg4",
     "--probe", "b0"),
    ("--catalog", "hc", "ccr-report", "--family", "hc-grid", "--elem", "a0"),
    ("--catalog", "hc", "orbit-deriv", "--pair", "hcline", "--elem", "a0"),
    ("--catalog", "hc", "taylor", "--pair", "hcline", "--elem", "a0",
     "--family", "hc-grid"),
]


@criterion(11)
def test_criterion_11_cli_determinism(capsys):
    for argv in SCENARIOS:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
        json.loads(out1)
