"""Matrix representations, the bridge, and certified norm bounds."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from superrep import reps
from superrep.crossed import CrossedElement, mul_group, mul_lie, xp_multiply, xp_star
from superrep.dsl import parse
from superrep.enveloping import ODD_MAJOR_ORDER, UEElement, normal_form
from superrep.errors import StructureError
from superrep.functions import (
    FiniteFunction,
    GaussianPoly,
    fourier_at,
    l1_bound,
    right_derivative,
)
from superrep.groups import GroupPoint
from superrep.reps import (
    MatrixRep,
    ccr_report,
    operator_norm,
    prop33_bound,
    reconstruct_pi,
    reconstruct_rho,
    rep_hat,
    seminorm_interval,
    taylor_norm_check,
    validate_rep,
)
from superrep.scalars import GaussianRational

from conftest import make_hc_rep
from test_crossed import (
    random_finite_element,
    random_finite_function,
    random_line_element,
)

LAMBDAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


# -- validation ---------------------------------------------------------------


def test_catalog_reps_validate(workspace):
    for name, rep in workspace.reps.items():
        report = validate_rep(rep)
        assert report.ok, f"{name}: {[(c.name, c.detail) for c in report.failures()]}"


def test_hc_rep_formula_passes(hcline):
    rep = make_hc_rep(hcline, 2.0)
    # rho(x)^2 = (i lam / 2) I
    assert np.allclose(rep.rho[1] @ rep.rho[1], 1j * np.eye(2))


def test_zero_rho_passes_purely_odd(z2odd, z2_chars):
    for rep in z2_chars:
        assert validate_rep(rep).ok


def test_nonzero_rho_fails_purely_odd(z2odd):
    # [x,x] = 0 forces rho(x) = 0: any nonzero choice must break (ii) or (iv)
    grading = np.diag([1.0, -1.0]).astype(complex)
    rho_x = np.exp(1j * math.pi / 4) * np.array([[0, 1], [1, 0]], dtype=complex)
    rep = MatrixRep(
        "bad",
        z2odd,
        grading,
        (rho_x,),
        pi_table=(np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
    )
    report = validate_rep(rep)
    failed = {c.name for c in report.failures()}
    assert failed & {"bracket_morphism", "odd_symmetry"}


def test_wrong_grading_parity_fails(hcline):
    rep = make_hc_rep(hcline, 1.0)
    bad = MatrixRep("bad", hcline, np.eye(2, dtype=complex), rep.rho, freq=1.0)
    report = validate_rep(bad)
    assert any(c.name == "covariance" for c in report.failures())


def test_wrong_frequency_fails(hcline):
    rep = make_hc_rep(hcline, 1.0)
    bad = MatrixRep("bad", hcline, rep.grading, rep.rho, freq=2.0)
    report = validate_rep(bad)
    assert any(c.name == "derived_generator" for c in report.failures())


# -- the bridge ---------------------------------------------------------------


def test_hat_of_unit_delta_is_identity(z2odd, reg4):
    a = CrossedElement.tensor(
        z2odd,
        UEElement.unit(z2odd.algebra),
        FiniteFunction.delta(z2odd, z2odd.identity_point()),
    )
    assert np.allclose(rep_hat(reg4, a), np.eye(4))


def test_hat_closed_form_hc(hcline):
    rep = make_hc_rep(hcline, 2.0)
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    a = CrossedElement.tensor(hcline, UEElement.generator(hcline.algebra, 1), f)
    expected = rep.rho[1] * math.sqrt(math.pi) * math.exp(-1.0)
    assert np.allclose(rep_hat(rep, a), expected, atol=1e-14)


def test_pi_from_group_side_equals_hat_of_unit_tensor(hcline, z2odd, reg4):
    # finite case
    rng = random.Random(201)
    for _ in range(20):
        f = random_finite_function(rng, z2odd)
        a = CrossedElement.tensor(z2odd, UEElement.unit(z2odd.algebra), f)
        assert np.allclose(reg4.pi_function(f), rep_hat(reg4, a))
    # line case
    rep = make_hc_rep(hcline, 0.5)
    f = GaussianPoly.gaussian(1.0, 0.3, (1.0, 1.0)) + GaussianPoly(
        (), GaussianPoly.gaussian(2.0, 0.0, (0.5,)).plus
    )
    a = CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f)
    assert np.allclose(rep.pi_function(f), rep_hat(rep, a), atol=1e-12)


def test_star_homomorphism_finite_100(z2odd, reg4, z2_chars):
    rng = random.Random(202)
    for rep in [reg4] + z2_chars:
        for _ in range(100):
            a = random_finite_element(rng, z2odd)
            b = random_finite_element(rng, z2odd)
            assert np.allclose(
                rep_hat(rep, xp_multiply(a, b)), rep_hat(rep, a) @ rep_hat(rep, b)
            )
            assert np.allclose(rep_hat(rep, xp_star(a)), rep_hat(rep, a).conj().T)


def test_star_homomorphism_line_100(hcline):
    rng = random.Random(203)
    reps = [make_hc_rep(hcline, lam) for lam in (0.5, 2.0)]
    for rep in reps:
        for _ in range(50):
            a = random_line_element(rng, hcline)
            b = random_line_element(rng, hcline)
            lhs = rep_hat(rep, xp_multiply(a, b))
            rhs = rep_hat(rep, a) @ rep_hat(rep, b)
            assert operator_norm(lhs - rhs) <= 1e-8
            assert operator_norm(
                rep_hat(rep, xp_star(a)) - rep_hat(rep, a).conj().T
            ) <= 1e-8


def test_covariance_as_matrices(workspace, z2odd, hcline):
    for name in ("reg4", "chi-pm", "hc-rep-2"):
        rep = workspace.reps[name]
        validate_rep(rep)
        pair = rep.pair
        points = (
            list(pair.points())
            if pair.group.kind == "finite"
            else [GroupPoint(0.7, False), pair.epsilon_point()]
        )
        for point in points:
            pg = rep.pi(point)
            ad = pair.ad_point(point)
            for i in range(pair.algebra.dim):
                target = sum(
                    complex(ad[k][i]) * rep.rho[k] for k in range(pair.algebra.dim)
                )
                assert np.allclose(pg @ rep.rho[i] @ pg.conj().T, target, atol=1e-12)


def test_odd_cauchy_schwarz_inequality(hcline):
    # ||rho(x) v||^2 <= (1/2) ||v|| ||rho([x,x]) v|| for odd x
    rng = random.Random(204)
    for lam in LAMBDAS:
        rep = make_hc_rep(hcline, lam)
        rho_x, rho_z = rep.rho[1], rep.rho[0]
        for _ in range(100):
            v = np.array(
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
            )
            lhs = np.linalg.norm(rho_x @ v) ** 2
            rhs = 0.5 * np.linalg.norm(v) * np.linalg.norm(rho_z @ v)
            assert lhs <= rhs + 1e-12


# -- certified bound -----------------------------------------------------------


def test_bound_unit_tensor_is_l1(hcline):
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    a = CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f)
    assert prop33_bound(a) == pytest.approx(l1_bound(f))


def test_bound_zero_element(hcline):
    assert prop33_bound(CrossedElement.zero(hcline)) == 0.0


def test_bound_odd_generator_closed_form(hcline):
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    a = CrossedElement.tensor(hcline, UEElement.generator(hcline.algebra, 1), f)
    m = prop33_bound(a)
    expected = math.sqrt(0.5 * l1_bound(f) * l1_bound(f.derivative()))
    assert m == pytest.approx(expected)
    # Fourier-side check over the grid: sqrt(lam/2) |f^(lam)| <= M
    for lam in LAMBDAS:
        assert math.sqrt(lam / 2) * abs(fourier_at(f, lam)) <= m + 1e-12


def test_bound_soundness_300_pairs(hcline, z2odd, reg4, z2_chars):
    count = 0
    rng = random.Random(205)
    line_reps = [make_hc_rep(hcline, lam) for lam in LAMBDAS]
    for _ in range(30):
        a = random_line_element(rng, hcline)
        m = prop33_bound(a)
        for rep in line_reps:
            assert operator_norm(rep_hat(rep, a)) <= m + 1e-12
            count += 1
    finite_reps = [reg4] + z2_chars
    for _ in range(30):
        a = random_finite_element(rng, z2odd)
        m = prop33_bound(a)
        for rep in finite_reps:
            assert operator_norm(rep_hat(rep, a)) <= m + 1e-12
            count += 1
    assert count >= 300


# the letter-peeling recursion as it was before each term kept its chain of
# derivatives: every leaf derives f from scratch, right to left; ``seen``
# collects each non-empty even word a leaf derives, with all its suffixes


def reference_bound_term(pair, odd_word, even_word, f, seen):
    algebra = pair.algebra
    if not odd_word:
        seen.update(even_word[k:] for k in range(len(even_word)))
        for i in reversed(even_word):
            f = right_derivative(pair, i, f)
        return l1_bound(f)
    y, rest = odd_word[0], odd_word[1:]
    tail = reference_bound_term(pair, rest, even_word, f, seen)
    if tail == 0.0:
        return 0.0
    pushed = 0.0
    for k, c in enumerate(algebra.bracket_basis(y, y)):
        if c == 0:
            continue
        weight = abs(float(c))
        for j in range(len(rest)):
            for m, d in enumerate(algebra.bracket_basis(k, rest[j])):
                if d == 0:
                    continue
                replaced = rest[:j] + (m,) + rest[j + 1:]
                pushed += weight * abs(float(d)) * reference_bound_term(
                    pair, replaced, even_word, f, seen
                )
        pushed += weight * reference_bound_term(pair, rest, (k,) + even_word, f, seen)
    return (0.5 * tail * pushed) ** 0.5


def reference_prop33(a):
    """prop33_bound by the reference recursion, and the distinct (term,
    non-empty even word) pairs its leaves derive."""
    algebra = a.pair.algebra
    total, derived = 0.0, set()
    for word, f in a.terms.items():
        seen = set()
        for w, c in normal_form(algebra, word, order=ODD_MAJOR_ORDER).terms.items():
            split = next((k for k, i in enumerate(w) if algebra.parity[i] == 0), len(w))
            total += abs(c) * reference_bound_term(a.pair, w[:split], w[split:], f, seen)
        derived.update((word, even) for even in seen)
    return total, derived


HC2LINE_SOURCE = """
(superalgebra hc2t
  (basis (z even) (x1 odd) (x2 odd))
  (bracket x1 x1 (1 z))
  (bracket x2 x2 (1 z)))
(pair hc2tline hc2t (line z))
"""


def test_bound_matches_reference_recursion_bit_for_bit(hcline, monkeypatch):
    hc2line = parse(HC2LINE_SOURCE).pairs["hc2tline"]
    rng = random.Random(212)
    calls = []
    real = reps.right_derivative

    def counted(pair, index, f):
        calls.append(index)
        return real(pair, index, f)

    monkeypatch.setattr(reps, "right_derivative", counted)
    deepest = 0
    for pair in (hcline, hc2line):
        for _ in range(8):
            a = random_line_element(rng, pair, max_deg=4)
            b = random_line_element(rng, pair, max_deg=4)
            for elem in (a, b, xp_multiply(a, b)):
                del calls[:]
                bound = prop33_bound(elem)
                reference, derived = reference_prop33(elem)
                assert bound == reference
                # one right_derivative per distinct (term, non-empty even word)
                assert len(calls) == len(derived)
                deepest = max([deepest] + [len(even) for _, even in derived])
    assert deepest == 6


def test_bound_zero_on_purely_odd_positive_degree(z2odd):
    rng = random.Random(206)
    for _ in range(20):
        f = random_finite_function(rng, z2odd)
        a = CrossedElement.tensor(
            z2odd, UEElement.generator(z2odd.algebra, 0), f
        )
        assert prop33_bound(a) == 0.0


# -- seminorm intervals ---------------------------------------------------------


def test_seminorm_kernel_flag_purely_odd(z2odd, z2_chars):
    rng = random.Random(207)
    for _ in range(20):
        f = random_finite_function(rng, z2odd)
        if f.is_zero():
            continue
        a = CrossedElement.tensor(z2odd, UEElement.generator(z2odd.algebra, 0), f)
        interval = seminorm_interval(a, z2_chars)
        assert interval.kernel_flag
        assert interval.lower == 0.0 and interval.upper == 0.0


def test_seminorm_lower_matches_character_maximum(z2odd, z2_chars):
    rng = random.Random(208)
    points = list(z2odd.points())
    for _ in range(20):
        f = random_finite_function(rng, z2odd)
        a = CrossedElement.tensor(z2odd, UEElement.unit(z2odd.algebra), f)
        interval = seminorm_interval(a, z2_chars)
        # brute-force character maximum: chi(s) = s_sign, chi(eps) = e_sign
        best = 0.0
        for s_sign in (1, -1):
            for e_sign in (1, -1):
                total = sum(
                    complex(f(p)) * (s_sign ** p.base) * (e_sign ** int(p.eps))
                    for p in points
                )
                best = max(best, abs(total))
        assert interval.lower == pytest.approx(best, abs=1e-12)
        assert interval.lower <= interval.upper + 1e-12


def test_seminorm_lower_z_tensor_gaussian(hcline, hc_grid):
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    a = CrossedElement.tensor(hcline, UEElement.generator(hcline.algebra, 0), f)
    interval = seminorm_interval(a, hc_grid)
    expected = max(
        lam * math.sqrt(math.pi) * math.exp(-lam * lam / 4) for lam in LAMBDAS
    )
    assert interval.lower == pytest.approx(expected, abs=1e-10)


def test_seminorm_empty_family(hcline):
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    a = CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f)
    interval = seminorm_interval(a, [])
    assert interval.empty_family
    assert interval.lower == 0.0


# -- reconstruction -------------------------------------------------------------


def test_roundtrip_finite_exact(z2odd, reg4):
    probe = CrossedElement.tensor(
        z2odd,
        UEElement.unit(z2odd.algebra),
        FiniteFunction.delta(z2odd, z2odd.identity_point()),
    )
    rng = random.Random(209)
    v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)])
    base = rep_hat(reg4, probe) @ v
    for g in z2odd.points():
        got = reconstruct_pi(reg4, g, probe, v)
        assert np.array_equal(got, reg4.pi(g) @ base) or np.allclose(
            got, reg4.pi(g) @ base, atol=0
        )
    for i in range(z2odd.algebra.dim):
        got = reconstruct_rho(reg4, i, probe, v)
        assert np.allclose(got, reg4.rho[i] @ base, atol=0)


def test_roundtrip_line_1e10(hcline):
    rep = make_hc_rep(hcline, 2.0)
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    probe = CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f)
    rng = random.Random(210)
    v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)])
    base = rep_hat(rep, probe) @ v
    for g in [GroupPoint(0.5, False), GroupPoint(1.0, False), hcline.epsilon_point()]:
        got = reconstruct_pi(rep, g, probe, v)
        assert np.abs(got - rep.pi(g) @ base).max() <= 1e-10
    # pi(t) acts as the scalar e^{2it} on this representation
    got = reconstruct_pi(rep, GroupPoint(1.0, False), probe, v)
    assert np.abs(got - np.exp(2j) * base).max() <= 1e-10
    for i in range(hcline.algebra.dim):
        got = reconstruct_rho(rep, i, probe, v)
        assert np.abs(got - rep.rho[i] @ base).max() <= 1e-10
    # rho(z) = i lam
    got = reconstruct_rho(rep, 0, probe, v)
    assert np.abs(got - 2j * base).max() <= 1e-10


def test_roundtrip_eps_recovers_grading(z2odd, reg4):
    probe = CrossedElement.tensor(
        z2odd,
        UEElement.unit(z2odd.algebra),
        FiniteFunction.delta(z2odd, z2odd.identity_point()),
    )
    v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    got = reconstruct_pi(reg4, z2odd.epsilon_point(), probe, v)
    assert np.allclose(got, reg4.grading @ v)


def test_roundtrip_rho_zero_purely_odd(z2odd, reg4):
    probe = CrossedElement.tensor(
        z2odd,
        UEElement.unit(z2odd.algebra),
        FiniteFunction.delta(z2odd, z2odd.identity_point()),
    )
    v = np.ones(4, dtype=complex)
    got = reconstruct_rho(reg4, 0, probe, v)
    assert np.allclose(got, 0.0)


@pytest.mark.parametrize("reconstruct, target", [
    (reconstruct_pi, GroupPoint(0, False)),
    (reconstruct_rho, 0),
], ids=["pi", "rho"])
def test_reconstruction_refuses_a_zero_probe_image(z2odd, reg4, reconstruct, target):
    unit = CrossedElement.tensor(
        z2odd,
        UEElement.unit(z2odd.algebra),
        FiniteFunction.delta(z2odd, z2odd.identity_point()),
    )
    # a zero probe, and a nonzero probe against the zero vector
    for probe, v in ((CrossedElement.zero(z2odd), np.ones(4, dtype=complex)),
                     (unit, np.zeros(4, dtype=complex))):
        with pytest.raises(StructureError, match="probe image is zero"):
            reconstruct(reg4, target, probe, v)


# -- Taylor bound and ccr --------------------------------------------------------


def test_taylor_bound_over_family(hcline, hc_grid):
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    a = CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f)
    doc = taylor_norm_check(hcline, a, hc_grid)
    assert doc["ok"]
    for ratio in doc["decay_ratios"]:
        assert 0.05 <= ratio <= 0.15


def test_taylor_zero_element(hcline, hc_grid):
    doc = taylor_norm_check(hcline, CrossedElement.zero(hcline), hc_grid)
    assert doc["m_const"] == 0.0
    assert all(row["family_max"] == 0.0 for row in doc["steps"])


def test_ccr_flags_and_span(z2odd, hc_grid, workspace):
    reg4 = workspace.reps["reg4"]
    validate_rep(reg4)
    gens = []
    for base in (0, 1):
        for eps in (False, True):
            gens.append(
                CrossedElement.tensor(
                    z2odd,
                    UEElement.unit(z2odd.algebra),
                    FiniteFunction.delta(z2odd, GroupPoint(base, eps)),
                )
            )
    doc = ccr_report([reg4], gens)
    assert doc["representations"][0]["image_span_dim"] == 4
    assert doc["flags"] == {"nilpotent": True, "odd_generated": True}
    f = GaussianPoly.gaussian(1.0, 0.0, (1.0,))
    hc_doc = ccr_report(
        hc_grid,
        [CrossedElement.tensor(hc_grid[0].pair, UEElement.unit(hc_grid[0].pair.algebra), f)],
    )
    assert hc_doc["flags"] == {"nilpotent": True, "odd_generated": True}
    assert all(r["finite_rank"] for r in hc_doc["representations"])
