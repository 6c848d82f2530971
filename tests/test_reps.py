"""Matrix representations, the bridge, and certified norm bounds."""

import cmath
import functools
import gc
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superrep import functions, reps
from superrep.catalog import load_catalog
from superrep.crossed import (
    CrossedElement,
    gamma_integral,
    mul_group,
    orbit_derivative_check,
    xp_multiply,
    xp_star,
)
from superrep.dsl import parse
from superrep.enveloping import ODD_MAJOR_ORDER, UEElement, normal_form
from superrep.errors import StructureError, UnsupportedInstanceError
from superrep.functions import (
    FiniteFunction,
    GaussianPoly,
    fourier_at,
    l1_bound,
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

from conftest import make_hc_rep
from test_crossed import (
    random_finite_element,
    random_finite_function,
    random_line_element,
)
from test_functions import _ref_term_fourier

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
    bad = MatrixRep("bad", hcline, np.eye(2, dtype=complex), rep.rho)
    report = validate_rep(bad)
    assert any(c.name == "covariance" for c in report.failures())


def test_wrong_frequency_fails(hcline):
    rep = make_hc_rep(hcline, 1.0)
    # a frequency that is not real: rho(z) = i (1 - 0.5i) identity
    bad = MatrixRep("bad", hcline, rep.grading, ((0.5 + 1j) * np.eye(2), rep.rho[1]))
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


# hc-rep-1 (+) hc-rep-2 on hcline: rho(z) = i diag(1, 1, 2, 2), and rho(x) the
# block sum of theirs
SUM12 = """
(rep sum12 hcline
  (grading 1 -1 1 -1)
  (rho z ((1.0i 0 0 0) (0 1.0i 0 0) (0 0 2.0i 0) (0 0 0 2.0i)))
  (rho x ((0 (c 0.5 0.5) 0 0) ((c 0.5 0.5) 0 0 0)
          (0 0 0 (c 0.7071067811865476 0.7071067811865476))
          (0 0 (c 0.7071067811865476 0.7071067811865476) 0))))
"""


def test_a_reducible_line_rep_is_the_block_sum_of_its_parts():
    ws = parse(SUM12, load_catalog("hc"))
    rep, parts = ws.reps["sum12"], [ws.reps["hc-rep-1"], ws.reps["hc-rep-2"]]
    assert validate_rep(rep).ok
    for name in ("a0", "ax", "az", "axz"):
        a = ws.elements[name]
        blocks = [rep_hat(part, a) for part in parts]
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2], expected[2:, 2:] = blocks
        image = rep_hat(rep, a)
        assert np.array_equal(image, expected), name
        norm = operator_norm(image)
        assert norm == pytest.approx(max(operator_norm(block) for block in blocks), rel=1e-12)
        assert norm <= prop33_bound(a)


def test_pi_from_group_side_equals_hat_of_unit_tensor(hcline, z2odd, reg4):
    # finite case: pi(f) is the sum of f(p) pi(p) over the support
    rng = random.Random(201)
    for _ in range(20):
        f = random_finite_function(rng, z2odd)
        a = CrossedElement.tensor(z2odd, UEElement.unit(z2odd.algebra), f)
        group_side = sum((complex(v) * reg4.pi(p) for p, v in f.values.items()),
                         np.zeros((reg4.dim, reg4.dim), dtype=complex))
        assert np.allclose(group_side, rep_hat(reg4, a))
    # line case: the Fourier value of each component times I or the grading
    rep = make_hc_rep(hcline, 0.5)
    f = GaussianPoly.gaussian(1.0, 0.3, (1.0, 1.0)) + GaussianPoly(
        (), GaussianPoly.gaussian(2.0, 0.0, (0.5,)).plus
    )
    a = CrossedElement.tensor(hcline, UEElement.unit(hcline.algebra), f)
    nu = rep.rho[hcline.generator_index][0, 0].imag
    group_side = (fourier_at(f, nu, "plus") * np.eye(rep.dim)
                  + fourier_at(f, nu, "eps") * rep.grading)
    assert np.allclose(group_side, rep_hat(rep, a), atol=1e-12)


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
# derivatives: every leaf derives f from scratch, right to left, by the signed
# right derivative R_z f = -f' (z is the only even letter of a line pair the
# bound accepts); ``seen`` collects each non-empty even word a leaf derives,
# with all its suffixes


def reference_bound_term(pair, odd_word, even_word, f, seen):
    algebra = pair.algebra
    if not odd_word:
        seen.update(even_word[k:] for k in range(len(even_word)))
        for i in reversed(even_word):
            assert i == pair.generator_index
            f = f.derivative().scale(-1.0)
        return l1_bound(f)
    y, rest = odd_word[0], odd_word[1:]
    tail = reference_bound_term(pair, rest, even_word, f, seen)
    if tail == 0.0:
        return 0.0
    pushed = 0.0
    for k, c in enumerate(algebra.constants[y][y]):
        if c == 0:
            continue
        weight = abs(float(c))
        for j in range(len(rest)):
            for m, d in enumerate(algebra.constants[k][rest[j]]):
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


def counted(owner, name, calls, monkeypatch):
    """Patch ``owner.name`` to count its calls in ``calls[name]``."""
    real = getattr(owner, name)

    def call(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, call)


def counted_rows(calls, monkeypatch):
    """Patch the bound's L1 row kernel to count its calls in
    ``calls["_l1_row"]`` and the entries of its rows in ``calls["entries"]``."""
    real = reps._l1_row

    def call(*args):
        row = real(*args)
        calls["_l1_row"] += 1
        calls["entries"] += len(row)
        return row

    monkeypatch.setattr(reps, "_l1_row", call)


def test_bound_matches_reference_recursion_bit_for_bit(hcline, monkeypatch):
    hc2line = parse(HC2LINE_SOURCE).pairs["hc2tline"]
    rng = random.Random(212)
    calls = {"_poly_derivative": 0, "_l1_row": 0, "entries": 0}
    counted(functions, "_poly_derivative", calls, monkeypatch)
    counted_rows(calls, monkeypatch)
    deepest = 0
    for pair in (hcline, hc2line):
        for _ in range(8):
            a = random_line_element(rng, pair, max_deg=4)
            b = random_line_element(rng, pair, max_deg=4)
            for elem in (a, b, xp_multiply(a, b)):
                calls.update(dict.fromkeys(calls, 0))
                bound = prop33_bound(elem)
                # read before the reference, which derives through the same kernel
                made = dict(calls)
                reference, derived = reference_prop33(elem)
                assert bound == reference
                # one row per term, and one coefficient derivative per Gaussian
                # term of each distinct (term, non-empty even word)
                assert made["_l1_row"] == len(elem.terms)
                assert made["_poly_derivative"] == sum(
                    len(elem.terms[word].plus) + len(elem.terms[word].eps)
                    for word, _ in derived)
                deepest = max([deepest] + [len(even) for _, even in derived])
    assert deepest == 6


def deep_odd_line(n):
    """z even and x1...xn odd with [xi, xi] = z, on (line z)."""
    odd = " ".join(f"(x{i} odd)" for i in range(1, n + 1))
    brackets = " ".join(f"(bracket x{i} x{i} (1 z))" for i in range(1, n + 1))
    source = f"(superalgebra deep (basis (z even) {odd}) {brackets}) (pair deepline deep (line z))"
    return parse(source).pairs["deepline"]


@pytest.mark.parametrize("n", range(1, 9))
def test_bound_peels_each_word_pair_once_bit_for_bit(n, monkeypatch):
    pair = deep_odd_line(n)
    f = GaussianPoly.gaussian(1.0) + GaussianPoly.gaussian(0.5, -0.75, (0.25, 1j, -2.0), "eps")
    a = CrossedElement(pair, {tuple(range(1, n + 1)): f})  # the monomial x1...xn
    calls, visited = {"_poly_derivative": 0, "_l1_row": 0, "entries": 0, "_peel": 0}, []
    reference = reference_bound_term

    def counted_reference(pair, odd_word, even_word, f, seen):
        visited.append((odd_word, even_word))
        return reference(pair, odd_word, even_word, f, seen)

    counted(functions, "_poly_derivative", calls, monkeypatch)
    counted_rows(calls, monkeypatch)
    counted(reps, "_peel", calls, monkeypatch)
    monkeypatch.setitem(globals(), "reference_bound_term", counted_reference)
    bound = prop33_bound(a)
    # read before the reference, which derives through the same kernel
    made = dict(calls)
    assert bound.hex() == reference_prop33(a)[0].hex()
    # one row whose entries are the leaves, one per derivative order, each of
    # f's two Gaussian terms derived once per order, and one peel per distinct
    # (odd word, even word) above the leaves: 45 nodes at n = 8, where the
    # reference makes 511 calls
    assert made == {"_poly_derivative": 2 * n, "_l1_row": 1, "entries": n + 1,
                    "_peel": n * (n + 1) // 2}
    assert len(set(visited)) == made["entries"] + made["_peel"] == (n + 1) * (n + 2) // 2
    assert len(visited) == 2 ** (n + 1) - 1


# each runs one path over the catalog's line elements, its finite elements
# and the hc-grid family
_GARBAGE_FREE = {
    "prop33_bound": lambda line, finite, grid: [prop33_bound(a) for a in line],
    "orbit_derivative_check": lambda line, finite, grid: [
        orbit_derivative_check(a.pair, a, h) for a in line for h in (0.1, 0.05)],
    "xp_multiply-finite": lambda line, finite, grid: [
        xp_multiply(a, b) for a in finite for b in finite],
    "xp_multiply-line": lambda line, finite, grid: [
        xp_multiply(a, b) for a in line for b in line],
    "xp_star": lambda line, finite, grid: [xp_star(a) for a in line],
    "mul_group.lam": lambda line, finite, grid: [
        mul_group(a.pair, GroupPoint(t, t < 0)).lam(a) for a in line for t in (-0.5, 0.0, 1.25)],
    "gamma_integral": lambda line, finite, grid: [
        gamma_integral(a.pair, f, normal_form(a.pair.algebra, (1,)), f)
        for a in line for f in a.terms.values()],
    "rep_hat": lambda line, finite, grid: [rep_hat(rep, a) for a in line for rep in grid],
    "seminorm_interval": lambda line, finite, grid: [seminorm_interval(a, grid) for a in line],
}


@pytest.mark.parametrize("run", _GARBAGE_FREE.values(), ids=_GARBAGE_FREE)
def test_leaves_no_cyclic_garbage(workspace, hc_grid, run):
    """The bound, the twisted products and the bridge keep what they make in
    plain lists and dicts, so nothing is left for the cyclic collector: a
    loop that leaves garbage cycles makes collections fire in whatever runs
    next."""
    line = list(catalog_line_elements(workspace).values())
    finite = [workspace.elements[n] for n in ("b0", "bs", "bx", "bmix")]
    gc.collect()
    gc.disable()
    try:
        run(line, finite, hc_grid)
        assert gc.collect() == 0
    finally:
        gc.enable()


# z even and x odd with [x, x] = 0, on (line z): rho(x) = 0 in every
# representation
OCLINE_SOURCE = """
(superalgebra oc (basis (z even) (x odd)))
(pair ocline oc (line z))
"""


def test_a_vanishing_odd_square_bounds_to_zero():
    pair = parse(OCLINE_SOURCE).pairs["ocline"]
    x = UEElement.generator(pair.algebra, 1)
    # the L1 bound of f overflows, and 0.5 * inf * 0 would be NaN
    f = GaussianPoly.gaussian(1e-300, 0.0, (1e200,))
    assert l1_bound(f) == math.inf
    for g in (f, GaussianPoly.gaussian()):
        assert prop33_bound(CrossedElement.tensor(pair, x, g)).hex() == (0.0).hex()


def test_an_overflowing_derivative_bounds_to_inf(hcline):
    # x (x) f: the L1 bound of f overflows; the old fused (-1+0j) product of
    # the right derivative turned inf parts into NaN ones (inf * 0), so the
    # bound was NaN.  z x (x) g: the derivatives of g hold inf - inf, a NaN
    # coefficient, whose L1 bound reads inf
    f = GaussianPoly.gaussian(1.0, 0.0, (complex(1e308, 1e308),))
    g = GaussianPoly.gaussian(1.0, 0.0, (1e308,))
    for word, h in (((1,), f), ((0, 1), g)):
        element = CrossedElement.tensor(hcline, normal_form(hcline.algebra, word), h)
        assert prop33_bound(element) == math.inf


def test_a_zero_tail_ends_the_bound_on_a_finite_pair():
    """x1 x2 (x) delta_e bounds to 0, as [x1, x1] = [x2, x2] = 0 on a pair
    with no even part."""
    ws = parse("""
(superalgebra podd2 (basis (x1 odd) (x2 odd)))
(pair z2two podd2 (finite (elements e s) (table (e s) (s e)) (ad s ((-1 0) (0 -1)))))
(element x1x2 z2two (tensor (ue (1 x1 x2)) (finitefunc (delta e 1))))
""")
    assert prop33_bound(ws.elements["x1x2"]).hex() == (0.0).hex()


def test_a_zero_factor_ends_a_peel_where_the_other_overflows():
    # 0.5 * 0.0 * inf would be NaN
    assert reps._peel(0.0, math.inf).hex() == reps._peel(math.inf, 0.0).hex() == (0.0).hex()
    assert reps._peel(2.0, 4.0) == 2.0


# prop33_bound of the catalog line elements, pinned by float.hex
PINNED_BOUNDS = {
    "a0": "0x1.c5bf891b4ef6ap+0",
    "ax": "0x1.54d264f787eb7p+0",
    "az": "0x1.0000000000000p+1",
    "axz": "0x1.1fdbfe565dc49p+2",
    "ax*axz": "0x1.0dc66d9e67659p+2",
    "star(axz)*az": "0x1.253a55dc8fbd9p+3",
}


def catalog_line_elements(workspace):
    elems = {name: workspace.elements[name] for name in ("a0", "ax", "az", "axz")}
    elems["ax*axz"] = xp_multiply(elems["ax"], elems["axz"])
    elems["star(axz)*az"] = xp_multiply(xp_star(elems["axz"]), elems["az"])
    return elems


def reference_rep_hat(rep, a):
    """rep_hat with every rho-word and identity formed afresh per term, and
    each Fourier value from the test-local term kernel."""
    freq = float(rep.rho[rep.pair.generator_index][0, 0].imag)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for word, f in a.terms.items():
        rho = np.eye(rep.dim, dtype=complex)
        for i in word:
            rho = rho @ rep.rho[i]
        plus = sum([_ref_term_fourier(t, freq) for t in f.plus], 0j)
        eps = sum([_ref_term_fourier(t, freq) for t in f.eps], 0j)
        pi = plus * np.eye(rep.dim) + eps * rep.grading
        out += rho @ pi
    return out


def test_catalog_line_bounds_and_hats_bit_for_bit(workspace, hc_grid):
    elems = catalog_line_elements(workspace)
    assert {name: prop33_bound(a).hex() for name, a in elems.items()} == PINNED_BOUNDS
    for a in elems.values():
        for rep in hc_grid:
            expected = reference_rep_hat(rep, a).tobytes()
            # the second call reads every rho-word from the rep's table
            assert rep_hat(rep, a).tobytes() == expected == rep_hat(rep, a).tobytes()


def test_rho_word_is_the_explicit_product_and_read_only(hcline, hc_grid, reg4):
    fresh = make_hc_rep(hcline, 3.0)
    assert not any(m.flags.writeable for _, *mats in fresh._pieces for m in mats)
    for rep in [fresh, reg4] + hc_grid:
        d = len(rep.rho)
        words = [()] + [(i,) for i in range(d)] + [
            (i, j, k) for i in range(d) for j in range(d) for k in range(d)]
        for word in words:
            expected = np.eye(rep.dim, dtype=complex)
            for i in word:
                expected = expected @ rep.rho[i]
            out = rep.rho_word(word)
            assert out.tobytes() == expected.tobytes() and out.dtype == expected.dtype
            assert not out.flags.writeable
            with pytest.raises(ValueError):
                out[0, 0] = 7.0
            with pytest.raises(ValueError):
                out += 1.0
            assert rep.rho_word(word) is out and out.tobytes() == expected.tobytes()


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
def test_reconstruction_of_a_zero_probe_image_is_zero(z2odd, reg4, reconstruct, target):
    unit = CrossedElement.tensor(
        z2odd,
        UEElement.unit(z2odd.algebra),
        FiniteFunction.delta(z2odd, z2odd.identity_point()),
    )
    # a zero probe, and a nonzero probe against the zero vector: the identity
    # holds for every v, so each gives exactly the image of 0
    for probe, v in ((CrossedElement.zero(z2odd), np.ones(4, dtype=complex)),
                     (unit, np.zeros(4, dtype=complex))):
        got = reconstruct(reg4, target, probe, v)
        assert got.shape == (4,) and not got.any()


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


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
def test_a_non_finite_matrix_is_refused(entry):
    mat = np.array([[1.0, entry], [0.0, 1.0]], dtype=complex)
    for m in (mat, mat.real) if np.isfinite(mat.imag).all() else (mat,):
        with pytest.raises(OverflowError, match="matrix with a non-finite entry"):
            operator_norm(m)
    assert operator_norm(np.eye(2) * 1e308) == 1e308


_NORM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(-1e6, 1e6),
)
_NORM_MATRICES = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: st.one_of(
        st.lists(st.tuples(_NORM_ENTRIES, _NORM_ENTRIES), min_size=shape[0] * shape[1],
                 max_size=shape[0] * shape[1]).map(
            lambda parts: np.array([complex(*p) for p in parts], dtype=complex).reshape(shape)),
        st.lists(_NORM_ENTRIES, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
            lambda xs: np.array(xs, dtype=float).reshape(shape)),
        st.lists(st.integers(-2**40, 2**40), min_size=shape[0] * shape[1],
                 max_size=shape[0] * shape[1]).map(
            lambda ns: np.array(ns, dtype=np.int64).reshape(shape)),
    ))


@settings(max_examples=300)
@given(_NORM_MATRICES)
def test_operator_norm_is_the_float_of_numpy_s_spectral_norm(mat):
    """One SVD call gives the float np.linalg.norm(mat, 2) gives, bit for
    bit, signed zeros, subnormals and huge entries included."""
    assert operator_norm(mat).hex() == float(np.linalg.norm(mat, 2)).hex()


@pytest.mark.parametrize("call", [
    lambda rep, a: rep_hat(rep, a),
    lambda rep, a: reconstruct_pi(rep, GroupPoint(0.5, False), a, np.ones(rep.dim)),
    lambda rep, a: reconstruct_rho(rep, 0, a, np.ones(rep.dim)),
], ids=["rep_hat", "reconstruct_pi", "reconstruct_rho"])
def test_a_non_finite_image_is_refused_by_the_bridge(workspace, call):
    """x (x) (1e308 + 1e308 t) e^{-t^2} has an infinite Fourier value at the
    frequency of hc-rep-4, and rho(x) times it is NaN where it meets a zero:
    rep_hat refuses it, so a reconstruction does not read it as a vanishing
    probe image.  At frequency 2 the image is finite and returned."""
    pair = workspace.pairs["hcline"]
    x = UEElement.generator(pair.algebra, pair.algebra.basis_names.index("x"))
    a = CrossedElement.tensor(pair, x, GaussianPoly.gaussian(1.0, 0.0, (1e308, 1e308)))
    with pytest.raises(OverflowError, match="^matrix with a non-finite entry$"):
        call(workspace.reps["hc-rep-4"], a)
    assert 9e307 < operator_norm(rep_hat(workspace.reps["hc-rep-2"], a)) < 1e308


@pytest.mark.parametrize("call, error, message", [
    (lambda ws: reps.SeminormInterval(1.0, 0.5),
     StructureError, "seminorm interval must satisfy lower <= upper, got 1.0 > 0.5"),
    (lambda ws: taylor_norm_check(ws.pairs["z2odd"], ws.elements["bx"], []),
     UnsupportedInstanceError, "Taylor check requires a line instance"),
], ids=["interval-order", "taylor-on-finite-pair"])
def test_reps_refusals(workspace, call, error, message):
    with pytest.raises(error) as exc:
        call(workspace)
    assert str(exc.value) == message


# -- the certificate on many odd generators ----------------------------------

PAULI = {
    "1": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
DEEP_LINES = {n: deep_odd_line(n) for n in range(1, 9)}


def _pauli_word(letters):
    return functools.reduce(np.kron, [PAULI[c] for c in letters])


def jordan_wigner_rep(n, lam):
    """On z even, x1...xn odd, [xi, xi] = z: rho(z) = i lam and rho(xj) =
    sqrt(lam/2) e^{i pi/4} gamma_j, with gamma_j the Jordan-Wigner Clifford
    matrices Z...Z X 1...1 and Z...Z Y 1...1 on ceil(n/2) qubits, graded by
    the chirality Z...Z.  For n = 1 this is ``make_hc_rep``."""
    m = (n + 1) // 2
    gammas = [_pauli_word("Z" * k + p + "1" * (m - k - 1)) for k in range(m) for p in "XY"]
    # a complex root, so that lam < 0 still satisfies the bracket relations
    scale = cmath.exp(1j * math.pi / 4) * cmath.sqrt(lam / 2)
    rho = (1j * lam * np.eye(2 ** m),) + tuple(scale * g for g in gammas[:n])
    return MatrixRep(f"jw-{n}-{lam}", DEEP_LINES[n], _pauli_word("Z" * m), rho)


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=15)
@given(st.floats(0.05, 20, exclude_min=True, exclude_max=True), st.randoms(use_true_random=False))
def test_certificate_holds_on_many_odd_generators(n, lam, rng):
    rep = jordan_wigner_rep(n, lam)
    validate_rep(rep).raise_if_failed()
    a = random_line_element(rng, rep.pair, max_deg=4)
    norm, bound = operator_norm(rep_hat(rep, a)), prop33_bound(a)
    assert norm <= bound + 1e-12


def test_jordan_wigner_family_needs_a_positive_frequency():
    report = validate_rep(jordan_wigner_rep(3, -1.0))
    assert [c.name for c in report.failures()] == ["odd_symmetry"]
