"""The twist decomposition: a non-abelian finite pair checked against a
point-by-point reference sum, ``twist_split`` and the per-pair twist memo."""

import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

from superrep import crossed
from superrep.catalog import load_catalog
from superrep.crossed import (
    CrossedElement,
    gamma_integral,
    mul_compose,
    mul_group,
    mul_lie,
    xp_multiply,
    xp_star,
)
from superrep.dsl import parse
from superrep.enveloping import UEElement, apply_auto, normal_form, ue_multiply
from superrep.functions import FiniteFunction, GaussianPoly, left_translate
from superrep.groups import GroupPoint, Supergroup
from superrep.scalars import GR_ONE, GaussianRational

# S3 permuting three odd generators y1, y2, y3 with vanishing brackets; the
# 3-cycles a, a2 have non-symmetric adjoint matrices, so a transposed Ad is
# the inverse permutation and breaks the twisted product.
S3_SOURCE = """
(superalgebra s3y (basis (y1 odd) (y2 odd) (y3 odd)))
(pair s3y3 s3y
  (finite (elements e a a2 b c d)
          (table (e a a2 b c d) (a a2 e d b c) (a2 e a c d b)
                 (b c d e a a2) (c d b a2 e a) (d b c a a2 e))
          (ad a ((0 0 1) (1 0 0) (0 1 0)))
          (ad a2 ((0 1 0) (0 0 1) (1 0 0)))
          (ad b ((0 1 0) (1 0 0) (0 0 1)))
          (ad c ((1 0 0) (0 0 1) (0 1 0)))
          (ad d ((0 0 1) (0 1 0) (1 0 0)))))
"""

A, A2, B = 1, 2, 3  # element indices in declaration order


def make_s3():
    return parse(S3_SOURCE).pairs["s3y3"]


@pytest.fixture(scope="module")
def s3():
    return make_s3()


def random_function(rng, pair, density=0.4):
    values = {
        p: GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1)))
        for p in pair.points()
        if rng.random() < density
    }
    return FiniteFunction(pair, values)


def random_element(rng, pair, max_deg=2):
    out = CrossedElement.zero(pair)
    for _ in range(rng.randint(1, 2)):
        word = tuple(
            rng.randrange(pair.algebra.dim) for _ in range(rng.randint(0, max_deg))
        )
        mono = normal_form(pair.algebra, word)
        out = out + CrossedElement.tensor(pair, mono, random_function(rng, pair))
    return out


def reference_twist(pair, g, D):
    """alpha_g(D) straight from the adjoint matrix: column j of Ad(g) is the
    image of basis vector j."""
    mat = pair.ad_point(g)
    n = len(mat)
    phi = [[mat[k][j] for k in range(n)] for j in range(n)]
    return apply_auto(pair.algebra, phi, D)


def reference_gamma(pair, f, D, h):
    """Sum over supp f of f(g) alpha_g(D) (x) L_g h, one point at a time."""
    out = CrossedElement.zero(pair)
    for g, v in f.values.items():
        twisted = reference_twist(pair, g, D)
        out = out + CrossedElement.tensor(pair, twisted, left_translate(g, h).scale(v))
    return out


def reference_product(a, b):
    pair = a.pair
    out = CrossedElement.zero(pair)
    for wa, fa in a.terms.items():
        mono_a = UEElement(pair.algebra, {wa: GR_ONE})
        for wb, fb in b.terms.items():
            mono_b = UEElement(pair.algebra, {wb: GR_ONE})
            for g, v in fa.values.items():
                twisted = ue_multiply(mono_a, reference_twist(pair, g, mono_b))
                func = left_translate(g, fb).scale(v)
                out = out + CrossedElement.tensor(pair, twisted, func)
    return out


# -- a non-abelian finite pair ------------------------------------------------


def test_s3_is_non_abelian_with_non_symmetric_adjoint(s3):
    r, s = GroupPoint(A, False), GroupPoint(B, False)
    assert s3.multiply(r, s) != s3.multiply(s, r)
    mat = s3.ad_point(r)
    assert mat != [list(col) for col in zip(*mat)]


def test_s3_ring_laws(s3):
    rng = random.Random(401)
    for _ in range(8):
        a, b, c = (random_element(rng, s3) for _ in range(3))
        ab = xp_multiply(a, b)
        assert xp_multiply(ab, c) == xp_multiply(a, xp_multiply(b, c))
        assert xp_star(ab) == xp_multiply(xp_star(b), xp_star(a))
        assert xp_star(xp_star(a)) == a


def test_s3_group_multiplier_relations(s3):
    rng = random.Random(402)
    r, s = GroupPoint(A, False), GroupPoint(B, True)
    for g, h in [(r, s), (s, r), (r, r)]:
        comp = mul_compose(mul_group(s3, g), mul_group(s3, h))
        mgh = mul_group(s3, s3.multiply(g, h))
        for _ in range(4):
            a = random_element(rng, s3)
            b = random_element(rng, s3)
            assert comp.lam(a) == mgh.lam(a)
            assert comp.rho(a) == mgh.rho(a)
            # rho(a) b = a lam(b)
            m = mul_group(s3, g)
            assert xp_multiply(m.rho(a), b) == xp_multiply(a, m.lam(b))


def test_s3_gamma_and_product_match_reference_sum(s3):
    rng = random.Random(403)
    for _ in range(6):
        f = random_function(rng, s3)
        h = random_function(rng, s3)
        word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 2)))
        D = normal_form(s3.algebra, word)
        assert gamma_integral(s3, f, D, h) == reference_gamma(s3, f, D, h)
        a = random_element(rng, s3)
        b = random_element(rng, s3)
        assert xp_multiply(a, b) == reference_product(a, b)


# -- twist_split -------------------------------------------------------------


@pytest.mark.parametrize("name", ["z2odd", "s3"])
def test_finite_twist_split(name, request):
    pair = request.getfixturevalue(name)
    rng = random.Random(404)
    for _ in range(10):
        f = random_function(rng, pair, density=0.6)
        total = FiniteFunction(pair)
        for g, piece in f.twist_split():
            assert all(pair.ad_point(p) == pair.ad_point(g) for p in piece.support())
            total = total + piece
        assert total == f


def test_line_twist_split(hcline):
    f = GaussianPoly(
        GaussianPoly.gaussian(1.0, 0.3, (1.0, 0.5j)).plus,
        GaussianPoly.gaussian(2.0, -0.2, (0.25,)).plus,
    )
    split = f.twist_split()
    assert [g for g, _ in split] == [GroupPoint(0, False), GroupPoint(0, True)]
    total = GaussianPoly()
    for g, piece in split:
        components = [eps for eps, terms in ((False, piece.plus), (True, piece.eps)) if terms]
        assert components == [g.eps]
        for t in (Fraction(-3, 2), Fraction(0), Fraction(7, 4)):
            assert hcline.ad_point(GroupPoint(t, g.eps)) == hcline.ad_point(g)
        total = total + piece
    assert total == f
    only_eps = GaussianPoly((), f.eps)
    assert [g for g, _ in only_eps.twist_split()] == [GroupPoint(0, True)]


def test_line_twist_split_clears_negative_zero_parts(hcline):
    """The pieces are merged again, and the merge's sum from 0j turns the
    -0.0 parts that a conjugate leaves into 0.0; without it, the star of
    x (x) -e^{-t^2} would carry, and the CLI print, a -0.0 real part."""
    f = GaussianPoly.gaussian(1.0, 0.0, (-1.0,)).conjugate()
    assert f.plus[0].coeffs[0].imag.hex() == "-0x0.0p+0"
    [(_, piece)] = f.twist_split()
    assert [c.imag.hex() for c in piece.plus[0].coeffs] == ["0x0.0p+0"]
    x = UEElement.generator(hcline.algebra, hcline.algebra.basis_names.index("x"))
    a = CrossedElement.tensor(hcline, x, GaussianPoly.gaussian(1.0, 0.0, (-1.0,)))
    [star] = xp_star(a).terms.values()
    assert [(c.real.hex(), c.imag) for c in star.plus[0].coeffs] == [("0x0.0p+0", 1.0)]


# -- the twist memo ----------------------------------------------------------


def test_twist_memo_outside_equality_hash_and_repr():
    p1, p2 = make_s3(), make_s3()
    rng1, rng2 = random.Random(405), random.Random(405)
    a1, b1 = random_element(rng1, p1), random_element(rng1, p1)
    a2, b2 = random_element(rng2, p2), random_element(rng2, p2)
    prod1 = xp_multiply(a1, b1)
    assert p1.twist_memo and not p2.twist_memo
    assert p1 == p2 and hash(p1) == hash(p2)
    assert "twist_memo" not in repr(p1)
    assert xp_multiply(a2, b2) == prod1
    # a warm memo gives the same product as a cold one
    assert xp_multiply(a1, b1) == prod1


def test_twist_memo_is_freed_with_its_pair():
    pair = make_s3()
    rng = random.Random(406)
    a, b = random_element(rng, pair), random_element(rng, pair)
    xp_multiply(a, b)
    assert pair.twist_memo
    ref = weakref.ref(pair)
    del pair, a, b
    gc.collect()
    assert ref() is None


def test_line_twist_memo_holds_one_entry_per_adjoint_action():
    # every point of a line pair with trivial adjoint acts as the identity
    # or as epsilon, so the memo keeps at most two images of each word
    pair = load_catalog("hc").pairs["hcline"]
    f = GaussianPoly.gaussian(1.0, 0.2, (1.0, 0.5j)) + GaussianPoly.gaussian(
        2.0, -0.3, (0.25,), "eps"
    )
    a = sum(
        (CrossedElement.tensor(pair, normal_form(pair.algebra, w), f) for w in ((1,), (0, 1))),
        CrossedElement.zero(pair),
    )
    points = [GroupPoint(k / 1000, False) for k in range(1000)]
    points += [GroupPoint(k / 7, True) for k in range(-3, 4)]
    for g in points:
        out = mul_group(pair, g).lam(a)
        # the reference twists at g itself, straight from Ad(g)
        ref = CrossedElement.zero(pair)
        for w, fw in a.terms.items():
            twisted = reference_twist(pair, g, UEElement(pair.algebra, {w: GR_ONE}))
            ref = ref + CrossedElement.tensor(pair, twisted, left_translate(g, fw))
        assert out == ref
    # the twist entries are those with an empty left word
    twists = [(g, w) for left, g, w in pair.twist_memo if left == ()]
    assert {w for _, w in twists} == set(a.terms)
    assert len(twists) <= 2 * len(a.terms)


def test_memo_entries_are_twisted_products():
    # every entry (left, g, right) is NF(left alpha_g(right)), with
    # alpha_g formed straight from Ad(g)
    pair = make_s3()
    rng = random.Random(401)
    for _ in range(8):
        a, b, c = (random_element(rng, pair) for _ in range(3))
        ab = xp_multiply(a, b)
        xp_multiply(ab, c)
        xp_multiply(a, xp_multiply(b, c))
        xp_multiply(xp_star(b), xp_star(a))
    assert any(left for left, _, _ in pair.twist_memo)
    for (left, g, right), entry in pair.twist_memo.items():
        mono = UEElement(pair.algebra, {right: GR_ONE})
        ref = ue_multiply(UEElement(pair.algebra, {left: GR_ONE}), reference_twist(pair, g, mono))
        assert entry == ref


@pytest.mark.parametrize("name", ["z2odd", "s3"])
def test_a_vanishing_product_takes_no_convolution(name, request, monkeypatch):
    # y1 alpha_g(y1) = +-y1 y1 = 0 where Ad(g) maps y1 to +-y1, as
    # [y1, y1] = 0 on both pairs; every point of z2odd does so, and on s3
    # only the points that move y1 leave a product to convolve
    pair = request.getfixturevalue(name)
    rng = random.Random(407)
    y1 = UEElement.generator(pair.algebra, 0)
    f, h = (random_function(rng, pair, density=1.0) for _ in range(2))
    moving = [g for g in f.support() if pair.ad_point(g)[0][0] == 0]
    calls = []
    convolve = crossed.convolve
    monkeypatch.setattr(crossed, "convolve", lambda f, h: calls.append(1) or convolve(f, h))
    xp_multiply(CrossedElement.tensor(pair, y1, f), CrossedElement.tensor(pair, y1, h))
    assert len(calls) == len(moving) == (0 if name == "z2odd" else 8)


def supergroup_calls(run):
    """The Supergroup methods, properties and generated dunders that ``run()``
    enters, by name."""
    codes = {}
    for name, member in vars(Supergroup).items():
        for attr in ("fget", "func"):  # a property, a cached_property
            member = getattr(member, attr, member)
        if hasattr(member, "__code__"):
            codes[member.__code__] = name
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def hcline_elements():
    """The hc catalog's elements and one with both components, over hcline."""
    ws = load_catalog("hc")
    pair = ws.pairs["hcline"]
    bump = CrossedElement.tensor(pair, normal_form(pair.algebra, (0, 1)), ws.functions["bump"])
    return pair, [*ws.elements.values(), bump]


def test_a_warm_product_calls_no_supergroup_method(s3):
    # a memo hit reads its key as given: the pair is not asked to map it
    rng = random.Random(408)
    pools = [hcline_elements()[1], [random_element(rng, s3) for _ in range(4)]]

    def run():
        for pool in pools:
            for a in pool:
                for b in pool:
                    xp_multiply(a, b)

    run()
    assert supergroup_calls(run) == []


def test_line_twist_keys_are_the_identity_and_epsilon():
    # every twisting caller keys a line twist by (0, eps), whatever the point
    pair, elements = hcline_elements()
    f, h = elements[-1].terms[(0, 1)], elements[0].terms[()]
    points = [GroupPoint(Fraction(k, 8), k % 2 == 1) for k in range(-12, 13)]
    points += [GroupPoint(k / 3, k < 0) for k in range(-4, 5)]
    for a in elements:
        for b in elements:
            xp_multiply(a, b)
        xp_star(a)
        mul_lie(pair, 1).rho(a)
        for g in points:
            mul_group(pair, g).lam(a)
    for w in ((), (1,), (0, 1)):
        gamma_integral(pair, f, normal_form(pair.algebra, w), h)
    assert {g for _, g, _ in pair.twist_memo} == {(0, False), (0, True)}
    assert {type(g.base) for _, g, _ in pair.twist_memo} == {int}
