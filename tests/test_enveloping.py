"""Normal forms, confluence, associativity and the formal adjoint."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superrep.enveloping import (
    DECL_ORDER,
    ODD_MAJOR_ORDER,
    UEElement,
    apply_auto,
    check_automorphism,
    dagger,
    normal_form,
    parity_flip,
    ue_multiply,
)
from superrep.errors import MismatchError, StructureError
from superrep.scalars import GR_HALF, GR_I, GR_ONE, GaussianRational
from superrep.superalgebra import ODD, build_superalgebra


def random_word(rng, algebra, max_len=6):
    return tuple(rng.randrange(algebra.dim) for _ in range(rng.randint(0, max_len)))


def random_element(rng, algebra, terms=3, max_len=4):
    out = UEElement.zero(algebra)
    for _ in range(terms):
        coeff = GaussianRational(
            Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        )
        out = out + normal_form(algebra, random_word(rng, algebra, max_len), coeff)
    return out


def test_hc_basic_normal_forms(hc):
    z, x = 0, 1
    # x z -> z x  (z central)
    assert normal_form(hc, (x, z)).terms == {(z, x): GR_ONE}
    # x x -> (1/2) z
    assert normal_form(hc, (x, x)).terms == {(z,): GR_HALF}
    # x x x -> (1/2) z x
    assert normal_form(hc, (x, x, x)).terms == {(z, x): GR_HALF}


def test_normal_form_is_normal(hc2, rng):
    for _ in range(50):
        w = random_word(rng, hc2)
        nf = normal_form(hc2, w)
        for word in nf.terms:
            assert list(word) == sorted(word)
            for i in word:
                if hc2.parity[i] == ODD:
                    assert word.count(i) <= 1


def test_confluence_200_random_words(workspace):
    rng = random.Random(11)
    algebras = [workspace.algebras[n] for n in ("hc", "hc2", "gl11", "podd")]
    for case in range(200):
        algebra = algebras[case % len(algebras)]
        w = random_word(rng, algebra)
        for order in (DECL_ORDER, ODD_MAJOR_ORDER):
            left = normal_form(algebra, w, order=order, strategy="left")
            right = normal_form(algebra, w, order=order, strategy="right")
            assert left.terms == right.terms, (algebra.name, w, order)


@pytest.mark.parametrize("name", ["gl11", "hc2"])
@given(data=st.data())
def test_confluence_property(workspace, name, data):
    # Bergman's diamond lemma: both reduction strategies reach one normal form
    algebra = workspace.algebras[name]
    word = data.draw(st.lists(st.integers(0, algebra.dim - 1), max_size=6), label="word")
    coeff = GaussianRational(data.draw(st.fractions(max_denominator=12), label="re"),
                             data.draw(st.fractions(max_denominator=12), label="im"))
    for order in (DECL_ORDER, ODD_MAJOR_ORDER):
        left = normal_form(algebra, word, coeff, order=order, strategy="left")
        right = normal_form(algebra, word, coeff, order=order, strategy="right")
        assert left.terms == right.terms


def test_orders_agree_after_reordering(hc2, rng):
    # the two PBW bases present the same element: compare products of
    # generators evaluated in each basis against a shared probe
    for _ in range(40):
        w = random_word(rng, hc2)
        decl = normal_form(hc2, w, order=DECL_ORDER)
        oddm = normal_form(hc2, w, order=ODD_MAJOR_ORDER)
        # re-expand the odd-major form in declaration order
        back = UEElement.zero(hc2)
        for word, c in oddm.terms.items():
            back = back + normal_form(hc2, word, c, order=DECL_ORDER)
        assert back.terms == decl.terms


def test_associativity_200_triples(workspace):
    rng = random.Random(12)
    algebras = [workspace.algebras[n] for n in ("hc", "hc2", "gl11")]
    for case in range(200):
        algebra = algebras[case % len(algebras)]
        a = random_element(rng, algebra, terms=2, max_len=4)
        b = random_element(rng, algebra, terms=2, max_len=3)
        c = random_element(rng, algebra, terms=2, max_len=3)
        assert ue_multiply(ue_multiply(a, b), c) == ue_multiply(a, ue_multiply(b, c))


def test_dagger_on_generators(hc):
    z, x = 0, 1
    assert dagger(UEElement.generator(hc, z)).terms == {(z,): -GR_ONE}
    assert dagger(UEElement.generator(hc, x)).terms == {(x,): -GR_I}


def test_dagger_involutive_and_antimultiplicative(hc2, rng):
    for _ in range(60):
        a = random_element(rng, hc2)
        b = random_element(rng, hc2)
        assert dagger(dagger(a)) == a
        assert dagger(ue_multiply(a, b)) == ue_multiply(dagger(b), dagger(a))


def test_dagger_consistency_on_odd_square(hc):
    x = UEElement.generator(hc, 1)
    lhs = dagger(ue_multiply(x, x))
    rhs = ue_multiply(dagger(x), dagger(x))
    assert lhs == rhs
    # and both equal -(1/2) z
    assert lhs.terms == {(0,): -GR_HALF}


def test_rotation_automorphism(hc2):
    zero = Fraction(0)
    phi = [
        [Fraction(1), zero, zero],
        [zero, Fraction(3, 5), Fraction(4, 5)],
        [zero, Fraction(-4, 5), Fraction(3, 5)],
    ]
    report = check_automorphism(hc2, phi)
    assert report.ok
    # the center is fixed, and the quadratic relation is preserved
    x1 = UEElement.generator(hc2, 1)
    image = apply_auto(hc2, phi, ue_multiply(x1, x1))
    assert image.terms == {(0,): GR_HALF}


def test_rotation_commutes_with_multiplication(hc2, rng):
    zero = Fraction(0)
    phi = [
        [Fraction(1), zero, zero],
        [zero, Fraction(3, 5), Fraction(4, 5)],
        [zero, Fraction(-4, 5), Fraction(3, 5)],
    ]
    for _ in range(25):
        a = random_element(rng, hc2, terms=2, max_len=3)
        b = random_element(rng, hc2, terms=2, max_len=3)
        lhs = apply_auto(hc2, phi, ue_multiply(a, b))
        rhs = ue_multiply(apply_auto(hc2, phi, a), apply_auto(hc2, phi, b))
        assert lhs == rhs


def test_rational_map_report_matches_its_gaussian_one(hc2):
    """A Fraction map gives the report of the same map given in Gaussian
    rationals."""
    zero = Fraction(0)
    maps = {
        "rotation": [[Fraction(1), zero, zero],
                     [zero, Fraction(3, 5), Fraction(4, 5)],
                     [zero, Fraction(-4, 5), Fraction(3, 5)]],
        "scaling": [[Fraction(1), zero, zero],
                    [zero, Fraction(2), zero],
                    [zero, zero, Fraction(1)]],
        "parity": [[Fraction(1), Fraction(1), zero],
                   [zero, Fraction(1), zero],
                   [zero, zero, Fraction(1)]],
    }
    as_gaussian = {
        name: [[GaussianRational.of(c) for c in row] for row in phi]
        for name, phi in maps.items()
    }
    expected = {name: check_automorphism(hc2, phi).to_dict() for name, phi in as_gaussian.items()}
    assert not expected["scaling"]["ok"] and not expected["parity"]["ok"]
    for name, phi in maps.items():
        assert check_automorphism(hc2, phi).to_dict() == expected[name]


def test_broken_map_rejected(hc2):
    zero = Fraction(0)
    phi = [
        [Fraction(1), zero, zero],
        [zero, Fraction(2), zero],  # scales x1 without scaling z
        [zero, zero, Fraction(1)],
    ]
    assert not check_automorphism(hc2, phi).ok
    with pytest.raises(StructureError, match="bracket_homomorphism"):
        apply_auto(hc2, phi, UEElement.generator(hc2, 1))


def test_parity_flip_is_bracket_automorphism(hc2, rng):
    for _ in range(20):
        a = random_element(rng, hc2, terms=2, max_len=3)
        b = random_element(rng, hc2, terms=2, max_len=3)
        assert parity_flip(ue_multiply(a, b)) == ue_multiply(
            parity_flip(a), parity_flip(b)
        )


def rebuild(algebra):
    """An equal algebra built separately, with its own empty memo."""
    return build_superalgebra(
        algebra.name, algebra.basis_names, algebra.parity, algebra.constants
    )


def test_straighten_memo_freed_with_algebra(workspace):
    algebra = rebuild(workspace.algebras["gl11"])
    a = normal_form(algebra, (3, 2, 1, 0, 3))
    ue_multiply(a, dagger(a))
    ref = weakref.ref(algebra)
    del algebra, a
    gc.collect()
    assert ref() is None


def test_straighten_memo_outside_hash_and_equality(workspace):
    rng = random.Random(13)
    algebra = rebuild(workspace.algebras["gl11"])
    twin = rebuild(algebra)
    before = hash(algebra), repr(algebra)
    assert algebra == twin and hash(twin) == before[0]
    words = [random_word(rng, algebra) for _ in range(40)]
    for order in (DECL_ORDER, ODD_MAJOR_ORDER):
        for w in words:
            here = normal_form(algebra, w, order=order)
            assert normal_form(twin, w, order=order).terms == here.terms
    assert algebra.straighten_memo is not twin.straighten_memo
    assert len(twin.straighten_memo) == len(algebra.straighten_memo) > 0
    assert (hash(algebra), repr(algebra)) == before
    assert algebra == twin and hash(twin) == before[0]


@pytest.mark.parametrize("name", ["hc", "podd", "hc2", "gl11", "affine2", "oddcenter"])
def test_scalar_and_additive_operations(workspace, name):
    algebra = workspace.algebras[name]
    rng = random.Random(f"ops-{name}")
    for _ in range(20):
        a = random_element(rng, algebra)
        b = random_element(rng, algebra)
        assert a - b == a + b.scale(-1)
        assert (a - a).is_zero() and (a - b) + b == a
        assert -(-a) == a and -a == a.scale(-1)
        assert 2 * a == a * 2 == a.scale(2) == a + a
        assert a * b == ue_multiply(a, b)
        assert a.scale(0).is_zero() and (0 * a).is_zero()
        assert a.is_zero() == (a == UEElement.zero(algebra)) == (not a.terms)


def test_equality_compares_the_order(hc):
    # x is normal in both orders, so only the order tells the two apart
    x = hc.basis_names.index("x")
    decl = normal_form(hc, (x,))
    odd_major = normal_form(hc, (x,), order=ODD_MAJOR_ORDER)
    assert decl.terms == odd_major.terms
    assert decl != odd_major and not decl == odd_major
    assert decl == normal_form(hc, (x,)) == UEElement.generator(hc, x)
    assert odd_major == normal_form(hc, (x,), order=ODD_MAJOR_ORDER)
    with pytest.raises(MismatchError, match="different PBW orders"):
        decl - odd_major


@pytest.mark.parametrize("call, error, message", [
    (lambda ws: normal_form(ws.algebras["hc"], (1, 0), order="bogus"),
     ValueError, "unknown basis order 'bogus'"),
    (lambda ws: UEElement.unit(ws.algebras["hc"]) + UEElement.unit(ws.algebras["podd"]),
     MismatchError, "elements live over different algebras"),
    (lambda ws: UEElement.unit(ws.algebras["hc"])
     + UEElement.unit(ws.algebras["hc"], ODD_MAJOR_ORDER),
     MismatchError, "elements use different PBW orders"),
    (lambda ws: normal_form(ws.algebras["hc"], (0, 2)),
     StructureError, "basis index 2 out of range"),
    (lambda ws: check_automorphism(ws.algebras["hc"], [[1, 0]]).raise_if_failed(),
     StructureError,
     "automorphism failed validation: shape: expected 2 image vectors of length 2"),
    (lambda ws: UEElement.from_vector(ws.algebras["hc"], [1]),
     StructureError, "expected 2 coordinates, got 1"),
    (lambda ws: UEElement.from_vector(ws.algebras["hc"], [0, 0, 1]),
     StructureError, "expected 2 coordinates, got 3"),
], ids=["unknown-order", "sum-of-two-algebras", "sum-of-two-orders", "index-out-of-range",
        "automorphism-shape", "short-vector", "long-vector"])
def test_enveloping_refusals(workspace, call, error, message):
    with pytest.raises(error) as exc:
        call(workspace)
    assert str(exc.value) == message
