from fractions import Fraction

import pytest

from superrep.errors import StructureError, UnsupportedInstanceError
from superrep.groups import (
    FINITE,
    LINE,
    FiniteGroup,
    GroupData,
    GroupPoint,
    Supergroup,
    build_pair,
    validate_pair,
)
from superrep.linalg import mat_mul
from superrep.superalgebra import ODD, build_superalgebra


def test_catalog_pairs_validate(workspace):
    for name, pair in workspace.pairs.items():
        report = validate_pair(pair)
        assert report.ok, f"{name}: {[c.name for c in report.failures()]}"


def test_epsilon_extension_group_law(z2odd):
    e = z2odd.identity_point()
    eps = z2odd.epsilon_point()
    s = GroupPoint(1, False)
    assert z2odd.multiply(eps, eps) == e
    assert z2odd.multiply(s, s) == e
    # eps is central
    seps = z2odd.multiply(s, eps)
    assert z2odd.multiply(eps, s) == seps
    assert z2odd.inverse(seps) == seps


def test_eps_acts_as_parity_flip(z2odd):
    mat = z2odd.ad_point(z2odd.epsilon_point())
    assert mat == [[Fraction(-1)]]  # the only basis element is odd


def test_line_ad_trivial_for_central_generator(hcline):
    assert hcline.line_ad_is_trivial()
    mat = hcline.ad_point(GroupPoint(Fraction(7, 3), False))
    n = hcline.algebra.dim
    assert mat == [
        [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)
    ]


def test_line_points_not_enumerable(hcline):
    with pytest.raises(UnsupportedInstanceError):
        list(hcline.points())


def test_bad_cayley_table_rejected():
    fg = FiniteGroup("broken", ("e", "s"), ((0, 1), (1, 1)))
    report = fg.validate()
    assert not report.ok


def test_finite_pair_needs_trivial_even_part(hc):
    fg = FiniteGroup("z2", ("e", "s"), ((0, 1), (1, 0)))
    ident = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(2)) for i in range(2)
    )
    group = GroupData(FINITE, "z2", finite=fg, ad_matrices=(ident, ident))
    report = validate_pair(Supergroup("bad", group, hc))
    assert any(c.name == "even_part_trivial" for c in report.failures())


def test_ad_must_be_homomorphism(podd):
    fg = FiniteGroup("z2", ("e", "s"), ((0, 1), (1, 0)))
    # Ad(s) = 2 is parity-preserving and bracket-preserving (brackets vanish)
    # but Ad(s)^2 != Ad(e)
    group = GroupData(
        FINITE,
        "z2",
        finite=fg,
        ad_matrices=(((Fraction(1),),), ((Fraction(2),),)),
    )
    report = validate_pair(Supergroup("bad", group, podd))
    assert any(c.name == "ad_homomorphism" for c in report.failures())


def test_line_pair_rejects_odd_generator():
    alg = build_superalgebra(
        "flip", ["z", "x"], [0, 1], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    )
    group = GroupData(LINE, "line", generator_name="x")
    report = validate_pair(Supergroup("bad", group, alg))
    assert any(c.name == "generator_even" for c in report.failures())


def heis3_line_pair():
    # a line pair whose generator acts nontrivially but nilpotently:
    # [z, x] = y, [z, y] = 0 with x, y odd
    alg = build_superalgebra(
        "heis3",
        ["z", "x", "y"],
        [0, 1, 1],
        [
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        ],
    )
    return build_pair("heis3line", GroupData(LINE, "line", generator_name="z"), alg)


def test_line_one_parameter_exponential():
    pair = heis3_line_pair()
    assert not pair.line_ad_is_trivial()
    m = pair.line_ad_matrix(Fraction(1, 2))
    # Ad(exp(t z)) x = x + t y exactly
    assert [row[1] for row in m] == [Fraction(0), Fraction(1), Fraction(1, 2)]


def eps_reference(pair, p):
    """Ad(g) times diag(+-1), the parity matrix, by plain matrix product."""
    if pair.group.kind == FINITE:
        mat = [list(r) for r in pair.group.ad_matrices[p.base]]
    else:
        mat = pair.line_ad_matrix(Fraction(p.base))
    if not p.eps:
        return mat
    n = pair.algebra.dim
    flip = [
        [Fraction(-1 if pair.algebra.parity[i] == ODD else 1) if i == j else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]
    return mat_mul(mat, flip)


def test_ad_point_matches_parity_product(workspace):
    finite = [pair for pair in workspace.pairs.values() if pair.group.kind == FINITE]
    assert finite
    cases = [(pair, p) for pair in finite for p in pair.points()]
    ts = (Fraction(0), Fraction(7, 3), Fraction(-5, 2))
    for pair in (workspace.pairs["hcline"], heis3_line_pair()):
        cases += [(pair, GroupPoint(t, eps)) for t in ts for eps in (False, True)]
    for pair, p in cases:
        expected = eps_reference(pair, p)
        assert pair.ad_point(p) == expected, (pair.name, p)
        mat = pair.ad_point(p)
        mat[0][0] += 1
        mat[-1].append(Fraction(9))
        assert pair.ad_point(p) == expected, (pair.name, p)

