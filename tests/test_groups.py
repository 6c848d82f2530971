from fractions import Fraction
from math import factorial

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
    assert hcline.line_ad_terms == ()
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
    group = GroupData(finite=fg, ad_matrices=(ident, ident))
    report = validate_pair(Supergroup("bad", group, hc))
    assert any(c.name == "even_part_trivial" for c in report.failures())


def test_ad_must_be_homomorphism(podd):
    fg = FiniteGroup("z2", ("e", "s"), ((0, 1), (1, 0)))
    # Ad(s) = 2 is parity-preserving and bracket-preserving (brackets vanish)
    # but Ad(s)^2 != Ad(e)
    group = GroupData(finite=fg, ad_matrices=(((Fraction(1),),), ((Fraction(2),),)))
    report = validate_pair(Supergroup("bad", group, podd))
    assert any(c.name == "ad_homomorphism" for c in report.failures())


def test_line_pair_rejects_odd_generator():
    alg = build_superalgebra(
        "flip", ["z", "x"], [0, 1], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    )
    group = GroupData(generator_name="x")
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
    return build_pair("heis3line", GroupData(generator_name="z"), alg)


def test_line_one_parameter_exponential():
    pair = heis3_line_pair()
    assert pair.line_ad_terms != ()
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



def hc_finite_pair(name, *ad_rest):
    """The hc algebra (z even, x odd, [x,x] = z) under a cyclic group whose
    non-identity elements act by the given 2x2 matrices."""
    alg = build_superalgebra("hc", ["z", "x"], [0, 1], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
    size = len(ad_rest) + 1
    names = ("e", "a", "b")[:size]
    table = tuple(tuple((i + j) % size for j in range(size)) for i in range(size))
    ident = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    mats = (ident,) + tuple(
        tuple(tuple(Fraction(v) for v in row) for row in mat) for mat in ad_rest
    )
    group = GroupData(finite=FiniteGroup("cyc", names, table), ad_matrices=mats)
    return Supergroup(name, group, alg)


def report_rows(report):
    return [(c.name, c.ok, c.detail) for c in report.checks]


EVEN_PART = "a finite group has a zero Lie algebra but the even part is nonzero"


def test_finite_ad_parity_and_bracket_details():
    swap = ((0, 1), (1, 0))  # mixes z and x
    neg = ((-1, 0), (0, 1))  # keeps parity, sends [x,x] = z to -z
    assert report_rows(validate_pair(hc_finite_pair("swap", swap))) == [
        ("group_table", True, ""),
        ("even_part_trivial", False, EVEN_PART),
        ("ad_shape", True, ""),
        ("ad_homomorphism", True, ""),
        ("ad_parity", False, "parity broken by elements [1]"),
        ("ad_bracket", False, "Ad(a) breaks [z,z], [x,x]"),
        ("ad_identity", True, ""),
    ]
    assert report_rows(validate_pair(hc_finite_pair("neg", neg))) == [
        ("group_table", True, ""),
        ("even_part_trivial", False, EVEN_PART),
        ("ad_shape", True, ""),
        ("ad_homomorphism", True, ""),
        ("ad_parity", True, ""),
        ("ad_bracket", False, "Ad(a) breaks [x,x]"),
        ("ad_identity", True, ""),
    ]
    rows = report_rows(validate_pair(hc_finite_pair("both", swap, neg)))
    assert rows[4:6] == [
        ("ad_parity", False, "parity broken by elements [1]"),
        ("ad_bracket", False, "Ad(a) breaks [z,z], [x,x]; Ad(b) breaks [x,x]"),
    ]


def rotation_line_pair():
    # [z, x] = y, [z, y] = -x: ad z has eigenvalues +-i and is not nilpotent
    alg = build_superalgebra(
        "rot",
        ["z", "x", "y"],
        [0, 1, 1],
        [
            [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
            [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        ],
    )
    return Supergroup("rotline", GroupData(generator_name="z"), alg)


def shear_line_pair():
    # [z, x] = y, [z, y] = w: (ad z)^2 != 0 = (ad z)^3
    alg = build_superalgebra(
        "shear",
        ["z", "x", "y", "w"],
        [0, 1, 1, 1],
        [
            [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
            [[0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        ],
    )
    return build_pair("shearline", GroupData(generator_name="z"), alg)


def test_line_pair_reports():
    rotation = rotation_line_pair()
    assert rotation.line_ad_terms is None
    with pytest.raises(UnsupportedInstanceError, match="not nilpotent"):
        rotation.ad_point(GroupPoint(Fraction(1), False))
    assert report_rows(validate_pair(rotation)) == [
        ("even_part_line", True, ""),
        ("generator_even", True, ""),
        ("ad_generator_nilpotent", False,
         "ad z is not nilpotent; the exact exponential is unavailable"),
    ]
    for pair in (heis3_line_pair(), shear_line_pair()):
        assert report_rows(validate_pair(pair)) == [
            ("even_part_line", True, ""),
            ("generator_even", True, ""),
            ("ad_generator_nilpotent", True, ""),
            ("ad_derivative_matches_bracket", True, ""),
            ("ad_parity", True, ""),
            ("ad_bracket", True, ""),
            ("ad_one_parameter", True, ""),
        ]


def truncated_exponential(pair, t):
    """Ad(exp(t z)) summed term by term from powers of ad z."""
    alg = pair.algebra
    n = alg.dim
    z = alg.index(pair.group.generator_name)
    adz = [[alg.constants[z][j][k] for j in range(n)] for k in range(n)]
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    power = [row[:] for row in out]
    for k in range(1, n + 1):
        power = mat_mul(adz, power)
        scale = Fraction(t) ** k / factorial(k)
        out = [[a + scale * b for a, b in zip(ra, rb)] for ra, rb in zip(out, power)]
    return out


def test_line_ad_matrix_matches_truncated_exponential():
    ts = (Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(5, 2), Fraction(1, 1024))
    pairs = (heis3_line_pair(), shear_line_pair())
    for pair in pairs:
        for t in ts:
            assert pair.line_ad_matrix(t) == truncated_exponential(pair, t), (pair.name, t)
    shear = pairs[1]
    # Ad(exp(t z)) x = x + t y + t^2/2 w
    assert [row[1] for row in shear.line_ad_matrix(Fraction(2))] == [0, 1, 2, 2]


def test_ad_powers_computed_once_per_pair(monkeypatch):
    import superrep.linalg as linalg

    built = shear_line_pair()
    pair = Supergroup("shear", built.group, built.algebra)  # nothing cached yet
    calls = []
    real = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
    first = pair.ad_point(GroupPoint(Fraction(1, 3), False))
    once = len(calls)
    assert 0 < once <= pair.algebra.dim
    for k in range(20):
        pair.ad_point(GroupPoint(Fraction(k, 7), k % 2 == 1))
    assert len(calls) == once
    assert pair.ad_point(GroupPoint(Fraction(1, 3), False)) == first


def test_line_point_multiplication(hcline):
    e = hcline.identity_point()
    p = GroupPoint(Fraction(1, 2), True)
    q = GroupPoint(Fraction(-3, 4), False)
    assert hcline.multiply(p, q) == GroupPoint(Fraction(-1, 4), True)
    assert hcline.multiply(p, q) == hcline.multiply(q, p)
    assert hcline.multiply(p, hcline.inverse(p)) == e
    assert hcline.multiply(e, p) == p == hcline.multiply(p, e)
    assert hcline.multiply(hcline.epsilon_point(), hcline.epsilon_point()) == e


def with_first_term_changed(pair, *entries):
    """Overwrite the cached Ad(exp tz) expansion so that M_1 differs from
    ad z at the given (row, column) entries."""
    n = pair.algebra.dim
    terms = pair.line_ad_terms or (((Fraction(0),) * n,) * n,)
    m1 = [list(row) for row in terms[0]]
    for row, col in entries:
        m1[row][col] += 1
    pair.__dict__["line_ad_terms"] = (tuple(map(tuple, m1)),) + terms[1:]
    return pair


def test_first_order_check_names_each_changed_column(hcline):
    trivial = Supergroup("fresh", hcline.group, hcline.algebra)  # nothing cached yet
    cases = [
        (with_first_term_changed(trivial, (0, 1)), "x"),
        (with_first_term_changed(heis3_line_pair(), (2, 1)), "x"),
        (with_first_term_changed(shear_line_pair(), (2, 1), (0, 2)), "x, y"),
    ]
    for pair, names in cases:
        rows = {name: (ok, detail) for name, ok, detail in report_rows(validate_pair(pair))}
        assert rows["ad_derivative_matches_bracket"] == (False, names), pair.name


NO_IDENTITY = FiniteGroup("g", ("a", "b"), ((0, 0), (0, 0)))
NO_INVERSE = FiniteGroup("g", ("e", "s"), ((0, 1), (1, 1)))


def _pair(workspace, group, algebra="podd"):
    return validate_pair(Supergroup("q", group, workspace.algebras[algebra])).raise_if_failed()


@pytest.mark.parametrize("call, error, message", [
    (lambda ws: FiniteGroup("g", ("e", "s"), ((0, 1), (1,))).validate().raise_if_failed(),
     StructureError, "group g failed validation: table_shape: "),
    (lambda ws: FiniteGroup("g", ("e", "s"), ((0, 1), (1, 2))).validate().raise_if_failed(),
     StructureError, "group g failed validation: closure: "),
    (lambda ws: NO_IDENTITY.validate().raise_if_failed(),
     StructureError, "group g failed validation: identity: no two-sided identity"),
    (lambda ws: FiniteGroup("g", ("e", "s", "t"), ((0, 1, 2), (1, 0, 0), (2, 0, 0)))
     .validate().raise_if_failed(),
     StructureError, "group g failed validation: associativity: 4 violations"),
    (lambda ws: NO_INVERSE.validate().raise_if_failed(),
     StructureError, "group g failed validation: inverses: "),
    (lambda ws: NO_IDENTITY.identity, StructureError, "group g has no identity"),
    (lambda ws: NO_INVERSE.inverse(1), StructureError, "group g: element 1 has no inverse"),
    # a failed table ends the report, so the missing adjoint matrices go unreported
    (lambda ws: _pair(ws, GroupData(finite=FiniteGroup("g", ("e", "s"), ((0, 1), (1,))))),
     StructureError, "pair q failed validation: group_table: table_shape: "),
    (lambda ws: ws.pairs["z2odd"].generator_index,
     UnsupportedInstanceError, "generator_index only exists for line groups"),
    (lambda ws: _pair(ws, GroupData(finite=ws.pairs["z2odd"].group.finite,
                                    ad_matrices=(((1,),),))),
     StructureError,
     "pair q failed validation: ad_shape: one adjoint matrix per group element required"),
    (lambda ws: _pair(ws, GroupData(generator_name="w"), "hc"),
     StructureError, "pair q failed validation: generator: hc: unknown basis element 'w'"),
    (lambda ws: _pair(ws, GroupData(finite=ws.pairs["z2odd"].group.finite,
                                    ad_matrices=ws.pairs["z2odd"].group.ad_matrices,
                                    generator_name="x")),
     StructureError, "pair q failed validation: group_table: finite pair takes no generator"),
    (lambda ws: _pair(ws, GroupData(generator_name="z", ad_matrices=(((1,),),)), "hc"),
     StructureError, "pair q failed validation: generator: line pair takes no adjoint matrices"),
], ids=["table-shape", "not-closed", "no-identity", "not-associative", "no-inverse",
        "identity-of-table-without-one", "inverse-of-element-without-one",
        "pair-with-bad-table", "generator-index-on-finite-pair", "ad-shape", "unknown-generator",
        "finite-with-generator", "line-with-ad-matrices"])
def test_groups_refusals(workspace, call, error, message):
    with pytest.raises(error) as exc:
        call(workspace)
    assert str(exc.value) == message


# each combination of GroupData's fields on two algebras: hc (z even, x odd)
# and podd (x odd); the finite group is z2odd's, acting by identities
KIND_CASES = [
    ("hc", "", LINE, ["generator"]),
    ("hc", "generator_name", LINE, []),
    ("hc", "ad_matrices", LINE, ["generator"]),
    ("hc", "ad_matrices generator_name", LINE, ["generator"]),
    ("hc", "finite", FINITE, ["even_part_trivial", "ad_shape"]),
    ("hc", "finite generator_name", FINITE, ["group_table"]),
    ("hc", "finite ad_matrices", FINITE, ["even_part_trivial"]),
    ("hc", "finite ad_matrices generator_name", FINITE, ["group_table"]),
    ("podd", "", LINE, ["even_part_line", "generator"]),
    ("podd", "generator_name", LINE, ["even_part_line", "generator"]),
    ("podd", "ad_matrices", LINE, ["even_part_line", "generator"]),
    ("podd", "ad_matrices generator_name", LINE, ["even_part_line", "generator"]),
    ("podd", "finite", FINITE, ["ad_shape"]),
    ("podd", "finite generator_name", FINITE, ["group_table"]),
    ("podd", "finite ad_matrices", FINITE, []),
    ("podd", "finite ad_matrices generator_name", FINITE, ["group_table"]),
]


@pytest.mark.parametrize("algebra, fields, kind, failing", KIND_CASES,
                         ids=[f"{a}-{f.replace(' ', '+') or 'none'}" for a, f, *_ in KIND_CASES])
def test_the_kind_is_read_off_the_fields(workspace, algebra, fields, kind, failing):
    alg = workspace.algebras[algebra]
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(alg.dim)) for i in range(alg.dim))
    given = {"finite": workspace.pairs["z2odd"].group.finite, "ad_matrices": (ident, ident),
             "generator_name": "z"}
    group = GroupData(**{name: given[name] for name in fields.split()})
    assert group.kind == kind
    report = validate_pair(Supergroup("q", group, alg))
    assert [c.name for c in report.failures()] == failing
