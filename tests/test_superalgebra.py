from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superrep import linalg
from superrep.catalog import load_catalog
from superrep.enveloping import check_automorphism
from superrep.errors import MismatchError, StructureError
from superrep.scalars import GR_ZERO, GaussianRational
from superrep.superalgebra import (
    SuperAlgebra,
    build_superalgebra,
    is_nilpotent,
    is_odd_generated,
    lower_central_series,
    validate_superalgebra,
)
from superrep.validation import ValidationReport


def test_catalog_algebras_validate(workspace):
    for name, alg in workspace.algebras.items():
        report = validate_superalgebra(alg)
        assert report.ok, f"{name}: {[c.name for c in report.failures()]}"


def test_skew_violation_reported():
    # [a, b] = c but [b, a] = c as well: breaks even-even skew-symmetry
    from superrep.superalgebra import SuperAlgebra

    z = Fraction(0)
    one = Fraction(1)
    bad = SuperAlgebra(
        "bad",
        ("a", "b", "c"),
        (0, 0, 0),
        (
            ((z, z, z), (z, z, one), (z, z, z)),
            ((z, z, one), (z, z, z), (z, z, z)),
            ((z, z, z), (z, z, z), (z, z, z)),
        ),
    )
    report = validate_superalgebra(bad)
    failed = [c.name for c in report.failures()]
    assert "super_skew_symmetry" in failed
    assert "[a,b]" in report.failures()[0].detail


def test_jacobi_violation_reported():
    from superrep.superalgebra import SuperAlgebra

    z = Fraction(0)
    one = Fraction(1)
    # [a,b]=c, [b,c]=a, [c,a]=a: skew fine, Jacobi broken
    bad = SuperAlgebra(
        "badj",
        ("a", "b", "c"),
        (0, 0, 0),
        (
            ((z, z, z), (z, z, one), (-one, z, z)),
            ((z, z, -one), (z, z, z), (one, z, z)),
            ((one, z, z), (-one, z, z), (z, z, z)),
        ),
    )
    report = validate_superalgebra(bad)
    assert not report.ok
    assert any(c.name == "graded_jacobi" for c in report.failures())


def test_parity_violation_reported():
    from superrep.superalgebra import SuperAlgebra

    z = Fraction(0)
    one = Fraction(1)
    # odd bracket landing in an odd element
    bad = SuperAlgebra(
        "badp",
        ("x", "y"),
        (1, 1),
        (((z, one), (z, z)), ((z, z), (z, z))),
    )
    report = validate_superalgebra(bad)
    assert any(c.name == "parity_compatibility" for c in report.failures())


def test_build_rejects_invalid():
    with pytest.raises(StructureError):
        build_superalgebra("bad", ["x"], [1], [[[1]]])  # [x,x] = x is odd


def test_lower_central_series_hc(hc):
    assert lower_central_series(hc) == [2, 1, 0]


def test_predicates_catalog(workspace):
    expected = {
        "hc": (True, True),
        "hc2": (True, True),
        "podd": (True, True),
        "oddcenter": (True, False),
        "gl11": (False, False),
        "affine2": (False, False),
    }
    for name, (nilp, oddgen) in expected.items():
        alg = workspace.algebras[name]
        assert is_nilpotent(alg) is nilp, name
        assert is_odd_generated(alg) is oddgen, name


def test_bracket_bilinearity(hc2, rng):
    from superrep.scalars import GaussianRational

    n = hc2.dim
    for _ in range(20):
        u = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        w = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        uw, vw = hc2.bracket(u, w), hc2.bracket(v, w)
        assert hc2.bracket([a + b for a, b in zip(u, v)], w) == [
            a + b for a, b in zip(uw, vw)
        ]
        assert hc2.bracket(w, [a + b for a, b in zip(u, v)]) == [
            a + b for a, b in zip(hc2.bracket(w, u), hc2.bracket(w, v))
        ]
        assert hc2.bracket([lam * a for a in u], w) == [lam * a for a in uw]
        assert all(type(c) is Fraction for c in uw)
        # Gaussian-rational coordinates give the same bracket, as Gaussian
        # rationals; an imaginary factor comes out in front
        gu = [GaussianRational.of(a) for a in u]
        gw = [GaussianRational.of(a) for a in w]
        assert hc2.bracket(gu, gw) == [GaussianRational.of(a) for a in uw]
        assert hc2.bracket(u, gw) == hc2.bracket(gu, w) == hc2.bracket(gu, gw)
        iu = [GaussianRational(0, a) for a in u]
        assert hc2.bracket(iu, gw) == [GaussianRational(0, a) for a in uw]


def test_repeated_basis_name_refused():
    with pytest.raises(StructureError, match="basis names must be distinct"):
        build_superalgebra("a", ["x", "x"], [1, 1], [[[0, 0]] * 2] * 2)


# -- the report against the triple loop it must keep matching ----------------


def _reference_sign(p: int, q: int) -> int:
    return -1 if (p and q) else 1


def _reference_validate(algebra):
    """A verbatim copy of the three-loop validator, in exact Fractions over
    every coordinate; any faster validator must give the same report."""
    report = ValidationReport(f"superalgebra {algebra.name}")
    n = algebra.dim
    names = algebra.basis_names
    par = algebra.parity

    skew_bad = []
    for i in range(n):
        for j in range(n):
            lhs = algebra.constants[i][j]
            rhs = algebra.constants[j][i]
            s = _reference_sign(par[i], par[j])
            if any(a + s * b != 0 for a, b in zip(lhs, rhs)):
                skew_bad.append(f"[{names[i]},{names[j]}]")
    report.add(
        "super_skew_symmetry",
        not skew_bad,
        "" if not skew_bad else "violated for " + ", ".join(skew_bad),
    )

    parity_bad = []
    for i in range(n):
        for j in range(n):
            target = (par[i] + par[j]) % 2
            for k in range(n):
                if algebra.constants[i][j][k] != 0 and par[k] != target:
                    parity_bad.append(f"[{names[i]},{names[j]}] -> {names[k]}")
    report.add(
        "parity_compatibility",
        not parity_bad,
        "" if not parity_bad else "violated for " + ", ".join(parity_bad),
    )

    jacobi_bad = []
    basis_vec = linalg.identity_matrix(n)
    const = algebra.constants  # const[j][k] is [b_j, b_k]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = algebra.bracket(basis_vec[i], const[j][k])
                t2 = algebra.bracket(basis_vec[j], const[k][i])
                t3 = algebra.bracket(basis_vec[k], const[i][j])
                s1 = _reference_sign(par[i], par[k])
                s2 = _reference_sign(par[j], par[i])
                s3 = _reference_sign(par[k], par[j])
                total = [s1 * a + s2 * b + s3 * c for a, b, c in zip(t1, t2, t3)]
                if any(v != 0 for v in total):
                    jacobi_bad.append(f"({names[i]},{names[j]},{names[k]})")
    report.add(
        "graded_jacobi",
        not jacobi_bad,
        "" if not jacobi_bad else "violated on triples " + ", ".join(jacobi_bad),
    )
    return report


_SHIPPED = [a for a in load_catalog().algebras.values() if 1 <= a.dim <= 4]
_SCALARS = st.sampled_from([Fraction(v) for v in (1, -1, 2, "1/2", "-3/4", "5/3", "7/10")])


@st.composite
def _algebras(draw):
    """A shipped algebra or a random super-skew table of dimension 1-4, then
    a few edits: a flipped parity, an entry set on both skew partners (which
    breaks Jacobi or parity), or on one partner only (which breaks skew)."""
    base = draw(st.sampled_from(_SHIPPED + [None]))
    if base is None:
        n = draw(st.integers(1, 4))
        parity = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    if draw(st.integers(0, 3)) == 0:
                        c = draw(_SCALARS)
                        table[i][j][k] = c
                        table[j][i][k] = -_reference_sign(parity[i], parity[j]) * c
    else:
        n, parity = base.dim, list(base.parity)
        table = [[list(vec) for vec in row] for row in base.constants]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["parity", "both", "one"]))
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if edit == "parity":
            parity[i] ^= 1
            continue
        c = draw(_SCALARS)
        table[i][j][k] += c
        if edit == "both" and i != j:
            table[j][i][k] -= _reference_sign(parity[i], parity[j]) * c
    names = tuple(f"b{i}" for i in range(n))
    return SuperAlgebra("drawn", names, tuple(parity),
                        tuple(tuple(tuple(vec) for vec in row) for row in table))


@settings(max_examples=300)
@given(_algebras())
def test_report_matches_the_triple_loop(algebra):
    assert validate_superalgebra(algebra).to_dict() == _reference_validate(algebra).to_dict()


# -- the table of nonzero constants against the dense table ------------------


def _dense_bracket(algebra, u, v):
    """The bracket read off the dense table, zero entries skipped by hand."""
    out = [u[0] * v[0] * 0] * algebra.dim if algebra.dim else []
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            for k, c in enumerate(algebra.constants[i][j]):
                if a and b and c:
                    out[k] += a * b * c
    return out


def _reference_check_automorphism(algebra, phi):
    """A copy of the automorphism check over the dense table."""
    report = ValidationReport("automorphism")
    n = algebra.dim
    if len(phi) != n or any(len(v) != n for v in phi):
        report.add("shape", False, f"expected {n} image vectors of length {n}")
        return report
    if all(isinstance(c, (int, Fraction)) for v in phi for c in v):
        zero = Fraction(0)
    else:
        phi = [[GaussianRational.of(c) for c in v] for v in phi]
        zero = GR_ZERO
    names = algebra.basis_names
    parity_bad = [
        f"{names[i]} -> {names[k]}"
        for i in range(n)
        for k in range(n)
        if phi[i][k] and algebra.parity[k] != algebra.parity[i]
    ]
    report.add("parity_preserving", not parity_bad, ", ".join(parity_bad))
    bracket_bad = []
    for i in range(n):
        for j in range(n):
            lhs = _dense_bracket(algebra, phi[i], phi[j])
            rhs = [zero] * n
            for k, c in enumerate(algebra.constants[i][j]):
                if c:
                    for m in range(n):
                        rhs[m] = rhs[m] + c * phi[k][m]
            if lhs != rhs:
                bracket_bad.append(f"[{names[i]},{names[j]}]")
    report.add("bracket_homomorphism", not bracket_bad, ", ".join(bracket_bad))
    return report


@st.composite
def _maps(draw, n):
    """The identity or the parity sign diag(+-1), with a few entries edited;
    in Gaussian rationals half of the time."""
    signs = [draw(st.sampled_from([1, -1])) for _ in range(n)]
    phi = [[Fraction(signs[i] if i == k else 0) for k in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        phi[i][k] = draw(st.sampled_from([Fraction(0)]) | _SCALARS)
    if draw(st.booleans()):
        phi = [[GaussianRational(c, draw(st.sampled_from([Fraction(0)]) | _SCALARS))
                for c in row] for row in phi]
    return phi


@settings(max_examples=200)
@given(st.data())
def test_bracket_terms_is_the_nonzero_part_of_the_dense_table(data):
    algebra = data.draw(_algebras())
    twin = SuperAlgebra(algebra.name, algebra.basis_names, algebra.parity, algebra.constants)
    before = (hash(algebra), repr(algebra))
    assert algebra.bracket_terms == tuple(
        tuple(tuple((k, c) for k, c in enumerate(vec) if c != 0) for vec in row)
        for row in algebra.constants
    )
    # the cached table is outside equality, hashing and repr
    assert "bracket_terms" in algebra.__dict__ and "bracket_terms" not in twin.__dict__
    assert algebra == twin
    assert (hash(algebra), repr(algebra)) == before == (hash(twin), repr(twin))
    phi = data.draw(_maps(algebra.dim))
    assert (check_automorphism(algebra, phi).to_dict()
            == _reference_check_automorphism(algebra, phi).to_dict())


@pytest.mark.parametrize("call, error, message", [
    (lambda hc: SuperAlgebra("a", ("x",), (1, 1), (((0,),),)),
     StructureError, "a: parity list does not match basis size"),
    (lambda hc: SuperAlgebra("a", ("x",), (2,), (((0,),),)),
     StructureError, "a: parity values must be 0 or 1"),
    (lambda hc: SuperAlgebra("a", ("x",), (1,), (((0, 0),),)),
     StructureError, "a: structure constants must form an 1x1 table of 1-vectors"),
    (lambda hc: hc.index("w"), StructureError, "hc: unknown basis element 'w'"),
    (lambda hc: hc.bracket([1], [1, 0]),
     MismatchError, "hc: coordinate vectors must have length 2"),
], ids=["parity-length", "parity-value", "constants-shape", "unknown-name",
        "bracket-vector-length"])
def test_superalgebra_refusals(hc, call, error, message):
    with pytest.raises(error) as exc:
        call(hc)
    assert str(exc.value) == message
