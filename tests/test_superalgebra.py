from fractions import Fraction

import pytest

from superrep.errors import StructureError
from superrep.superalgebra import (
    build_superalgebra,
    is_nilpotent,
    is_odd_generated,
    lower_central_series,
    validate_superalgebra,
)


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
