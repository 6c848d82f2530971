"""The fused representation check: one comparison per representation, with
reports equal to the per-matrix ``np.allclose`` checks it replaced."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superrep.catalog import load_catalog
from superrep.dsl import DslError, parse
from superrep.groups import FINITE, GroupPoint
from superrep.linalg import transpose
from superrep.errors import StructureError
from superrep.reps import MatrixRep, rep_hat, seminorm_interval, validate_rep
from superrep.validation import ValidationReport

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "bench", "fixtures", "bench.sexp")

# the sign character of S3 on a graded plane, over the fixture pair s3perm
S3_SIGN = """
(rep s3sign s3perm
  (grading 1 -1)
  (pi s ((1.0 0.0) (0.0 -1.0)))
  (pi t ((1.0 0.0) (0.0 -1.0)))
  (pi u ((1.0 0.0) (0.0 -1.0))))
"""


def rho_vector(rep: MatrixRep, coords) -> np.ndarray:
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for i, c in enumerate(coords):
        c = complex(c)
        if c:
            out += c * rep.rho[i]
    return out


def _label(label, lhs, rhs) -> str:
    """``label``, marked when a witness has a NaN or an infinite entry."""
    if np.isfinite(lhs).all() and np.isfinite(rhs).all():
        return str(label)
    return f"{label} (non-finite witness)"


def allclose_validate_rep(rep: MatrixRep, tol: float = 1e-9) -> ValidationReport:
    """The per-matrix check that the fused one replaced: one ``np.allclose``
    per basis pair, group element, point and generator."""
    report = ValidationReport(f"representation {rep.name}")
    pair = rep.pair
    algebra = pair.algebra
    n = rep.dim
    eye = np.eye(n)

    diag_ok = np.allclose(rep.grading, np.diag(np.diag(rep.grading)), atol=tol) and \
        np.allclose(np.abs(np.diag(rep.grading)), 1.0, atol=tol) and \
        np.allclose(rep.grading.imag, 0.0, atol=tol)
    report.add("grading_diagonal_sign", bool(diag_ok))
    report.add("grading_involutive", bool(np.allclose(rep.grading @ rep.grading, eye, atol=tol)))

    if len(rep.rho) != algebra.dim:
        report.add("rho_shape", False, "one matrix per basis element required")
        return report
    report.add("rho_shape", all(m.shape == (n, n) for m in rep.rho))

    if pair.group.kind == FINITE:
        size = pair.group.finite.size
        if rep.pi_table is None or len(rep.pi_table) != size:
            report.add("pi_table", False, "one unitary matrix per group element required")
            return report
        names = pair.group.finite.element_names
        unitary_bad = [
            _label(names[g], pi @ pi.conj().T, eye)
            for g, pi in enumerate(rep.pi_table)
            if not np.allclose(pi @ pi.conj().T, eye, atol=tol)
        ]
        report.add("pi_unitary", not unitary_bad, ", ".join(unitary_bad))
        hom_bad = []
        for a in range(size):
            for b in range(size):
                lhs = rep.pi_table[a] @ rep.pi_table[b]
                rhs = rep.pi_table[pair.group.finite.table[a][b]]
                if not np.allclose(lhs, rhs, atol=tol):
                    hom_bad.append(_label((a, b), lhs, rhs))
        report.add("pi_homomorphism", not hom_bad,
                   f"pairs [{', '.join(hom_bad)}]" if hom_bad else "")
        comm_bad = [
            _label(names[g], pi @ rep.grading, rep.grading @ pi)
            for g, pi in enumerate(rep.pi_table)
            if not np.allclose(pi @ rep.grading, rep.grading @ pi, atol=tol)
        ]
        report.add("grading_commutes_with_group", not comm_bad, ", ".join(comm_bad))
    else:
        if rep.pi_table is not None:
            report.add("frequency", False, "line representation takes no pi_table")
            return report
        report.add("frequency", True)
        rho_z = rep.rho[pair.generator_index]
        iii_ok = np.allclose(rho_z, 1j * np.diag(np.diag(rho_z).imag), atol=tol)
        report.add(
            "derived_generator",
            bool(iii_ok),
            "" if iii_ok else "rho(z) must be i*diag(nu) with nu real",
        )

    bracket_bad = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            sign = -1.0 if (algebra.parity[i] and algebra.parity[j]) else 1.0
            lhs = rep.rho[i] @ rep.rho[j] - sign * rep.rho[j] @ rep.rho[i]
            rhs = rho_vector(rep, algebra.constants[i][j])
            if not np.allclose(lhs, rhs, atol=tol):
                label = f"[{algebra.basis_names[i]},{algebra.basis_names[j]}]"
                bracket_bad.append(_label(label, lhs, rhs))
    report.add("bracket_morphism", not bracket_bad, ", ".join(bracket_bad))

    sym_bad = [
        _label(algebra.basis_names[i], rep.rho[i].conj().T, -1j * rep.rho[i])
        for i in algebra.odd_indices()
        if not np.allclose(rep.rho[i].conj().T, -1j * rep.rho[i], atol=tol)
    ]
    report.add("odd_symmetry", not sym_bad, ", ".join(sym_bad))

    skew_bad = [
        _label(algebra.basis_names[i], rep.rho[i].conj().T, -rep.rho[i])
        for i in algebra.even_indices()
        if not np.allclose(rep.rho[i].conj().T, -rep.rho[i], atol=tol)
    ]
    report.add("even_skew_adjoint", not skew_bad, ", ".join(skew_bad))

    cov_bad = []
    points = list(pair.points()) if pair.group.kind == FINITE else [
        GroupPoint(1.0, False), GroupPoint(0.5, True), GroupPoint(0.0, True)
    ]
    for point in points:
        pg = rep.pi(point)
        pg_inv = pg.conj().T
        images = transpose(pair.ad_point(point))
        for i in range(algebra.dim):
            moved, target = pg @ rep.rho[i] @ pg_inv, rho_vector(rep, images[i])
            if not np.allclose(moved, target, atol=tol):
                label = f"Ad{point!r} on {algebra.basis_names[i]}"
                cov_bad.append(_label(label, moved, target))
    report.add("covariance", not cov_bad, ", ".join(cov_bad))
    return report


def _shipped_reps() -> list[MatrixRep]:
    ws = load_catalog()
    with open(FIXTURES, encoding="utf-8") as fh:
        parse(fh.read() + S3_SIGN, ws)
    return list(ws.reps.values())


SHIPPED = _shipped_reps()
PARTS = ("grading", "rho", "group", "all")


def _perturbed(rep: MatrixRep, part: str, scale: float, seed: int) -> MatrixRep:
    """Noise of the given scale on about half the entries of one part."""
    rng = np.random.default_rng(seed)

    def noisy(m, real_diagonal=False):
        mask = rng.random(m.shape) < 0.5
        noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        if real_diagonal:
            np.fill_diagonal(noise, noise.diagonal().real)
        return m + np.where(mask, scale * noise, 0)

    touch = {part} if part != "all" else set(PARTS)
    grading = noisy(rep.grading) if "grading" in touch else rep.grading
    rho = tuple(noisy(m) for m in rep.rho) if "rho" in touch else rep.rho
    pi_table = rep.pi_table
    if "group" in touch:
        if pi_table is not None:
            pi_table = tuple(noisy(m) for m in pi_table)
        else:
            # the line's group layer is exp(t rho(z)): noise off the diagonal
            # of rho(z) and on the real part of its diagonal
            z = rep.pair.generator_index
            rho = rho[:z] + (noisy(rho[z], real_diagonal=True),) + rho[z + 1:]
    return MatrixRep(f"{rep.name}~", rep.pair, grading, rho, pi_table=pi_table)


def test_shipped_reps_cover_finite_and_line():
    kinds = {rep.pair.group.kind for rep in SHIPPED}
    assert kinds == {"finite", "line"}
    assert any(rep.pair.name == "s3perm" for rep in SHIPPED)


@settings(max_examples=300)
@example(0, "all", -9.0, 0)
@example(0, "rho", -3.0, 1)
@given(
    st.integers(0, len(SHIPPED) - 1),
    st.sampled_from(PARTS),
    st.floats(-12.0, -3.0),
    st.integers(0, 2**32 - 1),
)
def test_fused_report_equals_allclose_report(index, part, exponent, seed):
    """Reports, failures and their details included, are those of the
    per-matrix np.allclose checks, for noise from far below to far above
    the tolerance."""
    rep = _perturbed(SHIPPED[index], part, 10.0 ** exponent, seed)
    assert validate_rep(rep).to_dict() == allclose_validate_rep(rep).to_dict()


def test_shipped_reports_equal_allclose_reports():
    for rep in SHIPPED:
        assert validate_rep(rep).to_dict() == allclose_validate_rep(rep).to_dict()


@pytest.mark.parametrize("name", ["hc-rep-2", "reg4", "s3sign", "hc2-rep-1"])
def test_one_isclose_per_rep(monkeypatch, name):
    rep = next(r for r in SHIPPED if r.name == name)
    calls = []
    isclose = np.isclose

    def counted(*args, **kwargs):
        calls.append(args)
        return isclose(*args, **kwargs)

    monkeypatch.setattr(np, "isclose", counted)
    assert validate_rep(rep).ok
    assert len(calls) == 1


def test_validation_failure_text_is_pinned():
    src = ("(superalgebra tiny (basis (z even) (x odd)) (bracket x x (1 z)))\n"
           "(pair tinyline tiny (line z))\n"
           "(rep bad tinyline (grading 1 1)\n"
           "  (rho z ((1.0i 0.5) (-0.5 1.0i)))\n"
           "  (rho x ((0.0 (c 0.5 0.5)) ((c 0.5 0.5) 1.0))))")
    with pytest.raises(DslError) as exc:
        parse(src)
    assert str(exc.value) == (
        "3:1: representation 'bad' fails validation ("
        "derived_generator: rho(z) must be i*diag(nu) with nu real; "
        "bracket_morphism: [z,x], [x,z], [x,x]; odd_symmetry: x; "
        "covariance: Ad(0.5, eps) on x, Ad(0.0, eps) on x)"
    )


def _check_names(report):
    return [(c.name, c.ok, c.detail) for c in report.checks]


def test_wrongly_shaped_rho_fails_rho_shape():
    chi = next(r for r in SHIPPED if r.name == "chi-pp")
    bad = MatrixRep("bad", chi.pair, chi.grading, (np.eye(3),), pi_table=chi.pi_table)
    assert _check_names(validate_rep(bad)) == [
        ("grading_diagonal_sign", True, ""),
        ("grading_involutive", True, ""),
        ("rho_shape", False, ""),
    ]


def test_wrongly_shaped_pi_fails_pi_table():
    chi = next(r for r in SHIPPED if r.name == "chi-pp")
    table = (np.eye(3, dtype=complex),) + chi.pi_table[1:]
    bad = MatrixRep("bad", chi.pair, chi.grading, chi.rho, pi_table=table)
    assert _check_names(validate_rep(bad))[-1] == (
        "pi_table", False, "one unitary matrix per group element required"
    )
    assert not validate_rep(bad).ok


@pytest.mark.parametrize("name, field, last", [
    ("chi-pp", "pi_table", "pi_table"),
])
def test_group_shape_failure_follows_a_passing_rho_shape(name, field, last):
    rep = next(r for r in SHIPPED if r.name == name)
    bad = dataclasses.replace(rep, name="bad", **{field: None})
    assert [(c.name, c.ok) for c in validate_rep(bad).checks] == [
        ("grading_diagonal_sign", True), ("grading_involutive", True),
        ("rho_shape", True), (last, False),
    ]


@pytest.mark.parametrize("grading", [
    np.ones((2, 3)), np.ones(2), np.ones(()), np.ones((2, 2, 2)),
], ids=["2x3", "vector", "scalar", "3d"])
def test_grading_that_is_not_square_is_the_only_failing_row(grading):
    shipped = next(r for r in SHIPPED if r.name == "hc-rep-2")
    rep = MatrixRep("bad", shipped.pair, grading, shipped.rho)
    report = validate_rep(rep)
    assert _check_names(report) == [
        ("grading_shape", False, "grading must be a square matrix"),
    ]
    assert _check_names(rep.report) == _check_names(report)


@pytest.mark.parametrize("name, field, value, row", [
    ("hc-rep-2", "pi_table", (np.eye(2, dtype=complex),),
     ("frequency", False, "line representation takes no pi_table")),
], ids=["line-with-pi-table"])
def test_a_group_field_of_the_other_kind_is_refused(name, field, value, row):
    shipped = next(r for r in SHIPPED if r.name == name)
    rep = dataclasses.replace(shipped, **{field: value})
    report = validate_rep(rep)
    assert _check_names(report) == [
        ("grading_diagonal_sign", True, ""), ("grading_involutive", True, ""),
        ("rho_shape", True, ""), row,
    ]
    assert report.to_dict() == allclose_validate_rep(rep).to_dict()


@pytest.mark.parametrize("field", ["name", "pair", "grading", "rho", "pi_table", "words"])
def test_fields_cannot_be_reassigned(field):
    rep = next(r for r in SHIPPED if r.name == "reg4")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rep, field, getattr(rep, field))


@pytest.mark.parametrize("name, field, value", [
    ("hc-rep-2", "rho", "first"),
    ("hc-rep-2", "rho", "wide"),
    ("reg4", "pi_table", None),
    ("reg4", "rho", "wide"),
])
def test_a_broken_copy_carries_its_own_failing_report(name, field, value):
    """A copy of a validated representation, broken in shape, fails its own
    report, which rep_hat refuses; the original keeps its passing one."""
    shipped = next(r for r in SHIPPED if r.name == name)
    if value == "first":
        value = shipped.rho[:1]
    elif value == "wide":
        value = tuple(np.zeros((shipped.dim, shipped.dim + 1)) for _ in shipped.rho)
    rep = dataclasses.replace(shipped, **{field: value})
    assert shipped.report.ok and not rep.report.ok
    a = next(e for e in load_catalog().elements.values() if e.pair == rep.pair)
    with pytest.raises(StructureError, match=f"representation {name} failed validation"):
        rep_hat(rep, a)


def test_reps_with_equal_arrays_are_distinct_and_hashable():
    shipped = next(r for r in SHIPPED if r.name == "reg4")
    copy = MatrixRep(shipped.name, shipped.pair, shipped.grading.copy(),
                     tuple(m.copy() for m in shipped.rho),
                     pi_table=tuple(m.copy() for m in shipped.pi_table))
    assert copy != shipped and not copy == shipped and copy == copy
    assert len({copy, shipped}) == 2


def test_the_report_is_computed_once_and_validate_rep_computes_afresh():
    shipped = next(r for r in SHIPPED if r.name == "hc-rep-2")
    rep = dataclasses.replace(shipped)
    kept = rep.report
    assert rep.report is kept and kept.ok
    fresh = validate_rep(rep)
    assert fresh is not kept and fresh.to_dict() == kept.to_dict()
    assert rep.report is kept


def test_an_unvalidated_rep_gets_no_norm_and_no_interval():
    """hc-rep-2 with every rho scaled by 50 is not a representation, and
    only validate_rep can mark a representation validated, so rep_hat and
    the seminorm refuse it instead of reporting a norm above the certified
    bound."""
    shipped = next(r for r in SHIPPED if r.name == "hc-rep-2")
    rep = MatrixRep("scaled", shipped.pair, shipped.grading,
                    tuple(50 * m for m in shipped.rho))
    ax = load_catalog("hc").elements["ax"]
    for call in (lambda: rep_hat(rep, ax), lambda: seminorm_interval(ax, [rep])):
        with pytest.raises(StructureError, match="representation scaled failed validation"):
            call()


def test_zero_dimensional_algebra_and_space():
    ws = parse("(superalgebra a (basis))\n"
               "(pair p a (finite (elements e s) (table (e s) (s e))))\n"
               "(superalgebra b (basis (x odd)))\n"
               "(pair q b (finite (elements e) (table (e))))")
    empty = np.zeros((0, 0), dtype=complex)
    reps = [
        MatrixRep("r", ws.pairs["p"], np.eye(2, dtype=complex), (),
                  pi_table=(np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))),
        MatrixRep("zero", ws.pairs["q"], empty, (empty,), pi_table=(empty,)),
    ]
    for rep in reps:
        assert validate_rep(rep).to_dict() == allclose_validate_rep(rep).to_dict()
        assert validate_rep(rep).ok


def test_nonfinite_entries_match_allclose():
    rep = next(r for r in SHIPPED if r.name == "hc-rep-1")
    for value in (math.inf, -math.inf, math.nan, complex(math.inf, 1.0)):
        rho_x = rep.rho[1].copy()
        rho_x[0, 1] = value
        bad = MatrixRep("bad", rep.pair, rep.grading, (rep.rho[0], rho_x))
        # validate_rep forms its witnesses without a warning of its own
        report = validate_rep(bad).to_dict()
        with np.errstate(all="ignore"):
            assert report == allclose_validate_rep(bad).to_dict()
